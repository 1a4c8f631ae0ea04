// Owned transcendentals — see vmath.h for the contract. Like gemm.cpp this
// translation unit builds with -O3, the host's vector ISA and
// floating-point contraction OFF. Each kernel is written once, as a
// template over an operation vocabulary that has a one-double (Scalar) and
// a four-lane (Avx2) implementation of the same IEEE operations; with every
// multiply and add explicit and nothing fused, the two instantiations give
// the same bits per element.
#include "nn/vmath.h"

#include <array>
#include <bit>
#include <cstdint>

#include "common/error.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace vkey::nn {

namespace {

constexpr double kLog2e = 0x1.71547652b82fep0;
// ln2 split so that n * kLn2Hi is exact for |n| < 2^21 (kLn2Hi has 21
// trailing zero bits) and kLn2Lo carries the next 53 bits.
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
// Adding 1.5 * 2^52 rounds a |v| < 2^51 to the nearest integer.
constexpr double kShifter = 0x1.8p52;
// kShifter + 1023 + k holds the biased exponent 1023 + k in its low bits,
// so shifting its bit pattern left by 52 yields the double 2^k.
constexpr double kBias = kShifter + 1023.0;
// Clamp range of the exp argument: every value past it already overflows
// to +inf or underflows to +0, and inside it n stays in [-1076, 1024], so
// both halves of the 2^n split are normal.
constexpr double kExpLo = -746.0;
constexpr double kExpHi = 710.0;
// tanh(x) is exactly +-1 in double once |x| > ~19.06; clamping -2|x| at
// -40 keeps its single 2^n factor normal.
constexpr double kTanhArgLo = -40.0;
constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

// 1 / k!, k = 0..13, each correctly rounded (k! is exact in double).
constexpr std::array<double, 14> kInvFact = [] {
  std::array<double, 14> c{};
  double fact = 1.0;
  for (std::size_t k = 0; k < c.size(); ++k) {
    if (k > 0) fact *= static_cast<double>(k);
    c[k] = 1.0 / fact;
  }
  return c;
}();

// ---- The two instruction sets, as one operation vocabulary. -------------
//
// min/max/select follow the AVX2 operand rules exactly, so the scalar
// forms agree with the vector ones on every input, NaN included.

struct Scalar {
  using V = double;
  static V set(double c) { return c; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V mul(V a, V b) { return a * b; }
  static V div(V a, V b) { return a / b; }
  static V max(V a, V b) { return a > b ? a : b; }  // maxpd: b unless a > b
  static V min(V a, V b) { return a < b ? a : b; }  // minpd: b unless a < b
  static std::uint64_t bits(V a) { return std::bit_cast<std::uint64_t>(a); }
  static V from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }
  static V abs(V a) { return from_bits(bits(a) & ~kSignBit); }
  static V neg(V a) { return from_bits(bits(a) ^ kSignBit); }
  /// |mag| carrying the sign bit of `sign`.
  static V with_sign(V mag, V sign) {
    return from_bits((bits(mag) & ~kSignBit) | (bits(sign) & kSignBit));
  }
  /// 2^k for an integer-valued k with -1022 <= k <= 1023.
  static V pow2i(V k) { return from_bits(bits(add(k, kBias)) << 52); }
  /// x >= 0 ? a : b (b for NaN).
  static V if_nonneg(V x, V a, V b) { return x >= 0.0 ? a : b; }
  /// NaN x gives x + x (x quieted); anything else gives y.
  static V nan_or(V x, V y) { return x != x ? x + x : y; }
};

#if defined(__AVX2__)
struct Avx2 {
  using V = __m256d;
  static V set(double c) { return _mm256_set1_pd(c); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V div(V a, V b) { return _mm256_div_pd(a, b); }
  static V max(V a, V b) { return _mm256_max_pd(a, b); }
  static V min(V a, V b) { return _mm256_min_pd(a, b); }
  static V sign_mask() {
    return _mm256_castsi256_pd(
        _mm256_set1_epi64x(static_cast<long long>(kSignBit)));
  }
  static V abs(V a) { return _mm256_andnot_pd(sign_mask(), a); }
  static V neg(V a) { return _mm256_xor_pd(a, sign_mask()); }
  static V with_sign(V mag, V sign) {
    return _mm256_or_pd(abs(mag), _mm256_and_pd(sign, sign_mask()));
  }
  static V pow2i(V k) {
    return _mm256_castsi256_pd(
        _mm256_slli_epi64(_mm256_castpd_si256(add(k, set(kBias))), 52));
  }
  static V if_nonneg(V x, V a, V b) {
    return _mm256_blendv_pd(
        b, a, _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_GE_OQ));
  }
  static V nan_or(V x, V y) {
    return _mm256_blendv_pd(y, add(x, x), _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
  }
};
#endif

// ---- Kernels, written once. ----------------------------------------------

/// e^v = 2^n (1 + em) for a clamped v: Cody–Waite reduction to
/// r = v - n ln2 (|r| <= ln2 / 2), then em = e^r - 1 = r + r^2 Q(r) with
/// Q(r) = sum_{k=2..13} r^(k-2) / k! (the first dropped term is below
/// 2^-57 relative) by Estrin's scheme: a short dependency chain, and Q's
/// rounding is damped by r^2 <= 0.121.
template <class O>
void reduce(typename O::V v, typename O::V& n, typename O::V& em) {
  using V = typename O::V;
  const V kd = O::add(O::mul(v, O::set(kLog2e)), O::set(kShifter));
  n = O::sub(kd, O::set(kShifter));
  const V r = O::sub(O::sub(v, O::mul(n, O::set(kLn2Hi))),
                     O::mul(n, O::set(kLn2Lo)));
  const V r2 = O::mul(r, r);
  const V r4 = O::mul(r2, r2);
  auto pair = [&](std::size_t k) {
    return O::add(O::set(kInvFact[k]), O::mul(O::set(kInvFact[k + 1]), r));
  };
  const V b0 = O::add(pair(2), O::mul(pair(4), r2));
  const V b1 = O::add(pair(6), O::mul(pair(8), r2));
  const V b2 = O::add(pair(10), O::mul(pair(12), r2));
  const V q = O::add(O::add(b0, O::mul(b1, r4)), O::mul(b2, O::mul(r4, r4)));
  em = O::add(r, O::mul(r2, q));
}

/// e^v for v in [kExpLo, kExpHi]. 2^n is applied as two exact power-of-two
/// factors (n in [-1076, 1024] splits into halves in [-538, 512]), so a
/// subnormal result rounds once, at the last multiply.
template <class O>
typename O::V exp_clamped(typename O::V v) {
  using V = typename O::V;
  V n, em;
  reduce<O>(v, n, em);
  const V p = O::add(O::set(1.0), em);
  const V h = O::sub(O::add(O::mul(n, O::set(0.5)), O::set(kShifter)),
                     O::set(kShifter));
  return O::mul(O::mul(p, O::pow2i(h)), O::pow2i(O::sub(n, h)));
}

struct Exp {
  template <class O>
  static typename O::V run(typename O::V x) {
    const auto v = O::min(O::max(x, O::set(kExpLo)), O::set(kExpHi));
    return O::nan_or(x, exp_clamped<O>(v));
  }
};

/// tanh|x| = -m / (2 + m) with m = expm1(-2|x|) in (-1, 0]: the expm1 form
/// has no cancellation anywhere, so one formula covers 0 through
/// saturation. From the reduction of v = -2|x|, m = 2^n em + (2^n - 1),
/// where 2^n - 1 is exact for the n that matter and n = 0 (|x| <= 0.17)
/// gives m = em outright. The sign is copied from x, so tanh is odd.
struct Tanh {
  template <class O>
  static typename O::V run(typename O::V x) {
    using V = typename O::V;
    const V ax = O::abs(x);
    const V v = O::max(O::neg(O::add(ax, ax)), O::set(kTanhArgLo));
    V n, em;
    reduce<O>(v, n, em);
    const V s = O::pow2i(n);
    const V m = O::add(O::mul(s, em), O::sub(s, O::set(1.0)));
    const V t = O::div(O::neg(m), O::add(O::set(2.0), m));
    return O::nan_or(x, O::with_sign(t, x));
  }
};

/// e = e^-|x|, then 1 / (1 + e) for x >= 0 and e / (1 + e) below: the two
/// halves share e and the denominator, which is what makes
/// sigmoid(x) + sigmoid(-x) one to within an ulp.
struct Sigmoid {
  template <class O>
  static typename O::V run(typename O::V x) {
    using V = typename O::V;
    const V e = exp_clamped<O>(O::max(O::neg(O::abs(x)), O::set(kExpLo)));
    const V d = O::add(O::set(1.0), e);
    return O::nan_or(x, O::div(O::if_nonneg(x, O::set(1.0), e), d));
  }
};

template <class K>
void run_scalar(std::span<const double> x, std::span<double> y,
                std::size_t from) {
  for (std::size_t i = from; i < x.size(); ++i)
    y[i] = K::template run<Scalar>(x[i]);
}

template <class K>
void run(std::span<const double> x, std::span<double> y, bool vector) {
  VKEY_REQUIRE(x.size() == y.size(), "vmath: input/output size mismatch");
  std::size_t i = 0;
#if defined(__AVX2__)
  if (vector) {
    for (; i + 4 <= x.size(); i += 4) {
      _mm256_storeu_pd(y.data() + i,
                       K::template run<Avx2>(_mm256_loadu_pd(x.data() + i)));
    }
  }
#else
  (void)vector;
#endif
  run_scalar<K>(x, y, i);
}

}  // namespace

void vexp(std::span<const double> x, std::span<double> y) {
  run<Exp>(x, y, true);
}

void vtanh(std::span<const double> x, std::span<double> y) {
  run<Tanh>(x, y, true);
}

void vsigmoid(std::span<const double> x, std::span<double> y) {
  run<Sigmoid>(x, y, true);
}

namespace vmath_scalar {

void vexp(std::span<const double> x, std::span<double> y) {
  run<Exp>(x, y, false);
}

void vtanh(std::span<const double> x, std::span<double> y) {
  run<Tanh>(x, y, false);
}

void vsigmoid(std::span<const double> x, std::span<double> y) {
  run<Sigmoid>(x, y, false);
}

}  // namespace vmath_scalar

bool vmath_has_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace vkey::nn
