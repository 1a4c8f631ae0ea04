// The owned transcendentals (nn/vmath.h): the scalar and AVX2 paths agree
// bit for bit, each function meets its ulp bound against a long double
// reference, specials and saturation behave, sigmoid is symmetric and all
// three are monotone — plus the interleaved BiLSTM built on them still
// equals its naive reference.
#include "nn/vmath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "nn/lstm.h"

namespace vkey::nn {
namespace {

using Fn = void (*)(std::span<const double>, std::span<double>);

struct Pair {
  const char* name;
  Fn vec;
  Fn scalar;
};
const Pair kFns[] = {{"vexp", vexp, vmath_scalar::vexp},
                     {"vtanh", vtanh, vmath_scalar::vtanh},
                     {"vsigmoid", vsigmoid, vmath_scalar::vsigmoid}};

std::vector<double> run(Fn f, const std::vector<double>& x) {
  std::vector<double> y(x.size());
  f(x, y);
  return y;
}

double run1(Fn f, double x) {
  double y = 0.0;
  f(std::span<const double>(&x, 1), std::span<double>(&y, 1));
  return y;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// |got - ref| in units of the ulp of ref rounded to double.
double ulp_error(double got, long double ref) {
  const double r = static_cast<double>(ref);
  if (r == 0.0) return got == 0.0 ? 0.0 : std::numeric_limits<double>::max();
  const int e = std::max(std::ilogb(r), std::numeric_limits<double>::min_exponent - 1);
  const long double ulp = std::ldexp(1.0L, e - 52);
  return static_cast<double>(std::fabs(static_cast<long double>(got) - ref) / ulp);
}

long double ref_exp(double x) { return std::exp(static_cast<long double>(x)); }
long double ref_tanh(double x) { return std::tanh(static_cast<long double>(x)); }
long double ref_sigmoid(double x) {
  return 1.0L / (1.0L + std::exp(-static_cast<long double>(x)));
}

std::vector<double> sweep(double lo, double hi, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  return x;
}

TEST(Vmath, ScalarAndAvx2PathsBitIdentical) {
  // Half the inputs across the whole exp range, half in [-1, 1] where tanh
  // switches formulas and sigmoid branches on the sign.
  vkey::Rng rng(9001);
  std::vector<double> x(1'000'000);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = i % 2 == 0 ? rng.uniform(-750.0, 750.0) : rng.uniform(-1.0, 1.0);
  for (const Pair& f : kFns) {
    const auto want = run(f.scalar, x);
    const auto got = run(f.vec, x);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
      mismatches += bits(got[i]) != bits(want[i]) ? 1 : 0;
    EXPECT_EQ(mismatches, 0u) << f.name;
    // Every tail length, at shifting offsets, and in place.
    for (std::size_t n = 1; n <= 9; ++n) {
      for (std::size_t off = 0; off < 4; ++off) {
        const std::span<const double> in(x.data() + 2 * off, n);
        std::vector<double> out(n);
        f.vec(in, out);
        std::vector<double> inplace(in.begin(), in.end());
        f.vec(inplace, inplace);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(bits(out[i]), bits(want[2 * off + i]))
              << f.name << " n=" << n << " i=" << i;
          EXPECT_EQ(bits(inplace[i]), bits(want[2 * off + i]))
              << f.name << " in place n=" << n << " i=" << i;
        }
      }
    }
  }
  if (!vmath_has_avx2()) GTEST_SKIP() << "no AVX2 path in this build";
}

TEST(Vmath, ExpWithinOneAndAHalfUlp) {
  const auto x = sweep(-708.0, 709.0, 1'000'001);
  const auto y = run(vexp, x);
  double worst = 0.0;
  double at = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = ulp_error(y[i], ref_exp(x[i]));
    if (e > worst) worst = e, at = x[i];
  }
  EXPECT_LE(worst, 1.5) << "at x=" << at;
}

TEST(Vmath, TanhAndSigmoidWithinThreeUlp) {
  const auto x = sweep(-40.0, 40.0, 1'000'001);
  const auto t = run(vtanh, x);
  const auto s = run(vsigmoid, x);
  double worst_t = 0.0, worst_s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    worst_t = std::max(worst_t, ulp_error(t[i], ref_tanh(x[i])));
    worst_s = std::max(worst_s, ulp_error(s[i], ref_sigmoid(x[i])));
  }
  EXPECT_LE(worst_t, 3.0);
  EXPECT_LE(worst_s, 3.0);
  // Densely around 0, where tanh's expm1 form must not lose digits.
  for (double v = 1e-12; v < 1.0; v *= 1.001) {
    for (double sv : {v, -v}) {
      EXPECT_LE(ulp_error(run1(vtanh, sv), ref_tanh(sv)), 3.0) << sv;
      EXPECT_LE(ulp_error(run1(vsigmoid, sv), ref_sigmoid(sv)), 3.0) << sv;
    }
  }
}

TEST(Vmath, SpecialValuesAndSwitchPoints) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kSub = std::numeric_limits<double>::denorm_min() * 12345.0;

  // Inputs checked for scalar/vector bit identity on top of the values.
  std::vector<double> specials = {0.0,  -0.0, kSub, -kSub, kInf, -kInf,
                                  kNaN, 20.0, -20.0, 710.0, -710.0};
  // Both sides of every branch or switch point: exp's clamp bounds and its
  // overflow / underflow thresholds, tanh's formula switch, sigmoid's sign.
  for (double p : {-746.0, 710.0, 709.782712893384, -745.1332191019411,
                   -708.3964185322641, 0.55, -0.55, 0.0}) {
    specials.push_back(std::nextafter(p, -kInf));
    specials.push_back(p);
    specials.push_back(std::nextafter(p, kInf));
  }
  for (const Pair& f : kFns) {
    const auto want = run(f.scalar, specials);
    const auto got = run(f.vec, specials);
    for (std::size_t i = 0; i < specials.size(); ++i)
      EXPECT_EQ(bits(got[i]), bits(want[i])) << f.name << " x=" << specials[i];
  }

  // exp
  EXPECT_EQ(run1(vexp, 0.0), 1.0);
  EXPECT_EQ(run1(vexp, -0.0), 1.0);
  EXPECT_EQ(run1(vexp, kSub), 1.0);
  EXPECT_EQ(run1(vexp, -kSub), 1.0);
  EXPECT_EQ(run1(vexp, kInf), kInf);
  EXPECT_EQ(bits(run1(vexp, -kInf)), bits(0.0));
  EXPECT_TRUE(std::isnan(run1(vexp, kNaN)));
  EXPECT_EQ(run1(vexp, 710.0), kInf);
  EXPECT_EQ(run1(vexp, std::nextafter(709.782712893384, kInf)), kInf);
  EXPECT_LE(ulp_error(run1(vexp, 709.782712893384), ref_exp(709.782712893384)),
            1.5);
  EXPECT_EQ(bits(run1(vexp, -746.0)), bits(0.0));
  EXPECT_EQ(bits(run1(vexp, -1e300)), bits(0.0));
  // Subnormal results round once: within half an ulp of the subnormal grid
  // plus the kernel's error, and positive down to the last subnormal.
  for (double v : {-708.5, -710.0, -720.0, -740.0, -745.0}) {
    const double got = run1(vexp, v);
    EXPECT_GT(got, 0.0) << v;
    EXPECT_LT(std::fabs(static_cast<long double>(got) - ref_exp(v)),
              std::numeric_limits<double>::denorm_min()) << v;
  }
  EXPECT_EQ(run1(vexp, -745.0), std::exp(-745.0));

  // tanh: odd, exact at 0 and for subnormals, saturated at +-20.
  EXPECT_EQ(bits(run1(vtanh, 0.0)), bits(0.0));
  EXPECT_EQ(bits(run1(vtanh, -0.0)), bits(-0.0));
  EXPECT_EQ(run1(vtanh, kSub), kSub);
  EXPECT_EQ(run1(vtanh, -kSub), -kSub);
  EXPECT_EQ(run1(vtanh, kInf), 1.0);
  EXPECT_EQ(run1(vtanh, -kInf), -1.0);
  EXPECT_TRUE(std::isnan(run1(vtanh, kNaN)));
  EXPECT_EQ(run1(vtanh, 20.0), 1.0);
  EXPECT_EQ(run1(vtanh, -20.0), -1.0);
  EXPECT_EQ(run1(vtanh, 710.0), 1.0);
  EXPECT_EQ(run1(vtanh, -710.0), -1.0);
  for (double p : {0.55, -0.55}) {
    for (double v : {std::nextafter(p, 0.0), p, std::nextafter(p, 2 * p)})
      EXPECT_LE(ulp_error(run1(vtanh, v), ref_tanh(v)), 3.0) << v;
  }

  // sigmoid: 1/2 at both zeros, saturates, subnormal tail below -708.
  EXPECT_EQ(run1(vsigmoid, 0.0), 0.5);
  EXPECT_EQ(run1(vsigmoid, -0.0), 0.5);
  EXPECT_EQ(run1(vsigmoid, kSub), 0.5);
  EXPECT_EQ(run1(vsigmoid, -kSub), 0.5);
  EXPECT_EQ(run1(vsigmoid, kInf), 1.0);
  EXPECT_EQ(bits(run1(vsigmoid, -kInf)), bits(0.0));
  EXPECT_TRUE(std::isnan(run1(vsigmoid, kNaN)));
  EXPECT_EQ(run1(vsigmoid, 40.0), 1.0);
  EXPECT_EQ(run1(vsigmoid, 710.0), 1.0);
  EXPECT_EQ(run1(vsigmoid, -710.0), run1(vexp, -710.0));
  EXPECT_EQ(bits(run1(vsigmoid, -750.0)), bits(0.0));
  EXPECT_LE(ulp_error(run1(vsigmoid, -20.0), ref_sigmoid(-20.0)), 3.0);
  EXPECT_LE(ulp_error(run1(vsigmoid, 20.0), ref_sigmoid(20.0)), 3.0);
}

TEST(Vmath, SigmoidIsSymmetricToAnUlp) {
  const auto x = sweep(-40.0, 40.0, 200'001);
  std::vector<double> neg(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) neg[i] = -x[i];
  const auto s = run(vsigmoid, x);
  const auto sn = run(vsigmoid, neg);
  const long double one_ulp = std::ldexp(1.0L, -52);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const long double sum =
        static_cast<long double>(s[i]) + static_cast<long double>(sn[i]);
    EXPECT_LE(std::fabs(sum - 1.0L), one_ulp) << "x=" << x[i];
  }
}

TEST(Vmath, MonotoneNonDecreasing) {
  struct Range {
    Fn f;
    const char* name;
    double lo, hi;
  };
  for (const Range& r : {Range{vexp, "vexp", -750.0, 750.0},
                         Range{vtanh, "vtanh", -40.0, 40.0},
                         Range{vsigmoid, "vsigmoid", -40.0, 40.0}}) {
    const auto x = sweep(r.lo, r.hi, 1'000'000);
    const auto y = run(r.f, x);
    for (std::size_t i = 1; i < y.size(); ++i)
      ASSERT_LE(y[i - 1], y[i]) << r.name << " at x=" << x[i];
  }
  // Finely across each switch point: 4000 steps of 1e-12, thousands of
  // ulps each, so a jump between the two formulas would show.
  const std::pair<Fn, double> kSwitches[] = {
      {vtanh, 0.55}, {vtanh, -0.55}, {vsigmoid, 0.0}, {vexp, 0.0}};
  for (const auto& [f, p] : kSwitches) {
    const auto x = sweep(p - 2e-9, p + 2e-9, 4001);
    const auto y = run(f, x);
    for (std::size_t i = 1; i < y.size(); ++i)
      ASSERT_LE(y[i - 1], y[i]) << "near " << p << " at x=" << x[i];
  }
}

TEST(Vmath, InterleavedBiLstmEqualsNaiveReference) {
  // The predictor's shape: 3 features, 32 units, 64 steps, so every gate
  // block runs the AVX2 path in infer() and the scalar path in the
  // reference.
  vkey::Rng rng(9002);
  BiLstm bi(3, 32, rng);
  vkey::Rng xr(9003);
  Seq x(64, Vec(3));
  for (Vec& xt : x)
    for (double& v : xt) v = xr.uniform(-3.0, 3.0);
  EXPECT_EQ(bi.infer(x), bi.infer_reference(x));
}

}  // namespace
}  // namespace vkey::nn
