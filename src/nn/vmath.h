// Owned transcendentals for vkey::nn: exp, tanh and the logistic sigmoid
// over spans.
//
// Why this exists: every NN nonlinearity (LSTM gates and cell, Dense
// activations, the predictor's output sigmoid, the BCE loss) used to call
// glibc's scalar exp/tanh. That was the float inference path's floor, and it
// tied every snapshot to whichever exp variant glibc selects for the CPU at
// load time. These functions fix one IEEE-754 operation sequence instead:
//
//   * Scalar and AVX2 paths execute the same operations per element, in the
//     same order, with explicit multiply-then-add (vmath.cpp builds with
//     -ffp-contract=off, like gemm.cpp), so the two are bit-identical on
//     every input. Spans run four elements at a time on AVX2 hosts and the
//     tail (or everything, without AVX2) through the scalar path; any split
//     of a span gives the same bits.
//   * exp: Cody–Waite reduction x = n ln2 + r (two-part ln2), then
//     e^r - 1 = r + r^2 Q(r) with Q the Taylor terms through r^13 by
//     Estrin's scheme, and 2^n applied as two exact power-of-two factors, so
//     subnormal results round once.
//   * tanh: the expm1 form -m / (2 + m) with m = expm1(-2|x|) from the same
//     reduction. It has no cancellation near 0 (m = e^r - 1 directly for
//     |x| <= 0.17) nor anywhere else, so one formula runs from 0 through
//     saturation, and the sign is copied from x.
//   * sigmoid: e = exp(-|x|), then 1 / (1 + e) for x >= 0 and e / (1 + e)
//     below, so sigmoid(x) + sigmoid(-x) is 1 to within an ulp.
//
// Accuracy against a long double reference (tests/nn/test_vmath.cpp): vexp
// within 1.5 ulp on [-708, 709]; vtanh and vsigmoid within 3 ulp on
// [-40, 40]. Saturation and specials follow the libm functions: exp
// overflows to +inf above ~709.78 and underflows through the subnormals to
// +0 below ~-745.1; tanh and sigmoid saturate to exactly +-1 and 0/1; NaN
// in gives NaN out; -0 in gives -0 from tanh.
//
// `y` may alias `x` exactly (in-place evaluation); it must not overlap it
// otherwise. The sizes must match.
#pragma once

#include <span>

namespace vkey::nn {

void vexp(std::span<const double> x, std::span<double> y);
void vtanh(std::span<const double> x, std::span<double> y);
void vsigmoid(std::span<const double> x, std::span<double> y);

/// The scalar element loops behind the functions above, for tests that
/// hold the vector path to them bit for bit.
namespace vmath_scalar {
void vexp(std::span<const double> x, std::span<double> y);
void vtanh(std::span<const double> x, std::span<double> y);
void vsigmoid(std::span<const double> x, std::span<double> y);
}  // namespace vmath_scalar

/// True when this build runs the AVX2 path (otherwise every call is the
/// scalar loop).
bool vmath_has_avx2();

}  // namespace vkey::nn
