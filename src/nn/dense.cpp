#include "nn/dense.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "common/metrics.h"
#include "nn/activations.h"
#include "nn/vmath.h"

namespace vkey::nn {

namespace {

// Hot-path FLOP accounting: register once, then one relaxed atomic add per
// layer pass (multiply+add counted as 2 FLOPs).
metrics::Counter& dense_flops() {
  static metrics::Counter& c =
      metrics::Registry::global().counter("nn.dense.flops");
  return c;
}
metrics::Counter& dense_calls() {
  static metrics::Counter& c =
      metrics::Registry::global().counter("nn.dense.forward_calls");
  return c;
}

}  // namespace

Dense::Dense(std::size_t in, std::size_t out, vkey::Rng& rng, Activation act)
    : in_(in), out_(out), act_(act), w_(in * out), b_(out) {
  VKEY_REQUIRE(in > 0 && out > 0, "Dense sizes must be positive");
  const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
  for (auto& v : w_.value) v = rng.uniform(-bound, bound);
}

const PackedMatrix& Dense::packed() const {
  pack_guard_.ensure(w_.revision,
                     [this] { packed_w_.pack(w_.value.data(), out_, in_); });
  return packed_w_;
}

Vec Dense::infer_reference(const Vec& x) const {
  VKEY_REQUIRE(x.size() == in_, "Dense input size mismatch");
  Vec z(out_);
  for (std::size_t o = 0; o < out_; ++o) {
    double s = b_.value[o];
    const double* wrow = &w_.value[o * in_];
    for (std::size_t i = 0; i < in_; ++i) s += wrow[i] * x[i];
    z[o] = s;
  }
  activate(z.data(), z.size());
  return z;
}

void Dense::activate(double* z, std::size_t n) const {
  switch (act_) {
    case Activation::kNone:
      return;
    case Activation::kSigmoid:
      vsigmoid(std::span<const double>(z, n), std::span<double>(z, n));
      return;
    case Activation::kTanh:
      vtanh(std::span<const double>(z, n), std::span<double>(z, n));
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) z[i] = z[i] > 0 ? z[i] : 0.0;
      return;
  }
  throw vkey::Error("unknown activation");
}

Vec Dense::forward(const Vec& x) {
  VKEY_REQUIRE(x.size() == in_, "Dense input size mismatch");
  last_x_ = x;
  last_y_.resize(out_);
  forward_batch(x.data(), 1, last_y_.data());
  return last_y_;
}

void Dense::forward_batch(const double* x, std::size_t batch,
                          double* y) const {
  if (batch == 0) return;
  dense_calls().add(batch);
  dense_flops().add(2 * static_cast<std::uint64_t>(in_) * out_ * batch);
  const PackedMatrix& pm = packed();
  // matvec_batch takes member pointers; a fixed stack block of them keeps
  // this path allocation-free (per-member arithmetic is the same
  // for any block split).
  constexpr std::size_t kBlock = 64;
  std::array<const double*, kBlock> xp{};
  std::array<double*, kBlock> yp{};
  for (std::size_t b0 = 0; b0 < batch; b0 += kBlock) {
    const std::size_t nb = std::min(kBlock, batch - b0);
    for (std::size_t r = 0; r < nb; ++r) {
      xp[r] = x + (b0 + r) * in_;
      yp[r] = y + (b0 + r) * out_;
    }
    pm.matvec_batch(xp.data(), nb, b_.value.data(), yp.data());
  }
  activate(y, batch * out_);
}

Vec Dense::infer(const Vec& x) const {
  // Validate BEFORE counting: a rejected input must not inflate the FLOP /
  // call counters with work that never ran.
  VKEY_REQUIRE(x.size() == in_, "Dense input size mismatch");
  Vec y(out_);
  forward_batch(x.data(), 1, y.data());
  return y;
}

void Dense::backward_batch(const double* x, const double* y, double* dy,
                           std::size_t batch, double* dx, bool bias_grad) {
  if (batch == 0) return;
  // Fold the activation derivative into the output gradient: dy -> dz.
  const std::size_t n = batch * out_;
  switch (act_) {
    case Activation::kNone:
      break;
    case Activation::kSigmoid:
      for (std::size_t k = 0; k < n; ++k) dy[k] *= dsigmoid_from_y(y[k]);
      break;
    case Activation::kTanh:
      for (std::size_t k = 0; k < n; ++k) dy[k] *= dtanh_from_y(y[k]);
      break;
    case Activation::kRelu:
      for (std::size_t k = 0; k < n; ++k)
        if (y[k] <= 0.0) dy[k] = 0.0;
      break;
  }
  const double* dz = dy;
  if (bias_grad) {
    for (std::size_t r = 0; r < batch; ++r)
      for (std::size_t o = 0; o < out_; ++o) b_.grad[o] += dz[r * out_ + o];
  }
  // dW += dZ^T X: element (o, i) adds dz[r][o] * x[r][i] for r ascending.
  gemm_ordered(out_, in_, batch, dz, 1, out_, x, in_, w_.grad.data(), in_);
  if (dx != nullptr) {
    // dX = dZ W: element (r, i) sums dz[r][o] * w[o][i] for o ascending.
    std::fill(dx, dx + batch * in_, 0.0);
    gemm_ordered(batch, in_, out_, dz, out_, 1, w_.value.data(), in_, dx,
                 in_);
  }
}

Vec Dense::backward(const Vec& grad_out) {
  VKEY_REQUIRE(grad_out.size() == out_, "Dense grad size mismatch");
  VKEY_REQUIRE(last_x_.size() == in_, "Dense backward before forward");
  Vec dz = grad_out;
  Vec dx(in_);
  backward_batch(last_x_.data(), last_y_.data(), dz.data(), 1, dx.data());
  return dx;
}

}  // namespace vkey::nn
