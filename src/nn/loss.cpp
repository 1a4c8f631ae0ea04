#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "nn/vmath.h"

namespace vkey::nn {

double mse_loss(std::span<const double> pred, std::span<const double> target,
                std::span<double> grad) {
  VKEY_REQUIRE(pred.size() == target.size() && !pred.empty() &&
                   grad.size() == pred.size(),
               "mse_loss size mismatch");
  double loss = 0.0;
  const double n = static_cast<double>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - target[i];
    loss += d * d;
    grad[i] = 2.0 * d / n;
  }
  return loss / n;
}

MseResult mse_loss(const Vec& pred, const Vec& target) {
  MseResult r{0.0, Vec(pred.size())};
  r.loss = mse_loss(std::span<const double>(pred), target, r.grad);
  return r;
}

double bce_with_logits(std::span<const double> logits,
                       std::span<const double> target, std::span<double> grad) {
  VKEY_REQUIRE(logits.size() == target.size() && !logits.empty() &&
                   grad.size() == logits.size(),
               "bce_with_logits size mismatch");
  for (const double z : target)
    VKEY_REQUIRE(z >= 0.0 && z <= 1.0, "BCE target must be in [0,1]");
  // Stable form: max(x,0) - x*z + log(1 + exp(-|x|)); grad holds exp(-|x|)
  // until the sigmoid overwrites it.
  for (std::size_t i = 0; i < logits.size(); ++i)
    grad[i] = -std::fabs(logits[i]);
  vexp(grad, grad);
  double loss = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const double x = logits[i];
    loss += std::max(x, 0.0) - x * target[i] + std::log1p(grad[i]);
  }
  vsigmoid(logits, grad);
  for (std::size_t i = 0; i < logits.size(); ++i) grad[i] -= target[i];
  return loss;
}

BceResult bce_with_logits(const Vec& logits, const Vec& target) {
  BceResult r{0.0, Vec(logits.size()), Vec(logits.size())};
  r.loss = bce_with_logits(std::span<const double>(logits), target, r.grad);
  vsigmoid(logits, r.probability);
  return r;
}

}  // namespace vkey::nn
