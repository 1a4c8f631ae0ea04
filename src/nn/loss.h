// Loss functions for the joint prediction/quantization objective.
//
// The paper trains with loss = theta * MSE(y, y_hat) + (1-theta) * BCE(z,
// z_hat) (Eq. 3-5). BCE is computed on logits for numerical stability: the
// sigmoid of the quantization head and the BCE collapse so the gradient w.r.t.
// the logit is simply (sigmoid(logit) - target).
#pragma once

#include <span>

#include "nn/param.h"

namespace vkey::nn {

/// Mean squared error and its gradient.
struct MseResult {
  double loss = 0.0;
  Vec grad;  ///< dL/dpred
};
MseResult mse_loss(const Vec& pred, const Vec& target);

/// Binary cross entropy on logits (sigmoid applied internally), plus the
/// gradient w.r.t. the logits. Targets must be in [0,1].
struct BceResult {
  double loss = 0.0;
  Vec grad;        ///< dL/dlogit = sigmoid(logit) - target
  Vec probability;  ///< sigmoid(logit), exposed to avoid recomputation
};
BceResult bce_with_logits(const Vec& logits, const Vec& target);

/// Allocation-free forms for the training loops: write the gradient into
/// `grad` (same length as the inputs, not overlapping them) and return the
/// loss. The Vec forms above wrap these, so both give the same bits.
double mse_loss(std::span<const double> pred, std::span<const double> target,
                std::span<double> grad);
double bce_with_logits(std::span<const double> logits,
                       std::span<const double> target, std::span<double> grad);

}  // namespace vkey::nn
