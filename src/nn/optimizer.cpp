#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/parallel.h"
#include "nn/gemm.h"

namespace vkey::nn {

Sgd::Sgd(std::vector<Parameter*> params, double lr)
    : params_(std::move(params)), lr_(lr) {
  VKEY_REQUIRE(lr > 0.0, "learning rate must be positive");
}

void Sgd::step(std::size_t batch_size) {
  VKEY_REQUIRE(batch_size >= 1, "batch size must be >= 1");
  const double scale = 1.0 / static_cast<double>(batch_size);
  for (Parameter* p : params_) {
    for (std::size_t i = 0; i < p->size(); ++i) {
      p->value[i] -= lr_ * p->grad[i] * scale;
    }
    p->bump();
    p->zero_grad();
  }
}

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double epsilon)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  VKEY_REQUIRE(lr > 0.0, "learning rate must be positive");
  VKEY_REQUIRE(beta1 >= 0.0 && beta1 < 1.0, "beta1 must be in [0,1)");
  VKEY_REQUIRE(beta2 >= 0.0 && beta2 < 1.0, "beta2 must be in [0,1)");
  // Fixed ranges, sized once: large enough to amortize a lane hand-off,
  // small enough to spread the prediction head over every lane.
  constexpr std::size_t kGrain = 8192;
  for (Parameter* p : params_) {
    for (std::size_t lo = 0; lo < p->size(); lo += kGrain)
      ranges_.push_back({p, lo, std::min(p->size(), lo + kGrain)});
  }
}

void Adam::step(std::size_t batch_size, std::size_t threads) {
  VKEY_REQUIRE(batch_size >= 1, "batch size must be >= 1");
  ++t_;
  const AdamStep s{1.0 / static_cast<double>(batch_size),
                   lr_,
                   beta1_,
                   beta2_,
                   epsilon_,
                   1.0 - std::pow(beta1_, static_cast<double>(t_)),
                   1.0 - std::pow(beta2_, static_cast<double>(t_))};
  for (Parameter* p : params_) {
    if (p->adam_m.size() != p->size()) {
      p->adam_m.assign(p->size(), 0.0);
      p->adam_v.assign(p->size(), 0.0);
    }
  }
  parallel::parallel_for(
      ranges_.size(),
      [&](std::size_t r) {
        const Range& range = ranges_[r];
        Parameter& p = *range.param;
        const std::size_t lo = range.lo;
        adam_update(s, range.hi - lo, p.value.data() + lo, p.grad.data() + lo,
                    p.adam_m.data() + lo, p.adam_v.data() + lo);
      },
      threads);
  for (Parameter* p : params_) p->bump();
}

}  // namespace vkey::nn
