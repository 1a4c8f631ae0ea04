// Optimizers: plain SGD and Adam (Kingma & Ba).
//
// Layers accumulate gradients across a mini-batch; step() consumes them
// (dividing by the batch size) and zeroes the accumulators. Adam's update
// runs through the elementwise adam_update kernel (gemm.h), split over
// lanes by element range.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/param.h"

namespace vkey::nn {

class Sgd {
 public:
  explicit Sgd(std::vector<Parameter*> params, double lr = 0.01);

  /// Apply one update using the accumulated gradients / `batch_size`,
  /// then zero the gradients.
  void step(std::size_t batch_size = 1);

  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

 private:
  std::vector<Parameter*> params_;
  double lr_ = 0.0;
};

class Adam {
 public:
  explicit Adam(std::vector<Parameter*> params, double lr = 1e-3,
                double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8);

  /// One update over every parameter. `threads` lanes (0 = process
  /// default, 1 = inline) share fixed element ranges; each element's update
  /// is independent, so the bits never depend on the lane count.
  void step(std::size_t batch_size = 1, std::size_t threads = 1);

  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

 private:
  /// An element range of one parameter: the unit of lane work.
  struct Range {
    Parameter* param;
    std::size_t lo, hi;
  };

  std::vector<Parameter*> params_;
  std::vector<Range> ranges_;
  double lr_ = 0.0;
  double beta1_ = 0.0;
  double beta2_ = 0.0;
  double epsilon_ = 0.0;
  std::size_t t_ = 0;
};

}  // namespace vkey::nn
