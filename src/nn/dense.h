// Fully connected layer: y = W x + b.
//
// Training runs on whole minibatches held as row-major matrices:
// forward_batch() maps rows of X to rows of Y, and backward_batch()
// accumulates the weight and bias gradients over the rows in row order
// through the ordered GEMM kernel (gemm.h), then one optimizer step
// consumes them. forward()/backward() are the batch-of-1 forms; forward()
// keeps its input so the following backward() can use it.
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/gemm.h"
#include "nn/param.h"

namespace vkey::nn {

enum class Activation { kNone, kSigmoid, kTanh, kRelu };

class Dense {
 public:
  /// Xavier-uniform initialization with the given RNG.
  Dense(std::size_t in, std::size_t out, vkey::Rng& rng,
        Activation act = Activation::kNone);

  /// Forward pass of one sample; keeps x and y for the next backward().
  Vec forward(const Vec& x);

  /// Forward over `batch` rows without caching (training and batched
  /// inference): x is batch x in_size(), y receives batch x out_size()
  /// post-activation rows. One pass over the packed weights serves the
  /// whole batch (the win for large layers like the BiLSTM prediction head,
  /// whose weight matrix exceeds the per-core cache). Bit-identical to
  /// forward()/infer() per row; allocation-free; usable concurrently.
  void forward_batch(const double* x, std::size_t batch, double* y) const;

  /// Forward without caching (inference-only; usable concurrently).
  Vec infer(const Vec& x) const;

  /// The original naive affine + activation, retained as the bit-exactness
  /// oracle for the packed kernels (tests only; no metrics, no cache).
  Vec infer_reference(const Vec& x) const;

  /// Backward pass for the most recent forward(): accumulates gradients
  /// into the layer parameters and returns dL/dx.
  Vec backward(const Vec& grad_out);

  /// Backward over a forward_batch(x, batch, y) pass. `dy` holds dL/dy rows
  /// on entry and dL/dz (activation derivative folded in) on return. The
  /// bias and weight gradients accumulate over the rows in row order, each
  /// element exactly as `batch` sequential backward() calls would add it;
  /// dL/dx rows go to `dx` (batch x in_size()) unless it is null; dx may
  /// alias x, which is read before dx is written. With `bias_grad` false
  /// the bias gradient is left untouched.
  void backward_batch(const double* x, const double* y, double* dy,
                      std::size_t batch, double* dx, bool bias_grad = true);

  std::size_t in_size() const { return in_; }
  std::size_t out_size() const { return out_; }

  std::vector<Parameter*> parameters() { return {&w_, &b_}; }
  const Parameter& weights() const { return w_; }
  const Parameter& bias() const { return b_; }

 private:
  /// Applies the activation to n values in place.
  void activate(double* z, std::size_t n) const;
  const PackedMatrix& packed() const;

  std::size_t in_ = 0;
  std::size_t out_ = 0;
  Activation act_;
  Parameter w_;  // out x in, row-major
  Parameter b_;  // out
  Vec last_x_;
  Vec last_y_;   // post-activation (needed for activation derivative)
  // Lazily repacked weight layout, keyed on w_.revision (see gemm.h).
  mutable PackedMatrix packed_w_;
  mutable PackGuard pack_guard_;
};

}  // namespace vkey::nn
