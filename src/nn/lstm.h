// LSTM and bidirectional LSTM with full backpropagation through time.
//
// The paper's prediction module is a single BiLSTM layer ("32 cells, 128
// hidden units") followed by fully connected heads. Layer sizes here are
// constructor parameters: the architecture is the paper's; the default
// hidden width used by tests/benches is smaller because this repository
// trains on a single CPU core (see DESIGN.md "NN sizing").
//
// The cell's 4H-gate affine runs on the fused packed matrix [Wx | Wh]
// (one blocked pass per step over a preallocated [x_t ; h_prev] scratch —
// see gemm.h and DESIGN.md "NN kernel core"); the float path is
// bit-identical to the retained naive reference (infer_reference), and an
// optional int8 path trades exactness for speed behind set_quantized().
//
// Training records each sequence on a contiguous tape, one row per step in
// BPTT order (last processed step first):
//   [ x_t | h_prev | gates i f g o (dz after BPTT) | c | tanh(c) ]
// The row's leading [x_t | h_prev] is the fused matvec input, and the
// stacked rows of a minibatch are directly the operands of one ordered
// gradient GEMM (gemm_ordered) per parameter.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/gemm.h"
#include "nn/param.h"

namespace vkey::nn {

/// Sequence of feature vectors, outer index = time step.
using Seq = std::vector<Vec>;

/// Unidirectional LSTM layer (optionally processing the sequence reversed).
class Lstm {
 public:
  Lstm(std::size_t input, std::size_t hidden, vkey::Rng& rng,
       bool reverse = false);

  /// Forward over a sequence; returns hidden states in *time* order
  /// regardless of processing direction. Records the sequence on the
  /// layer's own tape for backward().
  Seq forward(const Seq& x);

  /// Inference-only forward (no caching).
  Seq infer(const Seq& x) const;

  /// Inference writing each step's hidden state into
  /// out[t][offset, offset + hidden) of a caller-sized sequence — lets
  /// BiLstm fill both halves of its concatenated output without a copy.
  /// Same arithmetic as infer(), bit for bit.
  void infer_into(const Seq& x, Seq& out, std::size_t offset) const;

  /// The original per-step naive loops, retained as the bit-exactness
  /// oracle for the fused packed cell (tests only; no metrics, no timer).
  Seq infer_reference(const Seq& x) const;

  /// Route infer paths through the int8 fused cell with polynomial gate
  /// activations (forward()/backward() stay float). NOT bit-exact.
  void set_quantized(bool quantized) { quantized_ = quantized; }
  bool quantized() const { return quantized_; }

  /// BPTT for the most recent forward(). `grad_out` is dL/dh in time order;
  /// returns dL/dx in time order. Gradients accumulate into the parameters.
  /// Consumes the tape: a second backward() needs a new forward().
  Seq backward(const Seq& grad_out);

  std::size_t input_size() const { return input_; }
  std::size_t hidden_size() const { return hidden_; }
  /// Steps on the tape of the most recent forward() (0 before any forward
  /// and after its backward()).
  std::size_t cached_steps() const { return steps_; }

  std::vector<Parameter*> parameters() { return {&wx_, &wh_, &b_}; }

 private:
  friend class BiLstm;  // drives the tape API below for minibatches

  /// Doubles per tape row: input + 7 * hidden.
  std::size_t tape_width() const { return input_ + 7 * hidden_; }

  /// Charge `steps` cell steps to the nn.lstm counters.
  void count_steps(std::size_t steps) const;

  /// Training forward of one sequence: x holds `steps` rows of input_size()
  /// in time order; step t's hidden state goes to h + t * ldh. Fills `tape`
  /// (steps * tape_width() doubles). Same arithmetic as infer(), bit for
  /// bit; reads only the weights, so lanes may run sequences concurrently.
  /// Does not count steps (see count_steps).
  void forward_tape(const double* x, std::size_t steps, double* tape,
                    double* h, std::size_t ldh) const;

  /// BPTT over a forward_tape() tape: dh + t * ldh is dL/dh at time t.
  /// Overwrites the gates with dL/dz; writes dL/dx rows (time order) to dx
  /// unless it is null. `carry` holds 2 * hidden_size() doubles of scratch.
  void backward_tape(double* tape, std::size_t steps, const double* dh,
                     std::size_t ldh, double* carry, double* dx) const;

  /// Accumulate the weight and bias gradients of `rows` BPTT'd tape rows
  /// in row order: one ordered GEMM per parameter.
  void accumulate_tape(const double* tape, std::size_t rows);

  /// Preallocated per-sequence scratch for the fused cell (one allocation
  /// per call instead of ~8 per step).
  struct Scratch {
    Vec xh;   ///< [x_t ; h_prev], input_ + hidden_ wide
    Vec z;    ///< fused 4H gate pre-activations
    Vec h;    ///< running hidden state
    Vec c;    ///< running cell state
    Vec tc;   ///< tanh(c)
    std::vector<std::int8_t> xq;  ///< quantized xh (int8 path)
  };

  void init_scratch(Scratch& s) const;
  /// One fused cell step: reads s.xh, updates s.h / s.c in place.
  void step_fused(Scratch& s) const;
  void step_quantized(Scratch& s) const;
  /// Shared full-sequence driver for infer()/infer_into().
  void infer_impl(const Seq& x, Seq& out, std::size_t offset) const;
  const PackedMatrix& packed() const;
  const QuantizedMatrix& quant() const;

  std::size_t input_ = 0;
  std::size_t hidden_ = 0;
  bool reverse_ = false;
  bool quantized_ = false;
  // Gate order within the stacked matrices: input, forget, cell, output.
  Parameter wx_;  // 4H x input
  Parameter wh_;  // 4H x hidden
  Parameter b_;   // 4H  (forget-gate bias initialized to 1)
  Vec tape_;               // forward()'s tape, consumed by backward()
  std::size_t steps_ = 0;  // steps on tape_
  // Fused [Wx | Wh] packed layouts, keyed on the parameter revisions
  // (see gemm.h; the key is the revision sum, monotone under bump()).
  mutable PackedMatrix packed_w_;
  mutable QuantizedMatrix quant_w_;
  mutable PackGuard pack_guard_;
  mutable PackGuard quant_guard_;
};

/// Bidirectional LSTM: forward and backward passes concatenated per step,
/// output width = 2 * hidden.
class BiLstm {
 public:
  BiLstm(std::size_t input, std::size_t hidden, vkey::Rng& rng);

  Seq forward(const Seq& x);
  Seq infer(const Seq& x) const;
  /// Batched inference over independent sequences; bit-identical to
  /// calling infer() per element, in order. (The LSTM weights are small
  /// enough to stay cache-resident, so the batch win lives in the Dense
  /// heads downstream — this entry point exists so whole-pipeline callers
  /// can hand a batch through one call.)
  std::vector<Seq> infer_batch(std::span<const Seq> xs) const;
  /// Naive-reference BiLSTM inference (per-direction reference cells plus
  /// the original concat loop) — the bit-exactness oracle for infer().
  Seq infer_reference(const Seq& x) const;
  Seq backward(const Seq& grad_out);

  /// Caller-owned minibatch training state: each direction's tapes and the
  /// BPTT carries for up to `capacity` sequences of `steps` steps. Sized
  /// once by make_tapes(); the batch calls never allocate.
  struct Tapes {
    std::size_t capacity = 0;
    std::size_t steps = 0;
    Vec fwd, bwd;  ///< capacity * steps tape rows per direction
    Vec carry;     ///< capacity * 4 * hidden BPTT scratch
  };
  Tapes make_tapes(std::size_t capacity, std::size_t steps) const;

  /// Minibatch training forward. Sequence b reads `steps` input rows at
  /// x + b * steps * input and writes its flattened output, [h_fwd(t) |
  /// h_bwd(t)] for t ascending, to out + b * steps * output_size(). Lanes
  /// run whole sequences (`threads`, 0 = process default); bit-identical
  /// to forward() per sequence.
  void forward_batch(const double* x, std::size_t batch, Tapes& tapes,
                     double* out, std::size_t threads) const;

  /// BPTT for the last forward_batch(); `dout` has the layout of its `out`.
  /// Lanes run each sequence's BPTT, then every weight and bias gradient
  /// accumulates on the caller in one ordered pass over the tape rows —
  /// sequence ascending, processing step descending, the order of
  /// per-sequence backward() calls.
  void backward_batch(const double* dout, std::size_t batch, Tapes& tapes,
                      std::size_t threads);

  /// Propagates to both directions (infer paths only; see Lstm).
  void set_quantized(bool quantized);
  bool quantized() const { return fwd_.quantized(); }

  std::size_t output_size() const { return 2 * hidden_; }
  std::size_t hidden_size() const { return hidden_; }

  std::vector<Parameter*> parameters();

 private:
  std::size_t hidden_ = 0;
  Lstm fwd_;
  Lstm bwd_;
};

}  // namespace vkey::nn
