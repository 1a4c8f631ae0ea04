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
// see gemm.h and DESIGN.md "NN kernel core"), and the gates run through the
// owned transcendentals (vmath.h); inference is bit-identical to the
// retained naive reference (infer_reference).
//
// Training records each sequence on a contiguous tape, one row per step in
// BPTT order (last processed step first):
//   [ x_t | h_prev | gates i f g o (dz after BPTT) | c | tanh(c) ]
// The row's leading [x_t | h_prev] is the fused matvec input, and the
// stacked rows of a minibatch are directly the operands of one ordered
// gradient GEMM (gemm_ordered) per parameter.
#pragma once

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

  /// The original per-step naive loops, retained as the bit-exactness
  /// oracle for the fused packed cell (tests only; no metrics, no timer).
  Seq infer_reference(const Seq& x) const;

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

  /// One fused cell step on a tape-layout row whose [x_t | h_prev] is
  /// filled: the packed matvec writes the 4H gate pre-activations in the
  /// exact accumulation order of the naive cell (bias, then Wx columns, then
  /// Wh columns — see PackedMatrix::pack_pair), the gates activate in place,
  /// then c = f * c_prev + i * g (c_prev null is the zero state; it may
  /// alias the row's own c), tanh(c) and h_out = o * tanh(c).
  void cell_step(const PackedMatrix& pm, double* row, const double* c_prev,
                 double* h_out) const;

  /// Inference keeps one tape-layout row per sequence as its whole state:
  /// infer_begin() zeroes its h_prev and c, and each infer_step() runs one
  /// cell step for input x_t, writes the hidden state to h_out and carries
  /// it into the row's h_prev. Same arithmetic as forward(), bit for bit.
  void infer_begin(double* row) const;
  void infer_step(const PackedMatrix& pm, const double* x_t, double* row,
                  double* h_out) const;
  const PackedMatrix& packed() const;

  std::size_t input_ = 0;
  std::size_t hidden_ = 0;
  bool reverse_ = false;
  // Gate order within the stacked matrices: input, forget, cell, output.
  Parameter wx_;  // 4H x input
  Parameter wh_;  // 4H x hidden
  Parameter b_;   // 4H  (forget-gate bias initialized to 1)
  Vec tape_;               // forward()'s tape, consumed by backward()
  std::size_t steps_ = 0;  // steps on tape_
  // Fused [Wx | Wh] packed layouts, keyed on the parameter revisions
  // (see gemm.h; the key is the revision sum, monotone under bump()).
  mutable PackedMatrix packed_w_;
  mutable PackGuard pack_guard_;
};

/// Bidirectional LSTM: forward and backward passes concatenated per step,
/// output width = 2 * hidden.
class BiLstm {
 public:
  BiLstm(std::size_t input, std::size_t hidden, vkey::Rng& rng);

  Seq forward(const Seq& x);
  Seq infer(const Seq& x) const;
  /// Inference over `batch` independent sequences held as flat rows, the
  /// layout forward_batch() uses: sequence b reads `steps` input rows at
  /// x + b * steps * input and writes [h_fwd(t) | h_bwd(t)] for t ascending
  /// to out + b * steps * output_size(). The two directions step together
  /// in one loop — their recurrences are independent, so the out-of-order
  /// core overlaps the two dependency chains — and each direction's
  /// arithmetic is exactly infer()'s. One scratch allocation per call.
  void infer_batch(const double* x, std::size_t batch, std::size_t steps,
                   double* out) const;
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

  std::size_t output_size() const { return 2 * hidden_; }
  std::size_t hidden_size() const { return hidden_; }

  std::vector<Parameter*> parameters();

 private:
  std::size_t hidden_ = 0;
  Lstm fwd_;
  Lstm bwd_;
};

}  // namespace vkey::nn
