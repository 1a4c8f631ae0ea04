// Blocked matrix kernels for vkey::nn — the NN inference core.
//
// Why this exists: the naive per-row dot products in Dense::affine and the
// LSTM cell accumulate through ONE floating-point chain per row, so the CPU
// spends almost every cycle waiting on add latency, and the LSTM cell
// additionally allocated ~8 vectors per time step. The kernels here fix
// both without changing a single bit of the float results:
//
//   * Panel packing. Weights are repacked into row panels of kPanelRows
//     rows; within a panel, storage is column-interleaved, so the inner
//     loop advances kPanelRows *independent* accumulators — one per output
//     row — with unit-stride vector loads. The main loop interleaves four
//     panels (32 rows, eight 256-bit accumulators) to cover the FP add
//     latency.
//   * Order preservation. Each output row still accumulates bias first,
//     then the columns in ascending order, exactly like the naive loop.
//     Rows never share an accumulator, so no floating-point reassociation
//     happens, and the explicit mul-then-add intrinsics (plus
//     -ffp-contract=off on this TU) keep FMA fusion out of the chain. The
//     result is bit-identical to the scalar reference on every input (see
//     DESIGN.md "NN kernel core").
//   * Preallocated scratch. Callers pass output storage; the kernels
//     allocate nothing.
//
// The reference kernels (`reference_matvec`) implement the original naive
// loops and are retained forever: the golden-vector suite in
// tests/nn/test_gemm.cpp asserts bit-equality between the two on every
// shape the layers use.
//
// Training runs on the same contract: `gemm_ordered` (C += A * B, every
// element its own chain, k ascending) carries every gradient sum and
// `adam_update` the optimizer, each bit-identical to the per-sample loops
// they replaced.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace vkey::nn {

/// Rows per packed panel (one cache line of doubles; two 256-bit vectors).
/// The value is part of the packed layout, not tunable per call.
inline constexpr std::size_t kPanelRows = 8;

/// Naive reference kernel: y[r] = bias[r] + sum_c w[r*cols + c] * x[c],
/// one accumulator per row, columns in ascending order. This is the
/// original Dense::affine / LSTM gate loop, kept as the bit-exactness
/// reference for the packed kernels.
void reference_matvec(const double* w, std::size_t rows, std::size_t cols,
                      const double* x, const double* bias, double* y);

/// Row-major matrix repacked into kPanelRows-row panels with
/// column-interleaved storage:
///   data[(panel * cols + c) * kPanelRows + r]
///       == w[(panel * kPanelRows + r) * cols + c]
/// Tail rows of the last panel are zero-padded.
class PackedMatrix {
 public:
  PackedMatrix() = default;

  /// Repack from a row-major `rows x cols` weight array.
  void pack(const double* w, std::size_t rows, std::size_t cols);

  /// Repack from two row-concatenated blocks: row r of the packed matrix is
  /// [wa row r (cols_a wide) | wb row r (cols_b wide)]. This fuses the LSTM
  /// Wx/Wh pair into one 4H x (input + hidden) matrix whose column order
  /// matches the cell's accumulation order (x features first, then h).
  void pack_pair(const double* wa, std::size_t cols_a, const double* wb,
                 std::size_t cols_b, std::size_t rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  /// y[r] = bias[r] + sum_c w[r][c] * x[c]; bias may be null (start at 0).
  /// Bit-identical to reference_matvec on the same inputs.
  void matvec(const double* x, const double* bias, double* y) const;

  /// Batched matvec: ys[b][r] = bias[r] + sum_c w[r][c] * xs[b][c] for each
  /// of the `batch` input/output pointer pairs. The panel (not the batch
  /// member) is the outer loop, so one pass over the packed weights serves
  /// the whole batch while the panel is cache-hot; every member's
  /// arithmetic is identical to matvec, so results are bit-equal to
  /// `batch` sequential matvec calls.
  void matvec_batch(const double* const* xs, std::size_t batch,
                    const double* bias, double* const* ys) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t panels_ = 0;
  std::vector<double> data_;
};

/// Ordered-accumulation GEMM, the training core: C += A * B with
///   A(i, p) = a[i * a_row + p * a_col]   (m x k; any strides, so a
///                                         transposed A is a_row = 1)
///   B(p, j) = b[p * ldb + j]             (k x n, unit stride along j)
///   C(i, j) = c[i * ldc + j]             (m x n, unit stride along j)
/// Every element accumulates in its own chain, starting from its current
/// value, with p ascending and an explicit multiply then add:
///   for p in [0, k): C(i, j) = C(i, j) + A(i, p) * B(p, j)
/// That is exactly the naive triple loop, so a per-sample gradient loop
/// rewritten as one call keeps every bit (DESIGN.md "NN kernel core").
/// A stride of 0 broadcasts one value (a[0] == 1.0 sums B's rows).
void gemm_ordered(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t a_row, std::size_t a_col,
                  const double* b, std::size_t ldb, double* c,
                  std::size_t ldc);

/// Step constants of one Adam update (see Adam::step).
struct AdamStep {
  double scale;  ///< 1 / batch size
  double lr, beta1, beta2, epsilon;
  double bc1, bc2;  ///< bias corrections 1 - beta^t
};

/// Elementwise Adam over n elements with the exact operation sequence of
/// the scalar update; zeroes grad[i] after use. Elements are independent,
/// so any split of [0, n) into ranges gives the same bits.
void adam_update(const AdamStep& s, std::size_t n, double* value,
                 double* grad, double* m, double* v);

/// Revision-keyed lazy cache guard for packed weight layouts.
///
/// Layers keep their PackedMatrix caches behind one of these: ensure()
/// repacks (under a mutex, double-checked) whenever the observed parameter
/// revision differs from the revision the cache was built at. Concurrent
/// readers with up-to-date caches take one acquire load. Copying a guard
/// resets it, so layers stay copyable and a copy repacks on first use.
class PackGuard {
 public:
  PackGuard() = default;
  PackGuard(const PackGuard&) noexcept {}
  PackGuard& operator=(const PackGuard&) noexcept {
    packed_rev_.store(0, std::memory_order_release);
    return *this;
  }

  /// Run `repack()` if the cache is stale for `rev`, then mark it fresh.
  /// `rev` must be >= 1 (parameter revisions start at 1; 0 means "never
  /// packed").
  template <typename Fn>
  void ensure(std::uint64_t rev, Fn&& repack) const {
    if (packed_rev_.load(std::memory_order_acquire) == rev) return;
    const std::scoped_lock lock(mu_);
    if (packed_rev_.load(std::memory_order_relaxed) == rev) return;
    repack();
    packed_rev_.store(rev, std::memory_order_release);
  }

 private:
  mutable std::atomic<std::uint64_t> packed_rev_{0};
  mutable std::mutex mu_;
};

}  // namespace vkey::nn
