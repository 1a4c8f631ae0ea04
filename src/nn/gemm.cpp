// Blocked matrix kernels — see gemm.h for the layout and the bit-exactness
// contract. This translation unit is compiled with wider optimization flags
// than the rest of the library (-O3, -march=native where available) but
// with floating-point contraction OFF; together with the explicit
// mul-then-add intrinsics this pins the exact IEEE operation sequence per
// output row to the one the scalar reference executes.
#include "nn/gemm.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace vkey::nn {

void reference_matvec(const double* w, std::size_t rows, std::size_t cols,
                      const double* x, const double* bias, double* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    double s = bias != nullptr ? bias[r] : 0.0;
    const double* wrow = w + r * cols;
    for (std::size_t c = 0; c < cols; ++c) s += wrow[c] * x[c];
    y[r] = s;
  }
}

void PackedMatrix::pack(const double* w, std::size_t rows, std::size_t cols) {
  VKEY_REQUIRE(rows > 0 && cols > 0, "PackedMatrix::pack: empty shape");
  rows_ = rows;
  cols_ = cols;
  panels_ = (rows + kPanelRows - 1) / kPanelRows;
  data_.assign(panels_ * cols * kPanelRows, 0.0);
  for (std::size_t p = 0; p < panels_; ++p) {
    const std::size_t row0 = p * kPanelRows;
    const std::size_t live = std::min(kPanelRows, rows - row0);
    double* panel = &data_[p * cols * kPanelRows];
    for (std::size_t r = 0; r < live; ++r) {
      const double* wrow = w + (row0 + r) * cols;
      for (std::size_t c = 0; c < cols; ++c)
        panel[c * kPanelRows + r] = wrow[c];
    }
  }
}

void PackedMatrix::pack_pair(const double* wa, std::size_t cols_a,
                             const double* wb, std::size_t cols_b,
                             std::size_t rows) {
  VKEY_REQUIRE(rows > 0 && cols_a > 0 && cols_b > 0,
               "PackedMatrix::pack_pair: empty shape");
  rows_ = rows;
  cols_ = cols_a + cols_b;
  panels_ = (rows + kPanelRows - 1) / kPanelRows;
  data_.assign(panels_ * cols_ * kPanelRows, 0.0);
  for (std::size_t p = 0; p < panels_; ++p) {
    const std::size_t row0 = p * kPanelRows;
    const std::size_t live = std::min(kPanelRows, rows - row0);
    double* panel = &data_[p * cols_ * kPanelRows];
    for (std::size_t r = 0; r < live; ++r) {
      const double* arow = wa + (row0 + r) * cols_a;
      for (std::size_t c = 0; c < cols_a; ++c)
        panel[c * kPanelRows + r] = arow[c];
      const double* brow = wb + (row0 + r) * cols_b;
      for (std::size_t c = 0; c < cols_b; ++c)
        panel[(cols_a + c) * kPanelRows + r] = brow[c];
    }
  }
}

namespace {

// Portable single-panel loop: kPanelRows independent accumulators, columns
// ascending — the panel-shaped restatement of reference_matvec. Used for
// tail panels and as the non-AVX2 fallback.
void panel_matvec(const double* panel, std::size_t row0, std::size_t live,
                  std::size_t cols, const double* x, const double* bias,
                  double* y) {
  double acc[kPanelRows];
  for (std::size_t r = 0; r < kPanelRows; ++r)
    acc[r] = (bias != nullptr && r < live) ? bias[row0 + r] : 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    const double xc = x[c];
    const double* col = panel + c * kPanelRows;
    for (std::size_t r = 0; r < kPanelRows; ++r) acc[r] += col[r] * xc;
  }
  for (std::size_t r = 0; r < live; ++r) y[row0 + r] = acc[r];
}

}  // namespace

void PackedMatrix::matvec(const double* x, const double* bias,
                          double* y) const {
  const std::size_t cols = cols_;
  std::size_t p = 0;
#if defined(__AVX2__)
  // Four panels interleaved: eight 256-bit accumulators keep eight
  // independent add chains in flight, which covers the vaddpd latency that
  // serializes a single-panel loop. Explicit mul-then-add: never fused.
  for (; (p + 4) * kPanelRows <= rows_; p += 4) {
    const double* p0 = &data_[(p + 0) * cols * kPanelRows];
    const double* p1 = &data_[(p + 1) * cols * kPanelRows];
    const double* p2 = &data_[(p + 2) * cols * kPanelRows];
    const double* p3 = &data_[(p + 3) * cols * kPanelRows];
    const std::size_t row0 = p * kPanelRows;
    __m256d a0, a1, a2, a3, a4, a5, a6, a7;
    if (bias != nullptr) {
      a0 = _mm256_loadu_pd(bias + row0);
      a1 = _mm256_loadu_pd(bias + row0 + 4);
      a2 = _mm256_loadu_pd(bias + row0 + 8);
      a3 = _mm256_loadu_pd(bias + row0 + 12);
      a4 = _mm256_loadu_pd(bias + row0 + 16);
      a5 = _mm256_loadu_pd(bias + row0 + 20);
      a6 = _mm256_loadu_pd(bias + row0 + 24);
      a7 = _mm256_loadu_pd(bias + row0 + 28);
    } else {
      a0 = a1 = a2 = a3 = a4 = a5 = a6 = a7 = _mm256_setzero_pd();
    }
    for (std::size_t c = 0; c < cols; ++c) {
      const __m256d xc = _mm256_set1_pd(x[c]);
      const std::size_t o = c * kPanelRows;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(p0 + o), xc));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(p0 + o + 4), xc));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(p1 + o), xc));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(p1 + o + 4), xc));
      a4 = _mm256_add_pd(a4, _mm256_mul_pd(_mm256_loadu_pd(p2 + o), xc));
      a5 = _mm256_add_pd(a5, _mm256_mul_pd(_mm256_loadu_pd(p2 + o + 4), xc));
      a6 = _mm256_add_pd(a6, _mm256_mul_pd(_mm256_loadu_pd(p3 + o), xc));
      a7 = _mm256_add_pd(a7, _mm256_mul_pd(_mm256_loadu_pd(p3 + o + 4), xc));
    }
    _mm256_storeu_pd(y + row0, a0);
    _mm256_storeu_pd(y + row0 + 4, a1);
    _mm256_storeu_pd(y + row0 + 8, a2);
    _mm256_storeu_pd(y + row0 + 12, a3);
    _mm256_storeu_pd(y + row0 + 16, a4);
    _mm256_storeu_pd(y + row0 + 20, a5);
    _mm256_storeu_pd(y + row0 + 24, a6);
    _mm256_storeu_pd(y + row0 + 28, a7);
  }
#endif
  for (; p < panels_; ++p) {
    const std::size_t row0 = p * kPanelRows;
    panel_matvec(&data_[p * cols * kPanelRows], row0,
                 std::min(kPanelRows, rows_ - row0), cols, x, bias, y);
  }
}

void PackedMatrix::matvec_batch(const double* const* xs, std::size_t batch,
                                const double* bias,
                                double* const* ys) const {
  const std::size_t cols = cols_;
  // Panel-outer / member-inner: one pass over each packed panel (the large
  // operand — the prediction head is ~2 MB) serves the whole batch while
  // the panel is cache-hot. Members are processed four at a time so each
  // panel load feeds eight independent accumulator chains; the members
  // past the last group of four run through matvec, whose four-panel
  // interleave keeps a single member from serializing on one panel's add
  // chain. Per-member arithmetic matches matvec exactly.
#if defined(__AVX2__)
  const std::size_t grouped = batch / 4 * 4;
#else
  const std::size_t grouped = 0;
#endif
  for (std::size_t p = 0; p < panels_ && grouped > 0; ++p) {
    const std::size_t row0 = p * kPanelRows;
    const std::size_t live = std::min(kPanelRows, rows_ - row0);
    const double* panel = &data_[p * cols * kPanelRows];
    std::size_t b = 0;
#if defined(__AVX2__)
    if (live == kPanelRows) {
      for (; b < grouped; b += 4) {
        const double* x0 = xs[b];
        const double* x1 = xs[b + 1];
        const double* x2 = xs[b + 2];
        const double* x3 = xs[b + 3];
        __m256d blo;
        __m256d bhi;
        if (bias != nullptr) {
          blo = _mm256_loadu_pd(bias + row0);
          bhi = _mm256_loadu_pd(bias + row0 + 4);
        } else {
          blo = bhi = _mm256_setzero_pd();
        }
        __m256d a0 = blo, a1 = bhi, a2 = blo, a3 = bhi;
        __m256d a4 = blo, a5 = bhi, a6 = blo, a7 = bhi;
        for (std::size_t c = 0; c < cols; ++c) {
          const std::size_t o = c * kPanelRows;
          const __m256d wlo = _mm256_loadu_pd(panel + o);
          const __m256d whi = _mm256_loadu_pd(panel + o + 4);
          const __m256d c0 = _mm256_set1_pd(x0[c]);
          const __m256d c1 = _mm256_set1_pd(x1[c]);
          const __m256d c2 = _mm256_set1_pd(x2[c]);
          const __m256d c3 = _mm256_set1_pd(x3[c]);
          a0 = _mm256_add_pd(a0, _mm256_mul_pd(wlo, c0));
          a1 = _mm256_add_pd(a1, _mm256_mul_pd(whi, c0));
          a2 = _mm256_add_pd(a2, _mm256_mul_pd(wlo, c1));
          a3 = _mm256_add_pd(a3, _mm256_mul_pd(whi, c1));
          a4 = _mm256_add_pd(a4, _mm256_mul_pd(wlo, c2));
          a5 = _mm256_add_pd(a5, _mm256_mul_pd(whi, c2));
          a6 = _mm256_add_pd(a6, _mm256_mul_pd(wlo, c3));
          a7 = _mm256_add_pd(a7, _mm256_mul_pd(whi, c3));
        }
        _mm256_storeu_pd(ys[b] + row0, a0);
        _mm256_storeu_pd(ys[b] + row0 + 4, a1);
        _mm256_storeu_pd(ys[b + 1] + row0, a2);
        _mm256_storeu_pd(ys[b + 1] + row0 + 4, a3);
        _mm256_storeu_pd(ys[b + 2] + row0, a4);
        _mm256_storeu_pd(ys[b + 2] + row0 + 4, a5);
        _mm256_storeu_pd(ys[b + 3] + row0, a6);
        _mm256_storeu_pd(ys[b + 3] + row0 + 4, a7);
      }
    }
#endif
    for (; b < grouped; ++b)
      panel_matvec(panel, row0, live, cols, xs[b], bias, ys[b]);
  }
  for (std::size_t b = grouped; b < batch; ++b) matvec(xs[b], bias, ys[b]);
}

namespace {

// The naive element loop of gemm_ordered over rows [i0, m) x columns
// [j0, n): the scalar tail of the blocked paths and the non-AVX2 build.
void gemm_ordered_scalar(std::size_t i0, std::size_t m, std::size_t j0,
                         std::size_t n, std::size_t k, const double* a,
                         std::size_t a_row, std::size_t a_col,
                         const double* b, std::size_t ldb, double* c,
                         std::size_t ldc) {
  for (std::size_t i = i0; i < m; ++i) {
    const double* ai = a + i * a_row;
    for (std::size_t j = j0; j < n; ++j) {
      double s = c[i * ldc + j];
      for (std::size_t p = 0; p < k; ++p) s += ai[p * a_col] * b[p * ldb + j];
      c[i * ldc + j] = s;
    }
  }
}

#if defined(__AVX2__)

// 4 x 8 register tile: eight independent 4-wide chains, one per element
// group, each walking p ascending with a separate multiply and add.
void gemm_tile_4x8(std::size_t k, const double* a, std::size_t a_row,
                   std::size_t a_col, const double* b, std::size_t ldb,
                   double* c, std::size_t ldc) {
  double* c0 = c;
  double* c1 = c + ldc;
  double* c2 = c + 2 * ldc;
  double* c3 = c + 3 * ldc;
  __m256d x00 = _mm256_loadu_pd(c0), x01 = _mm256_loadu_pd(c0 + 4);
  __m256d x10 = _mm256_loadu_pd(c1), x11 = _mm256_loadu_pd(c1 + 4);
  __m256d x20 = _mm256_loadu_pd(c2), x21 = _mm256_loadu_pd(c2 + 4);
  __m256d x30 = _mm256_loadu_pd(c3), x31 = _mm256_loadu_pd(c3 + 4);
  const double* a0 = a;
  const double* a1 = a + a_row;
  const double* a2 = a + 2 * a_row;
  const double* a3 = a + 3 * a_row;
  for (std::size_t p = 0; p < k; ++p) {
    const double* bp = b + p * ldb;
    const __m256d b0 = _mm256_loadu_pd(bp);
    const __m256d b1 = _mm256_loadu_pd(bp + 4);
    const std::size_t o = p * a_col;
    __m256d s = _mm256_set1_pd(a0[o]);
    x00 = _mm256_add_pd(x00, _mm256_mul_pd(s, b0));
    x01 = _mm256_add_pd(x01, _mm256_mul_pd(s, b1));
    s = _mm256_set1_pd(a1[o]);
    x10 = _mm256_add_pd(x10, _mm256_mul_pd(s, b0));
    x11 = _mm256_add_pd(x11, _mm256_mul_pd(s, b1));
    s = _mm256_set1_pd(a2[o]);
    x20 = _mm256_add_pd(x20, _mm256_mul_pd(s, b0));
    x21 = _mm256_add_pd(x21, _mm256_mul_pd(s, b1));
    s = _mm256_set1_pd(a3[o]);
    x30 = _mm256_add_pd(x30, _mm256_mul_pd(s, b0));
    x31 = _mm256_add_pd(x31, _mm256_mul_pd(s, b1));
  }
  _mm256_storeu_pd(c0, x00);
  _mm256_storeu_pd(c0 + 4, x01);
  _mm256_storeu_pd(c1, x10);
  _mm256_storeu_pd(c1 + 4, x11);
  _mm256_storeu_pd(c2, x20);
  _mm256_storeu_pd(c2 + 4, x21);
  _mm256_storeu_pd(c3, x30);
  _mm256_storeu_pd(c3 + 4, x31);
}

// One row x 16 columns: four chains, so even m == 1 (the LSTM dh
// recurrence) is not bound by a single add latency.
void gemm_tile_1x16(std::size_t k, const double* a, std::size_t a_col,
                    const double* b, std::size_t ldb, double* c) {
  __m256d x0 = _mm256_loadu_pd(c), x1 = _mm256_loadu_pd(c + 4);
  __m256d x2 = _mm256_loadu_pd(c + 8), x3 = _mm256_loadu_pd(c + 12);
  for (std::size_t p = 0; p < k; ++p) {
    const double* bp = b + p * ldb;
    const __m256d s = _mm256_set1_pd(a[p * a_col]);
    x0 = _mm256_add_pd(x0, _mm256_mul_pd(s, _mm256_loadu_pd(bp)));
    x1 = _mm256_add_pd(x1, _mm256_mul_pd(s, _mm256_loadu_pd(bp + 4)));
    x2 = _mm256_add_pd(x2, _mm256_mul_pd(s, _mm256_loadu_pd(bp + 8)));
    x3 = _mm256_add_pd(x3, _mm256_mul_pd(s, _mm256_loadu_pd(bp + 12)));
  }
  _mm256_storeu_pd(c, x0);
  _mm256_storeu_pd(c + 4, x1);
  _mm256_storeu_pd(c + 8, x2);
  _mm256_storeu_pd(c + 12, x3);
}

void gemm_tile_1x4(std::size_t k, const double* a, std::size_t a_col,
                   const double* b, std::size_t ldb, double* c) {
  __m256d x = _mm256_loadu_pd(c);
  for (std::size_t p = 0; p < k; ++p) {
    x = _mm256_add_pd(x, _mm256_mul_pd(_mm256_set1_pd(a[p * a_col]),
                                       _mm256_loadu_pd(b + p * ldb)));
  }
  _mm256_storeu_pd(c, x);
}

// Narrow-B path (n < 8) for a column-contiguous A (a_row == 1, e.g. the
// transposed gate gradients against the 3-feature LSTM input): vectorize
// down the rows instead, 16 rows per tile, one column at a time.
void gemm_ordered_rows(std::size_t m, std::size_t n, std::size_t k,
                       const double* a, std::size_t a_col, const double* b,
                       std::size_t ldb, double* c, std::size_t ldc) {
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    for (std::size_t j = 0; j < n; ++j) {
      alignas(32) double t[16];
      for (std::size_t r = 0; r < 16; ++r) t[r] = c[(i + r) * ldc + j];
      __m256d x0 = _mm256_load_pd(t), x1 = _mm256_load_pd(t + 4);
      __m256d x2 = _mm256_load_pd(t + 8), x3 = _mm256_load_pd(t + 12);
      for (std::size_t p = 0; p < k; ++p) {
        const double* ap = a + i + p * a_col;
        const __m256d s = _mm256_set1_pd(b[p * ldb + j]);
        x0 = _mm256_add_pd(x0, _mm256_mul_pd(_mm256_loadu_pd(ap), s));
        x1 = _mm256_add_pd(x1, _mm256_mul_pd(_mm256_loadu_pd(ap + 4), s));
        x2 = _mm256_add_pd(x2, _mm256_mul_pd(_mm256_loadu_pd(ap + 8), s));
        x3 = _mm256_add_pd(x3, _mm256_mul_pd(_mm256_loadu_pd(ap + 12), s));
      }
      _mm256_store_pd(t, x0);
      _mm256_store_pd(t + 4, x1);
      _mm256_store_pd(t + 8, x2);
      _mm256_store_pd(t + 12, x3);
      for (std::size_t r = 0; r < 16; ++r) c[(i + r) * ldc + j] = t[r];
    }
  }
  gemm_ordered_scalar(i, m, 0, n, k, a, 1, a_col, b, ldb, c, ldc);
}

#endif

}  // namespace

void gemm_ordered(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t a_row, std::size_t a_col,
                  const double* b, std::size_t ldb, double* c,
                  std::size_t ldc) {
#if defined(__AVX2__)
  if (n < 8 && a_row == 1 && m >= 16) {
    gemm_ordered_rows(m, n, k, a, a_col, b, ldb, c, ldc);
    return;
  }
  // 4 x 8 tiles, column strips outer, so one k x 8 strip of B stays in L1
  // while every row tile of A passes over it.
  const std::size_t m4 = m / 4 * 4;
  std::size_t j8 = 0;
  for (; j8 + 8 <= n; j8 += 8) {
    for (std::size_t i = 0; i < m4; i += 4)
      gemm_tile_4x8(k, a + i * a_row, a_row, a_col, b + j8, ldb,
                    c + i * ldc + j8, ldc);
  }
  // What the tiles left: columns [j8, n) of rows [0, m4), and all of the
  // rows past m4.
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a + i * a_row;
    double* ci = c + i * ldc;
    std::size_t j = i < m4 ? j8 : 0;
    for (; j + 16 <= n; j += 16) gemm_tile_1x16(k, ai, a_col, b + j, ldb, ci + j);
    for (; j + 4 <= n; j += 4) gemm_tile_1x4(k, ai, a_col, b + j, ldb, ci + j);
    gemm_ordered_scalar(i, i + 1, j, n, k, a, a_row, a_col, b, ldb, c, ldc);
  }
#else
  gemm_ordered_scalar(0, m, 0, n, k, a, a_row, a_col, b, ldb, c, ldc);
#endif
}

void adam_update(const AdamStep& s, std::size_t n, double* value,
                 double* grad, double* m, double* v) {
  const double omb1 = 1.0 - s.beta1;
  const double omb2 = 1.0 - s.beta2;
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256d scale = _mm256_set1_pd(s.scale);
  const __m256d lr = _mm256_set1_pd(s.lr);
  const __m256d b1 = _mm256_set1_pd(s.beta1);
  const __m256d b2 = _mm256_set1_pd(s.beta2);
  const __m256d c1 = _mm256_set1_pd(omb1);
  const __m256d c2 = _mm256_set1_pd(omb2);
  const __m256d bc1 = _mm256_set1_pd(s.bc1);
  const __m256d bc2 = _mm256_set1_pd(s.bc2);
  const __m256d eps = _mm256_set1_pd(s.epsilon);
  const __m256d zero = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_mul_pd(_mm256_loadu_pd(grad + i), scale);
    const __m256d mi = _mm256_add_pd(
        _mm256_mul_pd(b1, _mm256_loadu_pd(m + i)), _mm256_mul_pd(c1, g));
    const __m256d vi =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(c2, g), g));
    const __m256d mhat = _mm256_div_pd(mi, bc1);
    const __m256d vhat = _mm256_div_pd(vi, bc2);
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(lr, mhat), _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    _mm256_storeu_pd(value + i,
                     _mm256_sub_pd(_mm256_loadu_pd(value + i), step));
    _mm256_storeu_pd(grad + i, zero);
  }
#endif
  for (; i < n; ++i) {
    const double g = grad[i] * s.scale;
    m[i] = s.beta1 * m[i] + omb1 * g;
    v[i] = s.beta2 * v[i] + omb2 * g * g;
    const double mhat = m[i] / s.bc1;
    const double vhat = v[i] / s.bc2;
    value[i] -= s.lr * mhat / (std::sqrt(vhat) + s.epsilon);
    grad[i] = 0.0;
  }
}

}  // namespace vkey::nn
