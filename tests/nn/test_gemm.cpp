// Golden-vector suite for the blocked NN kernels (gemm.h).
//
// The contract under test (DESIGN.md "NN kernel core"): the packed float
// kernels are BIT-identical to the retained naive reference on every shape
// the layers use — including ragged panel tails — and the batched entry
// points are bit-identical to their sequential counterparts. The training
// kernels (gemm_ordered, adam_update) are held bitwise to the naive loops
// they replaced.
#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace vkey::nn {
namespace {

std::vector<double> random_vec(std::size_t n, vkey::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

// Shapes exercising every panel-tail case: sub-panel, exact panel,
// multi-panel with ragged tail, and the 4-panel main-loop boundary.
struct Shape {
  std::size_t rows, cols;
};
const Shape kShapes[] = {{1, 1},  {3, 2},   {7, 5},    {8, 8},
                         {9, 3},  {16, 16}, {31, 31},  {32, 7},
                         {33, 17}, {40, 64}, {100, 37}, {64, 129}};

TEST(ReferenceMatvec, HandComputedCase) {
  // w = [[1, 2], [3, 4]], x = [5, 6], bias = [10, 20].
  const double w[] = {1.0, 2.0, 3.0, 4.0};
  const double x[] = {5.0, 6.0};
  const double bias[] = {10.0, 20.0};
  double y[2];
  reference_matvec(w, 2, 2, x, bias, y);
  EXPECT_EQ(y[0], 10.0 + 5.0 + 12.0);
  EXPECT_EQ(y[1], 20.0 + 15.0 + 24.0);
}

TEST(PackedMatrix, MatvecBitExactOnAllShapes) {
  vkey::Rng rng(101);
  for (const auto& sh : kShapes) {
    const auto w = random_vec(sh.rows * sh.cols, rng);
    const auto x = random_vec(sh.cols, rng);
    const auto bias = random_vec(sh.rows, rng);
    std::vector<double> ref(sh.rows), got(sh.rows);
    reference_matvec(w.data(), sh.rows, sh.cols, x.data(), bias.data(),
                     ref.data());
    PackedMatrix pm;
    pm.pack(w.data(), sh.rows, sh.cols);
    EXPECT_EQ(pm.rows(), sh.rows);
    EXPECT_EQ(pm.cols(), sh.cols);
    pm.matvec(x.data(), bias.data(), got.data());
    for (std::size_t r = 0; r < sh.rows; ++r) {
      // Bitwise equality, not EXPECT_NEAR: the kernel contract is exact.
      EXPECT_EQ(ref[r], got[r]) << sh.rows << "x" << sh.cols << " row " << r;
    }
  }
}

TEST(PackedMatrix, NullBiasStartsAtZero) {
  vkey::Rng rng(102);
  const auto w = random_vec(33 * 17, rng);
  const auto x = random_vec(17, rng);
  std::vector<double> ref(33), got(33);
  const std::vector<double> zero_bias(33, 0.0);
  reference_matvec(w.data(), 33, 17, x.data(), zero_bias.data(), ref.data());
  PackedMatrix pm;
  pm.pack(w.data(), 33, 17);
  pm.matvec(x.data(), nullptr, got.data());
  for (std::size_t r = 0; r < 33; ++r) EXPECT_EQ(ref[r], got[r]);
}

TEST(PackedMatrix, PackPairMatchesColumnConcatenation) {
  vkey::Rng rng(103);
  const std::size_t rows = 28, ca = 3, cb = 7;
  const auto wa = random_vec(rows * ca, rng);
  const auto wb = random_vec(rows * cb, rng);
  // Build the explicit [wa | wb] row-major concatenation.
  std::vector<double> cat(rows * (ca + cb));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < ca; ++c) cat[r * (ca + cb) + c] = wa[r * ca + c];
    for (std::size_t c = 0; c < cb; ++c)
      cat[r * (ca + cb) + ca + c] = wb[r * cb + c];
  }
  const auto x = random_vec(ca + cb, rng);
  const auto bias = random_vec(rows, rng);
  std::vector<double> want(rows), got(rows);
  PackedMatrix whole, paired;
  whole.pack(cat.data(), rows, ca + cb);
  paired.pack_pair(wa.data(), ca, wb.data(), cb, rows);
  whole.matvec(x.data(), bias.data(), want.data());
  paired.matvec(x.data(), bias.data(), got.data());
  EXPECT_EQ(want, got);
}

TEST(PackedMatrix, BatchedMatvecBitEqualsSequential) {
  vkey::Rng rng(104);
  // Batch sizes around the member-quad boundary (1..6) on a ragged shape.
  const std::size_t rows = 37, cols = 19;
  const auto w = random_vec(rows * cols, rng);
  const auto bias = random_vec(rows, rng);
  PackedMatrix pm;
  pm.pack(w.data(), rows, cols);
  for (std::size_t batch = 1; batch <= 6; ++batch) {
    std::vector<std::vector<double>> xs(batch), seq(batch), bat(batch);
    std::vector<const double*> xp(batch);
    std::vector<double*> yp(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      xs[b] = random_vec(cols, rng);
      seq[b].resize(rows);
      bat[b].resize(rows);
      pm.matvec(xs[b].data(), bias.data(), seq[b].data());
      xp[b] = xs[b].data();
      yp[b] = bat[b].data();
    }
    pm.matvec_batch(xp.data(), batch, bias.data(), yp.data());
    for (std::size_t b = 0; b < batch; ++b) {
      EXPECT_EQ(seq[b], bat[b]) << "batch " << batch << " member " << b;
    }
  }
}

// --- Ordered-accumulation GEMM (the training core) ---

// Values that make accumulation order visible: signed zeros, subnormals,
// and large magnitudes next to ordinary ones (products stay finite).
std::vector<double> hostile_vec(std::size_t n, vkey::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    const double sign = rng.bernoulli(0.5) ? -1.0 : 1.0;
    switch (rng.uniform_int(6)) {
      case 0:
        x = sign * 0.0;
        break;
      case 1:
        x = sign * std::numeric_limits<double>::denorm_min() *
            static_cast<double>(1 + rng.uniform_int(1000));
        break;
      case 2:
        x = sign * 1e145 * rng.uniform(1.0, 10.0);
        break;
      default:
        x = rng.uniform(-2.0, 2.0);
        break;
    }
  }
  return v;
}

// The loop gemm_ordered must reproduce: one chain per element, p ascending.
void naive_gemm(std::size_t m, std::size_t n, std::size_t k, const double* a,
                std::size_t a_row, std::size_t a_col, const double* b,
                std::size_t ldb, double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = c[i * ldc + j];
      for (std::size_t p = 0; p < k; ++p)
        s += a[i * a_row + p * a_col] * b[p * ldb + j];
      c[i * ldc + j] = s;
    }
  }
}

void expect_same_bits(const std::vector<double>& want,
                      const std::vector<double>& got, const char* what,
                      std::size_t m, std::size_t n, std::size_t k) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << what << " m=" << m << " n=" << n << " k=" << k << " at " << i
        << ": " << want[i] << " vs " << got[i];
  }
}

const std::size_t kGemmDims[] = {1, 3, 7, 8, 9, 35, 64, 128};
const std::size_t kGemmDepths[] = {1, 5, 64, 1024};

TEST(OrderedGemm, EqualsNaiveTripleLoopDense) {
  vkey::Rng rng(111);
  for (std::size_t m : kGemmDims) {
    for (std::size_t n : kGemmDims) {
      for (std::size_t k : kGemmDepths) {
        const auto a = hostile_vec(m * k, rng);
        const auto b = hostile_vec(k * n, rng);
        auto want = hostile_vec(m * n, rng);
        auto got = want;
        naive_gemm(m, n, k, a.data(), k, 1, b.data(), n, want.data(), n);
        gemm_ordered(m, n, k, a.data(), k, 1, b.data(), n, got.data(), n);
        expect_same_bits(want, got, "dense", m, n, k);
      }
    }
  }
}

// A read transposed (a_row 1, as in dW += dZ^T X), every leading dimension
// padded; the padding of C must come back untouched.
TEST(OrderedGemm, EqualsNaiveTripleLoopStridedTransposed) {
  vkey::Rng rng(112);
  for (std::size_t m : kGemmDims) {
    for (std::size_t n : kGemmDims) {
      for (std::size_t k : kGemmDepths) {
        const std::size_t a_col = m + 3, ldb = n + 5, ldc = n + 2;
        const auto a = hostile_vec(k * a_col, rng);
        const auto b = hostile_vec(k * ldb, rng);
        auto want = hostile_vec(m * ldc, rng);
        auto got = want;
        naive_gemm(m, n, k, a.data(), 1, a_col, b.data(), ldb, want.data(),
                   ldc);
        gemm_ordered(m, n, k, a.data(), 1, a_col, b.data(), ldb, got.data(),
                     ldc);
        expect_same_bits(want, got, "transposed", m, n, k);
      }
    }
  }
}

// Stride-0 A broadcasts one value: with 1.0 that is a column-sum of B
// (the bias gradient), which must equal plain row-by-row addition.
TEST(OrderedGemm, BroadcastOneSumsRowsInOrder) {
  vkey::Rng rng(113);
  const std::size_t k = 300, n = 37;
  const auto b = hostile_vec(k * n, rng);
  auto want = hostile_vec(n, rng);
  auto got = want;
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t j = 0; j < n; ++j) want[j] += b[p * n + j];
  const double one = 1.0;
  gemm_ordered(1, n, k, &one, 0, 0, b.data(), n, got.data(), n);
  expect_same_bits(want, got, "broadcast", 1, n, k);
}

TEST(OrderedGemm, EmptyDepthLeavesCUnchanged) {
  vkey::Rng rng(114);
  const auto c0 = hostile_vec(8 * 9, rng);
  auto c = c0;
  const double dummy = 1.0;
  gemm_ordered(8, 9, 0, &dummy, 0, 0, &dummy, 0, c.data(), 9);
  expect_same_bits(c0, c, "k=0", 8, 9, 0);
}

// --- Elementwise Adam kernel ---

// The scalar update Adam::step ran before the kernel existed.
void scalar_adam(Parameter& p, std::size_t t, std::size_t batch, double lr,
                 double beta1, double beta2, double eps) {
  const double scale = 1.0 / static_cast<double>(batch);
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  if (p.adam_m.size() != p.size()) {
    p.adam_m.assign(p.size(), 0.0);
    p.adam_v.assign(p.size(), 0.0);
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double g = p.grad[i] * scale;
    p.adam_m[i] = beta1 * p.adam_m[i] + (1.0 - beta1) * g;
    p.adam_v[i] = beta2 * p.adam_v[i] + (1.0 - beta2) * g * g;
    const double mhat = p.adam_m[i] / bc1;
    const double vhat = p.adam_v[i] / bc2;
    p.value[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
  p.zero_grad();
}

TEST(AdamKernel, BitEqualsScalarLoopAcrossLaneChunks) {
  // Sizes straddle the optimizer's 8192-element lane ranges and the 4-wide
  // vector tail.
  const std::size_t sizes[] = {1, 3, 8191, 8192, 8193, 2 * 8192 + 37};
  for (std::size_t threads : {1u, 4u}) {
    vkey::Rng rng(115);
    std::vector<Parameter> ref, got;
    for (std::size_t n : sizes) {
      Parameter p(n);
      p.value = hostile_vec(n, rng);
      ref.push_back(p);
      got.push_back(p);
    }
    std::vector<Parameter*> ptrs(got.size());
    for (std::size_t i = 0; i < got.size(); ++i) ptrs[i] = &got[i];
    Adam opt(ptrs, 3e-3, 0.8, 0.99, 1e-7);
    for (std::size_t t = 1; t <= 4; ++t) {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ref[i].grad = hostile_vec(ref[i].size(), rng);
        got[i].grad = ref[i].grad;
        scalar_adam(ref[i], t, 3, 3e-3, 0.8, 0.99, 1e-7);
      }
      opt.step(3, threads);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        for (const auto& [w, g] :
             {std::pair{&ref[i].value, &got[i].value},
              std::pair{&ref[i].adam_m, &got[i].adam_m},
              std::pair{&ref[i].adam_v, &got[i].adam_v},
              std::pair{&ref[i].grad, &got[i].grad}}) {
          expect_same_bits(*w, *g, "adam", ref[i].size(), threads, t);
        }
      }
    }
  }
}

// --- Dense layer golden vectors ---

TEST(DenseGolden, InferBitEqualsNaiveReference) {
  for (auto act : {Activation::kNone, Activation::kSigmoid, Activation::kTanh,
                   Activation::kRelu}) {
    vkey::Rng rng(201);
    Dense d(37, 29, rng, act);
    vkey::Rng xr(202);
    for (int trial = 0; trial < 4; ++trial) {
      const Vec x = random_vec(37, xr);
      EXPECT_EQ(d.infer(x), d.infer_reference(x));
    }
  }
}

TEST(DenseGolden, InferBatchBitEqualsSequential) {
  vkey::Rng rng(203);
  Dense d(24, 40, rng, Activation::kTanh);
  vkey::Rng xr(204);
  const std::size_t batch = 5;
  const Vec xs = random_vec(batch * 24, xr);
  Vec ys(batch * 40);
  d.forward_batch(xs.data(), batch, ys.data());
  for (std::size_t b = 0; b < batch; ++b) {
    const Vec x(xs.begin() + b * 24, xs.begin() + (b + 1) * 24);
    const Vec y(ys.begin() + b * 40, ys.begin() + (b + 1) * 40);
    EXPECT_EQ(y, d.infer(x)) << "member " << b;
  }
}

TEST(DenseGolden, SerializeRoundTripRepacksCache) {
  vkey::Rng rng(205);
  Dense d(9, 11, rng);
  const Vec x = random_vec(9, rng);
  const Vec before = d.infer(x);  // warm the packed cache

  const auto saved = snapshot(d.parameters());
  // Perturb through the bump-aware restore path, then restore the original.
  auto perturbed = saved;
  for (double& v : perturbed) v += 0.25;
  restore(d.parameters(), perturbed);
  EXPECT_NE(d.infer(x), before);  // stale cache would return `before`
  EXPECT_EQ(d.infer(x), d.infer_reference(x));
  restore(d.parameters(), saved);
  EXPECT_EQ(d.infer(x), before);
}

TEST(DenseGolden, OptimizerStepRepacksCache) {
  vkey::Rng rng(206);
  Dense d(6, 6, rng);
  const Vec x = random_vec(6, rng);
  (void)d.infer(x);  // warm the packed cache
  d.forward(x);
  d.backward(Vec(6, 1.0));
  Sgd opt(d.parameters(), 0.1);
  opt.step(1);
  EXPECT_EQ(d.infer(x), d.infer_reference(x));
}

// --- LSTM / BiLSTM golden vectors ---

Seq random_seq(std::size_t t_len, std::size_t width, vkey::Rng& rng) {
  Seq s(t_len);
  for (auto& step : s) step = random_vec(width, rng);
  return s;
}

TEST(LstmGolden, FusedInferBitEqualsNaiveReference) {
  vkey::Rng rng(301);
  Lstm lstm(3, 13, rng);  // 4H = 52: ragged panel tail
  vkey::Rng xr(302);
  for (std::size_t t_len : {1u, 2u, 9u}) {
    const Seq x = random_seq(t_len, 3, xr);
    EXPECT_EQ(lstm.infer(x), lstm.infer_reference(x));
  }
}

TEST(LstmGolden, ReverseFusedInferBitEqualsNaiveReference) {
  vkey::Rng rng(303);
  Lstm lstm(2, 5, rng, /*reverse=*/true);
  vkey::Rng xr(304);
  const Seq x = random_seq(6, 2, xr);
  EXPECT_EQ(lstm.infer(x), lstm.infer_reference(x));
}

TEST(BiLstmGolden, InferBitEqualsNaiveReference) {
  vkey::Rng rng(305);
  BiLstm bi(3, 8, rng);
  vkey::Rng xr(306);
  const Seq x = random_seq(7, 3, xr);
  EXPECT_EQ(bi.infer(x), bi.infer_reference(x));
}

TEST(BiLstmGolden, InferBatchBitEqualsSequential) {
  vkey::Rng rng(307);
  BiLstm bi(2, 6, rng);
  vkey::Rng xr(308);
  const std::size_t batch = 3, steps = 5, width = bi.output_size();
  std::vector<Seq> xs;
  Vec flat_x;
  for (std::size_t b = 0; b < batch; ++b) {
    xs.push_back(random_seq(steps, 2, xr));
    for (const Vec& xt : xs.back()) flat_x.insert(flat_x.end(), xt.begin(), xt.end());
  }
  Vec out(batch * steps * width);
  bi.infer_batch(flat_x.data(), batch, steps, out.data());
  for (std::size_t b = 0; b < batch; ++b) {
    const Seq want = bi.infer_reference(xs[b]);
    for (std::size_t t = 0; t < steps; ++t) {
      const double* row = out.data() + (b * steps + t) * width;
      EXPECT_EQ(Vec(row, row + width), want[t]) << "member " << b << " t " << t;
    }
  }
}

// --- PackGuard / revision semantics ---

TEST(PackGuard, RepacksOncePerRevision) {
  PackGuard guard;
  int repacks = 0;
  guard.ensure(1, [&] { ++repacks; });
  guard.ensure(1, [&] { ++repacks; });
  EXPECT_EQ(repacks, 1);
  guard.ensure(2, [&] { ++repacks; });
  guard.ensure(2, [&] { ++repacks; });
  EXPECT_EQ(repacks, 2);
}

TEST(PackGuard, CopyResetsToUnpacked) {
  PackGuard a;
  int repacks = 0;
  a.ensure(5, [&] { ++repacks; });
  PackGuard b(a);
  b.ensure(5, [&] { ++repacks; });  // copy must not inherit freshness
  EXPECT_EQ(repacks, 2);
  a = b;
  a.ensure(5, [&] { ++repacks; });
  EXPECT_EQ(repacks, 3);
}

TEST(Parameter, RevisionStartsAtOneAndBumps) {
  Parameter p(4);
  EXPECT_EQ(p.revision, 1u);
  p.bump();
  EXPECT_EQ(p.revision, 2u);
}

// --- accounting regressions: counters must not advance on rejected calls ---

TEST(Accounting, DenseCountersUnchangedOnInvalidInput) {
  if (!metrics::enabled()) GTEST_SKIP() << "metrics disabled";
  vkey::Rng rng(501);
  Dense d(4, 3, rng);
  auto& flops = metrics::Registry::global().counter("nn.dense.flops");
  auto& calls = metrics::Registry::global().counter("nn.dense.forward_calls");
  const auto f0 = flops.value();
  const auto c0 = calls.value();
  EXPECT_THROW(d.infer({1.0, 2.0}), vkey::Error);  // wrong width
  EXPECT_EQ(flops.value(), f0);
  EXPECT_EQ(calls.value(), c0);
  (void)d.infer({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(calls.value(), c0 + 1);
  EXPECT_EQ(flops.value(), f0 + 2u * 4u * 3u);
}

TEST(Accounting, LstmCountersUnchangedOnInvalidInput) {
  if (!metrics::enabled()) GTEST_SKIP() << "metrics disabled";
  vkey::Rng rng(502);
  Lstm lstm(2, 4, rng);
  auto& flops = metrics::Registry::global().counter("nn.lstm.flops");
  auto& steps = metrics::Registry::global().counter("nn.lstm.cell_steps");
  const auto f0 = flops.value();
  const auto s0 = steps.value();
  EXPECT_THROW(lstm.infer({}), vkey::Error);               // empty
  EXPECT_THROW(lstm.infer({{1.0}}), vkey::Error);          // wrong width
  EXPECT_THROW(lstm.infer({{1.0, 2.0}, {1.0}}), vkey::Error);  // mid-seq
  EXPECT_THROW(lstm.forward({{1.0}}), vkey::Error);
  EXPECT_EQ(flops.value(), f0);
  EXPECT_EQ(steps.value(), s0);
  (void)lstm.infer({{1.0, 2.0}, {0.5, -0.5}});
  EXPECT_EQ(steps.value(), s0 + 2);
}

// --- BiLstm backward guards (satellite bugfix) ---

TEST(BiLstmGuards, BackwardOnEmptyGradientThrows) {
  vkey::Rng rng(601);
  BiLstm bi(1, 3, rng);
  EXPECT_THROW(bi.backward({}), vkey::Error);
}

TEST(BiLstmGuards, BackwardLengthMismatchThrows) {
  vkey::Rng rng(602);
  BiLstm bi(1, 3, rng);
  Seq x(4, Vec{0.5});
  (void)bi.forward(x);
  Seq wrong_len(3, Vec(6, 0.0));  // forward cached 4 steps
  EXPECT_THROW(bi.backward(wrong_len), vkey::Error);
}

TEST(BiLstmGuards, BackwardBeforeForwardThrows) {
  vkey::Rng rng(603);
  BiLstm bi(1, 3, rng);
  EXPECT_THROW(bi.backward(Seq(2, Vec(6, 0.0))), vkey::Error);
}

}  // namespace
}  // namespace vkey::nn
