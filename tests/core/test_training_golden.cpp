// Golden training fingerprints for the predictor and the reconciler.
//
// Training must be bit-reproducible across kernel rewrites: each case pins
// the FNV-1a hash of every trainable parameter byte after train(), the
// final loss as a hexfloat, and the NN work counters the run charged. A
// change that reorders any gradient sum, touches the Adam arithmetic or
// alters the sample schedule moves at least one of these values.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/predictor.h"
#include "core/reconciler.h"

namespace vkey::core {
namespace {

std::uint64_t fnv1a(const std::vector<nn::Parameter*>& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const nn::Parameter* p : params) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p->value.data());
    for (std::size_t i = 0; i < p->value.size() * sizeof(double); ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// NN work counters charged by one train() call.
struct Work {
  std::uint64_t lstm_steps = 0;
  std::uint64_t lstm_flops = 0;
  std::uint64_t dense_flops = 0;
  std::uint64_t dense_calls = 0;
};

class WorkProbe {
 public:
  WorkProbe() : was_enabled_(metrics::enabled()) {
    metrics::set_enabled(true);
    start_ = read();
  }
  ~WorkProbe() { metrics::set_enabled(was_enabled_); }
  WorkProbe(const WorkProbe&) = delete;
  WorkProbe& operator=(const WorkProbe&) = delete;

  Work delta() const {
    const Work now = read();
    return {now.lstm_steps - start_.lstm_steps,
            now.lstm_flops - start_.lstm_flops,
            now.dense_flops - start_.dense_flops,
            now.dense_calls - start_.dense_calls};
  }

 private:
  static Work read() {
    auto& reg = metrics::Registry::global();
    return {reg.counter("nn.lstm.cell_steps").value(),
            reg.counter("nn.lstm.flops").value(),
            reg.counter("nn.dense.flops").value(),
            reg.counter("nn.dense.forward_calls").value()};
  }

  bool was_enabled_;
  Work start_;
};

struct Golden {
  const char* params_fnv;
  const char* final_loss;
  Work work;
};

void expect_golden(std::uint64_t fnv, double loss, const Work& work,
                   const Golden& want) {
  EXPECT_EQ(hex64(fnv), want.params_fnv);
  EXPECT_EQ(hexfloat(loss), want.final_loss);
  EXPECT_EQ(work.lstm_steps, want.work.lstm_steps);
  EXPECT_EQ(work.lstm_flops, want.work.lstm_flops);
  EXPECT_EQ(work.dense_flops, want.work.dense_flops);
  EXPECT_EQ(work.dense_calls, want.work.dense_calls);
}

// --- Reconciler: train(600, 6), default sizing, every encoder mode. ------

void check_reconciler(bool tie, bool freeze, std::size_t threads,
                      const Golden& want) {
  ReconcilerConfig cfg;
  cfg.tie_encoders = tie;
  cfg.freeze_encoder = freeze;
  cfg.threads = threads;
  AutoencoderReconciler r(cfg);
  WorkProbe probe;
  const double loss = r.train(600, 6);
  const Work work = probe.delta();
  expect_golden(fnv1a(r.parameters()), loss, work, want);
}

// Every sample-step (600 x 6) runs the encoder (one Dense tied, two
// untied) and the four decoder layers forward, frozen or not.
constexpr Golden kTiedFrozen{"b1c8c23a20929d73", "0x1.3848a03d20989p+4",
                              {0, 0, 117964800, 18000}};
constexpr Golden kTiedTrained{"b804247c24195c2e", "0x1.35aeaf0c69d43p+4",
                               {0, 0, 117964800, 18000}};
constexpr Golden kUntiedFrozen{"37119c76c1b5e41b", "0x1.4613f57a840bcp+4",
                                {0, 0, 132710400, 21600}};
constexpr Golden kUntiedTrained{"7d7e9bb354a000e7", "0x1.4680deb7af14bp+4",
                                 {0, 0, 132710400, 21600}};

TEST(TrainingGolden, ReconcilerTiedFrozen) {
  check_reconciler(true, true, 1, kTiedFrozen);
  check_reconciler(true, true, 4, kTiedFrozen);
}

TEST(TrainingGolden, ReconcilerTiedTrained) {
  check_reconciler(true, false, 1, kTiedTrained);
  check_reconciler(true, false, 4, kTiedTrained);
}

TEST(TrainingGolden, ReconcilerUntiedFrozen) {
  check_reconciler(false, true, 1, kUntiedFrozen);
  check_reconciler(false, true, 4, kUntiedFrozen);
}

TEST(TrainingGolden, ReconcilerUntiedTrained) {
  check_reconciler(false, false, 1, kUntiedTrained);
  check_reconciler(false, false, 4, kUntiedTrained);
}

// --- Predictor: 37 samples (odd, so every epoch ends on a partial
// minibatch), 3 epochs; 37 x 3 sequences x 16 steps x 2 directions. -------

std::vector<TrainingSample> golden_samples(const PredictorConfig& cfg) {
  vkey::Rng rng(4242);
  std::vector<TrainingSample> out(37);
  for (TrainingSample& s : out) {
    s.alice_seq.resize(cfg.seq_len);
    s.bob_seq.resize(cfg.seq_len);
    for (std::size_t t = 0; t < cfg.seq_len; ++t) {
      s.alice_seq[t] = rng.uniform();
      s.bob_seq[t] = 0.7 * s.alice_seq[t] + 0.3 * rng.uniform();
    }
    s.bob_bits = BitVec(cfg.key_bits);
    for (std::size_t i = 0; i < cfg.key_bits; ++i)
      s.bob_bits.set(i, s.bob_seq[i % cfg.seq_len] > 0.5);
  }
  return out;
}

void check_predictor(std::size_t batch_size, const Golden& want) {
  PredictorConfig cfg;
  cfg.seq_len = 16;
  cfg.hidden = 10;
  cfg.key_bits = 24;
  cfg.batch_size = batch_size;
  cfg.seed = 5;
  const auto samples = golden_samples(cfg);
  PredictorQuantizer p(cfg);
  WorkProbe probe;
  const TrainReport report = p.train(samples, 3);
  const Work work = probe.delta();
  expect_golden(fnv1a(p.parameters()), report.final_loss, work, want);
}

constexpr Golden kPredictorBatch16{"4ef4d7ac8ad3c904",
                                    "0x1.c49955b7e7523p+0",
                                    {3552, 4049280, 1221888, 222}};
constexpr Golden kPredictorBatch1{"0a974d67fe7af737",
                                   "0x1.b37b9bb1a480dp+0",
                                   {3552, 4049280, 1221888, 222}};

TEST(TrainingGolden, PredictorBatch16) {
  check_predictor(16, kPredictorBatch16);
}

TEST(TrainingGolden, PredictorBatch1) { check_predictor(1, kPredictorBatch1); }

}  // namespace
}  // namespace vkey::core
