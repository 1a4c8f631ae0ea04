// Gateway engine: registry state machines, admission control, the shared
// event queue, and the determinism contract at thousand-session scale.
// Everything runs on virtual time — no sleeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/reconciler.h"
#include "protocol/gateway.h"
#include "protocol/reliability.h"
#include "protocol/session.h"
#include "protocol/session_registry.h"
#include "protocol/sim_clock.h"
#include "protocol/unreliable_channel.h"
#include "protocol/wire.h"

namespace vkey::protocol {
namespace {

channel::LoRaParams fast_radio() {
  channel::LoRaParams p;
  p.spreading_factor = 7;  // keep virtual airtimes small in tests
  return p;
}

/// Every registered instrument as "<kind> <name>", sorted.
std::vector<std::string> registered_names() {
  const json::Value snap = metrics::Registry::global().snapshot();
  std::vector<std::string> out;
  for (const char* kind : {"counters", "gauges", "histograms"}) {
    for (const auto& [name, value] : snap.at(kind).as_object()) {
      out.push_back(std::string(kind) + " " + name);
    }
  }
  return out;
}

// ------------------------------------------------------ instrument catalogue

TEST(Instruments, RegisterGatewayMetricsRegistersTheGoldenNameSet) {
  // perfbench, the telemetry prefixes and the BENCH snapshots read these
  // instruments by name: a rename must fail here, not silently zero a read.
  register_gateway_metrics();
  std::vector<std::string> stack;
  for (const std::string& n : registered_names()) {
    const std::string name = n.substr(n.find(' ') + 1);
    for (const char* prefix : {"arq.", "gateway.", "link.", "reliability.",
                               "session.", "wire."}) {
      if (name.rfind(prefix, 0) == 0) stack.push_back(n);
    }
  }
  const std::vector<std::string> golden = {
      "counters arq.acks_received",
      "counters arq.acks_sent",
      "counters arq.data_sent",
      "counters arq.gave_up",
      "counters arq.retransmissions",
      "counters arq.timeouts",
      "counters gateway.admissions",
      "counters gateway.arrivals",
      "counters gateway.establish_failures",
      "counters gateway.evictions.failed",
      "counters gateway.evictions.idle",
      "counters gateway.keys_established",
      "counters gateway.rekeys",
      "counters link.corrupted",
      "counters link.crc_lost",
      "counters link.dropped",
      "counters link.duplicated",
      "counters link.reordered",
      "counters link.sent",
      "counters reliability.attempts",
      "counters reliability.established",
      "counters reliability.exhausted",
      "counters reliability.failure.confirm-mismatch",
      "counters reliability.failure.mac-mismatch",
      "counters reliability.failure.protocol-error",
      "counters reliability.failure.retry-exhausted",
      "counters reliability.failure.timeout",
      "counters session.established",
      "counters session.frames_delivered",
      "counters session.runs",
      "counters wire.decoded",
      "counters wire.encoded",
      "counters wire.reject.crc",
      "counters wire.reject.mac-len",
      "counters wire.reject.magic",
      "counters wire.reject.payload-len",
      "counters wire.reject.trailing",
      "counters wire.reject.truncated",
      "counters wire.reject.type",
      "counters wire.reject.version",
      "gauges gateway.active_sessions",
      "gauges gateway.inflight_sessions",
      "gauges gateway.queued_sessions",
      "histograms arq.backoff_ms",
      "histograms gateway.queue_wait_ms",
      "histograms gateway.time_to_key_ms",
      "histograms reliability.attempt_ms",
      "histograms reliability.time_to_establish_ms",
  };
  EXPECT_EQ(stack, golden);
}

// --------------------------------------------------------- SessionRegistry

TEST(SessionRegistry, FifoAdmissionHonorsTheInflightCap) {
  SessionRegistry reg(2);
  reg.arrive(0, 0.0);
  reg.arrive(1, 1.0);
  reg.arrive(2, 2.0);
  EXPECT_EQ(reg.queued(), 3u);
  EXPECT_TRUE(reg.slot_free());

  const auto a = reg.admit_next(5.0);
  const auto b = reg.admit_next(5.0);
  const auto c = reg.admit_next(5.0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, 0u);  // FIFO: first arrival admitted first
  EXPECT_EQ(*b, 1u);
  EXPECT_FALSE(c.has_value());  // both slots taken
  EXPECT_EQ(reg.establishing(), 2u);
  EXPECT_EQ(reg.queued(), 1u);
  EXPECT_FALSE(reg.slot_free());

  reg.established(0, 9.0);
  EXPECT_TRUE(reg.slot_free());
  const auto d = reg.admit_next(9.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 2u);

  EXPECT_DOUBLE_EQ(reg.record(0).queue_wait_ms(), 5.0);
  EXPECT_DOUBLE_EQ(reg.record(0).time_to_key_ms(), 9.0);
  EXPECT_DOUBLE_EQ(reg.record(2).queue_wait_ms(), 7.0);
  EXPECT_EQ(reg.stats().peak_inflight, 2u);
  EXPECT_EQ(reg.stats().peak_queued, 3u);
}

TEST(SessionRegistry, EvictionBookkeepingSeparatesIdleFromFailure) {
  SessionRegistry reg(1);
  reg.arrive(0, 0.0);
  reg.arrive(1, 0.0);

  ASSERT_TRUE(reg.admit_next(1.0).has_value());
  reg.failed(0, 4.0, FailureReason::kRetryExhausted);
  reg.evict(0, 4.0, EvictReason::kFailed);
  EXPECT_EQ(reg.record(0).state, DeviceState::kEvicted);
  ASSERT_TRUE(reg.record(0).evict_reason.has_value());
  EXPECT_EQ(*reg.record(0).evict_reason, EvictReason::kFailed);
  EXPECT_EQ(reg.record(0).failure, FailureReason::kRetryExhausted);
  EXPECT_LT(reg.record(0).time_to_key_ms(), 0.0);  // never established

  ASSERT_TRUE(reg.admit_next(5.0).has_value());
  reg.established(1, 8.0);
  reg.rekeyed(1, 10.0);
  reg.rekeyed(1, 12.0);
  EXPECT_DOUBLE_EQ(reg.record(1).last_activity_ms, 12.0);
  reg.touch(1, 13.0);
  EXPECT_DOUBLE_EQ(reg.record(1).last_activity_ms, 13.0);
  reg.evict(1, 20.0, EvictReason::kIdle);

  const RegistryStats& s = reg.stats();
  EXPECT_EQ(s.arrivals, 2u);
  EXPECT_EQ(s.admissions, 2u);
  EXPECT_EQ(s.established, 1u);
  EXPECT_EQ(s.failures, 1u);
  EXPECT_EQ(s.evicted_idle, 1u);
  EXPECT_EQ(s.evicted_failed, 1u);
  EXPECT_EQ(s.rekeys, 2u);
  EXPECT_EQ(reg.record(1).rekeys, 2u);
  EXPECT_EQ(reg.establishing(), 0u);
  EXPECT_EQ(reg.confirmed_active(), 0u);
}

TEST(SessionRegistry, StateAndReasonStringsAreHumanReadable) {
  EXPECT_EQ(to_string(DeviceState::kQueued), "queued");
  EXPECT_EQ(to_string(DeviceState::kEstablishing), "establishing");
  EXPECT_EQ(to_string(DeviceState::kConfirmed), "confirmed");
  EXPECT_EQ(to_string(DeviceState::kEvicted), "evicted");
  EXPECT_EQ(to_string(EvictReason::kIdle), "idle");
  EXPECT_EQ(to_string(EvictReason::kFailed), "failed");
}

// ----------------------------------------------------------- GatewayEngine

class GatewayTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    core::ReconcilerConfig cfg;
    cfg.key_bits = 64;
    cfg.decoder_units = 64;
    reconciler_ = new core::AutoencoderReconciler(cfg);
    reconciler_->train(2500, 25);
  }
  static void TearDownTestSuite() {
    delete reconciler_;
    reconciler_ = nullptr;
  }

  static BitVec random_key(std::uint64_t seed) {
    vkey::Rng rng(seed);
    BitVec k(64);
    for (std::size_t i = 0; i < 64; ++i) k.set(i, rng.bernoulli(0.5));
    return k;
  }

  static BitVec with_flips(const BitVec& k, int flips, std::uint64_t seed) {
    vkey::Rng rng(seed);
    BitVec out = k;
    for (int f = 0; f < flips; ++f) {
      out.flip(static_cast<std::size_t>(rng.uniform_int(out.size())));
    }
    return out;
  }

  /// Pure per-device probe material (the gateway calls it from pool lanes).
  static GatewayEngine::MaterialFn material() {
    return [](std::uint64_t device, std::size_t attempt) {
      const std::uint64_t seed =
          hash_combine64(hash_combine64(0x6a73, device), attempt);
      const BitVec kb = random_key(seed);
      return std::make_pair(with_flips(kb, 3, seed ^ 0x5a5a), kb);
    };
  }

  static GatewayConfig small_config(std::size_t sessions,
                                    std::size_t inflight) {
    GatewayConfig cfg;
    cfg.sessions = sessions;
    cfg.max_inflight = inflight;
    cfg.arrival_interval_ms = 5.0;
    cfg.rekey_interval_ms = 2000.0;
    cfg.max_rekeys = 2;
    cfg.idle_timeout_ms = 5000.0;
    cfg.reliability.radio = fast_radio();
    cfg.reliability.max_session_attempts = 6;
    return cfg;
  }

  static core::AutoencoderReconciler* reconciler_;
};

core::AutoencoderReconciler* GatewayTest::reconciler_ = nullptr;

TEST_F(GatewayTest, LosslessRunDrivesEverySessionToIdleEviction) {
  GatewayEngine engine(small_config(50, 8), *reconciler_, material());
  const GatewayReport rep = engine.run();

  EXPECT_EQ(rep.sessions, 50u);
  EXPECT_EQ(rep.established, 50u);
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.evicted_idle, 50u);
  EXPECT_EQ(rep.evicted_failed, 0u);
  EXPECT_EQ(rep.rekeys, 100u);  // max_rekeys per confirmed session
  EXPECT_LE(rep.peak_inflight, 8u);
  EXPECT_GT(rep.keys_per_vsecond, 0.0);
  EXPECT_GT(rep.median_time_to_key_ms, 0.0);
  EXPECT_GE(rep.p95_time_to_key_ms, rep.median_time_to_key_ms);
  EXPECT_GT(rep.bytes_per_session, 0.0);
  EXPECT_TRUE(rep.failure_dumps.empty());
  EXPECT_EQ(rep.failures_suppressed, 0u);

  // The registry quiesced: no session left queued, establishing or live.
  const SessionRegistry& reg = engine.registry();
  EXPECT_EQ(reg.queued(), 0u);
  EXPECT_EQ(reg.establishing(), 0u);
  EXPECT_EQ(reg.confirmed_active(), 0u);
  for (std::uint64_t d = 0; d < 50; ++d) {
    EXPECT_EQ(reg.record(d).state, DeviceState::kEvicted);
    EXPECT_EQ(reg.record(d).rekeys, 2u);
    EXPECT_FALSE(engine.outcomes()[d].key.size() == 0);
  }
  // Makespan covers the last session's idle timeout after its last rekey.
  EXPECT_GT(rep.makespan_ms, rep.establish_span_ms);
}

TEST_F(GatewayTest, AdmissionQueuePreservesArrivalOrderUnderContention) {
  GatewayConfig cfg = small_config(40, 4);
  cfg.arrival_interval_ms = 1.0;  // arrivals outpace the 4 slots
  GatewayEngine engine(cfg, *reconciler_, material());
  const GatewayReport rep = engine.run();

  EXPECT_EQ(rep.established, 40u);
  EXPECT_GT(rep.peak_queued, 0u);
  EXPECT_GT(rep.mean_queue_wait_ms, 0.0);
  // FIFO admission: earlier arrivals are never admitted after later ones.
  const SessionRegistry& reg = engine.registry();
  for (std::uint64_t d = 1; d < 40; ++d) {
    EXPECT_LE(reg.record(d - 1).admitted_ms, reg.record(d).admitted_ms)
        << "device " << d;
  }
}

TEST_F(GatewayTest, ThousandSessionRunIsIdenticalAcrossLaneCounts) {
  const auto run_with = [](std::size_t threads) {
    GatewayConfig cfg = small_config(1000, 64);
    cfg.threads = threads;
    GatewayEngine engine(cfg, *reconciler_, material());
    return std::make_pair(engine.run(), engine.outcomes());
  };
  const auto [rep1, out1] = run_with(1);
  const auto [rep4, out4] = run_with(4);

  // The report folds virtual-time quantities only; every field must match
  // the sequential reference exactly (DESIGN.md §9 contract).
  EXPECT_EQ(rep1.established, rep4.established);
  EXPECT_EQ(rep1.rekeys, rep4.rekeys);
  EXPECT_EQ(rep1.peak_inflight, rep4.peak_inflight);
  EXPECT_EQ(rep1.peak_queued, rep4.peak_queued);
  EXPECT_EQ(rep1.makespan_ms, rep4.makespan_ms);
  EXPECT_EQ(rep1.establish_span_ms, rep4.establish_span_ms);
  EXPECT_EQ(rep1.median_time_to_key_ms, rep4.median_time_to_key_ms);
  EXPECT_EQ(rep1.p95_time_to_key_ms, rep4.p95_time_to_key_ms);
  EXPECT_EQ(rep1.mean_queue_wait_ms, rep4.mean_queue_wait_ms);
  EXPECT_EQ(rep1.bytes_per_session, rep4.bytes_per_session);

  ASSERT_EQ(out1.size(), out4.size());
  for (std::size_t d = 0; d < out1.size(); ++d) {
    EXPECT_EQ(out1[d].established, out4[d].established) << "device " << d;
    EXPECT_EQ(out1[d].establish_ms, out4[d].establish_ms) << "device " << d;
    EXPECT_EQ(out1[d].wire_bytes, out4[d].wire_bytes) << "device " << d;
    EXPECT_EQ(out1[d].attempts, out4[d].attempts) << "device " << d;
    ASSERT_TRUE(out1[d].key == out4[d].key) << "device " << d;
  }
}

/// Every field of a report and of the per-device outcomes, doubles in hex,
/// so two runs compare exactly with one string comparison.
std::string fingerprint(const GatewayReport& rep,
                        const std::vector<SessionOutcome>& outcomes) {
  std::string out;
  const auto add = [&out](const char* fmt, auto... v) {
    char buf[160];
    std::snprintf(buf, sizeof buf, fmt, v...);
    out += buf;
  };
  add("%zu %zu %zu %zu %zu %zu %zu %zu\n", rep.sessions, rep.established,
      rep.failed, rep.evicted_idle, rep.evicted_failed, rep.rekeys,
      rep.peak_inflight, rep.peak_queued);
  add("%a %a %a %a %a %a %a %a %a\n", rep.makespan_ms,
      rep.establish_span_ms, rep.keys_per_vsecond, rep.median_time_to_key_ms,
      rep.p95_time_to_key_ms, rep.p99_time_to_key_ms, rep.mean_queue_wait_ms,
      rep.mean_attempts, rep.bytes_per_session);
  for (const std::string& dump : rep.failure_dumps) out += dump + "\n";
  add("suppressed %zu\n", rep.failures_suppressed);
  for (const SessionOutcome& o : outcomes) {
    add("%d %d %a %zu %zu %zu %zu ", o.established ? 1 : 0,
        static_cast<int>(o.failure), o.establish_ms, o.attempts,
        o.wire_frames, o.wire_bytes, o.retransmissions);
    out += o.key.to_string() + "\n";
  }
  return out;
}

/// A lossy config with small batches: many look-ahead launches, joins and
/// recovery attempts in one short run.
GatewayConfig lookahead_config(std::size_t threads) {
  GatewayConfig cfg;
  cfg.sessions = 300;
  cfg.max_inflight = 24;
  cfg.arrival_interval_ms = 2.0;
  cfg.rekey_interval_ms = 1500.0;
  cfg.max_rekeys = 1;
  cfg.idle_timeout_ms = 4000.0;
  cfg.sim_batch = 16;
  cfg.threads = threads;
  cfg.reliability.radio = fast_radio();
  cfg.reliability.max_session_attempts = 3;
  cfg.reliability.fault.drop_prob = 0.2;
  cfg.reliability.fault.corrupt_prob = 0.05;
  cfg.reliability.fault.dup_prob = 0.05;
  cfg.reliability.fault.reorder_prob = 0.05;
  cfg.failure_dump_limit = 2;
  return cfg;
}

TEST_F(GatewayTest, LookAheadRunIsIdenticalAtOneTwoAndFourLanes) {
  for (const bool prefetch : {false, true}) {
    const auto run_with = [&](std::size_t threads) {
      GatewayEngine engine(lookahead_config(threads), *reconciler_,
                           material());
      if (prefetch) {
        engine.set_batch_material([m = material()](std::uint64_t first,
                                                    std::size_t count) {
          std::vector<std::pair<BitVec, BitVec>> out;
          for (std::size_t i = 0; i < count; ++i) out.push_back(m(first + i, 0));
          return out;
        });
      }
      const GatewayReport rep = engine.run();
      return fingerprint(rep, engine.outcomes());
    };
    const std::string one = run_with(1);
    EXPECT_EQ(run_with(2), one) << "prefetch=" << prefetch;
    EXPECT_EQ(run_with(4), one) << "prefetch=" << prefetch;
  }
}

TEST_F(GatewayTest, TickSampledTelemetryIsByteIdenticalAcrossLaneCounts) {
  // The soak's telemetry contract inside ctest: each tick joins the
  // look-ahead batch, so what it samples is the same at every lane count.
  const bool prev = metrics::enabled();
  metrics::set_enabled(true);
  const auto run_with = [&](std::size_t threads) {
    metrics::Registry::global().reset();
    telemetry::SamplerConfig scfg;
    scfg.include_prefixes = telemetry::deterministic_prefixes();
    telemetry::Sampler sampler(scfg);
    GatewayConfig cfg = lookahead_config(threads);
    cfg.tick_interval_ms = 50.0;
    GatewayEngine engine(cfg, *reconciler_, material());
    engine.set_tick([&sampler](double now_ms) { sampler.sample(now_ms); });
    engine.run();
    EXPECT_GT(sampler.samples_taken(), 10u);
    return sampler.to_jsonl();
  };
  const std::string one = run_with(1);
  EXPECT_EQ(run_with(4), one);
  metrics::set_enabled(prev);
}

TEST_F(GatewayTest, MaterialFailureInTheLookAheadBatchSurfacesFromRun) {
  // Device 40 sits in the third 16-device batch, which runs as look-ahead
  // while the lifecycle thread works through the second. Its exception
  // must come out of run() at every lane count, and the engine must then
  // be destroyed cleanly (ASan/TSan watch the batch's lanes here).
  for (const std::size_t threads : {1u, 2u, 4u}) {
    GatewayConfig cfg = lookahead_config(threads);
    cfg.reliability.fault = FaultConfig{};
    const GatewayEngine::MaterialFn failing =
        [m = material()](std::uint64_t device, std::size_t attempt) {
          if (device == 40) throw std::runtime_error("probe source failed");
          return m(device, attempt);
        };
    auto engine =
        std::make_unique<GatewayEngine>(cfg, *reconciler_, failing);
    EXPECT_THROW(
        {
          try {
            engine->run();
          } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "probe source failed");
            throw;
          }
        },
        std::runtime_error)
        << threads << " lanes";
    engine.reset();
  }
}

TEST_F(GatewayTest, FailedSessionsEvictWithBoundedPostMortems) {
  // Every 5th device gets uncorrelated keys: reconciliation cannot fix
  // them, so those sessions fail terminally on every attempt.
  const GatewayEngine::MaterialFn mixed =
      [](std::uint64_t device, std::size_t attempt) {
        const std::uint64_t seed =
            hash_combine64(hash_combine64(0x6a73, device), attempt);
        const BitVec kb = random_key(seed);
        if (device % 5 == 0) {
          return std::make_pair(random_key(seed ^ 0xdead), kb);
        }
        return std::make_pair(with_flips(kb, 3, seed ^ 0x5a5a), kb);
      };
  GatewayConfig cfg = small_config(20, 4);
  cfg.failure_dump_limit = 2;
  GatewayEngine engine(cfg, *reconciler_, mixed);
  const GatewayReport rep = engine.run();

  EXPECT_EQ(rep.failed, 4u);  // devices 0, 5, 10, 15
  EXPECT_EQ(rep.established, 16u);
  EXPECT_EQ(rep.evicted_failed, 4u);
  EXPECT_EQ(rep.evicted_idle, 16u);
  ASSERT_EQ(rep.failure_dumps.size(), 2u);
  EXPECT_EQ(rep.failures_suppressed, 2u);
  // Dumps are regenerated deterministically and carry the device id plus a
  // flight-recorder timeline of the failing attempts.
  EXPECT_NE(rep.failure_dumps[0].find("device 0:"), std::string::npos);
  EXPECT_NE(rep.failure_dumps[0].find("attempt"), std::string::npos);
  EXPECT_NE(rep.failure_dumps[1].find("device 5:"), std::string::npos);
  for (const std::uint64_t d : {0u, 5u, 10u, 15u}) {
    EXPECT_EQ(engine.registry().record(d).state, DeviceState::kEvicted);
    EXPECT_EQ(*engine.registry().record(d).evict_reason, EvictReason::kFailed);
  }
}

// ------------------------------- interleaved sessions on one shared clock

/// Two independent Alice/Bob pairs, both wired onto ONE SimClock, with
/// frame duplication and reordering injected on both links: the sessions'
/// events interleave on the shared timeline, and each pair's
/// duplicate/replay guards must hold without cross-talk.
TEST_F(GatewayTest, InterleavedSessionsOnSharedClockSuppressDuplicates) {
  SimClock clock;  // vkey-lint: allow(sim-clock-owner)

  struct Pair {
    PublicChannel base;
    UnreliableChannel link;
    AliceSession alice;
    BobSession bob;
    ReliableTransport alice_tx;
    ReliableTransport bob_tx;
    bool syndrome_sent = false;

    Pair(SimClock& clk, std::uint64_t id,
         const core::AutoencoderReconciler& rec, BitVec alice_raw,
         BitVec bob_raw, const SessionConfig& scfg)
        : link(clk, base, dup_faults(id), fast_radio()),
          alice(scfg, rec, std::move(alice_raw)),
          bob(scfg, rec, std::move(bob_raw)),
          alice_tx(clk, arq_for(2 * id),
                   [this](const Message& m) {
                     link.send(UnreliableChannel::Endpoint::kAlice, m);
                   },
                   rtt()),
          bob_tx(clk, arq_for(2 * id + 1),
                 [this](const Message& m) {
                   link.send(UnreliableChannel::Endpoint::kBob, m);
                 },
                 rtt()) {}

    static FaultConfig dup_faults(std::uint64_t id) {
      FaultConfig f;
      f.dup_prob = 0.4;
      f.reorder_prob = 0.3;
      f.seed = hash_combine64(0xd0b, id);
      return f;
    }
    static ArqConfig arq_for(std::uint64_t id) {
      ArqConfig a;
      a.seed = hash_combine64(0x50c, id);
      return a;
    }
    ReliableTransport::RttFn rtt() {
      Message ack;
      ack.type = MessageType::kAck;
      return [this, ack_ms = link.nominal_latency_ms(ack)](const Message& m) {
        return link.nominal_latency_ms(m) + ack_ms;
      };
    }

    void wire(SimClock& clk) {
      const auto accepts = [](const RejectReason r) {
        return r == RejectReason::kNone || r == RejectReason::kDuplicate;
      };
      alice_tx.set_upcall(
          [this](const Message& m) { return alice.handle(m); },
          [this, accepts] { return accepts(alice.last_reject()); });
      bob_tx.set_upcall(
          [this, &clk](const Message& m) {
            auto response = bob.handle(m);
            if (!syndrome_sent && bob.state() == SessionState::kAwaitConfirm) {
              syndrome_sent = true;
              clk.schedule(0.0, [this, syndrome = bob.make_syndrome()] {
                bob_tx.send(syndrome);
              });
            }
            return response;
          },
          [this, accepts] { return accepts(bob.last_reject()); });
      link.set_handler(UnreliableChannel::Endpoint::kAlice,
                       [this](const Message& m) { alice_tx.on_wire(m); });
      link.set_handler(UnreliableChannel::Endpoint::kBob,
                       [this](const Message& m) { bob_tx.on_wire(m); });
    }

    bool established() const {
      return alice.state() == SessionState::kEstablished &&
             bob.state() == SessionState::kEstablished;
    }
  };

  const BitVec kb0 = random_key(900);
  const BitVec kb1 = random_key(901);
  SessionConfig scfg0;
  scfg0.session_id = 17;
  SessionConfig scfg1;
  scfg1.session_id = 33;
  Pair p0(clock, 0, *reconciler_, with_flips(kb0, 2, 910), kb0, scfg0);
  Pair p1(clock, 1, *reconciler_, with_flips(kb1, 2, 911), kb1, scfg1);
  p0.wire(clock);
  p1.wire(clock);

  // Stagger the starts so the two exchanges interleave mid-flight on the
  // shared timeline instead of running in lockstep.
  p0.alice_tx.send(p0.alice.start());
  clock.schedule(3.0, [&] { p1.alice_tx.send(p1.alice.start()); });

  std::size_t events = 0;
  while (!(p0.established() && p1.established()) && events < 100000) {
    if (!clock.run_next()) break;
    ++events;
  }

  ASSERT_TRUE(p0.established());
  ASSERT_TRUE(p1.established());
  EXPECT_TRUE(p0.alice.final_key() == p0.bob.final_key());
  EXPECT_TRUE(p1.alice.final_key() == p1.bob.final_key());
  EXPECT_FALSE(p0.alice.final_key() == p1.alice.final_key());

  // The links actually injected duplicates, and the replay guards absorbed
  // every one of them (no session ever entered a reject-fatal state).
  EXPECT_GT(p0.link.stats().duplicated + p1.link.stats().duplicated, 0u);
  EXPECT_GT(p0.alice.duplicates_suppressed() + p0.bob.duplicates_suppressed() +
                p1.alice.duplicates_suppressed() +
                p1.bob.duplicates_suppressed(),
            0u);
}

TEST_F(GatewayTest, LifecycleTicksLandOnTheGridAndCoverTheWholeRun) {
  GatewayConfig cfg = small_config(30, 8);
  cfg.tick_interval_ms = 1000.0;
  GatewayEngine engine(cfg, *reconciler_, material());
  std::vector<double> ticks;
  engine.set_tick([&ticks](double now_ms) { ticks.push_back(now_ms); });
  const GatewayReport rep = engine.run();

  // Ticks are lifecycle events on the shared clock: one per interval,
  // strictly on the 1 s grid, starting at the first interval.
  ASSERT_FALSE(ticks.empty());
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_DOUBLE_EQ(ticks[i], 1000.0 * static_cast<double>(i + 1));
  }
  // The chain stops only at quiescence, so the final tick is the last event
  // and the makespan rounds up to the grid.
  EXPECT_DOUBLE_EQ(rep.makespan_ms, ticks.back());
  EXPECT_EQ(rep.established, 30u);

  // Observers are a pre-run decision.
  EXPECT_THROW(engine.set_tick([](double) {}), vkey::Error);

  // The same run without ticks produces identical session outcomes; only
  // the makespan differs, by less than one tick interval of grid rounding.
  GatewayEngine plain(small_config(30, 8), *reconciler_, material());
  const GatewayReport prep = plain.run();
  EXPECT_EQ(prep.established, rep.established);
  EXPECT_EQ(prep.rekeys, rep.rekeys);
  EXPECT_DOUBLE_EQ(prep.median_time_to_key_ms, rep.median_time_to_key_ms);
  EXPECT_DOUBLE_EQ(prep.p99_time_to_key_ms, rep.p99_time_to_key_ms);
  EXPECT_LE(prep.makespan_ms, rep.makespan_ms);
  EXPECT_LE(rep.makespan_ms - prep.makespan_ms, cfg.tick_interval_ms);
}

TEST_F(GatewayTest, RarePathsAfterOneCleanAgreementRegisterNoInstrument) {
  // Once one clean agreement has run, a timeout, a CRC reject and an idle
  // eviction only move values: none of them is a first registration (the
  // heap blocks a long soak's zero-growth gate would flag).
  const bool prev = metrics::enabled();
  metrics::set_enabled(true);
  const auto per_attempt = [m = material()](std::size_t attempt) {
    return m(0, attempt);
  };
  ReliabilityConfig cfg;
  cfg.radio = fast_radio();
  PublicChannel base;
  ASSERT_TRUE(
      run_reliable_key_agreement(base, *reconciler_, cfg, per_attempt)
          .established);
  const std::vector<std::string> before = registered_names();

  // A deadline shorter than one frame's airtime.
  cfg.attempt_timeout_ms = 1.0;
  cfg.max_session_attempts = 1;
  EXPECT_EQ(run_reliable_key_agreement(base, *reconciler_, cfg, per_attempt)
                .failure,
            FailureReason::kTimeout);

  Message ack;
  ack.type = MessageType::kAck;
  auto frame = wire::encode_frame(ack);
  frame[wire::kHeaderBytes - 1] ^= 0x01;
  wire::WireError err = wire::WireError::kNone;
  EXPECT_FALSE(wire::decode_frame(frame, &err).has_value());
  EXPECT_EQ(err, wire::WireError::kBadCrc);

  SessionRegistry reg(1);
  reg.arrive(0, 0.0);
  ASSERT_TRUE(reg.admit_next(0.0).has_value());
  reg.established(0, 1.0);
  reg.evict(0, 2.0, EvictReason::kIdle);

  EXPECT_EQ(registered_names(), before);
  metrics::set_enabled(prev);
}

TEST_F(GatewayTest, TickObserverIsInertWithoutAnInterval) {
  // tick_interval_ms stays at its 0.0 default: the observer must never fire
  // and the run must behave exactly like an unobserved one.
  GatewayEngine engine(small_config(10, 4), *reconciler_, material());
  std::size_t fired = 0;
  engine.set_tick([&fired](double) { ++fired; });
  const GatewayReport rep = engine.run();
  EXPECT_EQ(fired, 0u);
  EXPECT_EQ(rep.established, 10u);
}

}  // namespace
}  // namespace vkey::protocol
