// perfbench — wall-clock key-establishment benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out PATH] [--tiny] [--inject key|faithfulness]
//
// Workloads (README.md gives the rationale and the metric map):
//   gateway_lossless  GatewayEngine, lossless SF7 links, 2 rekeys/session
//   gateway_lossy     the same engine, drop 0.2 + corrupt/dup/reorder 0.05,
//                     rekeys off
//   vehicle_pipeline  one vehicle at a time: arRSSI extraction + Bob's
//                     quantizer, BiLSTM inference, reliable key agreement,
//                     key schedule with confirmation
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: spans around every call into a layer, a
// per-layer ledger (stderr, and the Chrome trace written to --trace-out
// when the run ends), and the per-layer metrics. Both print one JSON object
// as the last line of stdout and exit non-zero when a correctness check
// fails. --tiny shrinks every size for the self-test; --inject breaks one
// key or one faithfulness comparison on purpose so the self-test can prove
// the gate rejects it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "channel/trace.h"
#include "channel/scenario.h"
#include "common/alloc_stats.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "compose.h"
#include "core/dataset.h"
#include "core/predictor.h"
#include "core/privacy.h"
#include "core/reconciler.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "protocol/gateway.h"
#include "protocol/key_schedule.h"
#include "protocol/reliability.h"
#include "protocol/wire.h"
#include "spans.h"

using namespace vkey;
using namespace vkey::protocol;
using perfbench::ComposedAgreement;
using perfbench::Layer;
using perfbench::Span;

namespace {

using Clock = std::chrono::steady_clock;

/// Results of timed loops land here so the work cannot be optimised away.
volatile std::uint64_t g_sink = 0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------ sizes

enum class Workload { kGatewayLossless, kGatewayLossy, kVehiclePipeline };

/// Session recovery budgets. A gateway session gets bench_gateway's six
/// attempts. A vehicle re-probes until it holds a key: about 60% of the
/// predicted 64-bit blocks reconcile exactly and misses cluster on poor
/// stretches of a drive, so it gets sixteen.
constexpr std::size_t kGatewayAttempts = 6;
constexpr std::size_t kVehicleAttempts = 16;
constexpr std::size_t kRoundsPerWindow = 16;  ///< 4 arRSSI values per round
constexpr std::size_t kSimBatch = 256;        ///< GatewayConfig::sim_batch
constexpr std::size_t kDrives = 64;           ///< vehicle_pipeline drives

struct Sizes {
  std::size_t sessions;         ///< devices per GatewayEngine run
  std::size_t latency_devices;  ///< per-unit key_us pass (gateway)
  std::size_t compose_devices;  ///< traced composition (gateway)
  std::size_t windows;          ///< vehicle_pipeline probe-window pool
  std::size_t setup_repeats;
  std::size_t rec_samples, rec_epochs;
  std::size_t pred_train_rounds, pred_epochs;
};

Sizes sizes_for(bool tiny, bool traced) {
  if (tiny) return {512, 64, 32, 128, 1, 2500, 25, 300, 4};
  return {4096, 2048, 512, 1792, traced ? 1u : 3u, 2500, 25, 450, 10};
}

// ----------------------------------------------------------- correctness

struct Gate {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok && failures.size() < 20) failures.push_back(what);
    if (!ok && failures.size() == 20) failures.push_back("(more suppressed)");
  }
  bool ok() const { return failures.empty(); }
};

/// FNV-1a over the deterministic outputs of a run.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const BitVec& bits) {
    add(bits.size());
    for (const std::uint8_t b : bits.raw()) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
};

/// The deterministic per-device result every path must agree on.
struct DeviceResult {
  bool established = false;
  std::size_t attempts = 0;
  std::size_t frames = 0;
  std::size_t bytes = 0;
  BitVec key;
  bool operator==(const DeviceResult&) const = default;
};

DeviceResult result_of(const SessionOutcome& o) {
  return {o.established, o.attempts, o.wire_frames, o.wire_bytes, o.key};
}

DeviceResult result_of(const AgreementReport& r) {
  return {r.established, r.attempts, r.wire_frames, r.link.bytes_sent, r.key};
}

/// Digest of every device's deterministic outputs; the timed and the
/// traced run of one seed print the same value.
std::uint64_t outputs_digest(const std::vector<DeviceResult>& results) {
  Digest d;
  for (const DeviceResult& r : results) {
    d.add(r.established);
    d.add(r.attempts);
    d.add(r.frames);
    d.add(r.bytes);
    d.add(r.key);
  }
  return d.h;
}

std::uint64_t key_hash(const BitVec& key) {
  Digest d;
  d.add(key);
  return d.h;
}

// ---------------------------------------------------------------- inputs

std::uint64_t session_id_for(std::uint64_t device) {
  return 1 + (device << 4);
}

BitVec random_key(std::uint64_t seed, std::size_t bits) {
  Rng rng(seed);
  BitVec k(bits);
  for (std::size_t i = 0; i < bits; ++i) k.set(i, rng.bernoulli(0.5));
  return k;
}

/// Gateway probe material: Bob's random 64-bit key and Alice's view of it
/// with 3 bit errors, a pure function of (seed, device, attempt).
std::pair<BitVec, BitVec> synthetic_material(std::uint64_t seed,
                                             std::uint64_t device,
                                             std::size_t attempt) {
  const std::uint64_t s =
      hash_combine64(hash_combine64(hash_combine64(0x9a7e, seed), device),
                     attempt);
  const BitVec kb = random_key(s, 64);
  BitVec ka = kb;
  Rng rng(s ^ 0x5a5a);
  for (int f = 0; f < 3; ++f) {
    ka.flip(static_cast<std::size_t>(rng.uniform_int(ka.size())));
  }
  return {ka, kb};
}

GatewayConfig gateway_config(Workload w, std::size_t sessions,
                             std::uint64_t seed, std::size_t threads) {
  GatewayConfig cfg;
  cfg.sessions = sessions;
  cfg.max_inflight = 256;
  cfg.arrival_interval_ms = 5.0;
  cfg.sim_batch = kSimBatch;
  cfg.threads = threads;
  cfg.reliability.radio.spreading_factor = 7;
  cfg.reliability.max_session_attempts = kGatewayAttempts;
  cfg.seed = hash_combine64(0x6a7e5eed, seed);
  if (w == Workload::kGatewayLossy) {
    cfg.reliability.fault.drop_prob = 0.2;
    cfg.reliability.fault.corrupt_prob = 0.05;
    cfg.reliability.fault.dup_prob = 0.05;
    cfg.reliability.fault.reorder_prob = 0.05;
    cfg.rekey_interval_ms = 0.0;
  }
  return cfg;
}

std::size_t rekeys_per_session(const GatewayConfig& cfg) {
  return cfg.rekey_interval_ms > 0.0 ? cfg.max_rekeys : 0;
}

/// The reliability config the engine derives for one device (the same
/// seed derivation as GatewayEngine::simulate; the faithfulness gate fails
/// if the two ever drift apart).
ReliabilityConfig device_config(const GatewayConfig& cfg,
                                std::uint64_t device) {
  ReliabilityConfig r = cfg.reliability;
  r.fault.seed = hash_combine64(hash_combine64(cfg.seed, 0x6a7eu), device);
  r.arq.seed = hash_combine64(hash_combine64(cfg.seed, 0xa49u), device);
  r.base_session_id = session_id_for(device);
  r.flight_capacity = 0;
  return r;
}

// ----------------------------------------------------------------- models

struct Models {
  std::unique_ptr<core::AutoencoderReconciler> reconciler;
  std::unique_ptr<core::PredictorQuantizer> predictor;
  /// The vehicles' probe rounds: kDrives generated drives, back to back,
  /// cut into windows of kRoundsPerWindow rounds. Each recovery attempt of
  /// the vehicle loop consumes the next window (wrapping around the pool).
  std::vector<channel::ProbeRound> rounds;
  double channel_us_per_round = 0.0;
  std::uint64_t fingerprint = 0;  ///< equal across set-up repeats
};

core::DatasetConfig window_config() {
  core::DatasetConfig ds;
  ds.stride = 0;
  return ds;
}

Models build_models(Workload w, const Sizes& sz, std::uint64_t seed) {
  Models m;
  core::ReconcilerConfig rcfg;
  rcfg.key_bits = 64;
  rcfg.decoder_units = 64;
  m.reconciler = std::make_unique<core::AutoencoderReconciler>(rcfg);
  m.reconciler->train(sz.rec_samples, sz.rec_epochs);

  Digest fp;
  const BitVec probe_key = random_key(0xf1f1, 64);
  for (const double v : m.reconciler->encode_bob(probe_key)) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    fp.add(bits);
  }

  if (w == Workload::kVehiclePipeline) {
    // The predictor is trained offline on a fixed calibration drive; the
    // seed generates the drives the vehicles then key over: many short
    // independent drives (generated on all lanes), so the window pool's
    // reconciliation success rate, which sets the attempts per key, does
    // not swing with one seed's stretch of road.
    const auto t0 = Clock::now();
    channel::TraceConfig tc;
    tc.scenario =
        channel::make_scenario(channel::ScenarioKind::kV2IRural, 30.0);
    tc.seed = 0x7ace;
    const auto train =
        channel::TraceGenerator(tc).generate(sz.pred_train_rounds);
    const std::size_t per_drive = sz.windows / kDrives * kRoundsPerWindow;
    const auto drives = parallel::parallel_map_n(kDrives, [&](std::size_t k) {
      channel::TraceConfig dc = tc;
      dc.seed = hash_combine64(hash_combine64(0x7ace, seed), k);
      return channel::TraceGenerator(dc).generate(per_drive);
    });
    for (const auto& drive : drives) {
      m.rounds.insert(m.rounds.end(), drive.begin(), drive.end());
    }
    m.channel_us_per_round =
        seconds_since(t0) * 1e6 /
        static_cast<double>(train.size() + m.rounds.size());

    core::DatasetConfig ds;
    ds.stride = 4;
    const auto streams = core::extract_streams(train, ds.extractor,
                                               ds.reciprocal_windows);
    const auto samples = core::make_samples(streams, ds);
    core::PredictorConfig pcfg;
    m.predictor = std::make_unique<core::PredictorQuantizer>(pcfg);
    m.predictor->train(samples, sz.pred_epochs);
    for (const double v : m.predictor->infer(samples.front().alice_seq)
                              .probabilities) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      fp.add(bits);
    }
  }
  m.fingerprint = fp.h;
  return m;
}

/// arRSSI extraction and Bob's quantizer over one probe window.
core::TrainingSample window_sample(const Models& m, std::size_t window) {
  const std::size_t first =
      (window % (m.rounds.size() / kRoundsPerWindow)) * kRoundsPerWindow;
  const core::DatasetConfig ds = window_config();
  const std::vector<channel::ProbeRound> slice(
      m.rounds.begin() + static_cast<std::ptrdiff_t>(first),
      m.rounds.begin() + static_cast<std::ptrdiff_t>(first + kRoundsPerWindow));
  auto samples = core::make_samples(
      core::extract_streams(slice, ds.extractor, ds.reciprocal_windows), ds);
  if (samples.size() != 1) {
    std::fprintf(stderr, "perfbench: probe window %zu gave %zu samples, "
                 "expected 1\n", window, samples.size());
    std::exit(3);
  }
  return std::move(samples.front());
}

/// One recovery attempt's probe material: arRSSI + Bob's quantizer over
/// the window, then Alice's BiLSTM prediction + quantization.
std::pair<BitVec, BitVec> vehicle_material(const Models& m,
                                           std::size_t window) {
  std::optional<core::TrainingSample> sample;
  {
    Span s(Layer::kArrssi);
    sample = window_sample(m, window);
  }
  Span s(Layer::kPredictor);
  BitVec alice = m.predictor->infer(sample->alice_seq).bits;
  return {std::move(alice), std::move(sample->bob_bits)};
}

ReliabilityConfig vehicle_config(std::uint64_t seed, std::size_t v) {
  ReliabilityConfig r;
  r.radio.spreading_factor = 7;
  r.max_session_attempts = kVehicleAttempts;
  r.fault.seed = hash_combine64(hash_combine64(seed, 0x6a7eu), v);
  r.arq.seed = hash_combine64(hash_combine64(seed, 0xa49u), v);
  r.base_session_id = session_id_for(v);
  r.flight_capacity = 0;
  return r;
}

/// The established key must equal Bob's final key, recomputed here from
/// Bob's raw material of the successful attempt.
bool key_matches_peer(const DeviceResult& r, std::uint64_t base_session_id,
                      const BitVec& bob_raw) {
  if (!r.established) return true;
  if (r.key.size() != 128) return false;
  const core::PrivacyAmplifier amp(128);
  return r.key == amp.amplify(bob_raw, base_session_id + r.attempts - 1);
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Gate gate;
  std::uint64_t digest = 0;  ///< deterministic outputs, equal across runs
  void add(const std::string& name, double value, const std::string& unit) {
    gate.require(std::isfinite(value), name + " is not a finite number");
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// One timed unit of work: an engine run (gateway) or a vehicle cycle.
struct Unit {
  double rate = 0.0;           ///< established keys per wall second
  std::vector<double> lat_us;  ///< key_us samples taken with the unit
};

/// est_per_s and key_us_p50/p99 of a run: each is computed per unit of
/// work, and the run reports the quartile of the per-unit figures on the
/// slow side (the 25th percentile of the rates, the 75th of the latency
/// percentiles). The host alternates, for seconds at a time, between its
/// loaded speed and one up to ~30% faster, and runs differ in how much of
/// their time falls in the faster state; the median unit can land in
/// either state, while the slow-side quartile stays in the loaded state
/// whenever that state covers a quarter of the run. Units are sized to
/// hold at least 1000 key_us samples, so that each unit's p99 has at least
/// 10 samples beyond it; a note goes to stderr when one holds fewer.
void add_timing_metrics(Result& res, const std::vector<Unit>& units) {
  std::vector<double> rates, p50, p99;
  std::size_t samples = units.front().lat_us.size();
  for (const Unit& u : units) {
    rates.push_back(u.rate);
    p50.push_back(percentile(u.lat_us, 0.50));
    p99.push_back(percentile(u.lat_us, 0.99));
    samples = std::min(samples, u.lat_us.size());
  }
  res.add("est_per_s", percentile(rates, 0.25), "1/s");
  res.add("key_us_p50", percentile(p50, 0.75), "us");
  res.add("key_us_p99", percentile(p99, 0.75), "us");
  std::printf("units (keys/s, key_us p50, p99):");
  for (std::size_t i = 0; i < units.size(); ++i) {
    std::printf(" %.0f/%.0f/%.0f", rates[i], p50[i], p99[i]);
  }
  std::printf("\nkey_us samples: >= %zu per unit (%zu beyond p99), %zu units\n",
              samples, samples / 100, units.size());
  if (samples < 1000) {
    std::fprintf(stderr, "perfbench: note: fewer than 10 key_us samples "
                 "beyond a unit's p99\n");
  }
}

// ------------------------------------------------------ timed: gateway

Result timed_gateway(Workload w, const Sizes& sz, const Models& m,
                     std::uint64_t seed, double seconds,
                     const std::string& inject) {
  Result res;
  const std::size_t lanes = parallel::default_threads();
  const GatewayConfig cfg = gateway_config(w, sz.sessions, seed, lanes);
  const auto material = [seed](std::uint64_t d, std::size_t a) {
    return synthetic_material(seed, d, a);
  };
  std::vector<Unit> units;
  std::uint64_t allocs = 0;
  std::size_t established = 0;
  std::optional<std::uint64_t> first_digest;
  std::tuple<std::size_t, std::size_t, std::size_t, std::size_t, std::size_t,
             double, double>
      first_summary;
  const auto phase = Clock::now();
  for (std::size_t round = 0;; ++round) {
    alloc_stats::PhaseScope heap;
    const auto t0 = Clock::now();
    GatewayEngine engine(cfg, *m.reconciler, material);
    const GatewayReport rep = engine.run();
    const double wall = seconds_since(t0);
    allocs += heap.delta().allocations;
    Unit& unit = units.emplace_back();
    unit.rate = static_cast<double>(rep.established) / wall;
    established += rep.established;
    res.attempted += rep.sessions;
    res.failed += rep.sessions - rep.established;

    std::vector<DeviceResult> results;
    for (const SessionOutcome& o : engine.outcomes()) {
      results.push_back(result_of(o));
    }
    const std::uint64_t digest = outputs_digest(results);
    const auto summary =
        std::make_tuple(rep.established, rep.failed, rep.rekeys,
                        rep.evicted_idle, rep.evicted_failed,
                        rep.bytes_per_session, rep.mean_attempts);
    if (!first_digest) {
      first_digest = digest;
      first_summary = summary;
      // Every established key is 128 bits, equals Bob's final key
      // recomputed from his raw material, and is distinct.
      std::unordered_set<std::uint64_t> seen;
      for (std::uint64_t d = 0; d < cfg.sessions; ++d) {
        DeviceResult r = result_of(engine.outcomes()[d]);
        if (!r.established) continue;
        if (inject == "key" && seen.empty()) r.key.flip(0);
        res.gate.require(
            key_matches_peer(r, session_id_for(d),
                             material(d, r.attempts - 1).second),
            "device " + std::to_string(d) + ": key does not match its peer");
        seen.insert(key_hash(r.key));
      }
      res.gate.require(seen.size() == rep.established,
                       "established keys are not distinct");
    } else {
      res.gate.require(digest == *first_digest && summary == first_summary,
                       "round " + std::to_string(round) +
                           ": outputs differ from round 0");
    }

    // key_us pass: per-device wall of the work the gateway does for one
    // vehicle (its RF exchange, then its key schedule and rekeys), one
    // device at a time, over the same devices in every unit so that units
    // differ only in timing; each result must equal the engine's outcome.
    const std::size_t rekeys = rekeys_per_session(cfg);
    for (std::uint64_t d = 0; d < sz.latency_devices; ++d) {
      const std::uint64_t src = inject == "faithfulness" && d == 0 ? 1 : 0;
      const auto k0 = Clock::now();
      SimClock sub;
      PublicChannel base;
      const AgreementReport rep_d = run_reliable_key_agreement_on(
          sub, base, *m.reconciler, device_config(cfg, d),
          [&material, d, src](std::size_t a) { return material(d + src, a); });
      if (rep_d.established) {
        KeySchedule ks(rep_d.key, session_id_for(d),
                       KeySchedule::Role::kInitiator);
        for (std::size_t r = 1; r <= rekeys; ++r) {
          ks.rekey(cfg.rekey_interval_ms * static_cast<double>(r));
        }
      }
      unit.lat_us.push_back(seconds_since(k0) * 1e6);
      res.gate.require(result_of(rep_d) == result_of(engine.outcomes()[d]),
                       "device " + std::to_string(d) +
                           ": key_us pass disagrees with the engine");
    }
    if (seconds_since(phase) >= seconds && round >= 1) break;
  }
  res.digest = *first_digest;
  std::printf("engine runs: %zu x %zu sessions at %zu lanes\n",
              units.size(), cfg.sessions, lanes);
  add_timing_metrics(res, units);
  res.add("established_ratio",
          static_cast<double>(established) /
              static_cast<double>(res.attempted),
          "ratio");
  res.add("allocs_per_key",
          static_cast<double>(allocs) / static_cast<double>(established),
          "count");
  return res;
}

// ------------------------------------------------------ timed: vehicle

struct VehicleOutcome {
  DeviceResult result;
  std::size_t first_window = 0;
  bool confirmed = false;
};

/// The per-key online path for vehicle v: material per attempt (arRSSI,
/// Bob's quantizer, BiLSTM) from the next probe window, reliable key
/// agreement, then both ends' key schedules and one key-confirmation
/// exchange.
VehicleOutcome run_vehicle(const Models& m, std::uint64_t seed,
                           std::size_t v, std::size_t& next_window) {
  const std::size_t first = next_window;
  PublicChannel base;
  const AgreementReport rep = run_reliable_key_agreement(
      base, *m.reconciler, vehicle_config(seed, v),
      [&m, &next_window](std::size_t) {
        return vehicle_material(m, next_window++);
      });
  VehicleOutcome out{result_of(rep), first, false};
  if (rep.established) {
    KeySchedule vehicle(rep.key, session_id_for(v),
                        KeySchedule::Role::kInitiator);
    KeySchedule rsu(rep.key, session_id_for(v),
                    KeySchedule::Role::kResponder);
    out.confirmed = rsu.verify_confirm(vehicle.make_confirm(1)) &&
                    vehicle.verify_confirm(rsu.make_confirm(2));
  }
  return out;
}

void check_vehicle(Result& res, const Models& m, std::size_t v,
                   VehicleOutcome o, bool break_key) {
  if (!o.result.established) return;
  if (break_key) o.result.key.flip(0);
  const core::TrainingSample bob =
      window_sample(m, o.first_window + o.result.attempts - 1);
  res.gate.require(o.confirmed, "vehicle " + std::to_string(v) +
                                    ": key confirmation failed");
  res.gate.require(key_matches_peer(o.result, session_id_for(v), bob.bob_bits),
                   "vehicle " + std::to_string(v) +
                       ": key does not match its peer");
}

/// One pass of the vehicle loop over the whole probe-window pool: vehicles
/// key one after another until every window has been consumed once (the
/// last vehicle may wrap around). `lat_us`, when given, receives each
/// vehicle's wall µs.
std::vector<VehicleOutcome> vehicle_cycle(const Models& m, std::uint64_t seed,
                                          std::vector<double>* lat_us) {
  const std::size_t pool = m.rounds.size() / kRoundsPerWindow;
  std::vector<VehicleOutcome> outs;
  outs.reserve(pool);
  std::size_t next_window = 0;
  for (std::size_t v = 0; next_window < pool; ++v) {
    const auto k0 = Clock::now();
    outs.push_back(run_vehicle(m, seed, v, next_window));
    if (lat_us != nullptr) lat_us->push_back(seconds_since(k0) * 1e6);
  }
  return outs;
}

Result timed_vehicle(const Models& m, std::uint64_t seed, double seconds,
                     const std::string& inject) {
  Result res;
  std::vector<Unit> units;
  std::uint64_t allocs = 0;
  std::size_t established = 0;
  std::optional<std::uint64_t> first_digest;
  std::unordered_set<std::uint64_t> seen;
  std::size_t attempts = 0;  ///< over cycle 0
  const auto phase = Clock::now();
  for (std::size_t cycle = 0;; ++cycle) {
    std::vector<VehicleOutcome> outs;
    Unit& unit = units.emplace_back();
    const auto c0 = Clock::now();
    {
      alloc_stats::PhaseScope heap;
      outs = vehicle_cycle(m, seed, &unit.lat_us);
      allocs += heap.delta().allocations;
    }
    const double wall = seconds_since(c0);
    std::size_t cycle_est = 0;
    for (const VehicleOutcome& o : outs) cycle_est += o.result.established;
    unit.rate = static_cast<double>(cycle_est) / wall;
    established += cycle_est;
    res.attempted += outs.size();
    res.failed += outs.size() - cycle_est;
    std::vector<DeviceResult> results;
    for (const VehicleOutcome& o : outs) results.push_back(o.result);
    const std::uint64_t digest = outputs_digest(results);
    if (!first_digest) {
      first_digest = digest;
      for (const DeviceResult& r : results) attempts += r.attempts;
      bool break_key = inject == "key";
      for (std::size_t v = 0; v < outs.size(); ++v) {
        check_vehicle(res, m, v, outs[v],
                      break_key && outs[v].result.established);
        if (outs[v].result.established) break_key = false;
        if (outs[v].result.established) {
          seen.insert(key_hash(outs[v].result.key));
        }
      }
      res.gate.require(seen.size() == cycle_est,
                       "established keys are not distinct");
      // Re-running vehicle 0 on its own probe window reproduces it.
      std::size_t window = inject == "faithfulness" ? 1 : 0;
      res.gate.require(run_vehicle(m, seed, 0, window).result == outs[0].result,
                       "vehicle 0: re-run disagrees with the timed run");
    } else {
      res.gate.require(digest == *first_digest,
                       "cycle " + std::to_string(cycle) +
                           ": outputs differ from cycle 0");
    }
    if (seconds_since(phase) >= seconds && cycle >= 1) break;
  }
  res.digest = *first_digest;
  const std::size_t cycles = units.size();
  add_timing_metrics(res, units);
  res.add("established_ratio",
          static_cast<double>(established) /
              static_cast<double>(res.attempted),
          "ratio");
  res.add("allocs_per_key",
          static_cast<double>(allocs) /
              static_cast<double>(std::max<std::size_t>(1, established)),
          "count");
  const std::size_t vehicles = res.attempted / cycles;
  std::printf("vehicle cycles: %zu x %zu vehicles over %zu probe windows, "
              "%.3f attempts per vehicle\n", cycles, vehicles,
              m.rounds.size() / kRoundsPerWindow,
              static_cast<double>(attempts) / static_cast<double>(vehicles));
  return res;
}

// ------------------------------------------------------------ traced run

/// Unit costs of the primitives at the sizes the protocol uses: 64-bit
/// reconciliation blocks (32-value code vector), 32-byte MAC keys over a
/// 128-byte frame, a 32-byte HKDF output, 64 -> 128-bit amplification.
void unit_costs(Result& res, const core::AutoencoderReconciler& rec) {
  const BitVec kb = random_key(0xc0de, 64);
  BitVec ka = kb;
  ka.flip(7);
  ka.flip(40);
  const std::vector<double> y = rec.encode_bob(kb);
  std::vector<std::uint8_t> key(32, 0x5c), msg(128, 0x36), salt(20, 0x01),
      info(15, 0x02);
  const core::PrivacyAmplifier amp(128);
  std::uint64_t sink = 0;
  const auto time_loop = [&](Layer layer, std::size_t n, auto&& body) {
    Span s(layer);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) body(i);
    return seconds_since(t0) * 1e6 / static_cast<double>(n);
  };
  res.add("reconciler.decode_us",
          time_loop(Layer::kUnitDecode, 400,
                    [&](std::size_t) {
                      sink += rec.reconcile(ka, y).weight();
                    }),
          "us");
  res.add("reconciler.encode_us",
          time_loop(Layer::kUnitEncode, 4000,
                    [&](std::size_t) { sink += rec.encode_bob(kb).size(); }),
          "us");
  res.add("crypto.hmac_us",
          time_loop(Layer::kUnitHmac, 20000,
                    [&](std::size_t i) {
                      msg[0] = static_cast<std::uint8_t>(i);
                      sink += crypto::hmac_sha256(key, msg)[0];
                    }),
          "us");
  res.add("crypto.hkdf_us",
          time_loop(Layer::kUnitHkdf, 5000,
                    [&](std::size_t i) {
                      salt[0] = static_cast<std::uint8_t>(i);
                      sink += crypto::hkdf(salt, key, info, 32).size();
                    }),
          "us");
  res.add("privacy.amplify_us",
          time_loop(Layer::kUnitAmplify, 10000,
                    [&](std::size_t i) {
                      sink += amp.amplify(kb, i).weight();
                    }),
          "us");
  g_sink = sink;
}

std::uint64_t counter(const std::string& name) {
  return metrics::Registry::global().counter(name).value();
}

std::uint64_t wire_rejects() {
  std::uint64_t n = 0;
  for (int e = static_cast<int>(wire::WireError::kTruncated);
       e <= static_cast<int>(wire::WireError::kBadType); ++e) {
    n += counter("wire.reject." +
                 wire::to_string(static_cast<wire::WireError>(e)));
  }
  return n;
}

std::uint64_t nn_flops() {
  return counter("nn.dense.flops") + counter("nn.lstm.flops");
}

/// Registry work counters read around the traced composition.
struct Counters {
  std::uint64_t link_sent, link_lost, retx, rejects, flops;
  static Counters read() {
    return {counter("link.sent"),
            counter("link.dropped") + counter("link.crc_lost"),
            counter("arq.retransmissions"), wire_rejects(), nn_flops()};
  }
};

/// Time fn() with metrics on and off, alternating, four times each, inside
/// spans `on`/`off` (also the lane parent of spans fn's pool fan-out
/// opens). Returns min(on) / min(off).
double metrics_overhead(Layer on, Layer off, const std::function<void()>& fn) {
  double best_on = 1e300, best_off = 1e300;
  for (int rep = 0; rep < 4; ++rep) {
    for (const bool enabled : {true, false}) {
      metrics::set_enabled(enabled);
      Span s(enabled ? on : off);
      perfbench::LaneParentScope lp(s);
      const auto t0 = Clock::now();
      fn();
      double& best = enabled ? best_on : best_off;
      best = std::min(best, seconds_since(t0));
    }
  }
  metrics::set_enabled(true);
  return best_on / best_off;
}

/// parallel.rf_speedup: wall of one sim_batch of RF exchanges at 1 lane
/// over the same batch at every lane, best of three each. `exchange(i)`
/// must be pure per index; results at both lane counts must agree with
/// each other and with `expected` (at least `batch` long).
double rf_speedup(Result& res, std::size_t batch,
                  const std::function<DeviceResult(std::size_t)>& exchange,
                  const std::vector<DeviceResult>& expected) {
  const std::size_t lanes = parallel::default_threads();
  double best1 = 1e300, bestn = 1e300;
  std::vector<DeviceResult> one(batch), many(batch);
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::size_t l : {std::size_t{1}, lanes}) {
      std::vector<DeviceResult>& out = l == 1 ? one : many;
      Span s(Layer::kParallelBatch);
      perfbench::LaneParentScope lp(s);
      const auto t0 = Clock::now();
      parallel::parallel_for(
          batch, [&](std::size_t i) { out[i] = exchange(i); }, l);
      double& best = l == 1 ? best1 : bestn;
      best = std::min(best, seconds_since(t0));
    }
  }
  res.gate.require(one == many, "RF batch differs between 1 and " +
                                    std::to_string(lanes) + " lanes");
  res.gate.require(
      std::equal(one.begin(), one.end(), expected.begin()),
      "RF batch disagrees with the run it was taken from");
  return best1 / bestn;
}

/// Codec cost of the frames the link corrupted, replayed: encode, flip one
/// bit, decode (the CRC-reject path). Returns total µs.
double wire_replay(const std::vector<Message>& frames) {
  if (frames.empty()) return 0.0;
  Span s(Layer::kWireReplay);
  const auto t0 = Clock::now();
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto bytes = wire::encode_frame(frames[i]);
    bytes[i % bytes.size()] ^= 0x10;
    rejected += wire::decode_frame(bytes).has_value() ? 0 : 1;
  }
  g_sink = rejected;
  return seconds_since(t0) * 1e6;
}

/// Per-layer metrics of the composition subtree, per established key.
void composition_metrics(Result& res, const perfbench::Ledger& ledger,
                         std::size_t est, const Counters& before,
                         const Counters& after, std::size_t attempts,
                         std::size_t events, double replay_us) {
  const double k = static_cast<double>(std::max<std::size_t>(1, est));
  const auto layer = [&](Layer l) {
    return ledger.under(Layer::kComposition, l);
  };
  const auto us = [&](const char* name, Layer l) {
    res.add(std::string(name) + ".us_per_key", layer(l).self_us / k, "us");
  };
  const auto allocs = [&](const char* name, Layer l) {
    res.add(std::string(name) + ".allocs_per_key", layer(l).self_allocs / k,
            "count");
  };
  us("supervisor", Layer::kSupervisor);
  res.add("supervisor.attempts_per_key", static_cast<double>(attempts) / k,
          "count");
  us("session", Layer::kSession);
  us("arq", Layer::kArq);
  res.add("arq.retx_per_key",
          static_cast<double>(after.retx - before.retx) / k, "count");
  us("link", Layer::kLink);
  const double sent = static_cast<double>(after.link_sent - before.link_sent);
  res.add("link.frames_per_key", sent / k, "count");
  res.add("link.loss_ratio",
          sent > 0 ? static_cast<double>(after.link_lost - before.link_lost) /
                         sent
                   : 0.0,
          "ratio");
  us("sim_clock", Layer::kSimClock);
  res.add("sim_clock.events_per_key", static_cast<double>(events) / k,
          "count");
  us("material", Layer::kMaterial);
  us("key_schedule", Layer::kKeySchedule);
  us("arrssi", Layer::kArrssi);
  us("predictor", Layer::kPredictor);
  res.add("predictor.windows_per_key",
          static_cast<double>(layer(Layer::kPredictor).spans) / k, "count");
  res.add("nn.flops_per_key",
          static_cast<double>(after.flops - before.flops) / k, "count");
  res.add("wire.codec_us_per_frame", sent > 0 ? replay_us / sent : 0.0, "us");
  res.add("wire.rejects_per_key",
          static_cast<double>(after.rejects - before.rejects) / k, "count");
  allocs("supervisor", Layer::kSupervisor);
  allocs("session", Layer::kSession);
  allocs("arq", Layer::kArq);
  allocs("link", Layer::kLink);
  allocs("sim_clock", Layer::kSimClock);
  allocs("key_schedule", Layer::kKeySchedule);
  allocs("predictor", Layer::kPredictor);
}

struct CompositionRun {
  std::vector<DeviceResult> results;
  std::vector<BitVec> bob_keys;
  std::size_t established = 0, attempts = 0, events = 0;
  std::size_t next_window = 0;  ///< vehicle_pipeline's probe-window cursor
  std::vector<Message> corrupted;
};

/// The traced pass itself, plus the same pass untraced before and after
/// it (trace.overhead_ratio = traced wall / mean untraced wall).
/// `agree(i, run)` performs device i's composed agreement and key schedule.
CompositionRun composition_passes(
    Result& res, std::size_t n,
    const std::function<void(std::size_t, CompositionRun&)>& agree,
    Counters& before, Counters& after) {
  perfbench::SpanLog* log = perfbench::active_log();
  double untraced = 0.0, traced = 0.0;
  CompositionRun run;
  for (int pass = 0; pass < 3; ++pass) {
    const bool tracing = pass == 1;
    CompositionRun r;
    r.results.resize(n);
    r.bob_keys.resize(n);
    Span s(tracing ? Layer::kComposition : Layer::kCompositionUntraced);
    log->set_paused(!tracing);
    if (tracing) before = Counters::read();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) agree(i, r);
    const double wall = seconds_since(t0);
    if (tracing) after = Counters::read();
    log->set_paused(false);
    (tracing ? traced : untraced) += wall;
    if (tracing) run = std::move(r);
  }
  res.add("trace.overhead_ratio", traced / (untraced / 2.0), "x");
  return run;
}

void finish_ledger(Result& res, const perfbench::SpanLog& log,
                   const perfbench::Ledger& ledger,
                   const std::string& trace_out, const std::string& label) {
  const double coverage = 1.0 - ledger.residual_us() / ledger.root_us();
  res.add("trace.coverage", coverage, "ratio");
  res.add("trace.residual_share", 1.0 - coverage, "ratio");
  std::fprintf(stderr, "\nper-layer ledger (%s), %zu spans:\n%s", label.c_str(),
               log.size(), ledger.table().c_str());
  res.gate.require(!log.overflowed(),
                   "span buffer full (" + std::to_string(log.capacity()) +
                       " spans): the trace would be incomplete");
  res.gate.require(coverage >= 0.95,
                   "top-level layers cover only " +
                       std::to_string(100.0 * coverage) +
                       "% of the traced wall");
  if (!trace_out.empty()) {
    std::ofstream f(trace_out, std::ios::binary);
    f << ledger.chrome_trace(label);
    res.gate.require(static_cast<bool>(f), "cannot write " + trace_out);
    std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
  }
}

/// `break_key` flips a bit of the first established key before checking
/// it (the self-test's broken-key case).
void check_composition(Result& res, const CompositionRun& run,
                       const std::vector<DeviceResult>& reference,
                       const char* what, bool break_key) {
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    DeviceResult r = run.results[i];
    if (break_key && r.established) {
      r.key.flip(0);
      break_key = false;
    }
    res.gate.require(r == reference[i],
                     std::string(what) + " " + std::to_string(i) +
                         ": composition disagrees with the library");
    res.gate.require(!r.established || (r.key.size() == 128 &&
                                        r.key == run.bob_keys[i]),
                     std::string(what) + " " + std::to_string(i) +
                         ": key does not match its peer");
  }
}

Result traced_gateway(Workload w, const Sizes& sz, const Models& m,
                      std::uint64_t seed, const std::string& inject,
                      const std::string& trace_out) {
  Result res;
  perfbench::SpanLog log(std::size_t{1} << 20);
  perfbench::set_active_log(&log);
  const std::size_t lanes = parallel::default_threads();
  const auto material = [seed](std::uint64_t d, std::size_t a) {
    Span s(Layer::kMaterial);
    return synthetic_material(seed, d, a);
  };
  const GatewayConfig cfg_n = gateway_config(w, sz.sessions, seed, lanes);
  const GatewayConfig cfg_1 = gateway_config(w, sz.sessions, seed, 1);
  std::vector<DeviceResult> engine_n, engine_1, reference(sz.sessions);
  GatewayReport rep_n, rep_1;
  double engine1_s = 0.0, enginen_s = 1e300, reference_s = 0.0;
  Counters before{}, after{};
  CompositionRun comp;
  double replay_us = 0.0;
  {
    Span root(Layer::kTracedRun);
    unit_costs(res, *m.reconciler);

    // nproc lanes, metrics on and off (the on runs are the lane baseline).
    const double overhead = metrics_overhead(
        Layer::kGatewayRun, Layer::kGatewayRunNoMetrics, [&] {
          const bool on = metrics::enabled();
          const auto t0 = Clock::now();
          GatewayEngine engine(cfg_n, *m.reconciler, material);
          const GatewayReport rep = engine.run();
          if (on) enginen_s = std::min(enginen_s, seconds_since(t0));
          std::vector<DeviceResult> r;
          for (const SessionOutcome& o : engine.outcomes()) {
            r.push_back(result_of(o));
          }
          if (engine_n.empty()) {
            engine_n = std::move(r);
            rep_n = rep;
          } else {
            res.gate.require(r == engine_n,
                             "engine outputs differ between runs (metrics "
                             "on/off)");
          }
        });
    res.add("metrics.overhead_ratio", overhead, "x");
    {
      Span s(Layer::kGatewayRun);
      perfbench::LaneParentScope lp(s);
      const auto t0 = Clock::now();
      GatewayEngine engine(cfg_1, *m.reconciler, material);
      rep_1 = engine.run();
      engine1_s = seconds_since(t0);
      for (const SessionOutcome& o : engine.outcomes()) {
        engine_1.push_back(result_of(o));
      }
    }
    {
      Span s(Layer::kReference);
      const auto t0 = Clock::now();
      parallel::parallel_for(
          sz.sessions,
          [&](std::size_t d) {
            SimClock sub;
            PublicChannel base;
            reference[d] = result_of(run_reliable_key_agreement_on(
                sub, base, *m.reconciler, device_config(cfg_1, d),
                [&material, d](std::size_t a) { return material(d, a); }));
          },
          1);
      reference_s = seconds_since(t0);
    }
    res.add("parallel.rf_speedup",
            rf_speedup(res, std::min(kSimBatch, sz.sessions),
                       [&](std::size_t d) {
                         SimClock sub;
                         PublicChannel base;
                         return result_of(run_reliable_key_agreement_on(
                             sub, base, *m.reconciler, device_config(cfg_n, d),
                             [&material, d](std::size_t a) {
                               return material(d, a);
                             }));
                       },
                       engine_n),
            "x");

    const std::size_t rekeys = rekeys_per_session(cfg_n);
    comp = composition_passes(
        res, sz.compose_devices,
        [&](std::size_t d, CompositionRun& r) {
          const std::uint64_t src =
              inject == "faithfulness" && d == 0 ? d + 1 : d;
          SimClock sub;
          PublicChannel base;
          ComposedAgreement c = perfbench::composed_agreement(
              sub, base, *m.reconciler, device_config(cfg_n, d),
              [&material, src](std::size_t a) { return material(src, a); },
              r.corrupted);
          if (c.report.established) {
            Span s(Layer::kKeySchedule);
            KeySchedule ks(c.report.key, session_id_for(d),
                           KeySchedule::Role::kInitiator);
            for (std::size_t k = 1; k <= rekeys; ++k) {
              ks.rekey(cfg_n.rekey_interval_ms * static_cast<double>(k));
            }
          }
          r.results[d] = result_of(c.report);
          r.bob_keys[d] = std::move(c.bob_key);
          r.established += c.report.established ? 1 : 0;
          r.attempts += c.report.attempts;
          r.events += c.events;
        },
        before, after);
    replay_us = wire_replay(comp.corrupted);
  }
  perfbench::set_active_log(nullptr);

  // Deterministic outputs: 1 vs nproc lanes, engine vs library entry point
  // vs composition.
  res.gate.require(engine_1 == engine_n, "engine outputs differ between 1 "
                                         "and " + std::to_string(lanes) +
                                         " lanes");
  res.gate.require(rep_1.established == rep_n.established &&
                       rep_1.rekeys == rep_n.rekeys &&
                       rep_1.bytes_per_session == rep_n.bytes_per_session &&
                       rep_1.mean_attempts == rep_n.mean_attempts,
                   "engine reports differ between 1 and " +
                       std::to_string(lanes) + " lanes");
  res.gate.require(reference == engine_n,
                   "run_reliable_key_agreement_on disagrees with the engine");
  check_composition(res, comp, engine_n, "device", inject == "key");

  const perfbench::Ledger ledger(log);
  const double k =
      static_cast<double>(std::max<std::size_t>(1, rep_1.established));
  res.add("gateway.serial_us_per_key",
          std::max(0.0, (engine1_s - reference_s) * 1e6 / k), "us");
  res.add("gateway.lane_speedup", engine1_s / enginen_s, "x");
  res.add("key_schedule.rekeys_per_key",
          static_cast<double>(rep_n.rekeys) / k, "count");
  res.add("channel.us_per_round", 0.0, "us");
  composition_metrics(res, ledger, comp.established, before, after,
                      comp.attempts, comp.events, replay_us);
  res.attempted = sz.compose_devices;
  res.failed = sz.compose_devices - comp.established;
  res.digest = outputs_digest(engine_n);
  finish_ledger(res, log, ledger, trace_out,
                w == Workload::kGatewayLossless ? "gateway_lossless"
                                                : "gateway_lossy");
  return res;
}

Result traced_vehicle(const Models& m, std::uint64_t seed,
                      const std::string& inject, const std::string& trace_out) {
  Result res;
  perfbench::SpanLog log(std::size_t{1} << 20);
  perfbench::set_active_log(&log);
  std::vector<VehicleOutcome> cycle;
  std::vector<DeviceResult> reference;
  Counters before{}, after{};
  CompositionRun comp;
  double replay_us = 0.0;
  {
    Span root(Layer::kTracedRun);
    unit_costs(res, *m.reconciler);
    res.add("metrics.overhead_ratio",
            metrics_overhead(Layer::kVehiclesRun, Layer::kVehiclesRunNoMetrics,
                             [&] { cycle = vehicle_cycle(m, seed, nullptr); }),
            "x");
    for (const VehicleOutcome& o : cycle) reference.push_back(o.result);
    // The batch's probe material, prefetched (the pool lanes must not
    // share the window cursor): each vehicle's windows as the reference
    // cycle consumed them.
    std::vector<std::vector<std::pair<BitVec, BitVec>>> pre(
        std::min(kSimBatch, cycle.size()));
    {
      Span s(Layer::kMaterial);
      for (std::size_t v = 0; v < pre.size(); ++v) {
        for (std::size_t a = 0; a < reference[v].attempts; ++a) {
          pre[v].push_back(vehicle_material(m, cycle[v].first_window + a));
        }
      }
    }
    res.add("parallel.rf_speedup",
            rf_speedup(
                res, pre.size(),
                [&](std::size_t v) {
                  PublicChannel base;
                  return result_of(run_reliable_key_agreement(
                      base, *m.reconciler, vehicle_config(seed, v),
                      [&pre, v](std::size_t a) {
                        return pre[v][std::min(a, pre[v].size() - 1)];
                      }));
                },
                reference),
            "x");
    comp = composition_passes(
        res, cycle.size(),
        [&](std::size_t v, CompositionRun& r) {
          if (inject == "faithfulness" && v == 0) r.next_window = 1;
          SimClock clock;
          PublicChannel base;
          ComposedAgreement c = perfbench::composed_agreement(
              clock, base, *m.reconciler, vehicle_config(seed, v),
              [&m, &r](std::size_t) {
                return vehicle_material(m, r.next_window++);
              },
              r.corrupted);
          if (c.report.established) {
            Span s(Layer::kKeySchedule);
            KeySchedule vehicle(c.report.key, session_id_for(v),
                                KeySchedule::Role::kInitiator);
            KeySchedule rsu(c.report.key, session_id_for(v),
                            KeySchedule::Role::kResponder);
            res.gate.require(rsu.verify_confirm(vehicle.make_confirm(1)) &&
                                 vehicle.verify_confirm(rsu.make_confirm(2)),
                             "vehicle " + std::to_string(v) +
                                 ": key confirmation failed");
          }
          r.results[v] = result_of(c.report);
          r.bob_keys[v] = std::move(c.bob_key);
          r.established += c.report.established ? 1 : 0;
          r.attempts += c.report.attempts;
          r.events += c.events;
        },
        before, after);
    replay_us = wire_replay(comp.corrupted);
  }
  perfbench::set_active_log(nullptr);
  check_composition(res, comp, reference, "vehicle", inject == "key");

  const perfbench::Ledger ledger(log);
  res.add("gateway.serial_us_per_key", 0.0, "us");
  res.add("gateway.lane_speedup", 0.0, "x");
  res.add("key_schedule.rekeys_per_key", 0.0, "count");
  res.add("channel.us_per_round", m.channel_us_per_round, "us");
  composition_metrics(res, ledger, comp.established, before, after,
                      comp.attempts, comp.events, replay_us);
  res.attempted = cycle.size();
  res.failed = cycle.size() - comp.established;
  res.digest = outputs_digest(reference);
  finish_ledger(res, log, ledger, trace_out, "vehicle_pipeline");
  return res;
}

// ------------------------------------------------------------------ main

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload gateway_lossless|gateway_lossy|"
               "vehicle_pipeline --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--tiny] [--inject key|faithfulness]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, inject, trace_out;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--workload") {
      workload_name = value();
    } else if (a == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (a == "--trace-out") {
      trace_out = value();
    } else if (a == "--tiny") {
      tiny = true;
    } else if (a == "--inject") {
      inject = value();
      if (inject != "key" && inject != "faithfulness") usage(argv[0]);
    } else {
      usage(argv[0]);
    }
  }
  Workload w;
  if (workload_name == "gateway_lossless") {
    w = Workload::kGatewayLossless;
  } else if (workload_name == "gateway_lossy") {
    w = Workload::kGatewayLossy;
  } else if (workload_name == "vehicle_pipeline") {
    w = Workload::kVehiclePipeline;
  } else {
    usage(argv[0]);
  }
  if (seconds <= 0.0 || (trace != 0 && trace != 1)) usage(argv[0]);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace, tiny ? " (tiny)" : "");

  const Sizes sz = sizes_for(tiny, trace == 1);
  protocol::register_gateway_metrics();

  // Set-up: train the models (and, for vehicle_pipeline, generate the
  // probe traces) several times; setup_s is the median. Every repeat must
  // produce the same models.
  std::vector<double> setup_s;
  Models models;
  Gate setup_gate;
  for (std::size_t r = 0; r < sz.setup_repeats; ++r) {
    const auto t0 = Clock::now();
    Models fresh = build_models(w, sz, seed);
    // Warm the engine / vehicle path so lazy initialisation (pool threads,
    // metric registration) is set-up, not measurement.
    if (w == Workload::kVehiclePipeline) {
      std::size_t window = 0;
      run_vehicle(fresh, seed, 0, window);
    } else {
      GatewayEngine warm(gateway_config(w, kSimBatch, seed, 0),
                         *fresh.reconciler,
                         [seed](std::uint64_t d, std::size_t a) {
                           return synthetic_material(seed, d, a);
                         });
      warm.run();
    }
    setup_s.push_back(seconds_since(t0));
    setup_gate.require(r == 0 || fresh.fingerprint == models.fingerprint,
                       "set-up repeat " + std::to_string(r) +
                           " trained different models");
    models = std::move(fresh);
  }

  Result res;
  if (trace == 0) {
    res = w == Workload::kVehiclePipeline
              ? timed_vehicle(models, seed, seconds, inject)
              : timed_gateway(w, sz, models, seed, seconds, inject);
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("setup_s", median(setup_s), "s");
  } else {
    res = w == Workload::kVehiclePipeline
              ? traced_vehicle(models, seed, inject, trace_out)
              : traced_gateway(w, sz, models, seed, inject, trace_out);
  }
  for (const std::string& f : setup_gate.failures) res.gate.require(false, f);

  std::printf("outputs digest: %016llx\n",
              static_cast<unsigned long long>(res.digest));
  for (const std::string& f : res.gate.failures) {
    std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += res.gate.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted) +
          ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& mt = res.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", mt.value);
    json += (i == 0 ? "\"" : ", \"") + mt.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + mt.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return res.gate.ok() ? 0 : 1;
}
