#include "protocol/gateway.h"

#include <algorithm>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "protocol/instruments.h"

namespace vkey::protocol {

namespace {

/// Session-id space of one device: 16 ids per device leaves room for the
/// supervisor's per-attempt increments without collisions across devices.
std::uint64_t session_id_for(std::uint64_t device) {
  return 1 + (device << 4);
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

GatewayEngine::GatewayEngine(const GatewayConfig& config,
                             const core::AutoencoderReconciler& reconciler,
                             MaterialFn material)
    : cfg_(config),
      reconciler_(reconciler),
      material_(std::move(material)),
      registry_(config.max_inflight),
      outcomes_(config.sessions) {
  VKEY_REQUIRE(cfg_.sessions >= 1, "gateway needs at least one session");
  VKEY_REQUIRE(cfg_.sim_batch >= 1, "simulation batch must be positive");
  VKEY_REQUIRE(cfg_.arrival_interval_ms >= 0.0 && cfg_.idle_timeout_ms > 0.0,
               "arrival spacing must be >= 0 and idle timeout positive");
  VKEY_REQUIRE(static_cast<bool>(material_), "probe material source required");
}

void GatewayEngine::set_batch_material(BatchMaterialFn prefetch) {
  VKEY_REQUIRE(!ran_, "batch material must be installed before run()");
  batch_material_ = std::move(prefetch);
}

void GatewayEngine::set_tick(std::function<void(double)> tick) {
  VKEY_REQUIRE(!ran_, "tick observer must be installed before run()");
  tick_ = std::move(tick);
}

void GatewayEngine::on_tick() {
  tick_(clock_.now_ms());
  // Keep ticking only while other events remain: once the tick is the sole
  // event left, the timeline has quiesced and rescheduling would keep the
  // run alive forever. The executing tick is already off the queue, so
  // pending() counts everything else.
  if (clock_.pending() > 0) {
    clock_.schedule(cfg_.tick_interval_ms, [this] { on_tick(); });
  }
}

SessionOutcome GatewayEngine::simulate(
    std::uint64_t device, std::size_t flight_capacity, std::string* dump,
    const std::pair<BitVec, BitVec>* attempt0) const {
  ReliabilityConfig rcfg = cfg_.reliability;
  // Per-device fault/backoff streams: device k's loss pattern must be
  // independent of device j's and of the lane that simulates it.
  rcfg.fault.seed =
      hash_combine64(hash_combine64(cfg_.seed, 0x6a7eu), device);
  rcfg.arq.seed = hash_combine64(hash_combine64(cfg_.seed, 0xa49u), device);
  rcfg.base_session_id = session_id_for(device);
  rcfg.flight_capacity = flight_capacity;

  // The dedicated sub-clock of this device's RF exchange; constructing it
  // here keeps clock ownership with the gateway scheduler (lint rule
  // `sim-clock-owner`; this file is the sanctioned owner).
  SimClock sub;
  PublicChannel base;
  const AgreementReport report = run_reliable_key_agreement_on(
      sub, base, reconciler_, rcfg,
      [this, device, attempt0](std::size_t attempt) {
        // Recovery attempts (and post-mortem re-simulation, which passes no
        // prefetch) fall back to the per-attempt source.
        if (attempt == 0 && attempt0 != nullptr) return *attempt0;
        return material_(device, attempt);
      });

  SessionOutcome out;
  out.established = report.established;
  out.failure = report.failure;
  out.establish_ms = report.time_to_establish_ms;
  out.attempts = report.attempts;
  out.wire_frames = report.wire_frames;
  out.wire_bytes = report.link.bytes_sent;
  for (const auto& att : report.attempt_log) {
    out.retransmissions += att.alice_transport.retransmissions +
                           att.bob_transport.retransmissions;
  }
  if (report.established) out.key = report.key;
  if (dump != nullptr) *dump = report.failure_dump();
  return out;
}

void GatewayEngine::ensure_outcome(std::uint64_t device) {
  while (simulated_ <= device) {
    const std::size_t begin = simulated_;
    const std::size_t end =
        std::min(cfg_.sessions, begin + cfg_.sim_batch);
    // Batched attempt-0 prefetch (when installed) runs on this thread once
    // per sim_batch, so a predictor-backed source amortizes its blocked
    // batch inference across the whole batch before the pool fans out.
    std::vector<std::pair<BitVec, BitVec>> prefetched;
    if (batch_material_) {
      prefetched = batch_material_(begin, end - begin);
      VKEY_REQUIRE(prefetched.size() == end - begin,
                   "batch material returned wrong count");
    }
    // Arrival-order batches through the pool: each lane writes only its
    // index-owned outcome slot, so the array is bit-identical for any lane
    // count (DESIGN.md §9 contract).
    parallel::parallel_for(
        end - begin,
        [this, begin, &prefetched](std::size_t i) {
          outcomes_[begin + i] =
              simulate(begin + i, 0, nullptr,
                       prefetched.empty() ? nullptr : &prefetched[i]);
        },
        cfg_.threads);
    simulated_ = end;
  }
}

void GatewayEngine::on_arrival(std::uint64_t device) {
  registry_.arrive(device, clock_.now_ms());
  if (device + 1 < cfg_.sessions) {
    clock_.schedule_at(
        cfg_.arrival_interval_ms * static_cast<double>(device + 1),
        [this, next = device + 1] { on_arrival(next); });
  }
  try_admit();
}

void GatewayEngine::try_admit() {
  while (auto admitted = registry_.admit_next(clock_.now_ms())) {
    const std::uint64_t device = *admitted;
    ensure_outcome(device);
    // The exchange's virtual duration is known (it is a function of the
    // device's seeds alone); completion lands on the shared timeline.
    clock_.schedule(outcomes_[device].establish_ms,
                    [this, device] { on_establishment_done(device); });
  }
}

void GatewayEngine::on_establishment_done(std::uint64_t device) {
  const double now = clock_.now_ms();
  const SessionOutcome& out = outcomes_[device];
  if (out.established) {
    registry_.established(device, now);
    last_establish_ms_ = now;
    const DeviceRecord& rec = registry_.record(device);
    instruments().gateway.time_to_key_ms.observe(rec.time_to_key_ms());
    instruments().gateway.queue_wait_ms.observe(rec.queue_wait_ms());
    // The confirmed session's live key state: rekey events ratchet it on
    // the shared timeline until the session idles out.
    schedules_.emplace(device, KeySchedule(out.key, session_id_for(device),
                                           KeySchedule::Role::kInitiator));
    if (cfg_.rekey_interval_ms > 0.0 && cfg_.max_rekeys > 0) {
      clock_.schedule(cfg_.rekey_interval_ms,
                      [this, device] { on_rekey(device, 1); });
    }
    arm_idle_eviction(device);
  } else {
    registry_.failed(device, now, out.failure);
    registry_.evict(device, now, EvictReason::kFailed);
  }
  try_admit();  // a slot freed either way
}

void GatewayEngine::on_rekey(std::uint64_t device, std::size_t ordinal) {
  if (registry_.record(device).state != DeviceState::kConfirmed) return;
  const double now = clock_.now_ms();
  schedules_.at(device).rekey(now);
  registry_.rekeyed(device, now);
  if (ordinal < cfg_.max_rekeys) {
    clock_.schedule(cfg_.rekey_interval_ms,
                    [this, device, ordinal] { on_rekey(device, ordinal + 1); });
  }
}

void GatewayEngine::arm_idle_eviction(std::uint64_t device) {
  const double due =
      registry_.record(device).last_activity_ms + cfg_.idle_timeout_ms;
  clock_.schedule_at(due, [this, device] {
    const DeviceRecord& rec = registry_.record(device);
    if (rec.state != DeviceState::kConfirmed) return;
    if (clock_.now_ms() >= rec.last_activity_ms + cfg_.idle_timeout_ms) {
      schedules_.erase(device);
      registry_.evict(device, clock_.now_ms(), EvictReason::kIdle);
    } else {
      // Rekeys (or traffic) refreshed the session after this check was
      // armed; re-arm for the new deadline.
      arm_idle_eviction(device);
    }
  });
}

GatewayReport GatewayEngine::run() {
  VKEY_REQUIRE(!ran_, "GatewayEngine::run() is one-shot");
  ran_ = true;
  clock_.schedule_at(0.0, [this] { on_arrival(0); });
  if (tick_ && cfg_.tick_interval_ms > 0.0) {
    clock_.schedule(cfg_.tick_interval_ms, [this] { on_tick(); });
  }
  // Runaway guard far above need: every session costs O(1) lifecycle events
  // (arrival, admission, completion, <= max_rekeys rekeys, idle checks).
  std::size_t cap = cfg_.sessions * (cfg_.max_rekeys + 8) + 1024;
  if (tick_ && cfg_.tick_interval_ms > 0.0) {
    // Observer ticks add makespan / interval events; bound the makespan by
    // the arrival span plus a generous per-session tail (establishments,
    // rekeys, the idle timeout). A too-low guess still fails loudly via the
    // quiesce check below, never silently.
    const double span_bound =
        cfg_.arrival_interval_ms * static_cast<double>(cfg_.sessions) +
        cfg_.idle_timeout_ms * 4.0 +
        cfg_.rekey_interval_ms * static_cast<double>(cfg_.max_rekeys) +
        60'000.0;
    cap += static_cast<std::size_t>(span_bound / cfg_.tick_interval_ms) + 64;
  }
  clock_.run_until_idle(cap);
  VKEY_REQUIRE(registry_.queued() == 0 && registry_.establishing() == 0 &&
                   registry_.confirmed_active() == 0,
               "gateway timeline quiesced with live sessions (event cap "
               "too low or a lifecycle leak)");
  return finalize();
}

GatewayReport GatewayEngine::finalize() {
  const RegistryStats& rs = registry_.stats();
  GatewayReport rep;
  rep.sessions = cfg_.sessions;
  rep.established = rs.established;
  rep.failed = rs.failures;
  rep.evicted_idle = rs.evicted_idle;
  rep.evicted_failed = rs.evicted_failed;
  rep.rekeys = rs.rekeys;
  rep.peak_inflight = rs.peak_inflight;
  rep.peak_queued = rs.peak_queued;
  rep.makespan_ms = clock_.now_ms();
  rep.establish_span_ms = last_establish_ms_;
  if (last_establish_ms_ > 0.0 && rs.established > 0) {
    rep.keys_per_vsecond = static_cast<double>(rs.established) /
                           (last_establish_ms_ / 1000.0);
  }

  std::vector<double> ttk;
  ttk.reserve(rs.established);
  double wait_sum = 0.0;
  std::size_t attempts = 0, established_bytes = 0;
  for (std::uint64_t d = 0; d < cfg_.sessions; ++d) {
    const DeviceRecord& rec = registry_.record(d);
    wait_sum += rec.queue_wait_ms();
    attempts += outcomes_[d].attempts;
    if (rec.time_to_key_ms() >= 0.0) {
      ttk.push_back(rec.time_to_key_ms());
      established_bytes += outcomes_[d].wire_bytes;
    }
  }
  std::sort(ttk.begin(), ttk.end());
  rep.median_time_to_key_ms = percentile(ttk, 0.5);
  rep.p95_time_to_key_ms = percentile(ttk, 0.95);
  rep.p99_time_to_key_ms = percentile(ttk, 0.99);
  rep.mean_queue_wait_ms = wait_sum / static_cast<double>(cfg_.sessions);
  rep.mean_attempts =
      static_cast<double>(attempts) / static_cast<double>(cfg_.sessions);
  if (rs.established > 0) {
    rep.bytes_per_session = static_cast<double>(established_bytes) /
                            static_cast<double>(rs.established);
  }

  // Bounded post-mortems: determinism makes recording free after the fact —
  // re-simulating a failed device with the same seeds replays its exact
  // frame history, this time with the flight recorder on.
  std::size_t failed_seen = 0;
  for (std::uint64_t d = 0; d < cfg_.sessions; ++d) {
    if (outcomes_[d].established) continue;
    ++failed_seen;
    if (rep.failure_dumps.size() >= cfg_.failure_dump_limit) continue;
    const std::size_t capacity = cfg_.reliability.flight_capacity > 0
                                     ? cfg_.reliability.flight_capacity
                                     : 512;
    std::string dump;
    simulate(d, capacity, &dump, nullptr);
    rep.failure_dumps.push_back("device " + std::to_string(d) + ": " + dump);
  }
  rep.failures_suppressed = failed_seen - rep.failure_dumps.size();
  return rep;
}

void register_gateway_metrics() { instruments(); }

}  // namespace vkey::protocol
