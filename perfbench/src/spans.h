// In-memory span recorder for the traced run.
//
// The benchmark opens a Span around every call it makes into a layer
// (and around every callback it hands a layer). Spans land in a buffer
// sized up front; nothing is written until the run ends, and a full buffer
// is an error the run reports, never a silent drop. Recording a span takes
// two steady_clock reads and two alloc_stats::totals() reads and performs
// no heap allocation, so the allocation ledger is not perturbed.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Every span name the benchmark records. Layer names match the per-layer
/// metric prefixes in BENCHMARK.json.
enum class Layer : std::uint8_t {
  kTracedRun,          ///< root of the traced phase
  kUnitDecode,         ///< reconciler.reconcile at protocol sizes
  kUnitEncode,         ///< reconciler.encode_bob
  kUnitHmac,           ///< crypto::hmac_sha256
  kUnitHkdf,           ///< crypto::hkdf
  kUnitAmplify,        ///< PrivacyAmplifier::amplify
  kGatewayRun,         ///< GatewayEngine construction + run()
  kGatewayRunNoMetrics,
  kVehiclesRun,        ///< one cycle of the vehicle loop
  kVehiclesRunNoMetrics,
  kReference,          ///< run_reliable_key_agreement[_on] per device
  kParallelBatch,      ///< one sim_batch of RF exchanges via parallel_for
  kComposition,        ///< the traced composition of the supervisor
  kCompositionUntraced,
  kSupervisor,
  kSession,
  kArq,
  kLink,
  kSimClock,
  kMaterial,
  kArrssi,
  kPredictor,
  kKeySchedule,
  kWireReplay,
  kCount
};

struct SpanRecord {
  std::int64_t start_ns = 0;  ///< steady_clock, relative to the log's epoch
  std::int64_t end_ns = -1;   ///< -1 while open
  std::uint64_t allocs_open = 0;
  std::uint64_t allocs_close = 0;
  std::uint32_t parent = 0;  ///< 1-based id of the parent span, 0 = none
  std::uint32_t thread = 0;  ///< small per-thread index
  Layer layer = Layer::kTracedRun;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Open a span under the calling thread's current span (or under the
  /// lane parent on a pool worker). Returns its 1-based id, or 0 when the
  /// log is paused or full (fullness is remembered: see overflowed()).
  std::uint32_t open(Layer layer);
  void close(std::uint32_t id);

  /// While paused, open() records nothing (the untraced comparison passes).
  void set_paused(bool paused) noexcept { paused_.store(paused); }

  /// Parent for spans opened on threads with no open span of their own —
  /// the pool workers fanned out by a call the benchmark wraps.
  void set_lane_parent(std::uint32_t id) noexcept { lane_parent_.store(id); }

  bool overflowed() const noexcept { return overflowed_.load(); }
  std::size_t capacity() const noexcept { return records_.size(); }
  /// Number of recorded spans (valid once every span is closed).
  std::size_t size() const noexcept;
  const SpanRecord& record(std::uint32_t id) const { return records_[id - 1]; }

 private:
  std::vector<SpanRecord> records_;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> overflowed_{false};
  std::atomic<bool> paused_{false};
  std::atomic<std::uint32_t> lane_parent_{0};
  std::int64_t epoch_ns_ = 0;
};

/// The log spans record into; null (the default) turns every Span into a
/// no-op, which is how the timed, untraced runs execute the same code.
void set_active_log(SpanLog* log) noexcept;
SpanLog* active_log() noexcept;

/// RAII span in the active log.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint32_t id() const noexcept { return id_; }

 private:
  std::uint32_t id_ = 0;
  std::uint32_t prev_ = 0;  ///< the thread's current span before this one
};

/// Installs `span` as the lane parent for the scope of a parallel call.
class LaneParentScope {
 public:
  explicit LaneParentScope(const Span& span);
  ~LaneParentScope();
  LaneParentScope(const LaneParentScope&) = delete;
  LaneParentScope& operator=(const LaneParentScope&) = delete;
};

/// Per-layer totals of self time (span duration minus the union of its
/// children's intervals) and self allocations.
struct LayerTotals {
  std::size_t spans = 0;
  double self_us = 0.0;
  double self_allocs = 0.0;
};

/// Post-run analysis of a closed log whose span 1 is the root.
class Ledger {
 public:
  explicit Ledger(const SpanLog& log);

  double root_us() const noexcept { return root_us_; }
  /// Root self time: wall of the traced phase no recorded span covers.
  double residual_us() const noexcept { return residual_us_; }
  /// Totals of `layer` over every span whose top-level ancestor (the
  /// root's child it descends from) has layer `top`.
  LayerTotals under(Layer top, Layer layer) const;

  /// Human-readable ledger (one row per top-level layer and per layer
  /// beneath it, plus the residual).
  std::string table() const;
  /// Chrome trace-event JSON of every span plus the ledger rows.
  std::string chrome_trace(const std::string& label) const;

 private:
  const SpanLog& log_;
  std::vector<double> self_us_;
  std::vector<double> self_allocs_;
  std::vector<std::uint32_t> top_;  ///< top-level ancestor id (0 = root)
  double root_us_ = 0.0;
  double residual_us_ = 0.0;
};

}  // namespace perfbench
