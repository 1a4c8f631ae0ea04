// Structured tracing: scoped timers, hierarchical spans and a bounded event
// log on top of the metrics registry.
//
// A ScopedTimer measures the lifetime of a scope and, on destruction,
// observes the elapsed milliseconds into a Histogram and (optionally)
// appends a span to the global TraceLog. The time source is pluggable: the
// process-default clock (monotonic wall clock unless set_default_now()
// installs an override) or any NowFn returning milliseconds — protocol code
// passes a lambda over its SimClock, so spans inside a simulated session
// are measured in *virtual* time and stay bit-reproducible. The timer
// resolves its clock ONCE at start, so a set_default_now() toggle mid-span
// can never mix two time bases inside one measurement.
//
// Spans form per-run trees: every recording timer takes a process-unique
// id at start (ids are handed out in start order) and parents itself under
// the innermost open span of its execution lane via a thread-local span
// stack. The deterministic thread pool (common/parallel) propagates the
// submitting call's open span into its worker lanes and tags them with a
// lane id, so fan-out work still hangs off the stage that spawned it.
//
// Spans, instants and protocol flight events share one fixed-size record,
// Event. The TraceLog keeps events in two bounded rings, one per clock
// domain (kWall, kVirtual); it is off by default (VKEY_TRACE=on or
// TraceLog::set_enabled turn it on). chrome_trace() exports Chrome
// trace-event JSON in canonical (start_ms, id) order with ids remapped to
// dense indices, so a virtual-domain export is byte-identical for any
// worker-lane count (DESIGN.md §10). With VKEY_METRICS=off a ScopedTimer
// never reads the clock, and no timer path allocates.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"

namespace vkey::trace {

/// Millisecond time source. Must be monotone within one timer's lifetime.
using NowFn = std::function<double()>;

/// Monotonic wall clock in milliseconds (steady_clock). This is the single
/// sanctioned wall-clock read in the library (vkey_lint's `wall-clock` rule
/// allowlists only its definition); all other code takes time from a NowFn.
double wall_now_ms();

/// Install the process-default time source used by ScopedTimers constructed
/// without an explicit NowFn (an empty function restores the wall clock).
/// A simulation can point this at a SimClock so every timer in the process
/// — including ones in code that never heard of virtual time — measures
/// virtual milliseconds and stays bit-reproducible. Thread-safe against
/// concurrent timers: each timer snapshots the override once at start.
void set_default_now(NowFn now);

/// Milliseconds from the process-default source (wall clock unless
/// set_default_now installed an override).
double default_now_ms();

/// Which clock produced a span's timestamps. Virtual-domain spans are
/// bit-reproducible and are the only ones a deterministic export may keep.
enum class Domain : std::uint8_t { kWall, kVirtual };

/// What a protocol flight event records (protocol::FlightRecorder).
enum class FlightEventKind : std::uint8_t {
  kAttemptStart,  ///< supervisor opened a session attempt
  kAttemptEnd,    ///< attempt terminated (detail: outcome / failure reason)
  kFrameTx,       ///< frame handed to the link by an endpoint
  kFrameRx,       ///< frame delivered to the far endpoint
  kDrop,          ///< fault injector lost the frame
  kCorrupt,       ///< fault injector flipped bits (frame still parsed)
  kCrcLost,       ///< corruption beyond parsing; radio CRC discarded it
  kWireReject,    ///< frame codec rejected the bytes (detail: WireError)
  kReorder,       ///< fault injector added reordering delay
  kDuplicate,     ///< fault injector scheduled an echo copy
  kRetransmit,    ///< ARQ resent a frame (detail: "timeout ..." or "fast")
  kBackoff,       ///< ARQ armed a retransmission timer (detail: delay)
  kAckTx,         ///< transport acknowledged an accepted frame
  kAckRx,         ///< transport consumed an ack for an in-flight frame
  kStaleAck,      ///< ack for a frame not (or no longer) in flight
  kGaveUp,        ///< retry budget exhausted; the attempt is dead
  kReject,        ///< session rejected a frame (detail: RejectReason)
  kStateChange,   ///< session state transition (detail: "from->to")
  kInjected,      ///< harness-injected fault (fuzz tests name theirs here)
};

/// A numeric attribute under a literal key. JSON numbers are doubles, so
/// integers export exactly as before up to 2^53.
struct Attr {
  const char* key;
  double value;
};

/// The one event record: a span, an instant or a protocol flight event.
/// Fixed-size and trivially copyable: keeping one is a plain copy.
struct Event {
  static constexpr std::size_t kMaxAttrs = 4;
  static constexpr std::size_t kDetailBytes = 48;

  double t_ms = 0.0;    ///< start; a flight event's virtual stamp
  double dur_ms = 0.0;  ///< 0 for instants
  /// In the TraceLog: process-unique id handed out in start order (the
  /// canonical-sort sequence number). In a FlightRecorder: the recorder's
  /// insertion ordinal (0-based).
  std::uint64_t id = 0;
  /// Id of the innermost span open when this one started; 0 = root.
  std::uint64_t parent = 0;
  std::uint64_t session = 0;  ///< flight events: protocol session id
  std::uint64_t nonce = 0;    ///< flight events: frame nonce
  /// Static name: a string literal or a "flight.<kind>" table entry.
  const char* name = nullptr;
  /// Flight events only: the static actor ("alice", "link", ...). A
  /// non-null actor marks the record as a flight event in the export.
  const char* actor = nullptr;
  Attr attrs[kMaxAttrs] = {};
  /// Execution lane: 0 for the calling thread, 1..N-1 for borrowed pool
  /// workers (see parallel::parallel_for's lane annotation).
  std::uint32_t lane = 0;
  Domain domain = Domain::kWall;
  FlightEventKind kind = FlightEventKind::kAttemptStart;  ///< flight events
  /// Instant event (zero duration, Chrome phase "i") rather than a scope.
  bool instant = false;
  std::uint8_t n_attrs = 0;
  /// Flight events: kind-specific context, NUL-terminated, cut at
  /// kDetailBytes - 1 characters.
  char detail[kDetailBytes] = {};
};

static_assert(std::is_trivially_copyable_v<Event>);

/// Bounded ring of events, oldest first; once full each push overwrites the
/// oldest event and counts a drop. Storage grows on demand up to the
/// capacity, so a large, mostly idle ring costs nothing. Not thread-safe:
/// TraceLog guards its rings with a mutex, a FlightRecorder has one writer.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity = 0) : capacity_(capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return buf_.size(); }
  std::size_t dropped() const noexcept { return dropped_; }

  void push(const Event& ev);
  /// Count an event that was never formatted because nothing keeps it.
  void drop() noexcept { ++dropped_; }
  /// Resize, keeping the newest events (the evicted ones count as drops).
  void set_capacity(std::size_t n);
  /// Forget the events and the drop count (storage is kept for reuse).
  void clear() noexcept;

  /// The k-th oldest event, k < size().
  const Event& at(std::size_t k) const noexcept {
    return buf_[(head_ + k) % buf_.size()];
  }
  /// Events oldest -> newest.
  std::vector<Event> events() const;

 private:
  std::vector<Event> buf_;  // buf_[(head_ + k) % size] is the k-th oldest
  std::size_t head_ = 0;
  std::size_t capacity_;
  std::size_t dropped_ = 0;
};

/// The global event log: one ring per clock domain, each holding
/// `capacity` events, so a flood of virtual flight events can never evict
/// the wall-clock spans of the same run (and vice versa).
class TraceLog {
 public:
  static TraceLog& global();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  /// Capacity of each of the two rings.
  void set_capacity(std::size_t n);

  /// Reserve the next span id (ids are handed out in start order and double
  /// as the canonical-sort sequence number).
  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Append an event to its domain's ring (assigns an id if it has none).
  void record(Event ev);

  /// Wall-domain events then virtual-domain events, each oldest first.
  std::vector<Event> events() const;
  /// Events evicted from (or refused by) both rings.
  std::size_t dropped() const;
  void clear();

  /// Chrome trace-event JSON (chrome://tracing / Perfetto): complete events
  /// ("ph":"X") and instants ("ph":"i") in canonical (start_ms, seq) order
  /// with ids remapped to dense indices; otherData.dropped counts the drops
  /// of the exported domains. `virtual_only` keeps only SimClock-domain
  /// events — that export is byte-identical across runs and worker-lane
  /// counts (the determinism contract; CI byte-diffs it).
  json::Value chrome_trace(bool virtual_only = false) const;

  /// Write chrome_trace() to `path`; false (with a note on stderr) when the
  /// file cannot be opened. Prints one stderr line naming the dropped count
  /// whenever the export lost events.
  bool write_chrome_trace(const std::string& path,
                          bool virtual_only = false) const;

 private:
  TraceLog();

  mutable std::mutex mu_;
  // Atomic: read lock-free on every timer stop, possibly while another
  // thread toggles it (the TSan stress test exercises exactly this).
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  EventRing wall_{1 << 16};
  EventRing virtual_{1 << 16};
};

/// Innermost open span id on this thread (0 = none). New spans and instant
/// events parent under it.
std::uint64_t current_parent() noexcept;

/// Execution-lane id of this thread (0 = a calling thread).
std::uint32_t current_lane() noexcept;

/// RAII lane annotation for pool workers: installs a lane id and an
/// inherited ambient parent for the duration of a borrowed work chunk, so
/// spans opened inside parallel_for still hang off the submitting stage.
/// Restores the previous context on destruction.
class LaneScope {
 public:
  LaneScope(std::uint32_t lane, std::uint64_t ambient_parent) noexcept;
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;
  ~LaneScope();

 private:
  std::uint32_t prev_lane_;
  std::uint64_t prev_parent_;
};

/// RAII scope timer. Records into `hist` (and the TraceLog, when enabled)
/// when the scope ends; stop() ends it early and returns the elapsed ms.
/// Tracing participation is decided at construction: metrics on, TraceLog
/// enabled and a non-empty name. A timer never allocates: it builds its
/// Event in place (the name is a static string) and stop() copies it into
/// the log's ring. With metrics off it never reads the clock at all.
class ScopedTimer {
 public:
  /// Time into an explicit histogram with the process-default clock.
  /// `name` must be a string literal (or otherwise outlive the TraceLog).
  explicit ScopedTimer(metrics::Histogram& hist, const char* name = nullptr);
  /// Time with a custom clock (e.g. a SimClock lambda, in virtual ms).
  /// Spans from explicit clocks are tagged Domain::kVirtual: in this tree
  /// every explicit NowFn is a virtual time base.
  ScopedTimer(metrics::Histogram& hist, NowFn now, const char* name = nullptr);

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Attach a numeric attribute under a literal key (at most
  /// Event::kMaxAttrs per span). No-op when the timer is not tracing.
  template <typename T>
    requires std::is_arithmetic_v<T>
  ScopedTimer& attr(const char* key, T value) {
    if (span_.id != 0) add_attr(key, static_cast<double>(value));
    return *this;
  }

  /// The span id this timer records under (0 when not tracing). Children
  /// started on this thread while the timer is open parent under it.
  std::uint64_t span_id() const noexcept { return span_.id; }

  /// Stop now (idempotent); returns elapsed ms (0 when metrics disabled).
  double stop();

  ~ScopedTimer();

 private:
  void begin(const char* name, bool explicit_clock);
  void add_attr(const char* key, double value);

  metrics::Histogram* hist_;
  NowFn now_;  // empty -> wall clock (default override is pinned at start)
  Event span_;  // the record stop() appends; id 0 -> not tracing
  bool running_ = false;
};

}  // namespace vkey::trace
