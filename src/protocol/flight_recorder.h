// Per-session flight recorder: a bounded ring of protocol events stamped
// with SimClock virtual time.
//
// Metrics answer aggregate questions — how many frames were dropped across
// a bench run — but not why ONE session failed: which injected fault hit
// which frame, what the ARQ did about it, how the state machines reacted.
// The reliability supervisor creates one recorder per attempt and hands it
// to the link, both transports and both sessions; every layer appends its
// events, and the recorder travels with the AttemptReport so a failed — or
// fuzzed — session can dump its full history next to its FailureReason.
//
// Determinism: events are stamped from the attempt's SimClock (virtual ms)
// and carry a per-recorder insertion ordinal (Event::id), so dump() is
// byte-identical for identical seeds and any worker-lane count. Without a
// clock (harness/fuzz use) the ordinal is the timestamp. The ring is
// single-writer — the protocol stack runs inside one SimClock event loop.
//
// Events are trace::Event records in a trace::EventRing. The detail comes
// as a FlightDetail (a static format plus typed values) and is formatted
// into the record only when the event is kept: a capacity-0 recorder with
// the TraceLog off counts the event and returns without formatting or
// allocating. With the TraceLog enabled each event is also pushed, as the
// same record, into its virtual ring ("flight.<kind>" instants).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/trace.h"

namespace vkey::protocol {

using trace::FlightEventKind;

/// Kind-specific context of a flight event, kept unformatted: a static
/// format whose "{}" placeholders take up to three typed values (integers,
/// doubles in json::format_number digits, static strings). Plain text
/// (a literal or a caller's std::string) is the zero-value case. A
/// FlightDetail only refers to its text, so it must not outlive the
/// record() call it is passed to.
class FlightDetail {
 public:
  FlightDetail() = default;
  FlightDetail(const char* text) : fmt_(text) {}
  FlightDetail(const std::string& text) : fmt_(text) {}
  template <typename... Ts>
    requires(sizeof...(Ts) >= 1 && sizeof...(Ts) <= 3)
  FlightDetail(const char* fmt, Ts... values)
      : fmt_(fmt), n_(sizeof...(Ts)), values_{make(values)...} {}

  /// Write the text into `out` (NUL-terminated, cut to fit).
  void format(char (&out)[trace::Event::kDetailBytes]) const;

 private:
  struct Value {
    enum class Type : std::uint8_t { kInt, kDouble, kText } type;
    std::int64_t i;
    double d;
    const char* s;
  };
  template <typename T>
  static Value make(T v) {
    if constexpr (std::is_integral_v<T>) {
      return {Value::Type::kInt, static_cast<std::int64_t>(v), 0.0, nullptr};
    } else if constexpr (std::is_floating_point_v<T>) {
      return {Value::Type::kDouble, 0, v, nullptr};
    } else {
      return {Value::Type::kText, 0, 0.0, v};
    }
  }

  std::string_view fmt_;
  std::size_t n_ = 0;
  Value values_[3] = {};
};

/// Bounded single-writer event ring (oldest events drop first).
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 512, trace::NowFn now = {});

  /// Swap the time source (e.g. when a recorder outlives its SimClock an
  /// owner clears it). Events already recorded keep their stamps.
  void set_now(trace::NowFn now) { now_ = std::move(now); }

  std::size_t capacity() const noexcept { return ring_.capacity(); }
  std::size_t size() const noexcept { return ring_.size(); }
  std::size_t dropped() const noexcept { return ring_.dropped(); }
  std::uint64_t total() const noexcept { return next_seq_; }

  /// `actor` is a static name ("alice", "bob", "link", "supervisor", ...).
  void record(FlightEventKind kind, const char* actor,
              const FlightDetail& detail = {}, std::uint64_t session_id = 0,
              std::uint64_t nonce = 0);

  /// Events oldest -> newest.
  std::vector<trace::Event> events() const { return ring_.events(); }

  void clear();

  /// Deterministic human-readable timeline, one event per line:
  ///   [  123.456 ms] #17 retransmit alice timeout attempt=1 nonce=3
  /// Byte-identical for identical event sequences (virtual stamps only).
  std::string dump() const;

 private:
  trace::NowFn now_;
  trace::EventRing ring_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace vkey::protocol
