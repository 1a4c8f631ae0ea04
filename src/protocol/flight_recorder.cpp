#include "protocol/flight_recorder.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <utility>

#include "common/json.h"

namespace vkey::protocol {

namespace {

// Export names, indexed by FlightEventKind; dumps drop the prefix.
constexpr const char* kNames[] = {
    "flight.attempt-start", "flight.attempt-end", "flight.frame-tx",
    "flight.frame-rx",      "flight.drop",        "flight.corrupt",
    "flight.crc-lost",      "flight.wire-reject", "flight.reorder",
    "flight.duplicate",     "flight.retransmit",  "flight.backoff",
    "flight.ack-tx",        "flight.ack-rx",      "flight.stale-ack",
    "flight.gave-up",       "flight.reject",      "flight.state-change",
    "flight.injected",
};
constexpr std::size_t kPrefix = sizeof("flight.") - 1;
static_assert(std::size(kNames) ==
              static_cast<std::size_t>(FlightEventKind::kInjected) + 1);

}  // namespace

void FlightDetail::format(char (&out)[trace::Event::kDetailBytes]) const {
  char* p = out;
  char* const end = out + sizeof(out) - 1;  // keep room for the NUL
  const auto put = [&](std::string_view s) {
    const std::size_t n =
        std::min(s.size(), static_cast<std::size_t>(end - p));
    p = std::copy_n(s.data(), n, p);
  };
  std::size_t next = 0;
  for (std::size_t i = 0; i < fmt_.size(); ++i) {
    if (next == n_ || fmt_.compare(i, 2, "{}") != 0) {
      put(fmt_.substr(i, 1));
      continue;
    }
    const Value& v = values_[next++];
    char num[40];
    switch (v.type) {
      case Value::Type::kInt:
        put({num, std::to_chars(num, num + sizeof num, v.i).ptr});
        break;
      case Value::Type::kDouble:
        put({num, json::format_number(v.d, num, num + sizeof num)});
        break;
      case Value::Type::kText:
        put(v.s);
        break;
    }
    ++i;  // skip the closing brace
  }
  *p = '\0';
}

FlightRecorder::FlightRecorder(std::size_t capacity, trace::NowFn now)
    : now_(std::move(now)), ring_(capacity) {}

void FlightRecorder::record(FlightEventKind kind, const char* actor,
                            const FlightDetail& detail,
                            std::uint64_t session_id, std::uint64_t nonce) {
  const std::uint64_t seq = next_seq_++;
  trace::TraceLog& log = trace::TraceLog::global();
  const bool mirror = log.enabled();
  if (ring_.capacity() == 0 && !mirror) {
    ring_.drop();  // nothing keeps the event: no stamp, no formatting
    return;
  }
  trace::Event ev;
  ev.t_ms = now_ ? now_() : static_cast<double>(seq);
  ev.id = seq;
  ev.name = kNames[static_cast<std::size_t>(kind)];
  ev.kind = kind;
  ev.actor = actor;
  ev.session = session_id;
  ev.nonce = nonce;
  ev.domain = trace::Domain::kVirtual;
  ev.instant = true;
  detail.format(ev.detail);
  if (mirror) {
    trace::Event copy = ev;
    copy.id = log.next_id();
    copy.parent = trace::current_parent();
    copy.lane = trace::current_lane();
    log.record(copy);
  }
  ring_.push(ev);
}

void FlightRecorder::clear() {
  ring_.clear();
  next_seq_ = 0;
}

std::string FlightRecorder::dump() const {
  std::string out = "flight recorder: " + std::to_string(ring_.size()) +
                    " event(s), " + std::to_string(ring_.dropped()) +
                    " dropped\n";
  char line[64];
  for (std::size_t k = 0; k < ring_.size(); ++k) {
    const trace::Event& ev = ring_.at(k);
    // Fixed-point stamp: virtual times are exact doubles from the SimClock,
    // so this formatting is deterministic across hosts.
    std::snprintf(line, sizeof(line), "  [%12.3f ms] #%llu ", ev.t_ms,
                  static_cast<unsigned long long>(ev.id));
    out += line;
    out += ev.name + kPrefix;
    out += ' ';
    out += ev.actor;
    if (ev.detail[0] != '\0') {
      out += ' ';
      out += ev.detail;
    }
    if (ev.session != 0) {
      out += " session=" + std::to_string(ev.session);
    }
    out += " nonce=" + std::to_string(ev.nonce);
    out += '\n';
  }
  return out;
}

}  // namespace vkey::protocol
