// The protocol stack's instrument catalogue.
//
// Every counter, gauge and histogram that the gateway, session registry,
// recovery supervisor, sessions, ARQ transports, fault-injecting link and
// wire codec report into is declared here once, bound to its registry name
// the first time instruments() runs. A per-event site is then a member
// access plus an atomic add: it builds no name and never takes the
// registry's mutex.
//
// Binding is all-or-nothing, so the first event on any layer registers the
// whole family, rare paths included (`reliability.failure.timeout`,
// `wire.reject.type`, `gateway.evictions.failed`). Snapshot structure and
// steady-state heap accounting therefore cannot depend on which faults
// happened to fire. Readers (benches, telemetry, perfbench) keep finding
// each instrument by its unchanged name through metrics::Registry.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "common/metrics.h"
#include "protocol/reliability.h"
#include "protocol/session_registry.h"
#include "protocol/wire.h"

namespace vkey::protocol {

/// A keyed family: one counter per enumerator in [First, Last], registered
/// as `<prefix><to_string(e)>` and indexed by the enum itself.
template <typename Enum, Enum First, Enum Last>
class CounterFamily {
 public:
  CounterFamily(metrics::Registry& reg, const std::string& prefix) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i] = &reg.counter(
          prefix + to_string(static_cast<Enum>(index(First) + i)));
    }
  }
  metrics::Counter& operator[](Enum e) const {
    return *slots_[index(e) - index(First)];
  }

 private:
  static constexpr std::size_t index(Enum e) {
    return static_cast<std::size_t>(e);
  }
  std::array<metrics::Counter*, static_cast<std::size_t>(Last) -
                                    static_cast<std::size_t>(First) + 1>
      slots_;
};

using WireRejectCounters =
    CounterFamily<wire::WireError, wire::WireError::kTruncated,
                  wire::WireError::kBadType>;
using FailureCounters =
    CounterFamily<FailureReason, FailureReason::kRetryExhausted,
                  FailureReason::kProtocolError>;
using EvictionCounters =
    CounterFamily<EvictReason, EvictReason::kIdle, EvictReason::kFailed>;

struct Instruments {
  struct Wire {  // wire.*: the frame codec
    metrics::Counter &encoded, &decoded;
    WireRejectCounters reject;  // wire.reject.<WireError>
  } wire;
  struct Link {  // link.*: the fault-injecting channel
    metrics::Counter &sent, &dropped, &corrupted, &crc_lost, &reordered,
        &duplicated;
  } link;
  struct Arq {  // arq.*: the stop-and-wait transports
    metrics::Counter &data_sent, &retransmissions, &timeouts, &gave_up,
        &acks_received, &acks_sent;
    metrics::Histogram& backoff_ms;
  } arq;
  struct Session {  // session.*: run_key_agreement_detailed
    metrics::Counter &runs, &frames_delivered, &established;
  } session;
  struct Reliability {  // reliability.*: the recovery supervisor
    metrics::Counter &attempts, &established, &exhausted;
    FailureCounters failure;  // reliability.failure.<FailureReason>
    metrics::Histogram &attempt_ms, &time_to_establish_ms;
  } reliability;
  struct Gateway {  // gateway.*: the engine and its session registry
    metrics::Counter &arrivals, &admissions, &keys_established,
        &establish_failures, &rekeys;
    EvictionCounters evictions;  // gateway.evictions.<EvictReason>
    metrics::Gauge &inflight_sessions, &queued_sessions, &active_sessions;
    metrics::Histogram &time_to_key_ms, &queue_wait_ms;
  } gateway;
};

/// The catalogue, bound in the process-wide registry on first call.
const Instruments& instruments();

}  // namespace vkey::protocol
