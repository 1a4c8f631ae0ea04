// Session-recovery supervisor: reliable key agreement over a lossy link.
//
// Wires AliceSession/BobSession to two ReliableTransports over an
// UnreliableChannel driven by a virtual clock, and supervises the exchange:
// when a transport exhausts its retry budget, a party fails, or the attempt
// deadline passes, the supervisor tears the attempt down and restarts
// negotiation under a *fresh* session id with *fresh* probe material (and a
// fresh fault/jitter stream — a retransmission storm must not replay
// identically). The caller gets a structured report — failure reason,
// attempt count, per-attempt transport/link counters and virtual
// time-to-establish — instead of a bare bool. The `reliability.*`
// instruments it reports into are declared in protocol/instruments.h.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "core/reconciler.h"
#include "protocol/flight_recorder.h"
#include "protocol/reliable_transport.h"
#include "protocol/session.h"
#include "protocol/unreliable_channel.h"

namespace vkey::protocol {

/// Terminal diagnosis of a (possibly multi-attempt) agreement run.
enum class FailureReason : std::uint8_t {
  kNone,             ///< established
  kRetryExhausted,   ///< a transport ran out of retransmissions
  kMacMismatch,      ///< syndrome MAC failed (tamper or hopeless mismatch)
  kConfirmMismatch,  ///< key-confirmation digest failed
  kTimeout,          ///< attempt deadline passed without termination
  kProtocolError,    ///< deadlock/quiescence without an established key
};

std::string to_string(FailureReason r);
/// Same text as to_string(), static: flight-event details use it.
const char* label(FailureReason r);

struct ReliabilityConfig {
  FaultConfig fault;
  ArqConfig arq;
  /// Radio timing for airtime-derived latency and RTT estimation.
  channel::LoRaParams radio;
  std::size_t max_session_attempts = 3;
  double attempt_timeout_ms = 1.8e6;  ///< 30 virtual minutes
  std::size_t final_key_bits = 128;
  std::uint64_t base_session_id = 1;  ///< attempt k uses base + k
  /// Flight-recorder ring size per attempt (0 disables recording). Every
  /// attempt gets its own recorder, wired through the link, both transports
  /// and both sessions, stamped with the attempt's SimClock.
  std::size_t flight_capacity = 512;
};

/// Counters and outcome of one negotiation attempt.
struct AttemptReport {
  std::uint64_t session_id = 0;
  bool established = false;
  FailureReason failure = FailureReason::kNone;
  SessionState alice_state = SessionState::kIdle;
  SessionState bob_state = SessionState::kIdle;
  RejectReason alice_reject = RejectReason::kNone;
  RejectReason bob_reject = RejectReason::kNone;
  double duration_ms = 0.0;  ///< virtual time this attempt consumed
  TransportStats alice_transport;
  TransportStats bob_transport;
  std::size_t alice_duplicates_suppressed = 0;
  std::size_t bob_duplicates_suppressed = 0;
  std::size_t alice_rejects = 0;
  std::size_t bob_rejects = 0;
  LinkStats link;
  /// The attempt's full event timeline (empty ring when recording was
  /// disabled via ReliabilityConfig::flight_capacity = 0).
  FlightRecorder flight;
};

struct AgreementReport {
  bool established = false;
  FailureReason failure = FailureReason::kNone;  ///< of the last attempt
  std::size_t attempts = 0;
  /// Virtual ms from the first transmission to key establishment, summed
  /// across attempts (failed ones included).
  double time_to_establish_ms = 0.0;
  /// Frames put on the air across all attempts: data + retransmissions +
  /// acks. The per-establishment message overhead of the reliability layer.
  std::size_t wire_frames = 0;
  LinkStats link;  ///< aggregated over attempts
  std::vector<AttemptReport> attempt_log;
  BitVec key;  ///< the established 128-bit key; empty on failure

  /// Post-mortem timelines of the failing attempts: the flight-recorder
  /// dump of up to the last `max_attempts` failed attempts (oldest first),
  /// each prefixed with its FailureReason, with a single "N earlier
  /// attempt(s) suppressed" line when the log is longer than the cap — a
  /// gateway draining thousands of sessions must stay debuggable without
  /// drowning the console. Empty when the agreement established or nothing
  /// was recorded.
  std::string failure_dump(std::size_t max_attempts = 3) const;

  explicit operator bool() const { return established; }
};

/// Fresh probe material for attempt k: (alice_raw, bob_raw), each
/// reconciler.key_bits wide. Recovery re-probes the channel, so successive
/// attempts should return different material.
using ProbeMaterialFn =
    std::function<std::pair<BitVec, BitVec>(std::size_t attempt)>;

/// Run key agreement with ARQ + session recovery over a faulty link. `base`
/// keeps the eavesdropper transcript across attempts and may carry a MITM
/// interceptor.
AgreementReport run_reliable_key_agreement(
    PublicChannel& base, const core::AutoencoderReconciler& reconciler,
    const ReliabilityConfig& config, const ProbeMaterialFn& material);

/// Same supervisor, but driven by a caller-owned scheduler: the gateway
/// engine hands every session a dedicated sub-clock so clock construction
/// stays with the scheduler (the `sim-clock-owner` lint rule). The clock
/// need not start at 0 — attempt durations and the timeout are measured
/// relative to the clock's time at entry — but it must be *dedicated* to
/// this agreement: between attempts the supervisor clears all pending
/// events (stale ARQ timers reference torn-down transports), which would
/// destroy unrelated events on a shared queue.
AgreementReport run_reliable_key_agreement_on(
    SimClock& clock, PublicChannel& base,
    const core::AutoencoderReconciler& reconciler,
    const ReliabilityConfig& config, const ProbeMaterialFn& material);

}  // namespace vkey::protocol
