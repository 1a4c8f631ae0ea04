#include "protocol/reliability.h"

#include "common/error.h"
#include "common/rng.h"
#include "common/trace.h"
#include "protocol/instruments.h"

namespace vkey::protocol {

namespace {

// Runaway guard per attempt: far above anything a sane exchange needs
// (~6 frames * (1 + max_retries) events each, plus duplicates).
constexpr std::size_t kMaxEventsPerAttempt = 200000;

void accumulate(LinkStats& into, const LinkStats& from) {
  into.sent += from.sent;
  into.bytes_sent += from.bytes_sent;
  into.delivered += from.delivered;
  into.dropped += from.dropped;
  into.corrupted += from.corrupted;
  into.crc_lost += from.crc_lost;
  into.duplicated += from.duplicated;
  into.reordered += from.reordered;
}

FailureReason classify_failure(const AliceSession& alice,
                               const BobSession& bob, bool exhausted,
                               bool timed_out) {
  const auto failed_reason = [](RejectReason r) {
    switch (r) {
      case RejectReason::kMacMismatch: return FailureReason::kMacMismatch;
      case RejectReason::kConfirmMismatch:
        return FailureReason::kConfirmMismatch;
      default: return FailureReason::kProtocolError;
    }
  };
  if (alice.state() == SessionState::kFailed) {
    return failed_reason(alice.last_reject());
  }
  if (bob.state() == SessionState::kFailed) {
    return failed_reason(bob.last_reject());
  }
  if (exhausted) return FailureReason::kRetryExhausted;
  if (timed_out) return FailureReason::kTimeout;
  return FailureReason::kProtocolError;
}

}  // namespace

std::string AgreementReport::failure_dump(std::size_t max_attempts) const {
  if (established || attempt_log.empty() || max_attempts == 0) return {};
  // Keep the *most recent* attempts: the last one carries the terminal
  // failure, earlier ones show whether recovery was converging.
  const std::size_t first =
      attempt_log.size() > max_attempts ? attempt_log.size() - max_attempts
                                        : 0;
  std::string out;
  if (first > 0) {
    out += std::to_string(first) + " earlier attempt(s) suppressed\n";
  }
  bool dumped = false;
  for (std::size_t i = first; i < attempt_log.size(); ++i) {
    const AttemptReport& att = attempt_log[i];
    if (att.flight.size() == 0) continue;
    out += "attempt " + std::to_string(i + 1) + " failed (" +
           to_string(att.failure) + ")\n" + att.flight.dump();
    dumped = true;
  }
  return dumped ? out : std::string{};
}

std::string to_string(FailureReason r) { return label(r); }

const char* label(FailureReason r) {
  switch (r) {
    case FailureReason::kNone: return "none";
    case FailureReason::kRetryExhausted: return "retry-exhausted";
    case FailureReason::kMacMismatch: return "mac-mismatch";
    case FailureReason::kConfirmMismatch: return "confirm-mismatch";
    case FailureReason::kTimeout: return "timeout";
    case FailureReason::kProtocolError: return "protocol-error";
  }
  return "?";
}

AgreementReport run_reliable_key_agreement(
    PublicChannel& base, const core::AutoencoderReconciler& reconciler,
    const ReliabilityConfig& config, const ProbeMaterialFn& material) {
  // Single-session entry point: this agreement IS the whole simulation, so
  // the supervisor owns a private timeline for it. Multi-session callers go
  // through the gateway engine, which hands every session a sub-clock.
  SimClock clock;  // vkey-lint: allow(sim-clock-owner)
  return run_reliable_key_agreement_on(clock, base, reconciler, config,
                                       material);
}

AgreementReport run_reliable_key_agreement_on(
    SimClock& clock, PublicChannel& base,
    const core::AutoencoderReconciler& reconciler,
    const ReliabilityConfig& config, const ProbeMaterialFn& material) {
  VKEY_REQUIRE(config.max_session_attempts >= 1, "need at least one attempt");
  AgreementReport report;
  const Instruments::Reliability& inst = instruments().reliability;

  for (std::size_t attempt = 0; attempt < config.max_session_attempts;
       ++attempt) {
    ++report.attempts;
    inst.attempts.add(1);

    // Fresh session id, probe material, fault stream and jitter stream per
    // attempt: a loss pattern that killed attempt k must not repeat
    // identically in attempt k+1.
    SessionConfig scfg;
    scfg.session_id = config.base_session_id + attempt;
    scfg.final_key_bits = config.final_key_bits;
    auto [alice_raw, bob_raw] = material(attempt);
    AliceSession alice(scfg, reconciler, std::move(alice_raw));
    BobSession bob(scfg, reconciler, std::move(bob_raw));

    // The attempt measures durations relative to the caller's clock: a
    // gateway sub-clock arrives already advanced to the session's admission
    // instant, a fresh single-session clock arrives at 0.
    const double attempt_start_ms = clock.now_ms();
    // Virtual-time span: the timer reads the attempt's SimClock, not the
    // wall clock, so the observed duration is bit-reproducible.
    trace::ScopedTimer attempt_timer(
        inst.attempt_ms, [&clock] { return clock.now_ms(); },
        "reliability.attempt");
    FaultConfig faults = config.fault;
    faults.seed = hash_combine64(config.fault.seed, attempt);
    UnreliableChannel link(clock, base, faults, config.radio);

    // Per-attempt flight recorder stamped with this attempt's virtual
    // clock; every layer below appends its events to the same timeline.
    FlightRecorder flight(config.flight_capacity,
                          [&clock] { return clock.now_ms(); });
    flight.record(FlightEventKind::kAttemptStart, "supervisor",
                  {"attempt={}", attempt + 1}, scfg.session_id);
    link.set_recorder(&flight);
    alice.set_recorder(&flight, "alice");
    bob.set_recorder(&flight, "bob");

    // RTT estimate: frame airtime + ack airtime + both processing delays.
    Message ack_probe;
    ack_probe.type = MessageType::kAck;
    const auto rtt = [&link, ack_latency = link.nominal_latency_ms(ack_probe)](
                         const Message& m) {
      return link.nominal_latency_ms(m) + ack_latency;
    };

    ArqConfig arq_alice = config.arq;
    arq_alice.seed = hash_combine64(config.arq.seed, 2 * attempt);
    ArqConfig arq_bob = config.arq;
    arq_bob.seed = hash_combine64(config.arq.seed, 2 * attempt + 1);

    ReliableTransport alice_tx(
        clock, arq_alice,
        [&link](const Message& m) {
          link.send(UnreliableChannel::Endpoint::kAlice, m);
        },
        rtt);
    ReliableTransport bob_tx(
        clock, arq_bob,
        [&link](const Message& m) {
          link.send(UnreliableChannel::Endpoint::kBob, m);
        },
        rtt);
    alice_tx.set_recorder(&flight, "alice");
    bob_tx.set_recorder(&flight, "bob");

    const auto accepts = [](const RejectReason r) {
      return r == RejectReason::kNone || r == RejectReason::kDuplicate;
    };
    alice_tx.set_upcall(
        [&alice](const Message& m) { return alice.handle(m); },
        [&alice, accepts] { return accepts(alice.last_reject()); });

    bool syndrome_sent = false;
    bob_tx.set_upcall(
        [&](const Message& m) {
          auto response = bob.handle(m);
          if (!syndrome_sent && bob.state() == SessionState::kAwaitConfirm) {
            // Bob publishes y_Bob + MAC right after accepting. Defer the
            // reliable send one event so the accept is transmitted first.
            syndrome_sent = true;
            clock.schedule(0.0, [&bob_tx, syndrome = bob.make_syndrome()] {
              bob_tx.send(syndrome);
            });
          }
          return response;
        },
        [&bob, accepts] { return accepts(bob.last_reject()); });

    link.set_handler(UnreliableChannel::Endpoint::kAlice,
                     [&alice_tx](const Message& m) { alice_tx.on_wire(m); });
    link.set_handler(UnreliableChannel::Endpoint::kBob,
                     [&bob_tx](const Message& m) { bob_tx.on_wire(m); });

    alice_tx.send(alice.start());

    bool timed_out = false;
    std::size_t events = 0;
    const auto established = [&] {
      return alice.state() == SessionState::kEstablished &&
             bob.state() == SessionState::kEstablished;
    };
    const auto terminal = [&] {
      return established() ||
             alice.state() == SessionState::kFailed ||
             bob.state() == SessionState::kFailed ||
             alice_tx.exhausted() || bob_tx.exhausted();
    };
    while (!terminal() && events < kMaxEventsPerAttempt) {
      if (clock.now_ms() - attempt_start_ms > config.attempt_timeout_ms) {
        timed_out = true;
        break;
      }
      if (!clock.run_next()) break;  // quiescent: nothing can make progress
      ++events;
    }

    AttemptReport att;
    att.session_id = scfg.session_id;
    att.alice_state = alice.state();
    att.bob_state = bob.state();
    att.alice_reject = alice.last_reject();
    att.bob_reject = bob.last_reject();
    att.duration_ms = clock.now_ms() - attempt_start_ms;
    att.alice_transport = alice_tx.stats();
    att.bob_transport = bob_tx.stats();
    att.alice_duplicates_suppressed = alice.duplicates_suppressed();
    att.bob_duplicates_suppressed = bob.duplicates_suppressed();
    att.alice_rejects = alice.rejected_count();
    att.bob_rejects = bob.rejected_count();
    att.link = link.stats();
    att.established = established() && alice.final_key() == bob.final_key();
    att.failure = att.established
                      ? FailureReason::kNone
                      : classify_failure(alice, bob,
                                         alice_tx.exhausted() ||
                                             bob_tx.exhausted(),
                                         timed_out);
    flight.record(FlightEventKind::kAttemptEnd, "supervisor",
                  att.established ? "established" : label(att.failure),
                  scfg.session_id);
    // The recorder travels with the report; its NowFn points at the
    // caller's clock, so detach it before the attempt scope closes.
    flight.set_now({});
    att.flight = std::move(flight);

    // Tear down the attempt's residue: un-fired ARQ timers and in-flight
    // deliveries hold closures over the link, transports and sessions that
    // die with this scope. The clock is dedicated to this agreement, so
    // clearing cannot hit anyone else's events.
    clock.clear();

    report.time_to_establish_ms += att.duration_ms;
    report.wire_frames += link.stats().sent;
    accumulate(report.link, link.stats());
    report.failure = att.failure;
    const bool success = att.established;
    if (success) {
      report.key = alice.final_key();
    } else {
      inst.failure[att.failure].add(1);
    }
    report.attempt_log.push_back(std::move(att));
    if (success) {
      report.established = true;
      inst.established.add(1);
      // Virtual time-to-establish across the whole agreement (all attempts).
      inst.time_to_establish_ms.observe(report.time_to_establish_ms);
      break;
    }
  }
  if (!report.established) inst.exhausted.add(1);
  return report;
}

}  // namespace vkey::protocol
