#include "compose.h"

#include <optional>
#include <string>
#include <utility>

#include "common/alloc_stats.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "protocol/flight_recorder.h"
#include "protocol/reliable_transport.h"
#include "protocol/session.h"
#include "protocol/unreliable_channel.h"
#include "spans.h"

namespace perfbench {

using namespace vkey;
using namespace vkey::protocol;

namespace {

// The supervisor's per-attempt runaway guard (reliability.cpp).
constexpr std::size_t kMaxEventsPerAttempt = 200000;

metrics::Counter& rel_counter(const std::string& name) {
  return metrics::Registry::global().counter("reliability." + name);
}

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

ComposedAgreement composed_agreement(
    SimClock& clock, PublicChannel& base,
    const core::AutoencoderReconciler& reconciler,
    const ReliabilityConfig& config, const ProbeMaterialFn& material,
    std::vector<Message>& corrupted) {
  Span supervisor(Layer::kSupervisor);
  ComposedAgreement out;
  AgreementReport& report = out.report;
  static metrics::Histogram& establish_hist =
      metrics::Registry::global().histogram(
          "reliability.time_to_establish_ms");

  for (std::size_t attempt = 0; attempt < config.max_session_attempts;
       ++attempt) {
    ++report.attempts;
    rel_counter("attempts").add(1);

    SessionConfig scfg;
    scfg.session_id = config.base_session_id + attempt;
    scfg.final_key_bits = config.final_key_bits;
    std::pair<BitVec, BitVec> raw;
    {
      Span s(Layer::kMaterial);
      raw = material(attempt);
    }
    std::optional<AliceSession> alice_slot;
    std::optional<BobSession> bob_slot;
    {
      Span s(Layer::kSession);
      alice_slot.emplace(scfg, reconciler, std::move(raw.first));
      bob_slot.emplace(scfg, reconciler, std::move(raw.second));
    }
    AliceSession& alice = *alice_slot;
    BobSession& bob = *bob_slot;

    const double attempt_start_ms = clock.now_ms();
    trace::ScopedTimer attempt_timer(
        metrics::Registry::global().histogram("reliability.attempt_ms"),
        [&clock] { return clock.now_ms(); }, "reliability.attempt");
    FaultConfig faults = config.fault;
    faults.seed = hash_combine64(config.fault.seed, attempt);
    UnreliableChannel link(clock, base, faults, config.radio);

    FlightRecorder flight(config.flight_capacity,
                          [&clock] { return clock.now_ms(); });
    flight.record(FlightEventKind::kAttemptStart, "supervisor",
                  "attempt=" + std::to_string(attempt + 1), scfg.session_id);
    link.set_recorder(&flight);
    alice.set_recorder(&flight, "alice");
    bob.set_recorder(&flight, "bob");

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

    // The link is entered only through these wire callbacks; a frame the
    // link corrupted is kept (outside the link span, accounting paused)
    // for the wire-codec replay.
    const auto wire_to = [&link, &corrupted](UnreliableChannel::Endpoint from,
                                             const Message& m) {
      const std::size_t before = link.stats().corrupted;
      {
        Span s(Layer::kLink);
        link.send(from, m);
      }
      if (link.stats().corrupted != before) {
        alloc_stats::PauseScope pause;
        corrupted.push_back(m);
      }
    };
    ReliableTransport alice_tx(
        clock, arq_alice,
        [&wire_to](const Message& m) {
          wire_to(UnreliableChannel::Endpoint::kAlice, m);
        },
        rtt);
    ReliableTransport bob_tx(
        clock, arq_bob,
        [&wire_to](const Message& m) {
          wire_to(UnreliableChannel::Endpoint::kBob, m);
        },
        rtt);
    alice_tx.set_recorder(&flight, "alice");
    bob_tx.set_recorder(&flight, "bob");

    const auto accepts = [](const RejectReason r) {
      return r == RejectReason::kNone || r == RejectReason::kDuplicate;
    };
    alice_tx.set_upcall(
        [&alice](const Message& m) {
          Span s(Layer::kSession);
          return alice.handle(m);
        },
        [&alice, accepts] { return accepts(alice.last_reject()); });

    bool syndrome_sent = false;
    bob_tx.set_upcall(
        [&](const Message& m) {
          Span s(Layer::kSession);
          auto response = bob.handle(m);
          if (!syndrome_sent && bob.state() == SessionState::kAwaitConfirm) {
            syndrome_sent = true;
            clock.schedule(0.0, [&bob_tx, syndrome = bob.make_syndrome()] {
              Span arq(Layer::kArq);
              bob_tx.send(syndrome);
            });
          }
          return response;
        },
        [&bob, accepts] { return accepts(bob.last_reject()); });

    link.set_handler(UnreliableChannel::Endpoint::kAlice,
                     [&alice_tx](const Message& m) {
                       Span s(Layer::kArq);
                       alice_tx.on_wire(m);
                     });
    link.set_handler(UnreliableChannel::Endpoint::kBob,
                     [&bob_tx](const Message& m) {
                       Span s(Layer::kArq);
                       bob_tx.on_wire(m);
                     });

    {
      std::optional<Message> hello;
      {
        Span s(Layer::kSession);
        hello = alice.start();
      }
      Span s(Layer::kArq);
      alice_tx.send(*hello);
    }

    bool timed_out = false;
    std::size_t events = 0;
    const auto established = [&] {
      return alice.state() == SessionState::kEstablished &&
             bob.state() == SessionState::kEstablished;
    };
    const auto terminal = [&] {
      return established() || alice.state() == SessionState::kFailed ||
             bob.state() == SessionState::kFailed || alice_tx.exhausted() ||
             bob_tx.exhausted();
    };
    while (!terminal() && events < kMaxEventsPerAttempt) {
      if (clock.now_ms() - attempt_start_ms > config.attempt_timeout_ms) {
        timed_out = true;
        break;
      }
      bool ran = false;
      {
        Span s(Layer::kSimClock);
        ran = clock.run_next();
      }
      if (!ran) break;
      ++events;
    }
    out.events += events;

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
    // Same final_key() calls as the supervisor: the comparison, then the
    // report's copy of Alice's key.
    BitVec alice_key, bob_key;
    {
      Span s(Layer::kSession);
      att.established = established() &&
                        alice.final_key() == (bob_key = bob.final_key());
      if (att.established) alice_key = alice.final_key();
    }
    att.failure = att.established
                      ? FailureReason::kNone
                      : classify_failure(alice, bob,
                                         alice_tx.exhausted() ||
                                             bob_tx.exhausted(),
                                         timed_out);
    flight.record(FlightEventKind::kAttemptEnd, "supervisor",
                  att.established ? "established" : to_string(att.failure),
                  scfg.session_id);
    flight.set_now({});
    att.flight = std::move(flight);
    {
      Span s(Layer::kSimClock);
      clock.clear();
    }

    report.time_to_establish_ms += att.duration_ms;
    report.wire_frames += link.stats().sent;
    accumulate(report.link, link.stats());
    report.failure = att.failure;
    const bool success = att.established;
    if (success) {
      report.key = alice_key;
      out.bob_key = bob_key;
    } else {
      rel_counter("failure." + to_string(att.failure)).add(1);
    }
    report.attempt_log.push_back(std::move(att));
    if (success) {
      report.established = true;
      rel_counter("established").add(1);
      establish_hist.observe(report.time_to_establish_ms);
      break;
    }
  }
  if (!report.established) rel_counter("exhausted").add(1);
  return out;
}

}  // namespace perfbench
