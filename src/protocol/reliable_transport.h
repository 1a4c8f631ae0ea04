// ARQ transport: per-message ACKs, timeouts, bounded retransmission with
// exponential backoff + decorrelated jitter.
//
// Each protocol frame a party sends is tracked until the peer's transport
// acknowledges it with a kAck frame carrying the same (session, nonce).
// Retransmissions reuse the original nonce, so the receiving session's
// duplicate cache (InboundGuard) recognizes them and re-elicits the prior
// response instead of tripping the replay defense. The transport only ACKs
// frames the session accepted or recognized as duplicates — a frame
// rejected for arriving out of order (kBadState / kReplayedNonce) is left
// unacknowledged so the sender's retransmission can deliver it again once
// the earlier frames have landed.
//
// The retransmission timer for attempt k fires after
//   rtt_estimate(msg) + backoff(k)
// where backoff(k) ~ Uniform[base, min(cap, base * factor^k)] — exponential
// growth with decorrelated jitter, so colliding retransmitters desynchronize
// (attempt 0 is exactly `base`: the interval is degenerate). After
// max_retries unacknowledged retransmissions the transport gives up and
// reports exhaustion; session recovery is the supervisor's job (see
// reliability.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "common/rng.h"
#include "protocol/message.h"
#include "protocol/sim_clock.h"

namespace vkey::protocol {

class FlightRecorder;

struct ArqConfig {
  double base_backoff_ms = 100.0;  ///< backoff floor (attempt 0 delay)
  double max_backoff_ms = 4000.0;  ///< backoff cap
  double backoff_factor = 2.0;     ///< exponential growth per attempt
  std::size_t max_retries = 8;     ///< retransmissions beyond the first tx
  std::uint64_t seed = 7;          ///< jitter stream seed
};

/// Retry delay for the given attempt (0-based): a draw from
/// Uniform[base, min(cap, base * factor^attempt)]. Deterministic for a
/// given rng state; exposed as a free function for the property tests.
double arq_backoff_delay_ms(const ArqConfig& cfg, std::size_t attempt,
                            vkey::Rng& rng);

struct TransportStats {
  std::size_t data_sent = 0;        ///< distinct frames first-transmitted
  std::size_t retransmissions = 0;  ///< timer- and duplicate-driven resends
  std::size_t acks_sent = 0;
  std::size_t acks_received = 0;
  std::size_t stale_acks = 0;  ///< acks for frames not (or no longer) in flight
  std::size_t gave_up = 0;     ///< frames abandoned after max_retries
};

class ReliableTransport {
 public:
  /// Raw transmit into the (lossy) link.
  using WireFn = std::function<void(const Message&)>;
  /// Estimated round trip [ms] for a frame (its airtime + the ack's, plus
  /// processing); the retransmission timer waits this long before backoff.
  using RttFn = std::function<double(const Message&)>;
  /// Upcall delivering an in-order frame to the session; the returned
  /// response (if any) is sent reliably in turn.
  using UpcallFn = std::function<std::optional<Message>(const Message&)>;
  /// Whether the session accepted the frame just upcalled (or recognized it
  /// as a benign duplicate) — controls whether the transport ACKs it.
  using AckGateFn = std::function<bool()>;

  ReliableTransport(SimClock& clock, const ArqConfig& config, WireFn wire,
                    RttFn rtt);

  void set_upcall(UpcallFn upcall, AckGateFn ack_gate);

  /// Attach a flight recorder; the static name `actor` names this endpoint
  /// in the timeline ("alice"/"bob"). Retransmissions, backoff arming, ack
  /// traffic and exhaustion are logged. Pass nullptr to detach.
  void set_recorder(FlightRecorder* recorder, const char* actor);

  /// Reliable send: transmit now and retransmit on timeout until acked or
  /// the retry budget is exhausted. Re-sending a frame already in flight
  /// (a session re-eliciting its cached response) triggers an immediate
  /// fast retransmission instead of a new tracking entry.
  void send(const Message& msg);

  /// Entry point for every frame arriving from the link.
  void on_wire(const Message& msg);

  /// True once any frame ran out of retries (the session attempt is dead).
  bool exhausted() const { return exhausted_; }

  const TransportStats& stats() const { return stats_; }
  const ArqConfig& config() const { return cfg_; }

 private:
  struct Pending {
    Message msg;
    std::size_t attempt = 0;
    SimClock::EventId timer = 0;
  };

  void arm_timer(std::uint64_t nonce);
  void on_timeout(std::uint64_t nonce);

  SimClock& clock_;
  ArqConfig cfg_;
  WireFn wire_;
  RttFn rtt_;
  UpcallFn upcall_;
  AckGateFn ack_gate_;
  vkey::Rng rng_;
  std::map<std::uint64_t, Pending> inflight_;  // keyed by frame nonce
  std::set<std::uint64_t> completed_;          // acked frame nonces
  TransportStats stats_;
  bool exhausted_ = false;
  FlightRecorder* recorder_ = nullptr;
  const char* actor_ = nullptr;
};

}  // namespace vkey::protocol
