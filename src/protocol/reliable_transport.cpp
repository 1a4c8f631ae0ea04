#include "protocol/reliable_transport.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "protocol/flight_recorder.h"
#include "protocol/instruments.h"

namespace vkey::protocol {

double arq_backoff_delay_ms(const ArqConfig& cfg, std::size_t attempt,
                            vkey::Rng& rng) {
  const double ceiling =
      std::min(cfg.max_backoff_ms,
               cfg.base_backoff_ms *
                   std::pow(cfg.backoff_factor, static_cast<double>(attempt)));
  const double hi = std::max(cfg.base_backoff_ms, ceiling);
  return rng.uniform(cfg.base_backoff_ms, hi);
}

ReliableTransport::ReliableTransport(SimClock& clock, const ArqConfig& config,
                                     WireFn wire, RttFn rtt)
    : clock_(clock),
      cfg_(config),
      wire_(std::move(wire)),
      rtt_(std::move(rtt)),
      rng_(config.seed) {
  VKEY_REQUIRE(cfg_.base_backoff_ms > 0.0 &&
                   cfg_.max_backoff_ms >= cfg_.base_backoff_ms &&
                   cfg_.backoff_factor >= 1.0,
               "backoff parameters must satisfy 0 < base <= cap, factor >= 1");
}

void ReliableTransport::set_upcall(UpcallFn upcall, AckGateFn ack_gate) {
  upcall_ = std::move(upcall);
  ack_gate_ = std::move(ack_gate);
}

void ReliableTransport::set_recorder(FlightRecorder* recorder,
                                     const char* actor) {
  recorder_ = recorder;
  actor_ = actor;
}

void ReliableTransport::arm_timer(std::uint64_t nonce) {
  auto& entry = inflight_.at(nonce);
  const double backoff = arq_backoff_delay_ms(cfg_, entry.attempt, rng_);
  instruments().arq.backoff_ms.observe(backoff);
  const double timeout = rtt_(entry.msg) + backoff;
  if (recorder_ != nullptr) {
    recorder_->record(FlightEventKind::kBackoff, actor_,
                      {"attempt={} delay_ms={}", entry.attempt, timeout},
                      entry.msg.session_id, nonce);
  }
  entry.timer = clock_.schedule(timeout, [this, nonce] { on_timeout(nonce); });
}

void ReliableTransport::on_timeout(std::uint64_t nonce) {
  const auto it = inflight_.find(nonce);
  if (it == inflight_.end()) return;  // acked while the event was queued
  if (it->second.attempt >= cfg_.max_retries) {
    ++stats_.gave_up;
    instruments().arq.gave_up.add(1);
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kGaveUp, actor_,
                        {"{} after {} retries", label(it->second.msg.type),
                         cfg_.max_retries},
                        it->second.msg.session_id, nonce);
    }
    exhausted_ = true;
    inflight_.erase(it);
    return;
  }
  ++it->second.attempt;
  ++stats_.retransmissions;
  instruments().arq.timeouts.add(1);
  instruments().arq.retransmissions.add(1);
  if (recorder_ != nullptr) {
    recorder_->record(FlightEventKind::kRetransmit, actor_,
                      {"timeout attempt={}", it->second.attempt},
                      it->second.msg.session_id, nonce);
  }
  wire_(it->second.msg);
  arm_timer(nonce);
}

void ReliableTransport::send(const Message& msg) {
  VKEY_REQUIRE(msg.type != MessageType::kAck,
               "acks are transport-internal; send() takes protocol frames");
  if (completed_.count(msg.nonce) > 0) return;  // peer already acked it
  const auto it = inflight_.find(msg.nonce);
  if (it != inflight_.end()) {
    // Fast retransmit: the session re-elicited this response because the
    // peer asked again, so don't wait for the timer.
    ++stats_.retransmissions;
    instruments().arq.retransmissions.add(1);
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kRetransmit, actor_, "fast",
                        it->second.msg.session_id, msg.nonce);
    }
    wire_(it->second.msg);
    return;
  }
  inflight_[msg.nonce] = Pending{msg, 0, 0};
  ++stats_.data_sent;
  instruments().arq.data_sent.add(1);
  wire_(msg);
  arm_timer(msg.nonce);
}

void ReliableTransport::on_wire(const Message& msg) {
  if (msg.type == MessageType::kAck) {
    const auto it = inflight_.find(msg.nonce);
    if (it == inflight_.end()) {
      ++stats_.stale_acks;
      if (recorder_ != nullptr) {
        recorder_->record(FlightEventKind::kStaleAck, actor_, {},
                          msg.session_id, msg.nonce);
      }
      return;
    }
    clock_.cancel(it->second.timer);
    completed_.insert(msg.nonce);
    inflight_.erase(it);
    ++stats_.acks_received;
    instruments().arq.acks_received.add(1);
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kAckRx, actor_, {}, msg.session_id,
                        msg.nonce);
    }
    return;
  }

  VKEY_REQUIRE(static_cast<bool>(upcall_), "transport upcall not installed");
  auto response = upcall_(msg);
  if (!ack_gate_ || ack_gate_()) {
    Message ack;
    ack.type = MessageType::kAck;
    ack.session_id = msg.session_id;
    ack.nonce = msg.nonce;
    wire_(ack);
    ++stats_.acks_sent;
    instruments().arq.acks_sent.add(1);
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kAckTx, actor_,
                        {"for {}", label(msg.type)}, msg.session_id,
                        msg.nonce);
    }
  }
  if (response.has_value()) send(*response);
}

}  // namespace vkey::protocol
