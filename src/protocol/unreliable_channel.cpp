#include "protocol/unreliable_channel.h"

#include "common/error.h"
#include "common/metrics.h"
#include "protocol/flight_recorder.h"
#include "protocol/instruments.h"
#include "protocol/message.h"
#include "protocol/wire.h"

namespace vkey::protocol {

namespace {

const char* endpoint_name(UnreliableChannel::Endpoint e) {
  return e == UnreliableChannel::Endpoint::kAlice ? "alice" : "bob";
}

}  // namespace

UnreliableChannel::UnreliableChannel(SimClock& clock, PublicChannel& base,
                                     const FaultConfig& faults,
                                     const channel::LoRaParams& radio)
    : clock_(clock),
      base_(base),
      faults_(faults),
      radio_(radio),
      rng_(faults.seed) {
  VKEY_REQUIRE(faults.drop_prob >= 0.0 && faults.drop_prob < 1.0,
               "drop probability must be in [0, 1)");
  VKEY_REQUIRE(faults.dup_prob >= 0.0 && faults.dup_prob <= 1.0 &&
                   faults.corrupt_prob >= 0.0 && faults.corrupt_prob <= 1.0 &&
                   faults.reorder_prob >= 0.0 && faults.reorder_prob <= 1.0,
               "fault probabilities must be in [0, 1]");
}

void UnreliableChannel::set_handler(Endpoint endpoint, Handler handler) {
  handlers_[static_cast<int>(endpoint)] = std::move(handler);
}

double UnreliableChannel::airtime_ms(const Message& msg) const {
  channel::LoRaParams p = radio_;
  // The radio carries the packed v1 frame, not the in-memory serialization;
  // airtime (and therefore every ARQ timeout) follows the frame size.
  p.payload_bytes = static_cast<int>(wire::frame_size(msg));
  return channel::LoRaPhy(p).airtime() * 1000.0;
}

double UnreliableChannel::nominal_latency_ms(const Message& msg) const {
  return airtime_ms(msg) + faults_.processing_delay_ms;
}

void UnreliableChannel::deliver(Endpoint to, const Message& msg,
                                double delay_ms) {
  Handler& handler = handlers_[static_cast<int>(to)];
  VKEY_REQUIRE(static_cast<bool>(handler), "endpoint handler not installed");
  clock_.schedule(delay_ms, [this, to, msg] {
    ++stats_.delivered;
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kFrameRx, endpoint_name(to),
                        label(msg.type), msg.session_id, msg.nonce);
    }
    handlers_[static_cast<int>(to)](msg);
  });
}

void UnreliableChannel::send(Endpoint from, const Message& msg) {
  ++stats_.sent;
  // Transmit cost in wire bytes: spent whether or not the frame survives
  // the channel. This is what "steady-state bytes/session" in the gateway
  // report measures.
  stats_.bytes_sent += wire::frame_size(msg);
  instruments().link.sent.add(1);
  if (recorder_ != nullptr) {
    recorder_->record(FlightEventKind::kFrameTx, endpoint_name(from),
                      label(msg.type), msg.session_id, msg.nonce);
  }
  if (metrics::enabled()) {
    // Airtime is spent by the transmitter whether or not the frame
    // survives the channel.
    channel::LoRaParams p = radio_;
    p.payload_bytes = static_cast<int>(wire::frame_size(msg));
    channel::LoRaPhy(p).account_airtime(channel::AirtimeUse::kWire);
  }
  const Endpoint to =
      from == Endpoint::kAlice ? Endpoint::kBob : Endpoint::kAlice;

  // Through the base channel first: keeps the eavesdropper transcript and
  // lets an installed MITM interceptor rewrite or drop the frame.
  base_.send(msg);
  auto in_flight = base_.receive();
  if (!in_flight.has_value()) return;  // intercepted and dropped

  if (rng_.bernoulli(faults_.drop_prob)) {
    ++stats_.dropped;
    instruments().link.dropped.add(1);
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kDrop, "link", label(msg.type),
                        msg.session_id, msg.nonce);
    }
    return;
  }

  if (rng_.bernoulli(faults_.corrupt_prob)) {
    // Corruption happens to the *serialized frame* — the actual bytes on
    // the air — so the frame CRC catches almost all damage (typed reject,
    // frame lost like a radio CRC drop) and the rare CRC-colliding flip
    // must still get past the protocol-layer MAC.
    auto bytes = wire::encode_frame(*in_flight);
    const int flips = 1 + static_cast<int>(rng_.uniform_int(3));
    for (int f = 0; f < flips; ++f) {
      bytes[rng_.uniform_int(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng_.uniform_int(8));
    }
    ++stats_.corrupted;
    instruments().link.corrupted.add(1);
    wire::WireError err = wire::WireError::kNone;
    auto reparsed = wire::decode_frame(bytes, &err);
    if (!reparsed.has_value()) {
      ++stats_.crc_lost;  // the radio discards the damaged frame
      instruments().link.crc_lost.add(1);
      if (recorder_ != nullptr) {
        recorder_->record(FlightEventKind::kWireReject, "link",
                          {"{} on {} flips={}", wire::label(err),
                           label(msg.type), flips},
                          msg.session_id, msg.nonce);
      }
      return;
    }
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kCorrupt, "link",
                        {"{} flips={}", label(msg.type), flips},
                        msg.session_id, msg.nonce);
    }
    in_flight = std::move(reparsed);
  }

  double delay = nominal_latency_ms(msg);
  if (rng_.bernoulli(faults_.reorder_prob)) {
    ++stats_.reordered;
    instruments().link.reordered.add(1);
    const double extra = rng_.uniform(0.0, faults_.reorder_window_ms);
    delay += extra;
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kReorder, "link",
                        {"{} extra_ms={}", label(msg.type), extra},
                        msg.session_id, msg.nonce);
    }
  }
  deliver(to, *in_flight, delay);

  if (rng_.bernoulli(faults_.dup_prob)) {
    ++stats_.duplicated;
    instruments().link.duplicated.add(1);
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kDuplicate, "link",
                        label(msg.type), msg.session_id, msg.nonce);
    }
    deliver(to, *in_flight, delay + faults_.dup_delay_ms);
  }
}

}  // namespace vkey::protocol
