#include "protocol/instruments.h"

namespace vkey::protocol {

const Instruments& instruments() {
  static const Instruments catalogue = [] {
    metrics::Registry& r = metrics::Registry::global();
    return Instruments{
        .wire = {.encoded = r.counter("wire.encoded"),
                 .decoded = r.counter("wire.decoded"),
                 .reject = WireRejectCounters(r, "wire.reject.")},
        .link = {.sent = r.counter("link.sent"),
                 .dropped = r.counter("link.dropped"),
                 .corrupted = r.counter("link.corrupted"),
                 .crc_lost = r.counter("link.crc_lost"),
                 .reordered = r.counter("link.reordered"),
                 .duplicated = r.counter("link.duplicated")},
        .arq = {.data_sent = r.counter("arq.data_sent"),
                .retransmissions = r.counter("arq.retransmissions"),
                .timeouts = r.counter("arq.timeouts"),
                .gave_up = r.counter("arq.gave_up"),
                .acks_received = r.counter("arq.acks_received"),
                .acks_sent = r.counter("arq.acks_sent"),
                .backoff_ms = r.histogram("arq.backoff_ms")},
        .session = {.runs = r.counter("session.runs"),
                    .frames_delivered = r.counter("session.frames_delivered"),
                    .established = r.counter("session.established")},
        .reliability =
            {.attempts = r.counter("reliability.attempts"),
             .established = r.counter("reliability.established"),
             .exhausted = r.counter("reliability.exhausted"),
             .failure = FailureCounters(r, "reliability.failure."),
             .attempt_ms = r.histogram("reliability.attempt_ms"),
             .time_to_establish_ms =
                 r.histogram("reliability.time_to_establish_ms")},
        .gateway =
            {.arrivals = r.counter("gateway.arrivals"),
             .admissions = r.counter("gateway.admissions"),
             .keys_established = r.counter("gateway.keys_established"),
             .establish_failures = r.counter("gateway.establish_failures"),
             .rekeys = r.counter("gateway.rekeys"),
             .evictions = EvictionCounters(r, "gateway.evictions."),
             .inflight_sessions = r.gauge("gateway.inflight_sessions"),
             .queued_sessions = r.gauge("gateway.queued_sessions"),
             .active_sessions = r.gauge("gateway.active_sessions"),
             .time_to_key_ms = r.histogram("gateway.time_to_key_ms"),
             .queue_wait_ms = r.histogram("gateway.queue_wait_ms")},
    };
  }();
  return catalogue;
}

}  // namespace vkey::protocol
