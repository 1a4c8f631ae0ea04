#include "protocol/session_registry.h"

#include <algorithm>

#include "common/error.h"
#include "protocol/instruments.h"

namespace vkey::protocol {

std::string to_string(DeviceState s) {
  switch (s) {
    case DeviceState::kQueued: return "queued";
    case DeviceState::kEstablishing: return "establishing";
    case DeviceState::kConfirmed: return "confirmed";
    case DeviceState::kFailed: return "failed";
    case DeviceState::kEvicted: return "evicted";
  }
  return "?";
}

std::string to_string(EvictReason r) {
  switch (r) {
    case EvictReason::kIdle: return "idle";
    case EvictReason::kFailed: return "failed";
  }
  return "?";
}

SessionRegistry::SessionRegistry(std::size_t max_inflight)
    : max_inflight_(max_inflight) {
  VKEY_REQUIRE(max_inflight >= 1, "admission control needs at least one slot");
}

DeviceRecord& SessionRegistry::mutable_record(std::uint64_t device_id) {
  VKEY_REQUIRE(device_id < records_.size(),
               "unknown device id " + std::to_string(device_id));
  return records_[static_cast<std::size_t>(device_id)];
}

const DeviceRecord& SessionRegistry::record(std::uint64_t device_id) const {
  VKEY_REQUIRE(device_id < records_.size(),
               "unknown device id " + std::to_string(device_id));
  return records_[static_cast<std::size_t>(device_id)];
}

void SessionRegistry::update_gauges() {
  const Instruments::Gateway& gw = instruments().gateway;
  gw.inflight_sessions.set(static_cast<double>(inflight_));
  gw.queued_sessions.set(static_cast<double>(queue_.size()));
  gw.active_sessions.set(static_cast<double>(confirmed_active_));
}

DeviceRecord& SessionRegistry::arrive(std::uint64_t device_id, double now_ms) {
  VKEY_REQUIRE(device_id == records_.size(),
               "device ids must be dense arrival ordinals; expected " +
                   std::to_string(records_.size()) + ", got " +
                   std::to_string(device_id));
  DeviceRecord rec;
  rec.device_id = device_id;
  rec.state = DeviceState::kQueued;
  rec.arrival_ms = now_ms;
  rec.last_activity_ms = now_ms;
  records_.push_back(rec);
  queue_.push_back(device_id);
  ++stats_.arrivals;
  stats_.peak_queued = std::max(stats_.peak_queued, queue_.size());
  instruments().gateway.arrivals.add(1);
  update_gauges();
  return records_.back();
}

std::optional<std::uint64_t> SessionRegistry::admit_next(double now_ms) {
  if (!slot_free() || queue_.empty()) return std::nullopt;
  const std::uint64_t id = queue_.front();
  queue_.pop_front();
  DeviceRecord& rec = mutable_record(id);
  VKEY_REQUIRE(rec.state == DeviceState::kQueued,
               "admitting a device in state " + to_string(rec.state));
  rec.state = DeviceState::kEstablishing;
  rec.admitted_ms = now_ms;
  rec.last_activity_ms = now_ms;
  ++inflight_;
  ++stats_.admissions;
  stats_.peak_inflight = std::max(stats_.peak_inflight, inflight_);
  instruments().gateway.admissions.add(1);
  update_gauges();
  return id;
}

void SessionRegistry::established(std::uint64_t device_id, double now_ms) {
  DeviceRecord& rec = mutable_record(device_id);
  VKEY_REQUIRE(rec.state == DeviceState::kEstablishing,
               "established() on a device in state " + to_string(rec.state));
  rec.state = DeviceState::kConfirmed;
  rec.established_ms = now_ms;
  rec.last_activity_ms = now_ms;
  --inflight_;
  ++confirmed_active_;
  ++stats_.established;
  instruments().gateway.keys_established.add(1);
  update_gauges();
}

void SessionRegistry::failed(std::uint64_t device_id, double now_ms,
                             FailureReason reason) {
  DeviceRecord& rec = mutable_record(device_id);
  VKEY_REQUIRE(rec.state == DeviceState::kEstablishing,
               "failed() on a device in state " + to_string(rec.state));
  rec.state = DeviceState::kFailed;
  rec.failure = reason;
  rec.last_activity_ms = now_ms;
  --inflight_;
  ++stats_.failures;
  instruments().gateway.establish_failures.add(1);
  update_gauges();
}

void SessionRegistry::rekeyed(std::uint64_t device_id, double now_ms) {
  DeviceRecord& rec = mutable_record(device_id);
  VKEY_REQUIRE(rec.state == DeviceState::kConfirmed,
               "rekeyed() on a device in state " + to_string(rec.state));
  ++rec.rekeys;
  rec.last_activity_ms = now_ms;
  ++stats_.rekeys;
  instruments().gateway.rekeys.add(1);
}

void SessionRegistry::touch(std::uint64_t device_id, double now_ms) {
  DeviceRecord& rec = mutable_record(device_id);
  VKEY_REQUIRE(rec.state == DeviceState::kConfirmed,
               "touch() on a device in state " + to_string(rec.state));
  rec.last_activity_ms = now_ms;
}

void SessionRegistry::evict(std::uint64_t device_id, double now_ms,
                            EvictReason reason) {
  DeviceRecord& rec = mutable_record(device_id);
  if (reason == EvictReason::kIdle) {
    VKEY_REQUIRE(rec.state == DeviceState::kConfirmed,
                 "idle eviction of a device in state " + to_string(rec.state));
    --confirmed_active_;
    ++stats_.evicted_idle;
  } else {
    VKEY_REQUIRE(rec.state == DeviceState::kFailed,
                 "failure eviction of a device in state " +
                     to_string(rec.state));
    ++stats_.evicted_failed;
  }
  instruments().gateway.evictions[reason].add(1);
  rec.state = DeviceState::kEvicted;
  rec.evicted_ms = now_ms;
  rec.evict_reason = reason;
  update_gauges();
}

}  // namespace vkey::protocol
