// Exactness of the allocation accounting with the hooks actually linked:
// this binary links vkey_alloc_hooks (as do bench_soak and
// test_trace_alloc), so operator new/delete report every block here. Kept
// out of test_common — interposing the global allocator there would turn
// every other suite's heap noise into accounting noise.
#include "common/alloc_stats.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "protocol/gateway.h"
#include "protocol/instruments.h"
#include "protocol/wire.h"

namespace vkey {
namespace {

TEST(AllocStats, HooksAreInstalledInThisBinary) {
  // gtest infrastructure has allocated plenty before this line runs.
  EXPECT_TRUE(alloc_stats::hooks_installed());
}

TEST(AllocStats, CountsBlocksAndBytesExactly) {
  constexpr std::size_t kBlocks = 64;
  constexpr std::size_t kBytes = 48;
  const alloc_stats::PhaseScope phase;
  std::vector<void*> blocks;
  blocks.reserve(kBlocks + 1);  // one vector grow, counted below
  for (std::size_t i = 0; i < kBlocks; ++i) {
    blocks.push_back(::operator new(kBytes));
  }
  const alloc_stats::Totals mid = phase.delta();
  // kBlocks explicit allocations plus the vector's single buffer.
  EXPECT_EQ(mid.allocations, kBlocks + 1);
  EXPECT_GE(mid.bytes, kBlocks * kBytes);
  EXPECT_EQ(phase.live_delta(),
            static_cast<std::int64_t>(kBlocks + 1));

  for (void* p : blocks) ::operator delete(p);
  blocks = std::vector<void*>();  // release the buffer too
  EXPECT_EQ(phase.live_delta(), 0);
  const alloc_stats::Totals end = phase.delta();
  EXPECT_EQ(end.allocations, end.frees);
}

TEST(AllocStats, PauseScopeHidesThisThreadsTraffic) {
  const alloc_stats::PhaseScope phase;
  {
    alloc_stats::PauseScope pause;
    EXPECT_TRUE(alloc_stats::paused());
    auto p = std::make_unique<std::string>(
        "long enough to defeat the small-string optimisation buffer");
    p.reset();
    EXPECT_EQ(phase.delta().allocations, 0u);
    {
      alloc_stats::PauseScope nested;  // nesting must not re-enable early
      EXPECT_TRUE(alloc_stats::paused());
    }
    EXPECT_TRUE(alloc_stats::paused());
  }
  EXPECT_FALSE(alloc_stats::paused());
  void* p = ::operator new(16);
  EXPECT_EQ(phase.delta().allocations, 1u);
  ::operator delete(p);
  EXPECT_EQ(phase.live_delta(), 0);
}

TEST(AllocStats, SteadyStateChurnHasZeroLiveGrowth) {
  // The soak gate in miniature: repeated identical alloc/free rounds must
  // leave live_blocks unchanged round over round.
  auto churn = [] {
    std::vector<std::unique_ptr<int[]>> v;
    for (int i = 0; i < 100; ++i) v.push_back(std::make_unique<int[]>(32));
  };
  churn();  // warm-up (allocator pools, vector growth heuristics)
  const alloc_stats::PhaseScope phase;
  for (int round = 0; round < 5; ++round) {
    churn();
    EXPECT_EQ(phase.live_delta(), 0) << "round " << round;
  }
  const alloc_stats::Totals d = phase.delta();
  EXPECT_EQ(d.allocations, d.frees);
  EXPECT_GT(d.allocations, 0u);
}

TEST(AllocStats, PublishMetricsExportsTheAllocGauges) {
  const bool prev = metrics::enabled();
  metrics::set_enabled(true);
  alloc_stats::publish_metrics();
  const json::Value snap = metrics::Registry::global().snapshot();
  const alloc_stats::Totals now = alloc_stats::totals();
  const json::Value& gauges = snap.at("gauges");
  ASSERT_NE(gauges.find("alloc.allocations"), nullptr);
  ASSERT_NE(gauges.find("alloc.frees"), nullptr);
  ASSERT_NE(gauges.find("alloc.bytes"), nullptr);
  ASSERT_NE(gauges.find("alloc.live_blocks"), nullptr);
  ASSERT_NE(gauges.find("alloc.overflow_threads"), nullptr);
  // The published values are a snapshot no newer than `now`.
  EXPECT_LE(gauges.at("alloc.allocations").at("value").as_number(),
            static_cast<double>(now.allocations));
  EXPECT_GT(gauges.at("alloc.allocations").at("value").as_number(), 0.0);
  metrics::set_enabled(prev);
}


TEST(Instruments, EveryCatalogueInstrumentUpdatesWithoutAllocating) {
  // The protocol stack's per-event metrics cost: with collection on, every
  // instrument of the catalogue takes an update without one heap block —
  // no name is built and the registry is never searched.
  const bool prev = metrics::enabled();
  metrics::set_enabled(true);
  const protocol::Instruments& in = protocol::instruments();  // binds once
  const alloc_stats::PhaseScope phase;

  const auto& w = in.wire;
  w.encoded.add(1);
  w.decoded.add(1);
  for (int e = static_cast<int>(protocol::wire::WireError::kTruncated);
       e <= static_cast<int>(protocol::wire::WireError::kBadType); ++e) {
    w.reject[static_cast<protocol::wire::WireError>(e)].add(1);
  }
  for (metrics::Counter* c : {&in.link.sent, &in.link.dropped,
                              &in.link.corrupted, &in.link.crc_lost,
                              &in.link.reordered, &in.link.duplicated}) {
    c->add(1);
  }
  const auto& arq = in.arq;
  for (metrics::Counter* c :
       {&arq.data_sent, &arq.retransmissions, &arq.timeouts, &arq.gave_up,
        &arq.acks_received, &arq.acks_sent}) {
    c->add(1);
  }
  arq.backoff_ms.observe(12.5);
  in.session.runs.add(1);
  in.session.frames_delivered.add(6);
  in.session.established.add(1);
  const auto& rel = in.reliability;
  rel.attempts.add(1);
  rel.established.add(1);
  rel.exhausted.add(1);
  for (int r = static_cast<int>(protocol::FailureReason::kRetryExhausted);
       r <= static_cast<int>(protocol::FailureReason::kProtocolError); ++r) {
    rel.failure[static_cast<protocol::FailureReason>(r)].add(1);
  }
  rel.attempt_ms.observe(40.0);
  rel.time_to_establish_ms.observe(80.0);
  const auto& gw = in.gateway;
  for (metrics::Counter* c :
       {&gw.arrivals, &gw.admissions, &gw.keys_established,
        &gw.establish_failures, &gw.rekeys}) {
    c->add(1);
  }
  gw.evictions[protocol::EvictReason::kIdle].add(1);
  gw.evictions[protocol::EvictReason::kFailed].add(1);
  gw.inflight_sessions.set(3.0);
  gw.queued_sessions.set(2.0);
  gw.active_sessions.set(1.0);
  gw.time_to_key_ms.observe(90.0);
  gw.queue_wait_ms.observe(5.0);

  EXPECT_EQ(phase.delta().allocations, 0u);
  metrics::set_enabled(prev);
}

TEST(Fuzz, HugeLengthFieldsDoNotAllocate) {
  // Frames whose length fields claim far more than the buffer holds die on
  // the fields themselves: nothing is sized from a forged length, and the
  // typed reject counters cost no allocation either.
  const bool prev = metrics::enabled();
  metrics::set_enabled(true);
  protocol::register_gateway_metrics();
  const auto forged = [](std::uint16_t payload_len, std::uint8_t mac_len) {
    protocol::wire::FrameWriter w;
    w.put_u16(protocol::wire::kMagic);
    w.put_u8(protocol::wire::kWireVersion);
    w.put_u16(payload_len);
    w.put_u8(mac_len);
    w.put_u8(static_cast<std::uint8_t>(protocol::MessageType::kSyndrome));
    w.put_u64(0);  // session
    w.put_u64(0);  // nonce
    w.put_u8(0xff);  // one byte of "payload"
    return std::move(w).finish();
  };
  const auto oversized = forged(0xFFFF, 0xFF);
  const auto unbacked = forged(protocol::kMaxPayloadBytes,
                               protocol::kMaxMacBytes);

  const alloc_stats::PhaseScope phase;
  protocol::wire::WireError oversized_err = protocol::wire::WireError::kNone;
  protocol::wire::WireError unbacked_err = protocol::wire::WireError::kNone;
  const bool oversized_ok =
      protocol::wire::decode_frame(oversized, &oversized_err).has_value();
  const bool unbacked_ok =
      protocol::wire::decode_frame(unbacked, &unbacked_err).has_value();
  const std::uint64_t allocations = phase.delta().allocations;

  EXPECT_FALSE(oversized_ok);
  EXPECT_EQ(oversized_err, protocol::wire::WireError::kOversizedPayload);
  EXPECT_FALSE(unbacked_ok);
  EXPECT_EQ(unbacked_err, protocol::wire::WireError::kTruncated);
  EXPECT_EQ(allocations, 0u);
  metrics::set_enabled(prev);
}

}  // namespace
}  // namespace vkey
