// Flight recorder: ring bounds, timestamp sources, detail and dump formats,
// the TraceLog mirror, and the reliability supervisor's per-attempt wiring
// — a failed agreement must carry a timeline that names the injected
// fault, byte-identical across runs with the same seed and pinned to a
// golden text.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/rng.h"
#include "core/reconciler.h"
#include "protocol/flight_recorder.h"
#include "protocol/reliability.h"
#include "protocol/sim_clock.h"
#include "protocol/unreliable_channel.h"

namespace vkey::protocol {
namespace {

TEST(FlightRecorder, RecordsEventsWithOrdinalsAndClockStamps) {
  SimClock clock;
  FlightRecorder rec(8, [&clock] { return clock.now_ms(); });
  rec.record(FlightEventKind::kFrameTx, "alice", "key-gen-request", 5, 1);
  clock.run_until(42.5);
  rec.record(FlightEventKind::kFrameRx, "bob", "key-gen-request", 5, 1);

  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].t_ms, 0.0);
  EXPECT_EQ(events[0].id, 0u);
  EXPECT_STREQ(events[0].actor, "alice");
  EXPECT_EQ(events[0].session, 5u);
  EXPECT_DOUBLE_EQ(events[1].t_ms, 42.5);
  EXPECT_EQ(events[1].id, 1u);
  EXPECT_EQ(events[1].kind, FlightEventKind::kFrameRx);
}

TEST(FlightRecorder, WithoutAClockTheOrdinalIsTheStamp) {
  FlightRecorder rec(4);
  rec.record(FlightEventKind::kInjected, "harness", "truncation");
  rec.record(FlightEventKind::kInjected, "harness", "bitflip");
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].t_ms, 0.0);
  EXPECT_DOUBLE_EQ(events[1].t_ms, 1.0);
}

TEST(FlightRecorder, RingDropsOldestAndKeepsTotals) {
  FlightRecorder rec(3);
  for (int i = 0; i < 7; ++i) {
    rec.record(FlightEventKind::kFrameTx, "alice", std::to_string(i));
  }
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.dropped(), 4u);
  EXPECT_EQ(rec.total(), 7u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  // Newest three survive, oldest first, with their original ordinals.
  EXPECT_STREQ(events[0].detail, "4");
  EXPECT_EQ(events[0].id, 4u);
  EXPECT_STREQ(events[2].detail, "6");
}

TEST(FlightRecorder, ZeroCapacityDisablesRecording) {
  FlightRecorder rec(0);
  rec.record(FlightEventKind::kFrameTx, "alice");
  EXPECT_EQ(rec.size(), 0u);
}

TEST(FlightRecorder, DumpIsDeterministicAndNamesEveryField) {
  auto build = [] {
    SimClock clock;
    FlightRecorder rec(16, [&clock] { return clock.now_ms(); });
    clock.run_until(12.25);
    rec.record(FlightEventKind::kDrop, "link", "key-gen-accept", 9, 3);
    rec.record(FlightEventKind::kRetransmit, "bob", "timeout attempt=1", 9, 3);
    return rec.dump();
  };
  const std::string dump = build();
  EXPECT_EQ(dump, build());
  EXPECT_NE(dump.find("2 event(s)"), std::string::npos);
  EXPECT_NE(dump.find("drop"), std::string::npos);
  EXPECT_NE(dump.find("link"), std::string::npos);
  EXPECT_NE(dump.find("key-gen-accept"), std::string::npos);
  EXPECT_NE(dump.find("session=9"), std::string::npos);
  EXPECT_NE(dump.find("nonce=3"), std::string::npos);
  EXPECT_NE(dump.find("12.250 ms"), std::string::npos);
}

TEST(FlightRecorder, DetailIsFormattedFromTypedPieces) {
  FlightRecorder rec(8);
  rec.record(FlightEventKind::kWireReject, "link",
             {"{} on {} flips={}", "crc", "syndrome", 2});
  rec.record(FlightEventKind::kBackoff, "bob",
             {"attempt={} delay_ms={}", std::size_t{1}, 4582.831999999999});
  rec.record(FlightEventKind::kInjected, "harness",
             std::string("literal {} text"));
  rec.record(FlightEventKind::kInjected, "harness", std::string(80, 'x'));
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].detail, "crc on syndrome flips=2");
  EXPECT_STREQ(events[1].detail, "attempt=1 delay_ms=4582.831999999999");
  EXPECT_STREQ(events[2].detail, "literal {} text");  // no values: verbatim
  // Longer text is cut to the inline buffer.
  EXPECT_EQ(std::string(events[3].detail),
            std::string(trace::Event::kDetailBytes - 1, 'x'));
}

TEST(FlightRecorder, ZeroCapacityNeitherStampsNorFormats) {
  ASSERT_FALSE(trace::TraceLog::global().enabled());
  int clock_reads = 0;
  FlightRecorder rec(0, [&clock_reads] {
    ++clock_reads;
    return 1.0;
  });
  rec.record(FlightEventKind::kFrameTx, "alice", "key-gen-request", 1, 2);
  rec.record(FlightEventKind::kBackoff, "alice",
             {"attempt={} delay_ms={}", 0, 1.5});
  EXPECT_EQ(clock_reads, 0);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 2u);
  EXPECT_EQ(rec.total(), 2u);
}

TEST(FlightRecorder, TraceLogMirrorKeepsTheSameRecord) {
  trace::TraceLog& log = trace::TraceLog::global();
  log.clear();
  log.set_enabled(true);
  FlightRecorder rec(0, [] { return 7.5; });  // mirrored although not kept
  rec.record(FlightEventKind::kDrop, "link", "syndrome", 9, 3);
  log.set_enabled(false);
  const auto mirrored = log.events();
  log.clear();
  ASSERT_EQ(mirrored.size(), 1u);
  const trace::Event& ev = mirrored[0];
  EXPECT_STREQ(ev.name, "flight.drop");
  EXPECT_EQ(ev.kind, FlightEventKind::kDrop);
  EXPECT_STREQ(ev.actor, "link");
  EXPECT_STREQ(ev.detail, "syndrome");
  EXPECT_EQ(ev.session, 9u);
  EXPECT_EQ(ev.nonce, 3u);
  EXPECT_DOUBLE_EQ(ev.t_ms, 7.5);
  EXPECT_EQ(ev.domain, trace::Domain::kVirtual);
  EXPECT_TRUE(ev.instant);
  EXPECT_NE(ev.id, 0u);  // a TraceLog id, not the recorder's ordinal
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 1u);
}

TEST(FlightRecorder, ChannelWiringRecordsInjectedFaults) {
  SimClock clock;
  PublicChannel base;
  FaultConfig faults;
  faults.drop_prob = 0.5;
  faults.seed = 11;
  channel::LoRaParams radio;
  radio.spreading_factor = 7;  // keep virtual airtimes small
  UnreliableChannel link(clock, base, faults, radio);
  FlightRecorder rec(256, [&clock] { return clock.now_ms(); });
  link.set_recorder(&rec);
  link.set_handler(UnreliableChannel::Endpoint::kBob, [](const Message&) {});
  link.set_handler(UnreliableChannel::Endpoint::kAlice, [](const Message&) {});

  Message m;
  m.type = MessageType::kKeyGenRequest;
  for (std::uint64_t n = 0; n < 40; ++n) {
    m.nonce = n;
    link.send(UnreliableChannel::Endpoint::kAlice, m);
  }
  clock.run_until_idle();

  std::size_t tx = 0, rx = 0, drops = 0;
  for (const auto& ev : rec.events()) {
    if (ev.kind == FlightEventKind::kFrameTx) ++tx;
    if (ev.kind == FlightEventKind::kFrameRx) ++rx;
    if (ev.kind == FlightEventKind::kDrop) ++drops;
  }
  EXPECT_EQ(tx, 40u);
  EXPECT_GT(drops, 0u);     // 50% drop over 40 frames
  EXPECT_EQ(tx, rx + drops);  // every frame either arrived or was dropped
}

// ------------------------------------------- supervisor wiring (end to end)

class FlightReliabilityTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    core::ReconcilerConfig cfg;
    cfg.key_bits = 64;
    cfg.decoder_units = 64;
    reconciler_ = new core::AutoencoderReconciler(cfg);
    reconciler_->train(2500, 25);
  }
  static void TearDownTestSuite() {
    delete reconciler_;
    reconciler_ = nullptr;
  }

  static BitVec random_key(std::uint64_t seed) {
    vkey::Rng rng(seed);
    BitVec k(64);
    for (std::size_t i = 0; i < 64; ++i) k.set(i, rng.bernoulli(0.5));
    return k;
  }

  static core::AutoencoderReconciler* reconciler_;
};

core::AutoencoderReconciler* FlightReliabilityTest::reconciler_ = nullptr;

TEST_F(FlightReliabilityTest, AttemptTimelineTravelsWithTheReport) {
  ReliabilityConfig cfg;
  cfg.fault.drop_prob = 0.3;
  cfg.fault.seed = 21;
  cfg.arq.seed = 22;
  PublicChannel base;
  const BitVec kb = random_key(33);
  const auto report = run_reliable_key_agreement(
      base, *reconciler_, cfg, [&](std::size_t) {
        return std::make_pair(kb, kb);  // identical keys: reconciles cleanly
      });
  ASSERT_TRUE(report.established);
  ASSERT_FALSE(report.attempt_log.empty());
  const auto& flight = report.attempt_log.back().flight;
  const auto events = flight.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, FlightEventKind::kAttemptStart);
  EXPECT_EQ(events.back().kind, FlightEventKind::kAttemptEnd);
  EXPECT_STREQ(events.back().detail, "established");
  // An established agreement has no post-mortem.
  EXPECT_TRUE(report.failure_dump().empty());
}

TEST_F(FlightReliabilityTest, FailureDumpNamesTheInjectedFault) {
  // Certain-drop on a single attempt: the ARQ burns its budget and the
  // supervisor reports kRetryExhausted; the timeline must show the drops.
  ReliabilityConfig cfg;
  cfg.fault.drop_prob = 0.95;
  cfg.fault.seed = 4;
  cfg.arq.seed = 5;
  cfg.max_session_attempts = 1;
  PublicChannel base;
  const BitVec kb = random_key(44);
  const auto report = run_reliable_key_agreement(
      base, *reconciler_, cfg,
      [&](std::size_t) { return std::make_pair(kb, kb); });
  ASSERT_FALSE(report.established);

  const std::string dump = report.failure_dump();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find(to_string(report.failure)), std::string::npos);
  EXPECT_NE(dump.find("drop"), std::string::npos);  // the injected fault
  EXPECT_NE(dump.find("attempt-start"), std::string::npos);
}

TEST_F(FlightReliabilityTest, SameSeedYieldsByteIdenticalDumps) {
  auto run = [&] {
    ReliabilityConfig cfg;
    cfg.fault.drop_prob = 0.95;
    cfg.fault.seed = 4;
    cfg.arq.seed = 5;
    cfg.max_session_attempts = 1;
    PublicChannel base;
    const BitVec kb = random_key(44);
    const auto report = run_reliable_key_agreement(
        base, *reconciler_, cfg,
        [&](std::size_t) { return std::make_pair(kb, kb); });
    return report.failure_dump();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

// Captured from the recorder that built a std::string per event, before
// events became fixed-size records with typed details: the dump must not
// change by a byte. Attempt 1 fails on a MAC mismatch, attempt 2 runs out
// of retries and wraps its 40-event ring.
constexpr const char* kGoldenFailureDump = R"(attempt 1 failed (mac-mismatch)
flight recorder: 31 event(s), 0 dropped
  [       0.000 ms] #0 attempt-start supervisor attempt=1 session=1 nonce=0
  [       0.000 ms] #1 state-change alice idle->await-accept session=1 nonce=0
  [       0.000 ms] #2 frame-tx alice key-gen-request session=1 nonce=0
  [       0.000 ms] #3 backoff alice attempt=0 delay_ms=4582.831999999999 session=1 nonce=0
  [    2241.416 ms] #4 frame-rx bob key-gen-request session=1 nonce=0
  [    2241.416 ms] #5 state-change bob idle->await-confirm session=1 nonce=0
  [    2241.416 ms] #6 frame-tx bob ack session=1 nonce=0
  [    2241.416 ms] #7 ack-tx bob for key-gen-request session=1 nonce=0
  [    2241.416 ms] #8 frame-tx bob key-gen-accept session=1 nonce=1
  [    2241.416 ms] #9 drop link key-gen-accept session=1 nonce=1
  [    2241.416 ms] #10 backoff bob attempt=0 delay_ms=4582.831999999999 session=1 nonce=1
  [    2241.416 ms] #11 frame-tx bob syndrome session=1 nonce=2
  [    2241.416 ms] #12 backoff bob attempt=0 delay_ms=19525.04 session=1 nonce=2
  [    4482.832 ms] #13 frame-rx alice ack session=1 nonce=0
  [    4482.832 ms] #14 ack-rx alice session=1 nonce=0
  [    6824.248 ms] #15 retransmit bob timeout attempt=1 session=1 nonce=1
  [    6824.248 ms] #16 frame-tx bob key-gen-accept session=1 nonce=1
  [    6824.248 ms] #17 backoff bob attempt=1 delay_ms=4652.727441795847 session=1 nonce=1
  [    9065.664 ms] #18 frame-rx alice key-gen-accept session=1 nonce=1
  [    9065.664 ms] #19 state-change alice await-accept->await-syndrome session=1 nonce=1
  [    9065.664 ms] #20 frame-tx alice ack session=1 nonce=1
  [    9065.664 ms] #21 duplicate link ack session=1 nonce=1
  [    9065.664 ms] #22 ack-tx alice for key-gen-accept session=1 nonce=1
  [   11307.080 ms] #23 frame-rx bob ack session=1 nonce=1
  [   11307.080 ms] #24 ack-rx bob session=1 nonce=1
  [   11457.080 ms] #25 frame-rx bob ack session=1 nonce=1
  [   11457.080 ms] #26 stale-ack bob session=1 nonce=1
  [   19425.040 ms] #27 frame-rx alice syndrome session=1 nonce=2
  [   19425.040 ms] #28 reject alice mac-mismatch on syndrome session=1 nonce=2
  [   19425.040 ms] #29 state-change alice await-syndrome->failed session=1 nonce=2
  [   19425.040 ms] #30 attempt-end supervisor mac-mismatch session=1 nonce=0
attempt 2 failed (retry-exhausted)
flight recorder: 40 event(s), 36 dropped
  [   37932.762 ms] #36 frame-tx alice ack session=2 nonce=1
  [   37932.762 ms] #37 reorder link ack extra_ms=29.467083397451745 session=2 nonce=1
  [   37932.762 ms] #38 ack-tx alice for key-gen-accept session=2 nonce=1
  [   38850.080 ms] #39 frame-rx alice syndrome session=2 nonce=2
  [   38850.080 ms] #40 state-change alice await-syndrome->await-confirm-ack session=2 nonce=2
  [   38850.080 ms] #41 frame-tx alice ack session=2 nonce=2
  [   38850.080 ms] #42 reorder link ack extra_ms=321.5055297920676 session=2 nonce=2
  [   38850.080 ms] #43 ack-tx alice for syndrome session=2 nonce=2
  [   38850.080 ms] #44 frame-tx alice key-confirm session=2 nonce=3
  [   38850.080 ms] #45 drop link key-confirm session=2 nonce=3
  [   38850.080 ms] #46 backoff alice attempt=0 delay_ms=6155.696 session=2 nonce=3
  [   40203.646 ms] #47 frame-rx bob ack session=2 nonce=1
  [   40203.646 ms] #48 ack-rx bob session=2 nonce=1
  [   41191.496 ms] #49 retransmit bob timeout attempt=1 session=2 nonce=2
  [   41191.496 ms] #50 frame-tx bob syndrome session=2 nonce=2
  [   41191.496 ms] #51 backoff bob attempt=1 delay_ms=19544.32746893229 session=2 nonce=2
  [   41413.002 ms] #52 frame-rx bob ack session=2 nonce=2
  [   41413.002 ms] #53 ack-rx bob session=2 nonce=2
  [   45005.776 ms] #54 retransmit alice timeout attempt=1 session=2 nonce=3
  [   45005.776 ms] #55 frame-tx alice key-confirm session=2 nonce=3
  [   45005.776 ms] #56 wire-reject link crc on key-confirm flips=2 session=2 nonce=3
  [   45005.776 ms] #57 backoff alice attempt=1 delay_ms=6174.899295548153 session=2 nonce=3
  [   51180.675 ms] #58 retransmit alice timeout attempt=2 session=2 nonce=3
  [   51180.675 ms] #59 frame-tx alice key-confirm session=2 nonce=3
  [   51180.675 ms] #60 drop link key-confirm session=2 nonce=3
  [   51180.675 ms] #61 backoff alice attempt=2 delay_ms=6453.7479940029525 session=2 nonce=3
  [   57634.423 ms] #62 retransmit alice timeout attempt=3 session=2 nonce=3
  [   57634.423 ms] #63 frame-tx alice key-confirm session=2 nonce=3
  [   57634.423 ms] #64 drop link key-confirm session=2 nonce=3
  [   57634.423 ms] #65 backoff alice attempt=3 delay_ms=6167.933174696691 session=2 nonce=3
  [   58375.120 ms] #66 frame-rx alice syndrome session=2 nonce=2
  [   58375.120 ms] #67 reject alice duplicate on syndrome session=2 nonce=2
  [   58375.120 ms] #68 frame-tx alice ack session=2 nonce=2
  [   58375.120 ms] #69 drop link ack session=2 nonce=2
  [   58375.120 ms] #70 ack-tx alice for syndrome session=2 nonce=2
  [   58375.120 ms] #71 retransmit alice fast session=2 nonce=3
  [   58375.120 ms] #72 frame-tx alice key-confirm session=2 nonce=3
  [   58375.120 ms] #73 wire-reject link crc on key-confirm flips=1 session=2 nonce=3
  [   63802.356 ms] #74 gave-up alice key-confirm after 3 retries session=2 nonce=3
  [   63802.356 ms] #75 attempt-end supervisor retry-exhausted session=2 nonce=0
)";

TEST_F(FlightReliabilityTest, FailureDumpMatchesTheGoldenTimeline) {
  ReliabilityConfig cfg;
  cfg.fault.drop_prob = 0.3;
  cfg.fault.corrupt_prob = 0.2;
  cfg.fault.dup_prob = 0.2;
  cfg.fault.reorder_prob = 0.3;
  cfg.fault.seed = 8;
  cfg.arq.seed = 9;
  cfg.arq.max_retries = 3;
  cfg.max_session_attempts = 2;
  cfg.flight_capacity = 40;
  PublicChannel base;
  const BitVec kb = random_key(55);
  const BitVec ka = random_key(56);
  const auto report = run_reliable_key_agreement(
      base, *reconciler_, cfg, [&](std::size_t attempt) {
        // Unrelated keys first, then matching ones.
        return attempt == 0 ? std::make_pair(ka, kb) : std::make_pair(kb, kb);
      });
  ASSERT_FALSE(report.established);
  EXPECT_EQ(report.failure_dump(), kGoldenFailureDump);
}

TEST_F(FlightReliabilityTest, ZeroFlightCapacityDisablesTheTimeline) {
  ReliabilityConfig cfg;
  cfg.flight_capacity = 0;
  cfg.fault.drop_prob = 0.95;
  cfg.fault.seed = 4;
  cfg.arq.seed = 5;
  cfg.max_session_attempts = 1;
  PublicChannel base;
  const BitVec kb = random_key(44);
  const auto report = run_reliable_key_agreement(
      base, *reconciler_, cfg,
      [&](std::size_t) { return std::make_pair(kb, kb); });
  ASSERT_FALSE(report.established);
  EXPECT_EQ(report.attempt_log.back().flight.size(), 0u);
  EXPECT_TRUE(report.failure_dump().empty());
}

}  // namespace
}  // namespace vkey::protocol
