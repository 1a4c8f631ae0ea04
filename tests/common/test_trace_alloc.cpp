// Allocation audit for the ScopedTimer and FlightRecorder fast paths.
//
// The disabled paths are on the pipeline's per-sample hot loop and the
// gateway's per-frame path, so they must not touch the heap: with
// VKEY_METRICS off a timer is a handful of loads; with metrics on but the
// TraceLog disabled a *named* timer records nothing; a capacity-0 flight
// recorder neither stamps nor formats; and a kept event is a plain copy
// into a ring slot. This binary links the library's counting allocator
// (vkey_alloc_hooks), which is why these tests live alone: the counter
// would count every other suite's heap traffic too.
#include <cstddef>
#include <new>

#include <gtest/gtest.h>

#include "common/alloc_stats.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "protocol/flight_recorder.h"
#include "protocol/message.h"
#include "protocol/reliability.h"
#include "protocol/session.h"
#include "protocol/wire.h"

namespace vkey::trace {
namespace {

metrics::Histogram& test_hist() {
  static metrics::Histogram& h =
      metrics::Registry::global().histogram("test.trace_alloc.ms");
  return h;
}

/// Allocations performed by `fn` after a warm-up call (the first run may
/// lazily initialize statics; steady state is what the hot loop sees).
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  fn();  // warm up
  const std::uint64_t before = alloc_stats::totals().allocations;
  fn();
  return alloc_stats::totals().allocations - before;
}

TEST(ScopedTimerAlloc, CounterSeesThisBinarysAllocations) {
  // Control: the hooks are linked and count an allocation the compiler
  // cannot elide.
  ASSERT_TRUE(alloc_stats::hooks_installed());
  const std::uint64_t n = allocations_in([] {
    void* p = ::operator new(64);
    ::operator delete(p);
  });
  EXPECT_EQ(n, 1u);
}

TEST(ScopedTimerAlloc, DisabledMetricsPathIsAllocationFree) {
  metrics::Histogram& h = test_hist();
  TraceLog::global().set_enabled(true);  // even with the log on
  metrics::set_enabled(false);
  const std::uint64_t n = allocations_in([&h] {
    ScopedTimer t(h, "pipeline.reconcile_block");
    t.attr("block", 7).attr("ratio", 0.5);
  });
  metrics::set_enabled(true);
  TraceLog::global().set_enabled(false);
  TraceLog::global().clear();
  EXPECT_EQ(n, 0u);
}

TEST(ScopedTimerAlloc, NamedTimerWithTraceLogDisabledIsAllocationFree) {
  metrics::Histogram& h = test_hist();
  ASSERT_TRUE(metrics::enabled());
  ASSERT_FALSE(TraceLog::global().enabled());
  const std::uint64_t n = allocations_in([&h] {
    ScopedTimer t(h, "pipeline.reconcile_block");
    t.attr("block", 7).attr("ratio", 0.5);
  });
  EXPECT_EQ(n, 0u);
}

TEST(ScopedTimerAlloc, UnnamedTimerIsAllocationFreeEvenWhileTracing) {
  metrics::Histogram& h = test_hist();
  TraceLog::global().set_enabled(true);
  const std::uint64_t n = allocations_in([&h] { ScopedTimer t(h); });
  TraceLog::global().set_enabled(false);
  TraceLog::global().clear();
  EXPECT_EQ(n, 0u);
}

TEST(ScopedTimerAlloc, TracingTimerIsAllocationFreeOnceTheRingIsFull) {
  metrics::Histogram& h = test_hist();
  TraceLog& log = TraceLog::global();
  log.set_capacity(4);
  log.set_enabled(true);
  for (int i = 0; i < 5; ++i) ScopedTimer t(h, "fill");
  const std::uint64_t n = allocations_in([&h] {
    ScopedTimer t(h, "a span name comfortably beyond any SSO buffer");
    t.attr("block", 7);
  });
  const std::size_t kept = log.events().size();
  log.set_enabled(false);
  log.set_capacity(1 << 16);
  log.clear();
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(kept, 4u);
}

}  // namespace
}  // namespace vkey::trace

namespace vkey::protocol {
namespace {

using trace::allocations_in;

/// One event of every kind the protocol library records, with the detail
/// shape its call site passes.
void record_each_library_kind(FlightRecorder& rec) {
  const char* type = label(MessageType::kKeyConfirmAck);
  rec.record(FlightEventKind::kAttemptStart, "supervisor", {"attempt={}", 1},
             7);
  rec.record(FlightEventKind::kFrameTx, "alice", type, 7, 3);
  rec.record(FlightEventKind::kFrameRx, "bob", type, 7, 3);
  rec.record(FlightEventKind::kDrop, "link", type, 7, 3);
  rec.record(FlightEventKind::kWireReject, "link",
             {"{} on {} flips={}", wire::label(wire::WireError::kBadCrc),
              type, 2},
             7, 3);
  rec.record(FlightEventKind::kCorrupt, "link", {"{} flips={}", type, 1}, 7,
             3);
  rec.record(FlightEventKind::kReorder, "link",
             {"{} extra_ms={}", type, 99.6511814228509}, 7, 3);
  rec.record(FlightEventKind::kDuplicate, "link", type, 7, 3);
  rec.record(FlightEventKind::kBackoff, "alice",
             {"attempt={} delay_ms={}", std::size_t{2}, 19684.839419732383},
             7, 3);
  rec.record(FlightEventKind::kRetransmit, "alice",
             {"timeout attempt={}", std::size_t{2}}, 7, 3);
  rec.record(FlightEventKind::kRetransmit, "alice", "fast", 7, 3);
  rec.record(FlightEventKind::kAckTx, "bob", {"for {}", type}, 7, 3);
  rec.record(FlightEventKind::kAckRx, "alice", {}, 7, 3);
  rec.record(FlightEventKind::kStaleAck, "alice", {}, 7, 3);
  rec.record(FlightEventKind::kGaveUp, "bob",
             {"{} after {} retries", type, std::size_t{8}}, 7, 3);
  rec.record(FlightEventKind::kReject, "alice",
             {"{} on {}", label(RejectReason::kConfirmMismatch), type}, 7, 3);
  rec.record(FlightEventKind::kStateChange, "alice",
             {"{}->{}", label(SessionState::kAwaitConfirmAck),
              label(SessionState::kEstablished)},
             7, 3);
  rec.record(FlightEventKind::kAttemptEnd, "supervisor",
             label(FailureReason::kConfirmMismatch), 7);
}

TEST(FlightRecorderAlloc, ZeroCapacityRecorderIsAllocationFreeForEveryKind) {
  ASSERT_FALSE(trace::TraceLog::global().enabled());
  double now = 0.0;
  FlightRecorder rec(0, [&now] { return now; });
  const std::uint64_t n =
      allocations_in([&rec] { record_each_library_kind(rec); });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), rec.total());
}

TEST(FlightRecorderAlloc, WrappedRecorderKeepsFramesWithoutAllocating) {
  ASSERT_FALSE(trace::TraceLog::global().enabled());
  double now = 0.0;
  FlightRecorder rec(16, [&now] { return now; });
  for (int i = 0; i < 2; ++i) record_each_library_kind(rec);  // wraps
  ASSERT_GT(rec.dropped(), 0u);
  const char* type = label(MessageType::kSyndrome);
  const std::uint64_t n = allocations_in([&rec, type] {
    rec.record(FlightEventKind::kFrameTx, "bob", type, 7, 4);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(rec.size(), 16u);
  EXPECT_STREQ(rec.events().back().detail, "syndrome");
}

}  // namespace
}  // namespace vkey::protocol
