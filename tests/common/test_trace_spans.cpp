// Hierarchical span trees: parent links, lane annotation, ring wraparound
// consistency, and the canonical Chrome trace export (dense ids, (start, seq)
// order, virtual-only filtering, thread-count invariance).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace vkey::trace {
namespace {

metrics::Histogram& test_hist() {
  return metrics::Registry::global().histogram("test.trace_spans.ms");
}

/// RAII guard: every test runs against a clean, enabled global log and
/// leaves it disabled and empty for its neighbours.
struct LogFixture {
  TraceLog& log = TraceLog::global();
  LogFixture() {
    log.clear();
    log.set_capacity(1 << 16);
    log.set_enabled(true);
  }
  ~LogFixture() {
    log.set_enabled(false);
    log.set_capacity(1 << 16);
    log.clear();
  }
};

/// A virtual-domain instant under the current open span, with one attr.
Event virtual_instant(const char* name, double t_ms, const char* key,
                      double value) {
  Event ev;
  ev.name = name;
  ev.t_ms = t_ms;
  ev.parent = current_parent();
  ev.domain = Domain::kVirtual;
  ev.instant = true;
  ev.attrs[0] = Attr{key, value};
  ev.n_attrs = 1;
  return ev;
}

TEST(SpanTree, NestedTimersLinkChildToParent) {
  LogFixture fx;
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    ScopedTimer outer(test_hist(), "outer");
    outer_id = outer.span_id();
    ASSERT_NE(outer_id, 0u);
    EXPECT_EQ(current_parent(), outer_id);
    {
      ScopedTimer inner(test_hist(), "inner");
      inner_id = inner.span_id();
      EXPECT_EQ(current_parent(), inner_id);
    }
    EXPECT_EQ(current_parent(), outer_id);
  }
  EXPECT_EQ(current_parent(), 0u);

  const auto spans = fx.log.events();
  ASSERT_EQ(spans.size(), 2u);
  // RAII order: the inner span is recorded first (it stops first).
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].id, inner_id);
  EXPECT_EQ(spans[0].parent, outer_id);
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, 0u);
  // Ids are handed out in start order: the parent started first.
  EXPECT_LT(spans[1].id, spans[0].id);
}

TEST(SpanTree, ThreeLevelTreeReconstructsFromTheLog) {
  LogFixture fx;
  {
    ScopedTimer root(test_hist(), "root");
    {
      ScopedTimer mid(test_hist(), "mid");
      { ScopedTimer leaf(test_hist(), "leaf"); }
    }
    { ScopedTimer sibling(test_hist(), "sibling"); }
  }
  const auto spans = fx.log.events();
  ASSERT_EQ(spans.size(), 4u);
  std::map<std::string, Event> by_name;
  for (const auto& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name.at("root").parent, 0u);
  EXPECT_EQ(by_name.at("mid").parent, by_name.at("root").id);
  EXPECT_EQ(by_name.at("leaf").parent, by_name.at("mid").id);
  EXPECT_EQ(by_name.at("sibling").parent, by_name.at("root").id);
}

TEST(SpanTree, UnnamedTimersTakeNoIdAndDoNotParent) {
  LogFixture fx;
  {
    ScopedTimer named(test_hist(), "named");
    ScopedTimer unnamed(test_hist());  // histogram-only
    EXPECT_EQ(unnamed.span_id(), 0u);
    // The unnamed timer must not capture the ambient slot: a child still
    // parents under "named".
    { ScopedTimer child(test_hist(), "child"); }
  }
  const auto spans = fx.log.events();
  ASSERT_EQ(spans.size(), 2u);
  std::map<std::string, Event> by_name;
  for (const auto& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name.at("child").parent, by_name.at("named").id);
}

TEST(SpanTree, AttributesSurviveIntoTheLogAndTheExport) {
  LogFixture fx;
  {
    ScopedTimer t(test_hist(), "attributed");
    t.attr("block", 7).attr("ratio", 0.5);
  }
  const auto spans = fx.log.events();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].n_attrs, 2u);
  EXPECT_STREQ(spans[0].attrs[0].key, "block");
  EXPECT_DOUBLE_EQ(spans[0].attrs[0].value, 7.0);
  EXPECT_STREQ(spans[0].attrs[1].key, "ratio");
  EXPECT_DOUBLE_EQ(spans[0].attrs[1].value, 0.5);

  const json::Value doc = fx.log.chrome_trace();
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);
  const json::Value& args = events[0].at("args");
  EXPECT_DOUBLE_EQ(args.at("block").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(args.at("ratio").as_number(), 0.5);
}

TEST(LaneAnnotation, LaneScopeInstallsLaneAndAmbientParent) {
  LogFixture fx;
  ASSERT_EQ(current_lane(), 0u);
  {
    LaneScope lane(3, 42);
    EXPECT_EQ(current_lane(), 3u);
    EXPECT_EQ(current_parent(), 42u);
    { ScopedTimer t(test_hist(), "on-lane"); }
  }
  EXPECT_EQ(current_lane(), 0u);
  EXPECT_EQ(current_parent(), 0u);

  const auto spans = fx.log.events();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].lane, 3u);
  EXPECT_EQ(spans[0].parent, 42u);
}

TEST(LaneAnnotation, ParallelForChildrenParentUnderTheSubmittingStage) {
  LogFixture fx;
  std::uint64_t stage_id = 0;
  {
    ScopedTimer stage(test_hist(), "stage");
    stage_id = stage.span_id();
    parallel::parallel_for(
        32,
        [](std::size_t i) {
          ScopedTimer t(test_hist(), "job");
          t.attr("i", i);
        },
        4);
  }
  const auto spans = fx.log.events();
  ASSERT_EQ(spans.size(), 33u);
  std::size_t jobs = 0;
  for (const auto& s : spans) {
    if (std::string_view(s.name) != "job") continue;
    ++jobs;
    // Whether a chunk ran on the caller (lane 0) or a borrowed worker
    // (lane 1..3), the span hangs off the stage that spawned the fan-out.
    EXPECT_EQ(s.parent, stage_id);
    EXPECT_LT(s.lane, 4u);
  }
  EXPECT_EQ(jobs, 32u);
}

TEST(Wraparound, RingKeepsNewestSpansAndCountsDrops) {
  LogFixture fx;
  fx.log.set_capacity(4);
  static const char* const kNames[] = {"s0", "s1", "s2", "s3", "s4",
                                       "s5", "s6", "s7", "s8", "s9"};
  for (const char* name : kNames) {
    ScopedTimer t(test_hist(), name);
  }
  const auto spans = fx.log.events();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(fx.log.dropped(), 6u);
  // Oldest-first eviction: the survivors are the last four, in order.
  EXPECT_STREQ(spans[0].name, "s6");
  EXPECT_STREQ(spans[3].name, "s9");
}

TEST(Wraparound, ExportNeverEmitsDanglingParentRefs) {
  LogFixture fx;
  fx.log.set_capacity(3);
  {
    ScopedTimer root(test_hist(), "root");
    // Each child records on destruction; the root records last and the tiny
    // ring then holds children whose parent span was never retained, plus a
    // root whose children were partly evicted.
    for (int i = 0; i < 5; ++i) {
      ScopedTimer t(test_hist(), "child");
    }
  }
  const json::Value doc = fx.log.chrome_trace();
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 3u);
  std::set<double> ids;
  for (const auto& ev : events) {
    ids.insert(ev.at("args").at("id").as_number());
  }
  for (const auto& ev : events) {
    const json::Value* parent = ev.at("args").find("parent");
    // A parent reference is either resolvable inside the export or omitted
    // (evicted parents must not leave dangling ids behind).
    if (parent != nullptr) {
      EXPECT_EQ(ids.count(parent->as_number()), 1u);
    }
  }
}

TEST(ChromeTrace, CanonicalOrderDenseIdsAndSchema) {
  LogFixture fx;
  double t = 100.0;
  NowFn clock = [&t] { return t; };
  {
    ScopedTimer a(test_hist(), clock, "a");
    t += 5.0;
    {
      ScopedTimer b(test_hist(), clock, "b");
      t += 5.0;
    }
  }
  fx.log.record(virtual_instant("marker", 103.0, "k", 1));

  const json::Value doc = fx.log.chrome_trace();
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 3u);

  // Canonical (start, seq) order with ids remapped to dense indices.
  double prev_ts = -1.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    EXPECT_DOUBLE_EQ(ev.at("args").at("id").as_number(),
                     static_cast<double>(i));
    EXPECT_GE(ev.at("ts").as_number(), prev_ts);
    prev_ts = ev.at("ts").as_number();
  }
  // a starts at 100 ms -> 1e5 µs; b at 105 ms; the instant at 103 ms lands
  // between them in start order despite being recorded last.
  EXPECT_EQ(events[0].at("name").as_string(), "a");
  EXPECT_DOUBLE_EQ(events[0].at("ts").as_number(), 100000.0);
  EXPECT_EQ(events[0].at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(events[0].at("dur").as_number(), 10000.0);
  EXPECT_EQ(events[1].at("name").as_string(), "marker");
  EXPECT_EQ(events[1].at("ph").as_string(), "i");
  EXPECT_EQ(events[1].at("s").as_string(), "t");
  EXPECT_EQ(events[2].at("name").as_string(), "b");
  EXPECT_DOUBLE_EQ(events[2].at("args").at("parent").as_number(), 0.0);
}

TEST(ChromeTrace, VirtualOnlyFilterDropsWallSpans) {
  LogFixture fx;
  double t = 0.0;
  NowFn clock = [&t] { return t; };
  { ScopedTimer wall(test_hist(), "wall-span"); }
  {
    ScopedTimer virt(test_hist(), clock, "virtual-span");
    t += 1.0;
  }
  const json::Value all_doc = fx.log.chrome_trace(false);
  EXPECT_EQ(all_doc.at("traceEvents").as_array().size(), 2u);
  const json::Value virt_doc = fx.log.chrome_trace(true);
  const auto& virt_only = virt_doc.at("traceEvents").as_array();
  ASSERT_EQ(virt_only.size(), 1u);
  EXPECT_EQ(virt_only[0].at("name").as_string(), "virtual-span");
  EXPECT_EQ(virt_only[0].at("cat").as_string(), "virtual");
  // The filtered export renumbers from zero.
  EXPECT_DOUBLE_EQ(virt_only[0].at("args").at("id").as_number(), 0.0);
}

/// One simulated run: a parallel wall-clock phase (nondeterministic thread
/// interleaving, lane-tagged spans) followed by a single-threaded virtual
/// phase, the shape vkey_sim produces. Returns the virtual-only export.
std::string run_mixed_workload(std::size_t threads) {
  TraceLog& log = TraceLog::global();
  log.clear();
  log.set_capacity(1 << 16);
  log.set_enabled(true);
  {
    ScopedTimer stage(test_hist(), "wall-stage");
    parallel::parallel_for(
        48,
        [](std::size_t i) {
          ScopedTimer t(test_hist(), "wall-job");
          t.attr("i", i);
        },
        threads);
  }
  double t = 0.0;
  NowFn clock = [&t] { return t; };
  for (int attempt = 0; attempt < 3; ++attempt) {
    ScopedTimer a(test_hist(), clock, "virtual-attempt");
    a.attr("attempt", attempt);
    log.record(virtual_instant("virtual-event", t + 0.25, "attempt", attempt));
    t += 10.0;
  }
  const std::string out = log.chrome_trace(true).dump(0);
  log.set_enabled(false);
  log.clear();
  return out;
}

TEST(ChromeTrace, VirtualExportIsByteIdenticalAcrossThreadCounts) {
  // The determinism contract: wall spans consume a fixed *count* of ids in
  // a schedule-dependent order, but the virtual phase runs single-threaded
  // after them, so after the dense remap the virtual-only export cannot
  // depend on the lane count.
  const std::string one = run_mixed_workload(1);
  const std::string four = run_mixed_workload(4);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("virtual-attempt"), std::string::npos);
  EXPECT_EQ(one.find("wall-"), std::string::npos);
}

TEST(ChromeTrace, DroppedCountIsReportedInOtherData) {
  LogFixture fx;
  fx.log.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    ScopedTimer t(test_hist(), "s");
  }
  const json::Value doc = fx.log.chrome_trace();
  EXPECT_DOUBLE_EQ(doc.at("otherData").at("dropped").as_number(), 3.0);
}

TEST(ChromeTrace, VirtualFloodKeepsEveryWallSpanAndWarnsOnDrops) {
  LogFixture fx;
  fx.log.set_capacity(8);
  const std::string path = ::testing::TempDir() + "vkey_trace_flood.json";
  { ScopedTimer t(test_hist(), "wall-before"); }

  // No drops yet: the export is silent.
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(fx.log.write_chrome_trace(path));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  // Flood the virtual ring (flight events in a gateway run) far past its
  // capacity, with wall spans on either side of the flood.
  for (int i = 0; i < 30; ++i) {
    fx.log.record(virtual_instant("flight.frame-tx", i, "i", i));
  }
  { ScopedTimer t(test_hist(), "wall-after"); }

  const json::Value doc = fx.log.chrome_trace();
  std::size_t wall = 0, virt = 0;
  for (const auto& ev : doc.at("traceEvents").as_array()) {
    (ev.at("cat").as_string() == "wall" ? wall : virt) += 1;
  }
  EXPECT_EQ(wall, 2u);
  EXPECT_EQ(virt, 8u);
  EXPECT_DOUBLE_EQ(doc.at("otherData").at("dropped").as_number(), 22.0);

  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(fx.log.write_chrome_trace(path));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("22 event(s) dropped"), std::string::npos) << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vkey::trace
