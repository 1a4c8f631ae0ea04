// Metrics registry: bucketing, concurrency, scoped timers, exporters.
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace vkey::metrics {
namespace {

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsDontLoseIncrements) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAndAccumulate) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Gauge, ConcurrentAddsSumExactlyWithIntegralDeltas) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
    });
  }
  for (auto& w : workers) w.join();
  // Every delta is exactly representable, so the CAS loop must not lose
  // any update regardless of interleaving.
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
}

TEST(Histogram, ObservationsLandInTheRightBuckets) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bound is inclusive)
  h.observe(5.0);    // <= 10
  h.observe(99.0);   // <= 100
  h.observe(1e6);    // overflow
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 5.0 + 99.0 + 1e6, 1e-9);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) h.observe(5.0);   // all in first bucket
  EXPECT_LE(h.quantile(0.5), 10.0);
  EXPECT_GE(h.quantile(0.5), 0.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  for (int i = 0; i < 50; ++i) h.observe(15.0);
  for (int i = 0; i < 50; ++i) h.observe(25.0);
  const double p75 = h.quantile(0.75);
  EXPECT_GE(p75, 20.0);
  EXPECT_LE(p75, 30.0);
}

TEST(Histogram, TracksMaxAndOverflowCount) {
  Histogram h({1.0, 10.0});
  EXPECT_DOUBLE_EQ(h.max(), 0.0);  // empty: neutral, not -inf
  h.observe(0.5);
  h.observe(250.0);  // beyond the last bound
  h.observe(90.0);   // also overflow
  EXPECT_EQ(h.overflow_count(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 250.0);
  h.reset();
  EXPECT_EQ(h.overflow_count(), 0u);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

// Regression: values beyond the last finite bound used to be silently
// folded into the top bucket's bound — a distribution sitting entirely in
// the overflow bucket reported p99 == bounds.back() no matter how far out
// the tail actually was.
TEST(Histogram, OverflowBucketQuantilesUseTheObservedMax) {
  Histogram h({1.0, 10.0});
  for (int i = 0; i < 100; ++i) h.observe(1000.0);
  // All mass is in the overflow bucket [10, max]; quantiles must move past
  // the last finite bound instead of clamping to it.
  EXPECT_GT(h.quantile(0.99), 10.0);
  EXPECT_LE(h.quantile(0.99), 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);  // p100 is the observed max

  // Mixed case: half in-range, half overflow — the median stays finite
  // while the tail quantile reaches into [10, max].
  Histogram m({1.0, 10.0});
  for (int i = 0; i < 50; ++i) m.observe(5.0);
  for (int i = 0; i < 50; ++i) m.observe(500.0);
  EXPECT_LE(m.quantile(0.5), 10.0);
  EXPECT_GT(m.quantile(0.99), 10.0);
  EXPECT_EQ(m.overflow_count(), 50u);
}

TEST(Gauge, TracksHighAndLowWatermarks) {
  Gauge g;
  // Unwritten gauges report neutral watermarks, not ±inf sentinels.
  EXPECT_DOUBLE_EQ(g.high_watermark(), 0.0);
  EXPECT_DOUBLE_EQ(g.low_watermark(), 0.0);
  g.set(5.0);
  g.set(-3.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.high_watermark(), 5.0);
  EXPECT_DOUBLE_EQ(g.low_watermark(), -3.0);
  g.add(10.0);  // accumulate path must maintain watermarks too
  EXPECT_DOUBLE_EQ(g.high_watermark(), 12.0);
  // Window boundary: watermarks re-arm to the live value, not to zero.
  g.reset_watermarks();
  EXPECT_DOUBLE_EQ(g.high_watermark(), 12.0);
  EXPECT_DOUBLE_EQ(g.low_watermark(), 12.0);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.low_watermark(), 1.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.high_watermark(), 0.0);
  EXPECT_DOUBLE_EQ(g.low_watermark(), 0.0);
}

TEST(Gauge, WatermarksUnderConcurrentWritesKeepTheExtremes) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g, t] {
      for (int i = 0; i < kPerThread; ++i) {
        g.set(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& w : workers) w.join();
  // The global extremes were each written by exactly one thread; the
  // monotone CAS must not lose them regardless of interleaving.
  EXPECT_DOUBLE_EQ(g.high_watermark(),
                   static_cast<double>(kThreads * kPerThread - 1));
  EXPECT_DOUBLE_EQ(g.low_watermark(), 0.0);
}

TEST(Histogram, RejectsEmptyOrUnsortedBounds) {
  EXPECT_THROW(Histogram({}), vkey::Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), vkey::Error);
}

TEST(Registry, FindOrCreateReturnsStableReferences) {
  Registry reg;
  Counter& a = reg.counter("test.frames");
  Counter& b = reg.counter("test.frames");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.counter("test.frames").value(), 3u);

  Histogram& h1 = reg.histogram("test.lat", {1.0, 2.0});
  Histogram& h2 = reg.histogram("test.lat", {5.0, 6.0, 7.0});
  EXPECT_EQ(&h1, &h2);  // original bounds win
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Registry, ResetZeroesValuesButKeepsRegistrations) {
  Registry reg;
  Counter& c = reg.counter("test.c");
  reg.gauge("test.g").set(7.0);
  reg.histogram("test.h", {1.0}).observe(0.5);
  c.add(9);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // same reference, zeroed
  EXPECT_DOUBLE_EQ(reg.gauge("test.g").value(), 0.0);
  EXPECT_EQ(reg.histogram("test.h").count(), 0u);
}

TEST(Registry, SnapshotIsSortedAndCompleteAndCsvMatches) {
  Registry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  reg.gauge("mid.gauge").set(3.5);
  reg.histogram("lat.ms", {1.0, 10.0}).observe(0.2);

  const json::Value snap = reg.snapshot();
  const auto& counters = snap.at("counters").as_object();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a.first");  // sorted by name
  EXPECT_EQ(counters[1].first, "z.last");
  const auto& g = snap.at("gauges").at("mid.gauge");
  EXPECT_DOUBLE_EQ(g.at("value").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(g.at("high").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(g.at("low").as_number(), 3.5);
  const auto& h = snap.at("histograms").at("lat.ms");
  EXPECT_DOUBLE_EQ(h.at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("overflow").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(h.at("max").as_number(), 0.2);

  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("counter,a.first,value,2"), std::string::npos);
  EXPECT_NE(csv.find("gauge,mid.gauge,value,3.5"), std::string::npos);
  EXPECT_NE(csv.find("gauge,mid.gauge,high,3.5"), std::string::npos);
  EXPECT_NE(csv.find("gauge,mid.gauge,low,3.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat.ms,count,1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat.ms,overflow,0"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat.ms,max,0.2"), std::string::npos);
}

TEST(Registry, CsvCarriesQuantileRowsPerHistogram) {
  Registry reg;
  Histogram& h = reg.histogram("stage.ms", {10.0, 20.0, 30.0});
  for (int i = 0; i < 50; ++i) h.observe(15.0);
  for (int i = 0; i < 50; ++i) h.observe(25.0);
  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("histogram,stage.ms,p50,"), std::string::npos);
  EXPECT_NE(csv.find("histogram,stage.ms,p90,"), std::string::npos);
  EXPECT_NE(csv.find("histogram,stage.ms,p99,"), std::string::npos);
  // The row values must be the histogram's own interpolated quantiles.
  EXPECT_NE(csv.find("histogram,stage.ms,p50," +
                     json::format_number(h.quantile(0.5))),
            std::string::npos);
  EXPECT_NE(csv.find("histogram,stage.ms,p99," +
                     json::format_number(h.quantile(0.99))),
            std::string::npos);
}

TEST(Registry, CsvEscapesDelimitersAndQuotesInNames) {
  Registry reg;
  reg.counter("lora.sf7,bw125").add(1);
  reg.gauge("rssi \"raw\" dBm").set(-92.0);
  reg.histogram("plain.name", {1.0}).observe(0.5);

  const std::string csv = reg.to_csv();
  // RFC 4180: the comma-bearing name is quoted so the column count holds.
  EXPECT_NE(csv.find("counter,\"lora.sf7,bw125\",value,1"),
            std::string::npos);
  // Inner quotes are doubled inside the quoted field.
  EXPECT_NE(csv.find("gauge,\"rssi \"\"raw\"\" dBm\",value,-92"),
            std::string::npos);
  // Names without delimiters stay unquoted.
  EXPECT_NE(csv.find("histogram,plain.name,count,1"), std::string::npos);

  // Every line still splits into exactly four columns when parsed with
  // quote awareness.
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t cols = 1;
    bool quoted = false;
    for (const char c : line) {
      if (c == '"') quoted = !quoted;
      else if (c == ',' && !quoted) ++cols;
    }
    EXPECT_FALSE(quoted) << line;
    EXPECT_EQ(cols, 4u) << line;
  }
}

TEST(EnabledSwitch, DisabledInstrumentsDropWrites) {
  Counter c;
  Gauge g;
  Histogram h({1.0});
  set_enabled(false);
  c.add(5);
  g.set(5.0);
  h.observe(0.5);
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ScopedTimer, ObservesIntoHistogramOnDestruction) {
  Histogram h(default_time_buckets_ms());
  {
    trace::ScopedTimer t(h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(ScopedTimer, StopIsIdempotentAndReturnsElapsed) {
  Histogram h(default_time_buckets_ms());
  trace::ScopedTimer t(h);
  const double first = t.stop();
  const double second = t.stop();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(second, 0.0);  // already stopped
  EXPECT_EQ(h.count(), 1u);  // destruction must not observe again
}

TEST(ScopedTimer, CustomNowFnMeasuresVirtualTime) {
  Histogram h({10.0, 100.0, 1000.0});
  double virtual_ms = 100.0;
  {
    trace::ScopedTimer t(h, [&virtual_ms] { return virtual_ms; });
    virtual_ms = 142.0;  // the "clock" advances 42 virtual ms
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_NEAR(h.sum(), 42.0, 1e-12);
}

TEST(ScopedTimer, DisabledMetricsSkipTheClockEntirely) {
  Histogram h({1.0});
  int clock_reads = 0;
  set_enabled(false);
  {
    trace::ScopedTimer t(h, [&clock_reads] {
      ++clock_reads;
      return 0.0;
    });
  }
  set_enabled(true);
  EXPECT_EQ(clock_reads, 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(TraceLog, RecordsSpansWhenEnabledAndBoundsCapacity) {
  trace::TraceLog& log = trace::TraceLog::global();
  log.clear();
  log.set_enabled(true);
  log.set_capacity(4);
  Histogram h({1.0});
  for (int i = 0; i < 6; ++i) {
    trace::ScopedTimer t(h, "span");
  }
  EXPECT_EQ(log.events().size(), 4u);
  EXPECT_EQ(log.dropped(), 2u);
  log.set_enabled(false);
  log.clear();
}

}  // namespace
}  // namespace vkey::metrics
