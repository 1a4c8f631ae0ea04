// TSan-targeted stress tests for the concurrent observability primitives.
//
// The metrics registry and the bounded trace log are the only components in
// the tree that are written from several threads at once (a bench thread, a
// timer firing in protocol code, an exporter taking a snapshot). These tests
// hammer them with enough contention that ThreadSanitizer — the CI `tsan`
// job builds with -DVKEY_SANITIZE=thread — can see every ordering it cares
// about, and then assert *exact* final totals: relaxed atomics may reorder,
// but no increment is allowed to vanish.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_stats.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace vkey::metrics {
namespace {

// ≥4 threads / ≥100k ops per instrument family, per the tooling issue.
constexpr int kThreads = 8;
constexpr int kOpsPerThread = 25000;  // 8 * 25k = 200k ops per test

TEST(ConcurrencyStress, CounterTotalsAreExactUnderContention) {
  Counter c;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, t] {
      // Mix add(1) and wide adds so the total is sensitive to lost updates
      // of either flavor.
      for (int i = 0; i < kOpsPerThread; ++i) {
        c.add(i % 2 == 0 ? 1 : static_cast<std::uint64_t>(t) + 2);
      }
    });
  }
  for (auto& w : workers) w.join();

  std::uint64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      expected += i % 2 == 0 ? 1 : static_cast<std::uint64_t>(t) + 2;
    }
  }
  EXPECT_EQ(c.value(), expected);
}

TEST(ConcurrencyStress, GaugeAccumulateIsExactWithIntegralDeltas) {
  // Integral deltas below 2^53 are exactly representable in a double, so
  // the CAS accumulate loop must produce a bit-exact total.
  Gauge g;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g] {
      for (int i = 0; i < kOpsPerThread; ++i) g.add(2.0);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(g.value(), 2.0 * kThreads * kOpsPerThread);
}

TEST(ConcurrencyStress, HistogramCountSumAndBucketsAreExact) {
  Histogram h(std::vector<double>{1.0, 2.0, 4.0, 8.0});
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Cycle deterministically through all five buckets (incl. overflow).
        h.observe(static_cast<double>(i % 5) * 2.0);  // 0,2,4,6,8
      }
    });
  }
  for (auto& w : workers) w.join();

  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(h.count(), total);

  // Per-thread value pattern: 0→[≤1], 2→[≤2], 4→[≤4], 6→[≤8], 8→[≤8].
  const std::uint64_t per_value = total / 5;
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 5u);
  EXPECT_EQ(buckets[0], per_value);      // 0.0
  EXPECT_EQ(buckets[1], per_value);      // 2.0
  EXPECT_EQ(buckets[2], per_value);      // 4.0
  EXPECT_EQ(buckets[3], 2 * per_value);  // 6.0 and 8.0
  EXPECT_EQ(buckets[4], 0u);             // nothing above 8
  // Sum of 0+2+4+6+8 per 5-cycle, integral => exact in a double.
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(per_value) * 20.0);
}

TEST(ConcurrencyStress, RegistryFindOrCreateRacesYieldOneInstrument) {
  // All threads register the same names while hammering them; references
  // must all alias one instrument per name and no add may be lost.
  Registry& reg = Registry::global();
  const std::string name = "stress.registry.counter";
  reg.counter(name).reset();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, &name] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Re-look up every iteration: exercises the registry lock against
        // concurrent writers, not just the Counter atomics.
        reg.counter(name).add();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter(name).value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST(ConcurrencyStress, SnapshotWhileWritingIsInternallyConsistent) {
  Registry& reg = Registry::global();
  const std::string name = "stress.snapshot.counter";
  reg.counter(name).reset();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, &name] {
      for (int i = 0; i < kOpsPerThread; ++i) reg.counter(name).add();
    });
  }
  std::thread reader([&reg, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)reg.snapshot();
      (void)reg.to_csv();
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(reg.counter(name).value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST(ConcurrencyStress, TraceLogWraparoundUnderContention) {
  trace::TraceLog& log = trace::TraceLog::global();
  const bool was_enabled = log.enabled();
  log.clear();
  log.set_capacity(64);  // far below the write volume => constant wraparound
  log.set_enabled(true);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log, t] {
      trace::Event ev;
      ev.name = "w";
      ev.lane = static_cast<std::uint32_t>(t);
      ev.dur_ms = 1.0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        ev.id = 0;  // record() hands out a fresh id
        ev.t_ms = static_cast<double>(i);
        log.record(ev);
      }
    });
  }
  // Concurrent readers + one thread flapping the enabled switch (this is
  // what caught the original non-atomic `enabled_` flag under TSan).
  std::atomic<bool> stop{false};
  std::uint64_t enabled_reads = 0;  // consumed below so the load survives -O2
  std::thread reader([&log, &stop, &enabled_reads] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (log.enabled()) ++enabled_reads;  // races with flapper unless atomic
      (void)log.events();
      (void)log.chrome_trace();
      (void)log.dropped();
    }
  });
  std::thread flapper([&log, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      log.set_enabled(false);
      log.set_enabled(true);
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  flapper.join();

  // Every record either sits in the buffer or was counted as dropped.
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(log.events().size() + log.dropped(), total);
  EXPECT_LE(log.events().size(), 64u);
  EXPECT_GE(enabled_reads, 0u);

  log.set_enabled(was_enabled);
  log.set_capacity(1 << 16);
  log.clear();
}

TEST(ConcurrencyStress, ScopedTimersFromManyThreadsObserveOnce) {
  Registry& reg = Registry::global();
  Histogram& h = reg.histogram("stress.timer.ms");
  h.reset();
  constexpr int kTimersPerThread = 12500;  // 8 * 12.5k = 100k timers

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      double fake_ms = 0.0;
      trace::NowFn now = [&fake_ms] { return fake_ms; };
      for (int i = 0; i < kTimersPerThread; ++i) {
        trace::ScopedTimer timer(h, now);
        fake_ms += 1.0;
        timer.stop();
        timer.stop();  // idempotent: must not double-observe
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * kTimersPerThread);
  EXPECT_DOUBLE_EQ(h.sum(),
                   static_cast<double>(kThreads) * kTimersPerThread);
}

TEST(DefaultClock, OverrideRedirectsTimersAndRestores) {
  Registry& reg = Registry::global();
  Histogram& h = reg.histogram("stress.defaultclock.ms");
  h.reset();

  double virtual_ms = 100.0;
  trace::set_default_now([&virtual_ms] { return virtual_ms; });
  {
    trace::ScopedTimer timer(h);  // no explicit NowFn: uses the override
    virtual_ms += 7.0;
  }
  trace::set_default_now({});  // restore the wall clock

  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
  // Back on the wall clock: a timer around no work observes ~0, not -100.
  {
    trace::ScopedTimer timer(h);
  }
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.sum(), 7.0);
}

TEST(DefaultClock, ToggleWhileTimersRunIsRaceFreeAndNeverMixesTimeBases) {
  // The stored NowFn is behind a mutex and each timer pins a snapshot of it
  // at start, so flipping the override while timers are mid-flight must be
  // (a) TSan-clean and (b) unable to produce a mixed-base elapsed reading.
  // The virtual clock here is pinned at +1e9 ms, far from the wall clock's
  // small monotonic values: a timer that started on one base and stopped on
  // the other would observe an elapsed time of ~±1e9 ms.
  Registry& reg = Registry::global();
  Histogram& h = reg.histogram("stress.defaultclock.toggle.ms");
  h.reset();

  constexpr int kTimers = 20000;
  std::atomic<bool> stop{false};
  std::thread toggler([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      trace::set_default_now([] { return 1e9; });
      trace::set_default_now({});
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kTimers / kThreads; ++i) {
        trace::ScopedTimer timer(h);  // default clock: racing the toggler
        const double elapsed = timer.stop();
        // Same base at start and stop: either ~0 wall ms or exactly 0
        // virtual ms — never a cross-base difference of ~1e9.
        EXPECT_GE(elapsed, 0.0);
        EXPECT_LT(elapsed, 1e6);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  toggler.join();
  trace::set_default_now({});  // leave the wall clock installed

  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * (kTimers / kThreads));
}

TEST(ConcurrencyStress, AllocStatsCountsAreExactAcrossThreads) {
  // This binary does not link vkey_alloc_hooks, so the counters move only
  // through the direct reporting API — which makes the expected totals
  // exact, while TSan watches the relaxed atomics and the thread-local
  // pause flag for races.
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 20'000;
  const alloc_stats::PhaseScope phase;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        alloc_stats::on_alloc(16);
        if (i % 4 == 0) {
          // A paused stretch on this thread must hide exactly its own
          // events and nobody else's.
          alloc_stats::PauseScope pause;
          alloc_stats::on_alloc(1 << 20);
          alloc_stats::on_free();
        }
        alloc_stats::on_free();
      }
    });
  }
  for (auto& w : workers) w.join();

  const alloc_stats::Totals d = phase.delta();
  const auto expected =
      static_cast<std::uint64_t>(kThreads) * kEventsPerThread;
  EXPECT_EQ(d.allocations, expected);
  EXPECT_EQ(d.frees, expected);
  EXPECT_EQ(d.bytes, expected * 16);
  EXPECT_EQ(phase.live_delta(), 0);
  EXPECT_FALSE(alloc_stats::paused());
}

TEST(ConcurrencyStress, AllocStatsKeepTheCountsOfExitedThreads) {
  // A thread's counter slot outlives it: whatever it reported before it
  // exited stays in the totals.
  const alloc_stats::PhaseScope phase;
  std::thread worker([] {
    for (int i = 0; i < 1000; ++i) alloc_stats::on_alloc(8);
    for (int i = 0; i < 400; ++i) alloc_stats::on_free();
  });
  worker.join();
  const alloc_stats::Totals d = phase.delta();
  EXPECT_EQ(d.allocations, 1000u);
  EXPECT_EQ(d.frees, 400u);
  EXPECT_EQ(d.bytes, 8000u);
  EXPECT_EQ(phase.live_delta(), 600);
}

TEST(ConcurrencyStress, AllocStatsOverflowSlotStaysExact) {
  // More threads than the 256-slot array holds, started in waves of at
  // most kThreads alive and each joined before the next wave: the later
  // ones share the overflow slot (read-modify-writes), and the totals must
  // stay exact across every slot.
  constexpr int kTotalThreads = 320;
  constexpr int kEvents = 2'000;
  const alloc_stats::PhaseScope phase;
  for (int started = 0; started < kTotalThreads; started += kThreads) {
    std::vector<std::thread> wave;
    for (int t = 0; t < kThreads; ++t) {
      wave.emplace_back([] {
        for (int i = 0; i < kEvents; ++i) {
          alloc_stats::on_alloc(32);
          alloc_stats::on_free();
        }
      });
    }
    for (auto& w : wave) w.join();
  }
  const alloc_stats::Totals d = phase.delta();
  const auto expected = static_cast<std::uint64_t>(kTotalThreads) * kEvents;
  EXPECT_EQ(d.allocations, expected);
  EXPECT_EQ(d.frees, expected);
  EXPECT_EQ(d.bytes, expected * 32);
  EXPECT_EQ(phase.live_delta(), 0);
  // The spill is reported.
  EXPECT_GE(alloc_stats::overflow_threads(),
            static_cast<std::size_t>(kTotalThreads) - 256);
}

}  // namespace
}  // namespace vkey::metrics
