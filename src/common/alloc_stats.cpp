#include "common/alloc_stats.h"

#include <algorithm>
#include <atomic>

#include "common/metrics.h"

namespace vkey::alloc_stats {

namespace {

// One cache line of counters per thread. A slot's owner thread is its only
// writer, so it bumps the counters with a relaxed load and store (no locked
// read-modify-write), and no two lanes of the pool write the same line:
// operator new runs on every lane, and three shared atomics bounced one
// line between all of them. Readers sum the slots.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocations{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> bytes{0};
};

// Slots are handed out in thread start order and never reused, so the
// counts of a thread that has exited stay in the totals. Threads beyond
// kSlots share the overflow slot, which uses read-modify-writes. The pool
// is sized to the hardware threads, so 256 slots (16 KiB) keep every lane
// of a 256-thread host in its own slot, less what threads started before
// the pool used; overflow_threads() reports any spill.
constexpr std::size_t kSlots = 256;

// constinit: operator new can fire before any static constructor runs, so
// the counters must be zero-initialized at load time, not at first use.
constinit Slot g_slots[kSlots];
constinit Slot g_overflow;
constinit std::atomic<std::size_t> g_next_slot{0};
constinit std::atomic<bool> g_installed{false};

// Trivially-initialized thread_locals: no allocating guard, safe to read
// from inside operator new itself.
thread_local bool t_paused = false;
thread_local Slot* t_slot = nullptr;

Slot& own_slot() noexcept {
  if (t_slot == nullptr) {
    const std::size_t i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = i < kSlots ? &g_slots[i] : &g_overflow;
  }
  return *t_slot;
}

void bump(const Slot& slot, std::atomic<std::uint64_t>& counter,
          std::uint64_t v) noexcept {
  if (&slot == &g_overflow) {
    counter.fetch_add(v, std::memory_order_relaxed);
  } else {
    counter.store(counter.load(std::memory_order_relaxed) + v,
                  std::memory_order_relaxed);
  }
}

}  // namespace

bool hooks_installed() noexcept {
  return g_installed.load(std::memory_order_relaxed);
}

Totals totals() noexcept {
  Totals t;
  const auto add = [&t](const Slot& s) {
    t.allocations += s.allocations.load(std::memory_order_relaxed);
    t.frees += s.frees.load(std::memory_order_relaxed);
    t.bytes += s.bytes.load(std::memory_order_relaxed);
  };
  // Only claimed slots can be nonzero; a thread that claimed one after
  // this load has reported nothing this reader was ordered after.
  const std::size_t used = std::min(
      g_next_slot.load(std::memory_order_relaxed), kSlots);
  for (std::size_t i = 0; i < used; ++i) add(g_slots[i]);
  add(g_overflow);
  return t;
}

std::size_t overflow_threads() noexcept {
  const std::size_t claimed = g_next_slot.load(std::memory_order_relaxed);
  return claimed > kSlots ? claimed - kSlots : 0;
}

std::int64_t live_blocks() noexcept {
  const Totals t = totals();
  return static_cast<std::int64_t>(t.allocations) -
         static_cast<std::int64_t>(t.frees);
}

void on_alloc(std::size_t bytes) noexcept {
  // Read first: a store on every allocation would keep the flag's line
  // bouncing between lanes after the first one.
  if (!g_installed.load(std::memory_order_relaxed)) {
    g_installed.store(true, std::memory_order_relaxed);
  }
  if (t_paused) return;
  Slot& s = own_slot();
  bump(s, s.allocations, 1);
  bump(s, s.bytes, bytes);
}

void on_free() noexcept {
  if (t_paused) return;
  Slot& s = own_slot();
  bump(s, s.frees, 1);
}

bool paused() noexcept { return t_paused; }

PauseScope::PauseScope() noexcept : prev_(t_paused) { t_paused = true; }
PauseScope::~PauseScope() { t_paused = prev_; }

PhaseScope::PhaseScope() noexcept
    : start_(totals()), live_start_(live_blocks()) {}

Totals PhaseScope::delta() const noexcept {
  const Totals now = totals();
  Totals d;
  d.allocations = now.allocations - start_.allocations;
  d.frees = now.frees - start_.frees;
  d.bytes = now.bytes - start_.bytes;
  return d;
}

std::int64_t PhaseScope::live_delta() const noexcept {
  return live_blocks() - live_start_;
}

void publish_metrics() {
  static metrics::Registry& reg = metrics::Registry::global();
  static metrics::Gauge& allocations = reg.gauge("alloc.allocations");
  static metrics::Gauge& frees = reg.gauge("alloc.frees");
  static metrics::Gauge& bytes = reg.gauge("alloc.bytes");
  static metrics::Gauge& live = reg.gauge("alloc.live_blocks");
  static metrics::Gauge& overflow = reg.gauge("alloc.overflow_threads");
  const Totals t = totals();
  allocations.set(static_cast<double>(t.allocations));
  frees.set(static_cast<double>(t.frees));
  bytes.set(static_cast<double>(t.bytes));
  live.set(static_cast<double>(live_blocks()));
  overflow.set(static_cast<double>(overflow_threads()));
}

}  // namespace vkey::alloc_stats
