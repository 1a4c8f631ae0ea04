#include "common/alloc_stats.h"

#include <atomic>

#include "common/metrics.h"

namespace vkey::alloc_stats {

namespace {

// constinit: operator new can fire before any static constructor runs, so
// the counters must be zero-initialized at load time, not at first use.
constinit std::atomic<std::uint64_t> g_allocations{0};
constinit std::atomic<std::uint64_t> g_frees{0};
constinit std::atomic<std::uint64_t> g_bytes{0};
constinit std::atomic<bool> g_installed{false};

// Trivially-initialized thread_local: no allocating guard, safe to read
// from inside operator new itself.
thread_local bool t_paused = false;

}  // namespace

bool hooks_installed() noexcept {
  return g_installed.load(std::memory_order_relaxed);
}

Totals totals() noexcept {
  Totals t;
  t.allocations = g_allocations.load(std::memory_order_relaxed);
  t.frees = g_frees.load(std::memory_order_relaxed);
  t.bytes = g_bytes.load(std::memory_order_relaxed);
  return t;
}

std::int64_t live_blocks() noexcept {
  return static_cast<std::int64_t>(
             g_allocations.load(std::memory_order_relaxed)) -
         static_cast<std::int64_t>(g_frees.load(std::memory_order_relaxed));
}

void on_alloc(std::size_t bytes) noexcept {
  g_installed.store(true, std::memory_order_relaxed);
  if (t_paused) return;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void on_free() noexcept {
  if (t_paused) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
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
  const Totals t = totals();
  allocations.set(static_cast<double>(t.allocations));
  frees.set(static_cast<double>(t.frees));
  bytes.set(static_cast<double>(t.bytes));
  live.set(static_cast<double>(live_blocks()));
}

}  // namespace vkey::alloc_stats
