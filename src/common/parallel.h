// Deterministic parallel execution layer.
//
// A small fixed-size thread pool plus two index-space helpers —
// parallel_for(n, fn) and parallel_map(items, fn) — whose results are
// guaranteed bit-identical regardless of the thread count. The contract
// that makes this possible (see DESIGN.md "Parallel execution &
// determinism contract"):
//
//   * Per-index purity. The worker function for index i may read shared
//     immutable state and write only to state owned by index i (its slot
//     in a pre-sized output vector). It must never touch a shared Rng —
//     stochastic work derives a private stream per index via
//     hash_combine64(seed, i).
//   * Ordered reduction. The helpers only schedule; any floating-point or
//     order-sensitive combination of the per-index results happens on the
//     calling thread, in index order, after the join. parallel_map returns
//     the results indexed by input position for exactly this reason.
//   * threads == 1 is the reference. A single-thread request (or n <= 1)
//     runs inline on the caller with no pool involvement; the parallel
//     path must reproduce it bit for bit, which the determinism suite and
//     the CI snapshot diff enforce.
//
// Scheduling is work-sharing: a call borrows up to threads-1 workers from
// the process-wide pool and participates itself; chunks are claimed from an
// atomic cursor, so completion order is nondeterministic but harmless. An
// exception thrown by the worker function is rethrown on the caller; when
// several indices throw, the lowest observed index wins. parallel_for_async
// is the same batch with the caller's participation deferred to join(): it
// lets one thread overlap its own serial work with a batch on the pool
// (the gateway's look-ahead, DESIGN.md §13).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace vkey::parallel {

/// Process-default worker count: the VKEY_THREADS environment variable when
/// set to a positive integer, otherwise std::thread::hardware_concurrency()
/// (at least 1).
std::size_t default_threads();

/// Override the process default (benches plumb --threads N through this
/// before the first parallel call). n == 0 restores the startup value.
void set_default_threads(std::size_t n);

/// Fixed-size worker pool. Most code never names it: parallel_for borrows
/// workers from the global() instance. Constructing a private pool is only
/// useful in tests that exercise the pool itself.
class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const noexcept;

  /// Enqueue one task. Tasks must not block on other tasks' completion
  /// (the pool does not grow; parallel_for's join runs on the caller).
  void submit(std::function<void()> task);

  /// The process-wide pool, created on first use and never destroyed.
  /// Sized max(2, hardware_concurrency, default_threads()) so that even a
  /// single-core host genuinely exercises the concurrent path.
  static ThreadPool& global();

 private:
  struct Impl;
  Impl* impl_;  // never null; intentionally leaked resources are joined in ~
};

/// Run fn(i) for every i in [0, n), using up to `threads` execution lanes
/// (0 = default_threads(); 1 = inline sequential reference). Blocks until
/// every index completed; rethrows the lowest-index exception, if any.
/// fn must obey the per-index purity rule above.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

namespace detail {
struct AsyncBatch;
}  // namespace detail

/// Join handle of a parallel_for_async batch. An empty (default, moved-from
/// or joined) handle joins as a no-op.
class AsyncFor {
 public:
  AsyncFor() noexcept = default;
  AsyncFor(AsyncFor&& other) noexcept;
  /// Joins the batch this handle held first (dropping its exception).
  AsyncFor& operator=(AsyncFor&& other) noexcept;
  AsyncFor(const AsyncFor&) = delete;
  AsyncFor& operator=(const AsyncFor&) = delete;
  /// Joins; an exception the batch threw is dropped, so call join() to see
  /// it.
  ~AsyncFor();

  /// Help drain the batch's remaining chunks on the calling thread, wait
  /// for any lane still inside a chunk, then rethrow the lowest observed
  /// throwing index's exception. Helpers the pool has not started yet are
  /// not waited for (they find the batch closed and run nothing), so join
  /// completes even while every worker is busy.
  void join();

 private:
  friend AsyncFor parallel_for_async(std::size_t n,
                                     std::function<void(std::size_t)> fn,
                                     std::size_t threads);
  void join_dropping_error() noexcept;

  detail::AsyncBatch* batch_ = nullptr;  // multi-lane batch in flight
  std::exception_ptr error_;  // the batch's failure, until join() throws it
};

/// Asynchronous parallel_for: launch fn(i) over [0, n) and return at once.
/// The batch may occupy up to `threads` pool lanes (0 = default_threads())
/// while the caller does other work; join() (or the handle's destructor)
/// completes it. With one lane (or n <= 1) the whole range runs inline
/// here, before returning, so a caller that joins at fixed points observes
/// the same state at every lane count. Same per-index purity, lowest-index
/// exception and pool-instrument rules as parallel_for; the caller must
/// not touch state the batch writes until it has joined.
AsyncFor parallel_for_async(std::size_t n,
                            std::function<void(std::size_t)> fn,
                            std::size_t threads = 0);

/// Map i -> fn(i) over [0, n) into a pre-sized vector (results in index
/// order; R must be default-constructible). Same contract as parallel_for.
template <typename Fn>
auto parallel_map_n(std::size_t n, Fn&& fn, std::size_t threads = 0)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{}))>> {
  std::vector<std::decay_t<decltype(fn(std::size_t{}))>> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(i); }, threads);
  return out;
}

/// Map item -> fn(item, index) over a vector, preserving input order.
template <typename T, typename Fn>
auto parallel_map(const std::vector<T>& items, Fn&& fn,
                  std::size_t threads = 0)
    -> std::vector<std::decay_t<decltype(fn(std::declval<const T&>(),
                                            std::size_t{}))>> {
  std::vector<std::decay_t<decltype(fn(std::declval<const T&>(),
                                       std::size_t{}))>>
      out(items.size());
  parallel_for(
      items.size(), [&](std::size_t i) { out[i] = fn(items[i], i); },
      threads);
  return out;
}

}  // namespace vkey::parallel
