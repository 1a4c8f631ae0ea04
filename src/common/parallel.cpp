#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace vkey::parallel {

namespace {

// Registered once; afterwards each dispatch is one relaxed atomic op, the
// same budget as the rest of the metrics layer.
metrics::Counter& tasks_counter() {
  static metrics::Counter& c =
      metrics::Registry::global().counter("pipeline.parallel.tasks");
  return c;
}

metrics::Gauge& queue_depth_gauge() {
  static metrics::Gauge& g =
      metrics::Registry::global().gauge("parallel.pool.queue_depth");
  return g;
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t startup_default() {
  if (const char* env = std::getenv("VKEY_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<std::size_t>(v);
    }
  }
  return hardware_threads();
}

std::atomic<std::size_t>& default_threads_slot() {
  static std::atomic<std::size_t> v{startup_default()};
  return v;
}

}  // namespace

std::size_t default_threads() {
  return default_threads_slot().load(std::memory_order_relaxed);
}

void set_default_threads(std::size_t n) {
  default_threads_slot().store(n == 0 ? startup_default() : n,
                               std::memory_order_relaxed);
}

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool stop = false;

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || !queue.empty(); });
        if (stop && queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
        queue_depth_gauge().set(static_cast<double>(queue.size()));
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(new Impl()) {
  const std::size_t n = workers == 0 ? 1 : workers;
  impl_->workers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (auto& t : impl_->workers) t.join();
  delete impl_;
}

std::size_t ThreadPool::workers() const noexcept {
  return impl_->workers.size();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    VKEY_REQUIRE(!impl_->stop, "submit on a stopped pool");
    impl_->queue.push_back(std::move(task));
    queue_depth_gauge().set(static_cast<double>(impl_->queue.size()));
  }
  tasks_counter().add(1);
  impl_->cv.notify_one();
}

ThreadPool& ThreadPool::global() {
  // Never destroyed: worker threads must not outlive a destructed pool and
  // static teardown order across translation units is unknowable (same
  // pattern as metrics::Registry::global()).
  static ThreadPool* pool = [] {
    std::size_t n = hardware_threads();
    if (n < 2) n = 2;
    if (default_threads() > n) n = default_threads();
    return new ThreadPool(n);
  }();
  return *pool;
}

namespace detail {

/// One batch's chunk scheduling, shared by the caller and the lanes that
/// help it: indices are claimed in chunks from an atomic cursor, so
/// completion order is nondeterministic but harmless.
struct Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t active = 0;  // helper lanes inside the batch
  bool closed = false;     // joined: helpers starting later run nothing
  // Lowest observed throwing index wins, so a single failing index
  // propagates deterministically under any schedule.
  std::size_t err_index = 0;
  std::exception_ptr err;

  Batch(const std::function<void(std::size_t)>* f, std::size_t count,
        std::size_t lanes)
      : fn(f), n(count) {
    // Coarse enough to amortize the cursor, fine enough to balance lanes.
    grain = n / (lanes * 8) > 1 ? n / (lanes * 8) : 1;
  }

  void run_chunks() {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t begin =
          cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = begin + grain < n ? begin + grain : n;
      for (std::size_t i = begin; i < end; ++i) {
        try {
          (*fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!err || i < err_index) {
            err = std::current_exception();
            err_index = i;
          }
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  }

  /// A helper lane is done with the batch.
  void leave() {
    std::lock_guard<std::mutex> lock(mu);
    if (--active == 0) done_cv.notify_all();
  }

  /// Close the batch, wait for the helpers still inside it and take its
  /// exception (out of the batch, which a late helper may free).
  std::exception_ptr close_and_wait() {
    std::unique_lock<std::mutex> lock(mu);
    closed = true;
    done_cv.wait(lock, [&] { return active == 0; });
    return std::move(err);
  }
};

/// A parallel_for_async batch. It owns its function and is freed by the
/// last of its joiner and its helpers to let go, because a helper the pool
/// starts only after the join must still find it closed.
struct AsyncBatch {
  std::function<void(std::size_t)> owned;
  Batch batch;
  std::uint64_t ambient_parent;  // span open on the launching caller
  std::atomic<std::size_t> refs;

  AsyncBatch(std::function<void(std::size_t)> f, std::size_t n,
             std::size_t helpers)
      : owned(std::move(f)),
        batch(&owned, n, helpers),
        ambient_parent(trace::current_parent()),
        refs(helpers + 1) {}

  /// Body of a borrowed worker. Spans opened inside fn carry the helper's
  /// lane id and still parent under the span that was open on the caller
  /// when the batch launched (the submitting stage).
  void help(std::uint32_t lane) {
    {
      std::lock_guard<std::mutex> lock(batch.mu);
      if (batch.closed) return;
      ++batch.active;
    }
    {
      trace::LaneScope scope(lane, ambient_parent);
      batch.run_chunks();
    }
    batch.leave();
  }

  void release() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
};

}  // namespace detail

namespace {

/// Touch the pool instruments on every call, including the inline path:
/// which names exist in a metrics snapshot must depend only on the code
/// path taken, never on the lane count (CI byte-diffs snapshots between
/// --threads 1 and --threads 4).
void touch_pool_instruments() {
  tasks_counter();
  queue_depth_gauge();
}

/// Lanes a batch of n indices may use: `threads` (0 = default), at most n.
std::size_t lanes_for(std::size_t n, std::size_t threads) {
  const std::size_t lanes = threads == 0 ? default_threads() : threads;
  return lanes > n ? n : lanes;
}

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  touch_pool_instruments();
  std::size_t lanes = lanes_for(n, threads);
  if (lanes <= 1) {
    // The single-thread reference path: no pool, no atomics, pure loop.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  if (lanes > pool.workers() + 1) lanes = pool.workers() + 1;

  // Lives on this stack: every helper is counted active up front, so the
  // wait below outlasts them all.
  detail::Batch st(&fn, n, lanes);
  st.active = lanes - 1;
  // Lane annotation: spans opened inside fn on a borrowed worker carry the
  // helper's lane id and still parent under the span that was open on the
  // caller when the fan-out started (the submitting stage).
  const std::uint64_t ambient_parent = trace::current_parent();
  for (std::size_t h = 0; h + 1 < lanes; ++h) {
    pool.submit([&st, h, ambient_parent] {
      {
        trace::LaneScope lane(static_cast<std::uint32_t>(h + 1),
                              ambient_parent);
        st.run_chunks();
      }
      st.leave();
    });
  }
  st.run_chunks();  // the caller is a lane too (lane 0, ambient context)
  if (std::exception_ptr e = st.close_and_wait()) std::rethrow_exception(e);
}

AsyncFor::AsyncFor(AsyncFor&& other) noexcept
    : batch_(std::exchange(other.batch_, nullptr)),
      error_(std::exchange(other.error_, {})) {}

AsyncFor& AsyncFor::operator=(AsyncFor&& other) noexcept {
  if (this != &other) {
    join_dropping_error();
    batch_ = std::exchange(other.batch_, nullptr);
    error_ = std::exchange(other.error_, {});
  }
  return *this;
}

AsyncFor::~AsyncFor() { join_dropping_error(); }

void AsyncFor::join_dropping_error() noexcept {
  try {
    join();
  } catch (...) {
    // Documented: only an explicit join() reports the batch's exception.
  }
}

void AsyncFor::join() {
  if (detail::AsyncBatch* b = std::exchange(batch_, nullptr)) {
    {
      // The joiner drains in the launching caller's span context.
      trace::LaneScope scope(trace::current_lane(), b->ambient_parent);
      b->batch.run_chunks();
    }
    error_ = b->batch.close_and_wait();
    b->release();
  }
  if (error_) std::rethrow_exception(std::exchange(error_, {}));
}

AsyncFor parallel_for_async(std::size_t n,
                            std::function<void(std::size_t)> fn,
                            std::size_t threads) {
  touch_pool_instruments();
  AsyncFor handle;
  std::size_t lanes = lanes_for(n, threads);
  if (lanes <= 1) {
    // The single-lane reference runs the batch here, where the multi-lane
    // path launches it; a failure waits for join() as it would there.
    try {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    } catch (...) {
      handle.error_ = std::current_exception();
    }
    return handle;
  }
  ThreadPool& pool = ThreadPool::global();
  if (lanes > pool.workers()) lanes = pool.workers();
  handle.batch_ = new detail::AsyncBatch(std::move(fn), n, lanes);
  for (std::size_t h = 0; h < lanes; ++h) {
    // Sixteen trivially copyable bytes, which std::function stores inline:
    // launching a batch allocates nothing but the batch.
    pool.submit([b = handle.batch_, lane = static_cast<std::uint32_t>(h + 1)] {
      b->help(lane);
      b->release();
    });
  }
  return handle;
}

}  // namespace vkey::parallel
