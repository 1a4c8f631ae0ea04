#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace vkey::trace {

double wall_now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

namespace {

// Process-default time source. Guarded by a mutex rather than an atomic
// because NowFn is a std::function (multi-word, cannot be swapped
// atomically); every reader copies the function under the lock and calls
// the copy outside it, so set_default_now() can never free a NowFn out
// from under a concurrent caller. Timers additionally pin their copy once
// at start, so a mid-span toggle cannot mix two time bases in one
// measurement (the TSan stress test toggles while timers run).
std::mutex default_now_mu;
NowFn default_now_fn;  // empty -> wall clock

// Per-thread ambient span context. `parent` is the innermost open span on
// this thread (0 = none); `lane` is the execution-lane id (0 = a calling
// thread, 1..N-1 = borrowed pool workers, installed via LaneScope).
struct Ctx {
  std::uint64_t parent = 0;
  std::uint32_t lane = 0;
};

thread_local Ctx tls_ctx;

}  // namespace

void set_default_now(NowFn now) {
  std::lock_guard<std::mutex> lock(default_now_mu);
  default_now_fn = std::move(now);
}

NowFn default_now_snapshot() {
  std::lock_guard<std::mutex> lock(default_now_mu);
  return default_now_fn;
}

double default_now_ms() {
  NowFn fn = default_now_snapshot();
  return fn ? fn() : wall_now_ms();
}

std::string to_string(Domain d) {
  return d == Domain::kVirtual ? "virtual" : "wall";
}

json::Value Attr::to_json() const {
  switch (kind) {
    case Kind::kInt:
      return json::Value(i);
    case Kind::kDouble:
      return json::Value(d);
    case Kind::kString:
      break;
  }
  return json::Value(s);
}

std::uint64_t current_parent() noexcept { return tls_ctx.parent; }

std::uint32_t current_lane() noexcept { return tls_ctx.lane; }

LaneScope::LaneScope(std::uint32_t lane, std::uint64_t ambient_parent) noexcept
    : prev_lane_(tls_ctx.lane), prev_parent_(tls_ctx.parent) {
  tls_ctx.lane = lane;
  tls_ctx.parent = ambient_parent;
}

LaneScope::~LaneScope() {
  tls_ctx.lane = prev_lane_;
  tls_ctx.parent = prev_parent_;
}

TraceLog& TraceLog::global() {
  static TraceLog* log = new TraceLog();
  return *log;
}

TraceLog::TraceLog() {
  const char* env = std::getenv("VKEY_TRACE");
  enabled_ = env != nullptr && (std::strcmp(env, "on") == 0 ||
                                std::strcmp(env, "1") == 0 ||
                                std::strcmp(env, "true") == 0);
}

void TraceLog::set_capacity(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  // Linearize survivors (newest `n`) into a fresh buffer so the ring
  // invariant — growing phase has head_ == 0 and ring_.size() == count_ —
  // holds again after any shrink/grow.
  const std::size_t keep = count_ < n ? count_ : n;
  const std::size_t skip = count_ - keep;
  dropped_ += skip;
  std::vector<Span> lin;
  lin.reserve(keep);
  for (std::size_t k = skip; k < count_; ++k) {
    lin.push_back(std::move(ring_[(head_ + k) % ring_.size()]));
  }
  ring_ = std::move(lin);
  head_ = 0;
  count_ = keep;
  capacity_ = n;
}

void TraceLog::push_locked(Span&& span) {
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (count_ < capacity_) {
    ring_.push_back(std::move(span));
    ++count_;
  } else {
    ring_[head_] = std::move(span);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
}

void TraceLog::record(Span span) {
  if (span.id == 0) span.id = next_id();
  std::lock_guard<std::mutex> lock(mu_);
  push_locked(std::move(span));
}

void TraceLog::record(const std::string& name, double start_ms,
                      double duration_ms) {
  Span s;
  s.name = name;
  s.start_ms = start_ms;
  s.duration_ms = duration_ms;
  s.id = next_id();
  s.parent = tls_ctx.parent;
  s.lane = tls_ctx.lane;
  std::lock_guard<std::mutex> lock(mu_);
  push_locked(std::move(s));
}

void TraceLog::instant(std::string name, double t_ms, Domain domain,
                       std::vector<Attr> attrs) {
  if (!enabled()) return;
  Span s;
  s.name = std::move(name);
  s.start_ms = t_ms;
  s.id = next_id();
  s.parent = tls_ctx.parent;
  s.lane = tls_ctx.lane;
  s.domain = domain;
  s.instant = true;
  s.attrs = std::move(attrs);
  std::lock_guard<std::mutex> lock(mu_);
  push_locked(std::move(s));
}

std::vector<Span> TraceLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.reserve(count_);
  for (std::size_t k = 0; k < count_; ++k) {
    out.push_back(ring_[(head_ + k) % ring_.size()]);
  }
  return out;
}

std::size_t TraceLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
}

json::Value TraceLog::snapshot() const {
  const std::vector<Span> all = spans();
  json::Value root = json::Value::object();
  json::Value arr = json::Value::array();
  for (const Span& s : all) {
    json::Value e = json::Value::object();
    e.set("name", json::Value(s.name));
    e.set("start_ms", json::Value(s.start_ms));
    e.set("dur_ms", json::Value(s.duration_ms));
    e.set("id", json::Value(s.id));
    e.set("parent", json::Value(s.parent));
    e.set("lane", json::Value(s.lane));
    e.set("domain", json::Value(to_string(s.domain)));
    if (s.instant) e.set("instant", json::Value(true));
    if (!s.attrs.empty()) {
      json::Value a = json::Value::object();
      for (const Attr& at : s.attrs) a.set(at.key, at.to_json());
      e.set("attrs", std::move(a));
    }
    arr.push_back(std::move(e));
  }
  root.set("spans", std::move(arr));
  root.set("dropped", json::Value(dropped()));
  return root;
}

json::Value TraceLog::chrome_trace(bool virtual_only) const {
  std::vector<Span> all;
  std::size_t dropped_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(count_);
    for (std::size_t k = 0; k < count_; ++k) {
      all.push_back(ring_[(head_ + k) % ring_.size()]);
    }
    dropped_count = dropped_;
  }
  if (virtual_only) {
    std::erase_if(all,
                  [](const Span& s) { return s.domain != Domain::kVirtual; });
  }
  // Canonical order: (start_ms, id). Ids are handed out in start order, so
  // this is a total order independent of the stop/record interleaving —
  // the property that makes a virtual-only export byte-identical across
  // worker-lane counts.
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    if (a.start_ms != b.start_ms) return a.start_ms < b.start_ms;
    return a.id < b.id;
  });
  // Remap process-unique ids to dense indices so the export never leaks
  // how many spans other runs (or the wall domain) consumed.
  std::unordered_map<std::uint64_t, std::size_t> dense;
  dense.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) dense.emplace(all[i].id, i);

  json::Value events = json::Value::array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    json::Value e = json::Value::object();
    e.set("name", json::Value(s.name));
    e.set("cat", json::Value(to_string(s.domain)));
    e.set("ph", json::Value(s.instant ? "i" : "X"));
    e.set("ts", json::Value(s.start_ms * 1000.0));  // trace-event ts is µs
    if (!s.instant) e.set("dur", json::Value(s.duration_ms * 1000.0));
    e.set("pid", json::Value(0));
    e.set("tid", json::Value(s.lane));
    if (s.instant) e.set("s", json::Value("t"));
    json::Value args = json::Value::object();
    args.set("id", json::Value(i));
    // A parent evicted by the ring (or filtered with the wall domain) is
    // simply absent: the span exports as a root rather than dangling.
    const auto it = s.parent != 0 ? dense.find(s.parent) : dense.end();
    if (it != dense.end()) args.set("parent", json::Value(it->second));
    for (const Attr& at : s.attrs) args.set(at.key, at.to_json());
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }

  json::Value root = json::Value::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", json::Value("ms"));
  json::Value other = json::Value::object();
  other.set("dropped", json::Value(dropped_count));
  root.set("otherData", std::move(other));
  return root;
}

bool TraceLog::write_chrome_trace(const std::string& path,
                                  bool virtual_only) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "trace: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << chrome_trace(virtual_only).dump(0) << '\n';
  return out.good();
}

ScopedTimer::ScopedTimer(metrics::Histogram& hist, std::string_view name)
    : hist_(&hist) {
  begin(name, /*explicit_clock=*/false);
}

ScopedTimer::ScopedTimer(metrics::Histogram& hist, NowFn now,
                         std::string_view name)
    : hist_(&hist), now_(std::move(now)) {
  begin(name, /*explicit_clock=*/static_cast<bool>(now_));
}

void ScopedTimer::begin(std::string_view name, bool explicit_clock) {
  if (!metrics::enabled()) return;  // no clock read, no allocation
  if (explicit_clock) {
    // Every explicit NowFn in this tree is a SimClock (or test) virtual
    // time base; wall-clock callers use the default clock.
    domain_ = Domain::kVirtual;
  } else {
    // Pin the default override once so a concurrent set_default_now()
    // cannot change the time base between start and stop.
    now_ = default_now_snapshot();
    domain_ = now_ ? Domain::kVirtual : Domain::kWall;
  }
  start_ms_ = now_ ? now_() : wall_now_ms();
  running_ = true;
  TraceLog& log = TraceLog::global();
  if (!name.empty() && log.enabled()) {
    id_ = log.next_id();
    name_.assign(name);
    lane_ = tls_ctx.lane;
    prev_parent_ = tls_ctx.parent;
    tls_ctx.parent = id_;  // children opened in this scope nest under us
  }
}

double ScopedTimer::stop() {
  if (!running_) return 0.0;
  running_ = false;
  const double elapsed = (now_ ? now_() : wall_now_ms()) - start_ms_;
  hist_->observe(elapsed);
  if (id_ != 0) {
    tls_ctx.parent = prev_parent_;
    TraceLog& log = TraceLog::global();
    if (log.enabled()) {
      Span s;
      s.name = std::move(name_);
      s.start_ms = start_ms_;
      s.duration_ms = elapsed;
      s.id = id_;
      s.parent = prev_parent_;
      s.lane = lane_;
      s.domain = domain_;
      s.attrs = std::move(attrs_);
      log.record(std::move(s));
    }
  }
  return elapsed;
}

ScopedTimer::~ScopedTimer() { stop(); }

}  // namespace vkey::trace
