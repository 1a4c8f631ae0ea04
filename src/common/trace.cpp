#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "common/error.h"

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

// Snapshot of the installed override (empty when the wall clock is the
// default). Timers pin this at start so a concurrent set_default_now()
// cannot change the time base mid-span.
NowFn default_now_snapshot() {
  std::lock_guard<std::mutex> lock(default_now_mu);
  return default_now_fn;
}

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

double default_now_ms() {
  NowFn fn = default_now_snapshot();
  return fn ? fn() : wall_now_ms();
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

void EventRing::push(const Event& ev) {
  if (buf_.size() < capacity_) {
    buf_.push_back(ev);
    return;
  }
  ++dropped_;
  if (capacity_ == 0) return;
  buf_[head_] = ev;
  head_ = (head_ + 1) % capacity_;
}

void EventRing::set_capacity(std::size_t n) {
  // Linearize the newest `n` survivors so the ring invariant — a growing
  // ring has head_ == 0 — holds again after any shrink or grow.
  const std::vector<Event> all = events();
  const std::size_t skip = all.size() - std::min(all.size(), n);
  buf_.assign(all.begin() + static_cast<std::ptrdiff_t>(skip), all.end());
  dropped_ += skip;
  head_ = 0;
  capacity_ = n;
}

void EventRing::clear() noexcept {
  buf_.clear();
  head_ = 0;
  dropped_ = 0;
}

std::vector<Event> EventRing::events() const {
  std::vector<Event> out;
  out.reserve(buf_.size());
  for (std::size_t k = 0; k < buf_.size(); ++k) out.push_back(at(k));
  return out;
}

void TraceLog::set_capacity(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  wall_.set_capacity(n);
  virtual_.set_capacity(n);
}

void TraceLog::record(Event ev) {
  if (ev.id == 0) ev.id = next_id();
  std::lock_guard<std::mutex> lock(mu_);
  (ev.domain == Domain::kVirtual ? virtual_ : wall_).push(ev);
}

std::vector<Event> TraceLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out = wall_.events();
  const std::vector<Event> virt = virtual_.events();
  out.insert(out.end(), virt.begin(), virt.end());
  return out;
}

std::size_t TraceLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wall_.dropped() + virtual_.dropped();
}

void TraceLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  wall_.clear();
  virtual_.clear();
}

json::Value TraceLog::chrome_trace(bool virtual_only) const {
  std::vector<Event> all;
  std::size_t dropped_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all = virtual_.events();
    dropped_count = virtual_.dropped();
    if (!virtual_only) {
      const std::vector<Event> wall = wall_.events();
      all.insert(all.end(), wall.begin(), wall.end());
      dropped_count += wall_.dropped();
    }
  }
  // Canonical order: (start_ms, id). Ids are handed out in start order, so
  // this is a total order independent of the stop/record interleaving —
  // the property that makes a virtual-only export byte-identical across
  // worker-lane counts.
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    if (a.t_ms != b.t_ms) return a.t_ms < b.t_ms;
    return a.id < b.id;
  });
  // Remap process-unique ids to dense indices so the export never leaks
  // how many spans other runs (or the wall domain) consumed.
  std::unordered_map<std::uint64_t, std::size_t> dense;
  dense.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) dense.emplace(all[i].id, i);

  json::Value events = json::Value::array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Event& s = all[i];
    json::Value e = json::Value::object();
    e.set("name", json::Value(s.name));
    e.set("cat", json::Value(s.domain == Domain::kVirtual ? "virtual"
                                                         : "wall"));
    e.set("ph", json::Value(s.instant ? "i" : "X"));
    e.set("ts", json::Value(s.t_ms * 1000.0));  // trace-event ts is µs
    if (!s.instant) e.set("dur", json::Value(s.dur_ms * 1000.0));
    e.set("pid", json::Value(0));
    e.set("tid", json::Value(s.lane));
    if (s.instant) e.set("s", json::Value("t"));
    json::Value args = json::Value::object();
    args.set("id", json::Value(i));
    // A parent evicted by the ring (or filtered with the wall domain) is
    // simply absent: the span exports as a root rather than dangling.
    const auto it = s.parent != 0 ? dense.find(s.parent) : dense.end();
    if (it != dense.end()) args.set("parent", json::Value(it->second));
    if (s.actor != nullptr) {
      args.set("actor", json::Value(s.actor));
      if (s.detail[0] != '\0') args.set("detail", json::Value(s.detail));
      if (s.session != 0) args.set("session", json::Value(s.session));
      args.set("nonce", json::Value(s.nonce));
    }
    for (std::uint8_t a = 0; a < s.n_attrs; ++a) {
      args.set(s.attrs[a].key, json::Value(s.attrs[a].value));
    }
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
  const json::Value doc = chrome_trace(virtual_only);
  const auto dropped_count = static_cast<std::size_t>(
      doc.at("otherData").at("dropped").as_number());
  if (dropped_count > 0) {
    std::fprintf(stderr,
                 "trace: %s lacks %zu event(s) dropped by a full ring\n",
                 path.c_str(), dropped_count);
  }
  out << doc.dump(0) << '\n';
  return out.good();
}

ScopedTimer::ScopedTimer(metrics::Histogram& hist, const char* name)
    : hist_(&hist) {
  begin(name, /*explicit_clock=*/false);
}

ScopedTimer::ScopedTimer(metrics::Histogram& hist, NowFn now,
                         const char* name)
    : hist_(&hist), now_(std::move(now)) {
  begin(name, /*explicit_clock=*/static_cast<bool>(now_));
}

void ScopedTimer::begin(const char* name, bool explicit_clock) {
  if (!metrics::enabled()) return;  // no clock read
  if (explicit_clock) {
    // Every explicit NowFn in this tree is a SimClock (or test) virtual
    // time base; wall-clock callers use the default clock.
    span_.domain = Domain::kVirtual;
  } else {
    // Pin the default override once so a concurrent set_default_now()
    // cannot change the time base between start and stop.
    now_ = default_now_snapshot();
    span_.domain = now_ ? Domain::kVirtual : Domain::kWall;
  }
  span_.t_ms = now_ ? now_() : wall_now_ms();
  running_ = true;
  TraceLog& log = TraceLog::global();
  if (name != nullptr && name[0] != '\0' && log.enabled()) {
    span_.id = log.next_id();
    span_.name = name;
    span_.lane = tls_ctx.lane;
    span_.parent = tls_ctx.parent;
    tls_ctx.parent = span_.id;  // children opened in this scope nest under us
  }
}

void ScopedTimer::add_attr(const char* key, double value) {
  VKEY_REQUIRE(span_.n_attrs < Event::kMaxAttrs, "too many span attributes");
  span_.attrs[span_.n_attrs++] = Attr{key, value};
}

double ScopedTimer::stop() {
  if (!running_) return 0.0;
  running_ = false;
  span_.dur_ms = (now_ ? now_() : wall_now_ms()) - span_.t_ms;
  hist_->observe(span_.dur_ms);
  if (span_.id != 0) {
    tls_ctx.parent = span_.parent;
    TraceLog& log = TraceLog::global();
    if (log.enabled()) log.record(span_);
  }
  return span_.dur_ms;
}

ScopedTimer::~ScopedTimer() { stop(); }

}  // namespace vkey::trace
