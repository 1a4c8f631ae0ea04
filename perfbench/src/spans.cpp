#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "common/alloc_stats.h"

namespace perfbench {

namespace {

std::atomic<SpanLog*> g_active{nullptr};
std::atomic<std::uint32_t> g_next_thread{0};
thread_local std::uint32_t t_current = 0;
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr const char* kNames[] = {
    "traced_run",
    "unit.reconciler_decode",
    "unit.reconciler_encode",
    "unit.hmac",
    "unit.hkdf",
    "unit.amplify",
    "gateway.run",
    "gateway.run_metrics_off",
    "vehicles.run",
    "vehicles.run_metrics_off",
    "rf.reference",
    "parallel.batch",
    "composition",
    "composition.untraced",
    "supervisor",
    "session",
    "arq",
    "link",
    "sim_clock",
    "material",
    "arrssi",
    "predictor",
    "key_schedule",
    "wire.replay",
};
static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
              static_cast<std::size_t>(Layer::kCount));

}  // namespace

SpanLog::SpanLog(std::size_t capacity)
    : records_(capacity), epoch_ns_(now_ns()) {}

std::size_t SpanLog::size() const noexcept {
  return std::min(next_.load(), records_.size());
}

std::uint32_t SpanLog::open(Layer layer) {
  if (paused_.load(std::memory_order_relaxed)) return 0;
  const std::size_t idx = next_.fetch_add(1);
  if (idx >= records_.size()) {
    overflowed_.store(true);
    return 0;
  }
  SpanRecord& r = records_[idx];
  r.layer = layer;
  r.thread = t_thread;
  r.parent = t_current != 0 ? t_current : lane_parent_.load();
  r.allocs_open = vkey::alloc_stats::totals().allocations;
  r.start_ns = now_ns() - epoch_ns_;
  return static_cast<std::uint32_t>(idx + 1);
}

void SpanLog::close(std::uint32_t id) {
  SpanRecord& r = records_[id - 1];
  r.end_ns = now_ns() - epoch_ns_;
  r.allocs_close = vkey::alloc_stats::totals().allocations;
}

void set_active_log(SpanLog* log) noexcept { g_active.store(log); }
SpanLog* active_log() noexcept { return g_active.load(); }

Span::Span(Layer layer) {
  if (SpanLog* log = active_log()) {
    id_ = log->open(layer);
    if (id_ != 0) {
      prev_ = t_current;
      t_current = id_;
    }
  }
}

Span::~Span() {
  if (id_ == 0) return;
  t_current = prev_;
  active_log()->close(id_);
}

LaneParentScope::LaneParentScope(const Span& span) {
  if (SpanLog* log = active_log()) log->set_lane_parent(span.id());
}

LaneParentScope::~LaneParentScope() {
  if (SpanLog* log = active_log()) log->set_lane_parent(0);
}

Ledger::Ledger(const SpanLog& log)
    : log_(log),
      self_us_(log.size() + 1, 0.0),
      self_allocs_(log.size() + 1, 0.0),
      top_(log.size() + 1, 0) {
  const std::size_t n = log.size();
  std::vector<std::vector<std::uint32_t>> children(n + 1);
  for (std::uint32_t id = 1; id <= n; ++id) {
    const SpanRecord& r = log.record(id);
    if (r.parent != 0) children[r.parent].push_back(id);
    // Parents open before their children, so top_ of the parent is final.
    if (r.parent == 1) {
      top_[id] = id;
    } else if (r.parent != 0) {
      top_[id] = top_[r.parent];
    }
  }
  for (std::uint32_t id = 1; id <= n; ++id) {
    const SpanRecord& r = log.record(id);
    auto& kids = children[id];
    std::sort(kids.begin(), kids.end(), [&](std::uint32_t a, std::uint32_t b) {
      return log.record(a).start_ns < log.record(b).start_ns;
    });
    // Union of the children's intervals (pool lanes overlap), clipped to
    // the parent's own interval.
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    double child_allocs = 0.0;
    for (const std::uint32_t k : kids) {
      const SpanRecord& c = log.record(k);
      const std::int64_t lo = std::max(c.start_ns, r.start_ns);
      const std::int64_t hi = std::min(c.end_ns, r.end_ns);
      if (c.thread == r.thread) {
        child_allocs += static_cast<double>(c.allocs_close - c.allocs_open);
      }
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self_us_[id] = static_cast<double>(r.end_ns - r.start_ns - covered) / 1e3;
    self_allocs_[id] = std::max(
        0.0, static_cast<double>(r.allocs_close - r.allocs_open) -
                 child_allocs);
  }
  if (n >= 1) {
    const SpanRecord& root = log.record(1);
    root_us_ = static_cast<double>(root.end_ns - root.start_ns) / 1e3;
    residual_us_ = self_us_[1];
  }
}

LayerTotals Ledger::under(Layer top, Layer layer) const {
  LayerTotals t;
  for (std::uint32_t id = 2; id < top_.size(); ++id) {
    if (top_[id] == 0 || log_.record(top_[id]).layer != top) continue;
    if (log_.record(id).layer != layer) continue;
    ++t.spans;
    t.self_us += self_us_[id];
    t.self_allocs += self_allocs_[id];
  }
  return t;
}

std::string Ledger::table() const {
  // (top-level layer, layer) -> totals, ordered by layer.
  std::map<std::pair<int, int>, LayerTotals> rows;
  for (std::uint32_t id = 2; id < top_.size(); ++id) {
    if (top_[id] == 0) continue;
    const int top = static_cast<int>(log_.record(top_[id]).layer);
    LayerTotals& t = rows[{top, static_cast<int>(log_.record(id).layer)}];
    ++t.spans;
    t.self_us += self_us_[id];
    t.self_allocs += self_allocs_[id];
  }
  std::string out;
  char line[200];
  std::snprintf(line, sizeof line, "%-26s %-26s %10s %14s %8s %14s\n",
                "top-level", "layer", "spans", "self_us", "share",
                "self_allocs");
  out += line;
  for (const auto& [key, t] : rows) {
    std::snprintf(line, sizeof line,
                  "%-26s %-26s %10zu %14.1f %7.2f%% %14.0f\n",
                  kNames[key.first], kNames[key.second], t.spans, t.self_us,
                  root_us_ > 0 ? 100.0 * t.self_us / root_us_ : 0.0,
                  t.self_allocs);
    out += line;
  }
  std::snprintf(line, sizeof line, "%-26s %-26s %10s %14.1f %7.2f%%\n",
                "residual", "(benchmark glue)", "-", residual_us_,
                root_us_ > 0 ? 100.0 * residual_us_ / root_us_ : 0.0);
  out += line;
  std::snprintf(line, sizeof line, "%-26s %-26s %10s %14.1f %7.2f%%\n",
                "traced_run", "(wall)", "1", root_us_, 100.0);
  out += line;
  return out;
}

std::string Ledger::chrome_trace(const std::string& label) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"label\":\"" +
                    label + "\",\"root_us\":" + std::to_string(root_us_) +
                    ",\"residual_us\":" + std::to_string(residual_us_) +
                    "},\"traceEvents\":[";
  char buf[320];
  for (std::uint32_t id = 1; id < top_.size(); ++id) {
    const SpanRecord& r = log_.record(id);
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                  "\"self_us\":%.3f,\"self_allocs\":%.0f}}",
                  id == 1 ? "" : ",", kNames[static_cast<int>(r.layer)],
                  r.thread, static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3, id,
                  r.parent, self_us_[id], self_allocs_[id]);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
