#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "common/stats.hpp"

namespace ispb::obs {

namespace detail {

std::atomic<bool> g_trace_active{false};

namespace {

struct ThreadBuf {
  u32 tid = 0;
  std::vector<TraceEvent> events;
};

struct SessionState {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
  u64 start_ns = 0;
};

SessionState& session() {
  static SessionState state;
  return state;
}

// Each session bumps the generation; thread-local buffer pointers from an
// earlier session are detected as stale and re-registered.
std::atomic<u64> g_generation{0};
thread_local ThreadBuf* t_buf = nullptr;
thread_local u64 t_gen = 0;

// Request/span ids are monotonic across the process lifetime (not reset per
// session) so stale ids from a previous session can never collide.
std::atomic<u64> g_next_span_id{1};
std::atomic<u64> g_next_request_id{1};

// The request/parent this thread is currently working under. Plain
// thread-locals: each thread only reads and writes its own.
thread_local u64 t_ctx_request = 0;
thread_local u64 t_ctx_span = 0;

ThreadBuf* this_thread_buf() {
  const u64 gen = g_generation.load(std::memory_order_acquire);
  if (t_buf != nullptr && t_gen == gen) return t_buf;
  SessionState& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!g_trace_active.load(std::memory_order_relaxed)) return nullptr;
  auto buf = std::make_unique<ThreadBuf>();
  buf->tid = static_cast<u32>(s.bufs.size());
  t_buf = buf.get();
  t_gen = gen;
  s.bufs.push_back(std::move(buf));
  return t_buf;
}

}  // namespace

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void record(TraceEvent&& ev, u64 start_ns, u64 end_ns) {
  if (!g_trace_active.load(std::memory_order_relaxed)) return;
  ThreadBuf* buf = this_thread_buf();
  if (buf == nullptr) return;  // session stopped while we were registering
  const u64 base = session().start_ns;
  ev.ts_us = static_cast<f64>(start_ns - base) * 1e-3;
  ev.dur_us = static_cast<f64>(end_ns - start_ns) * 1e-3;
  ev.tid = buf->tid;
  buf->events.push_back(std::move(ev));
}

u64 alloc_span_id() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

TraceContext TraceContext::current() {
  return {detail::t_ctx_request, detail::t_ctx_span};
}

TraceContext::Scope::Scope(TraceContext ctx)
    : prev_request_(detail::t_ctx_request), prev_span_(detail::t_ctx_span) {
  detail::t_ctx_request = ctx.request_id;
  detail::t_ctx_span = ctx.span_id;
}

TraceContext::Scope::~Scope() {
  detail::t_ctx_request = prev_request_;
  detail::t_ctx_span = prev_span_;
}

u64 TraceSession::next_request_id() {
  return detail::g_next_request_id.fetch_add(1, std::memory_order_relaxed);
}

u64 record_span(std::string_view name, std::string_view cat, u64 start_ns,
                u64 end_ns, u64 request_id, u64 parent_span_id, u64 span_id) {
  if (!TraceSession::active()) return 0;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.request_id = request_id;
  ev.parent_span_id = parent_span_id;
  ev.span_id = span_id != 0 ? span_id : detail::alloc_span_id();
  const u64 id = ev.span_id;
  detail::record(std::move(ev), start_ns, end_ns);
  return id;
}

void ScopedSpan::begin(TraceEvent& ev) {
  ev.request_id = detail::t_ctx_request;
  ev.parent_span_id = detail::t_ctx_span;
  ev.span_id = detail::alloc_span_id();
  // Children opened on this thread during our lifetime hang off us.
  prev_parent_span_ = detail::t_ctx_span;
  detail::t_ctx_span = ev.span_id;
}

void ScopedSpan::end() { detail::t_ctx_span = prev_parent_span_; }

void TraceSession::start() {
  using namespace detail;
  SessionState& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  s.bufs.clear();
  s.start_ns = now_ns();
  g_generation.fetch_add(1, std::memory_order_release);
  g_trace_active.store(true, std::memory_order_release);
}

std::vector<TraceEvent> TraceSession::stop() {
  using namespace detail;
  g_trace_active.store(false, std::memory_order_release);
  SessionState& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<TraceEvent> merged;
  std::size_t total = 0;
  for (const auto& buf : s.bufs) total += buf->events.size();
  merged.reserve(total);
  for (auto& buf : s.bufs) {
    for (TraceEvent& ev : buf->events) merged.push_back(std::move(ev));
  }
  s.bufs.clear();
  // Deterministic order: by start time, stable for ties (per-thread buffers
  // are already in emission order).
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return merged;
}

Json chrome_trace_json(std::span<const TraceEvent> events) {
  Json doc = Json::object();
  Json arr = Json::array();
  for (const TraceEvent& ev : events) {
    Json e = Json::object();
    e["name"] = ev.name;
    if (!ev.cat.empty()) e["cat"] = ev.cat;
    e["ph"] = "X";
    e["ts"] = ev.ts_us;
    e["dur"] = ev.dur_us;
    e["pid"] = 1;
    e["tid"] = ev.tid;
    if (!ev.args.empty() || ev.request_id != 0) {
      Json args = Json::object();
      if (ev.request_id != 0) {
        args["req"] = ev.request_id;
        args["span"] = ev.span_id;
        args["parent"] = ev.parent_span_id;
      }
      for (const auto& [k, v] : ev.args) args[k] = v;
      e["args"] = std::move(args);
    }
    arr.push_back(std::move(e));
  }
  doc["traceEvents"] = std::move(arr);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

std::vector<SpanSummary> summarize_spans(std::span<const TraceEvent> events) {
  std::map<std::string, std::vector<f64>> by_name;
  for (const TraceEvent& ev : events) by_name[ev.name].push_back(ev.dur_us);
  std::vector<SpanSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, durations] : by_name) {
    SpanSummary s;
    s.name = name;
    s.count = static_cast<i64>(durations.size());
    for (f64 d : durations) s.total_us += d;
    s.p50_us = percentile(durations, 50.0);
    s.p90_us = percentile(durations, 90.0);
    s.p99_us = percentile(durations, 99.0);
    out.push_back(std::move(s));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanSummary& a, const SpanSummary& b) {
                     return a.total_us > b.total_us;
                   });
  return out;
}

Json RequestBreakdown::to_json() const {
  Json j = Json::object();
  j["request_id"] = request_id;
  j["complete"] = has_root && unreachable == 0;
  j["total_us"] = total_us;
  j["queue_us"] = queue_us;
  j["compile_us"] = compile_us;
  j["sim_us"] = sim_us;
  j["retry_backoff_us"] = retry_backoff_us;
  j["other_us"] = other_us;
  j["spans"] = spans;
  j["unreachable"] = unreachable;
  return j;
}

std::vector<u64> request_ids(std::span<const TraceEvent> events) {
  std::vector<u64> ids;
  for (const TraceEvent& ev : events) {
    if (ev.request_id != 0) ids.push_back(ev.request_id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

namespace {

enum class SpanClass { kQueue, kCompile, kSim, kRetry, kOther };

SpanClass classify_span(const TraceEvent& ev) {
  if (ev.name == "pipeline.server.queue_wait") return SpanClass::kQueue;
  if (ev.name == "pipeline.cache.compile" || ev.name == "dsl.compile_kernel" ||
      ev.name == "exec.native.compile") {
    return SpanClass::kCompile;
  }
  if (ev.name.rfind("sim.launch", 0) == 0 || ev.name == "exec.native.run") {
    return SpanClass::kSim;
  }
  if (ev.name == "resilience.retry.backoff") return SpanClass::kRetry;
  return SpanClass::kOther;
}

}  // namespace

namespace {

/// The breakdown of one request from its spans, in event order.
RequestBreakdown breakdown_of(u64 request_id,
                              std::span<const TraceEvent* const> spans) {
  RequestBreakdown b;
  b.request_id = request_id;
  // Index the request's spans by span id.
  std::map<u64, const TraceEvent*> by_id;
  for (const TraceEvent* ev : spans) {
    if (ev->span_id != 0) by_id[ev->span_id] = ev;
    if (ev->parent_span_id == 0) {
      b.has_root = true;
      b.total_us += ev->dur_us;
    }
  }
  b.spans = static_cast<i64>(spans.size());
  for (const TraceEvent* ev : spans) {
    // Walk to the root, noting whether any ancestor is already counted in a
    // critical-path category — nested compile-under-compile (a dsl span
    // inside a cache fill) or sim-under-sim must not double count.
    bool ancestor_counted = false;
    bool reached_root = false;
    u64 parent = ev->parent_span_id;
    std::size_t hops = 0;
    while (parent != 0 && hops++ < spans.size()) {
      auto it = by_id.find(parent);
      if (it == by_id.end()) break;
      if (classify_span(*it->second) != SpanClass::kOther) {
        ancestor_counted = true;
      }
      parent = it->second->parent_span_id;
    }
    reached_root = parent == 0;
    if (!reached_root) ++b.unreachable;
    if (ancestor_counted) continue;
    switch (classify_span(*ev)) {
      case SpanClass::kQueue: b.queue_us += ev->dur_us; break;
      case SpanClass::kCompile: b.compile_us += ev->dur_us; break;
      case SpanClass::kSim: b.sim_us += ev->dur_us; break;
      case SpanClass::kRetry: b.retry_backoff_us += ev->dur_us; break;
      case SpanClass::kOther: break;
    }
  }
  b.other_us = b.total_us - b.queue_us - b.compile_us - b.sim_us -
               b.retry_backoff_us;
  if (b.other_us < 0.0) b.other_us = 0.0;
  return b;
}

}  // namespace

RequestBreakdown request_breakdown(std::span<const TraceEvent> events,
                                   u64 request_id) {
  std::vector<const TraceEvent*> spans;
  for (const TraceEvent& ev : events) {
    if (ev.request_id == request_id) spans.push_back(&ev);
  }
  return breakdown_of(request_id, spans);
}

std::vector<RequestBreakdown> request_breakdowns(
    std::span<const TraceEvent> events) {
  // Request-scoped spans grouped by id; the stable sort keeps each group in
  // event order, so every sum adds in request_breakdown's order.
  std::vector<const TraceEvent*> spans;
  for (const TraceEvent& ev : events) {
    if (ev.request_id != 0) spans.push_back(&ev);
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->request_id < b->request_id;
                   });
  std::vector<RequestBreakdown> out;
  for (auto group = spans.begin(); group != spans.end();) {
    const u64 id = (*group)->request_id;
    const auto end = std::find_if(group, spans.end(), [id](const TraceEvent* ev) {
      return ev->request_id != id;
    });
    out.push_back(breakdown_of(
        id, std::span<const TraceEvent* const>(&*group,
                                               static_cast<std::size_t>(
                                                   end - group))));
    group = end;
  }
  return out;
}

}  // namespace ispb::obs
