// Structured tracing: RAII scoped spans with per-thread sinks and
// request-scoped context propagation.
//
// The compile -> optimize -> regalloc -> codegen -> simulate pipeline is
// instrumented with ScopedSpans. When no session is active a span costs one
// relaxed atomic load and nothing else (no strings, no clock reads, no
// allocation) — the simulator's timing results are unaffected by the
// instrumentation being compiled in. When a session is active each thread
// appends events to its own buffer (the simulator's block loop runs on the
// shared thread pool; per-thread sinks avoid any contention on the hot
// path); TraceSession::stop() merges the buffers and orders events
// deterministically (by start timestamp, ties kept in buffer order).
//
// Request scoping: every span carries (request_id, span_id,
// parent_span_id). A TraceContext names the request a thread is currently
// working for and the span new child spans should hang off; ScopedSpan
// maintains it automatically for same-thread nesting, and thread handoffs
// (server worker -> executor pool task) carry it explicitly: snapshot
// TraceContext::current() before the hop, install it with
// TraceContext::Scope inside. The result is one tree per request in
// the export, regardless of which threads ran its stages, and
// request_breakdown() extracts the per-request critical path (queue wait
// vs compile vs simulated execution vs retry backoff).
//
// The merged events export as Chrome trace-event JSON ("traceEvents" array
// of complete "X" events) loadable in Perfetto or chrome://tracing; the
// request/span ids ride in each event's args.
//
// Contract: start/stop must not race with in-flight spans. Every user in
// this repo starts a session before driving the pipeline and stops it after
// the launches return (the pool is idle between launches), which satisfies
// the contract by construction.
#pragma once

#include <atomic>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace ispb::obs {

/// One completed span: a named duration with optional structured arguments.
struct TraceEvent {
  std::string name;
  std::string cat;  ///< coarse grouping: "compile", "ir", "sim", ...
  f64 ts_us = 0.0;  ///< start, microseconds since session start
  f64 dur_us = 0.0;
  u32 tid = 0;      ///< sink registration index (stable within a session)
  u64 request_id = 0;       ///< 0 = not request-scoped
  u64 span_id = 0;          ///< unique per span within a session
  u64 parent_span_id = 0;   ///< 0 = root of its request (or unparented)
  std::vector<std::pair<std::string, Json>> args;
};

namespace detail {
extern std::atomic<bool> g_trace_active;
void record(TraceEvent&& ev, u64 start_ns, u64 end_ns);
[[nodiscard]] u64 now_ns();
[[nodiscard]] u64 alloc_span_id();
}  // namespace detail

/// The request a thread is currently tracing for: new spans become children
/// of `span_id` and inherit `request_id`. Thread-local; default {0, 0}.
struct TraceContext {
  u64 request_id = 0;
  u64 span_id = 0;  ///< parent for spans opened under this context

  /// This thread's current context (cheap: one thread-local read).
  [[nodiscard]] static TraceContext current();

  /// RAII install/restore, for carrying a context across a thread handoff:
  /// snapshot current() on the submitting side, Scope it inside the task.
  class Scope {
   public:
    explicit Scope(TraceContext ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    u64 prev_request_ = 0;  // TraceContext is incomplete here; store fields
    u64 prev_span_ = 0;
  };
};

/// Process-wide tracing session. At most one is active at a time.
class TraceSession {
 public:
  /// Starts collecting; resets any events from a previous session.
  static void start();

  /// Stops collecting and returns all events merged across threads, sorted
  /// by start timestamp (stable: same-timestamp events keep per-thread
  /// emission order). Idempotent: without a matching start(), returns empty.
  [[nodiscard]] static std::vector<TraceEvent> stop();

  /// True while a session is collecting. The null-sink fast path: every
  /// instrumentation site checks this single relaxed atomic first.
  [[nodiscard]] static bool active() {
    return detail::g_trace_active.load(std::memory_order_relaxed);
  }

  /// Fresh ids for callers that stitch spans manually (the server allocates
  /// a request id + root span id at submit and records the root span at
  /// finalize, long after the submitting thread moved on). Never 0.
  [[nodiscard]] static u64 next_request_id();
  [[nodiscard]] static u64 next_span_id() { return detail::alloc_span_id(); }

  /// Steady-clock nanoseconds, the session time base.
  [[nodiscard]] static u64 now_ns() { return detail::now_ns(); }
};

/// Records a completed span with explicit timestamps — for durations whose
/// endpoints live on different threads (queue wait: submit -> dequeue) or
/// that outlive the scope that measured them (the per-request root span).
/// `span_id` 0 allocates a fresh id; returns the id used (0 when no session
/// is active, in which case nothing is recorded).
u64 record_span(std::string_view name, std::string_view cat, u64 start_ns,
                u64 end_ns, u64 request_id, u64 parent_span_id,
                u64 span_id = 0);

/// RAII span: measures construction-to-destruction and records one
/// TraceEvent into the current thread's sink. Inactive (when no session is
/// running) it does no work at all. Active, it inherits the thread's
/// TraceContext (request id + parent) and installs itself as the parent of
/// spans opened inside it on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::string_view cat = "") {
    if (!TraceSession::active()) return;
    active_ = true;
    ev_.name = name;
    ev_.cat = cat;
    begin(ev_);
    start_ns_ = detail::now_ns();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (!active_) return;
    const u64 end_ns = detail::now_ns();
    end();
    detail::record(std::move(ev_), start_ns_, end_ns);
  }

  /// Attaches a structured argument (shown in the trace viewer). No-op when
  /// the span is inactive, so callers may pass eagerly computed cheap
  /// values; guard expensive ones with `recording()`.
  void arg(std::string_view key, Json value) {
    if (active_) ev_.args.emplace_back(std::string(key), std::move(value));
  }

  [[nodiscard]] bool recording() const { return active_; }

 private:
  /// Fills ids from the thread's context and parents it on this span.
  void begin(TraceEvent& ev);
  /// Restores the thread's context to what it was at construction.
  void end();

  bool active_ = false;
  u64 start_ns_ = 0;
  u64 prev_parent_span_ = 0;  ///< context to restore at destruction
  TraceEvent ev_;
};

/// Exports events as a Chrome trace-event document:
/// {"traceEvents": [{"ph":"X","name",...}], "displayTimeUnit":"ms"}.
/// Request-scoped events carry args.req / args.span / args.parent so a
/// request's tree is recoverable in the viewer.
[[nodiscard]] Json chrome_trace_json(std::span<const TraceEvent> events);

/// Per-name duration summary of a set of spans (profiler report table).
struct SpanSummary {
  std::string name;
  i64 count = 0;
  f64 total_us = 0.0;
  f64 p50_us = 0.0;
  f64 p90_us = 0.0;
  f64 p99_us = 0.0;
};

/// Groups events by name and summarizes durations; sorted by descending
/// total time.
[[nodiscard]] std::vector<SpanSummary> summarize_spans(
    std::span<const TraceEvent> events);

// ---- request-tree extraction ------------------------------------------------

/// Where one request's wall time went, extracted from its span tree.
/// Categories are disjoint by construction (each sums only spans that never
/// nest inside another counted span): queue wait, compiles (kernel cache,
/// IR and native JIT), kernel runs (simulated launches and native runs),
/// retry backoff. `other_us` is the root-span remainder.
struct RequestBreakdown {
  u64 request_id = 0;
  bool has_root = false;  ///< a root span (parent 0) was found
  f64 total_us = 0.0;     ///< root span duration
  f64 queue_us = 0.0;
  f64 compile_us = 0.0;
  f64 sim_us = 0.0;
  f64 retry_backoff_us = 0.0;
  f64 other_us = 0.0;
  i64 spans = 0;          ///< spans carrying this request id
  i64 unreachable = 0;    ///< spans whose parent chain never reaches a root

  [[nodiscard]] Json to_json() const;
};

/// Distinct nonzero request ids present in `events`, ascending.
[[nodiscard]] std::vector<u64> request_ids(std::span<const TraceEvent> events);

/// Critical-path breakdown of one request's spans. `unreachable` counts
/// spans that do not link into the request's root tree — 0 means the
/// propagation invariant holds (every span reachable from the root).
[[nodiscard]] RequestBreakdown request_breakdown(
    std::span<const TraceEvent> events, u64 request_id);

/// request_breakdown for every id of request_ids(events), in that order,
/// from one grouping pass over `events` (O(events log events)) instead of
/// one scan per request. Each entry equals request_breakdown(events, id).
[[nodiscard]] std::vector<RequestBreakdown> request_breakdowns(
    std::span<const TraceEvent> events);

}  // namespace ispb::obs
