// Unit tests for the observability layer: the Json document model, the
// tracing session (null sink, deterministic merge order under the thread
// pool, Chrome trace export) and the metrics registry (label
// canonicalization, counter/gauge/histogram semantics, null sink).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ispb::obs {
namespace {

// --------------------------------------------------------------------------
// Json

TEST(Json, DumpPrimitives) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(i64{42}).dump(), "42");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Json obj = Json::object();
  obj["zebra"] = 1;
  obj["apple"] = 2;
  obj["mid"] = 3;
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2,\"mid\":3}");
}

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      "{\"name\":\"gauss\",\"count\":9,\"ratio\":0.25,"
      "\"flags\":[true,false,null],\"nested\":{\"a\":\"b\\\"c\"}}";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.dump(), text);
  // Integral values round-trip without a decimal point.
  EXPECT_EQ(doc.find("count")->as_int(), 9);
  EXPECT_DOUBLE_EQ(doc.find("ratio")->as_number(), 0.25);
  EXPECT_EQ(doc.find("nested")->find("a")->as_string(), "b\"c");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), IoError);
  EXPECT_THROW((void)Json::parse("{"), IoError);
  EXPECT_THROW((void)Json::parse("[1,]"), IoError);
  EXPECT_THROW((void)Json::parse("{\"a\":1} trailing"), IoError);
  EXPECT_THROW((void)Json::parse("\"bad\\q\""), IoError);
}

TEST(Json, EscapesControlCharacters) {
  EXPECT_EQ(Json("a\"b\\c\n\t").dump(), "\"a\\\"b\\\\c\\n\\t\"");
  const Json back = Json::parse("\"a\\\"b\\\\c\\n\\t\"");
  EXPECT_EQ(back.as_string(), "a\"b\\c\n\t");
}

// --------------------------------------------------------------------------
// Trace

TEST(Trace, NullSinkRecordsNothing) {
  ASSERT_FALSE(TraceSession::active());
  {
    ScopedSpan span("should.not.appear", "test");
    span.arg("k", 1);
    EXPECT_FALSE(span.recording());
  }
  // stop() without a start() is an empty session.
  EXPECT_TRUE(TraceSession::stop().empty());
}

TEST(Trace, CapturesSpansWithArgs) {
  TraceSession::start();
  {
    ScopedSpan outer("outer", "test");
    outer.arg("kernel", "gauss");
    outer.arg("blocks", i64{12});
    ScopedSpan inner("inner", "test");
  }
  const std::vector<TraceEvent> events = TraceSession::stop();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start timestamp: outer starts before inner, but inner is
  // destroyed (recorded) first — order must reflect start order.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_GE(events[1].ts_us, events[0].ts_us);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "kernel");
  EXPECT_EQ(events[0].args[0].second.as_string(), "gauss");
  EXPECT_EQ(events[0].args[1].second.as_int(), 12);
}

TEST(Trace, DeterministicOrderUnderThreadPool) {
  constexpr i64 kSpans = 64;
  TraceSession::start();
  parallel_for(0, kSpans, [](i64 i) {
    ScopedSpan span("pool.span", "test");
    span.arg("i", i);
  });
  const std::vector<TraceEvent> events = TraceSession::stop();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kSpans));
  // Merged order is sorted by start timestamp (stable for ties), so the
  // sequence must be non-decreasing regardless of which worker emitted what.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
  // Every index recorded exactly once.
  std::vector<int> seen(kSpans, 0);
  for (const TraceEvent& ev : events) {
    ASSERT_EQ(ev.args.size(), 1u);
    seen[static_cast<std::size_t>(ev.args[0].second.as_int())]++;
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Trace, SessionRestartDropsOldEvents) {
  TraceSession::start();
  { ScopedSpan span("first", "test"); }
  TraceSession::start();  // restart without stop(): resets the buffers
  { ScopedSpan span("second", "test"); }
  const std::vector<TraceEvent> events = TraceSession::stop();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "second");
}

TEST(Trace, ChromeTraceJsonRoundTrips) {
  TraceSession::start();
  {
    ScopedSpan span("compile", "compile");
    span.arg("instrs", i64{33});
  }
  const std::vector<TraceEvent> events = TraceSession::stop();
  const Json doc = chrome_trace_json(events);
  const Json back = Json::parse(doc.dump(2));
  const Json* arr = back.find("traceEvents");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->size(), 1u);
  const Json& ev = arr->items()[0];
  EXPECT_EQ(ev.find("name")->as_string(), "compile");
  EXPECT_EQ(ev.find("ph")->as_string(), "X");
  EXPECT_EQ(ev.find("pid")->as_int(), 1);
  EXPECT_GE(ev.find("dur")->as_number(), 0.0);
  EXPECT_EQ(ev.find("args")->find("instrs")->as_int(), 33);
  EXPECT_EQ(back.find("displayTimeUnit")->as_string(), "ms");
}

TEST(Trace, SummarizeSpansGroupsByName) {
  TraceSession::start();
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span("repeat", "test");
  }
  { ScopedSpan span("once", "test"); }
  const std::vector<TraceEvent> events = TraceSession::stop();
  const std::vector<SpanSummary> summary = summarize_spans(events);
  ASSERT_EQ(summary.size(), 2u);
  i64 total = 0;
  for (const SpanSummary& s : summary) {
    total += s.count;
    if (s.name == "repeat") {
      EXPECT_EQ(s.count, 3);
    }
    if (s.name == "once") {
      EXPECT_EQ(s.count, 1);
    }
    EXPECT_GE(s.p99_us, s.p50_us);
  }
  EXPECT_EQ(total, 4);
}

// --------------------------------------------------------------------------
// Metrics

TEST(Metrics, NullSinkWhenNotInstalled) {
  EXPECT_EQ(MetricsRegistry::installed(), nullptr);
  MetricsRegistry reg;
  {
    MetricsRegistry::ScopedInstall install(reg);
    EXPECT_EQ(MetricsRegistry::installed(), &reg);
  }
  EXPECT_EQ(MetricsRegistry::installed(), nullptr);
  EXPECT_EQ(reg.series_count(), 0u);
}

TEST(Metrics, CounterAccumulatesAndGaugeOverwrites) {
  MetricsRegistry reg;
  reg.add("sim.launches", 1.0);
  reg.add("sim.launches", 2.0);
  reg.set("occupancy", 0.5);
  reg.set("occupancy", 0.75);
  EXPECT_DOUBLE_EQ(reg.value("sim.launches"), 3.0);
  EXPECT_DOUBLE_EQ(reg.value("occupancy"), 0.75);
  EXPECT_EQ(reg.series_count(), 2u);
  // Unknown series read as zero / empty.
  EXPECT_DOUBLE_EQ(reg.value("missing"), 0.0);
  EXPECT_FALSE(reg.histogram("missing").has_value());
}

TEST(Metrics, LabelsAggregateRegardlessOfOrder) {
  MetricsRegistry reg;
  const Labels ab = {{"kernel", "gauss"}, {"mode", "full"}};
  const Labels ba = {{"mode", "full"}, {"kernel", "gauss"}};
  reg.add("sim.blocks", 10.0, ab);
  reg.add("sim.blocks", 5.0, ba);
  // Same label set in either order addresses the same series.
  EXPECT_EQ(reg.series_count(), 1u);
  EXPECT_DOUBLE_EQ(reg.value("sim.blocks", ab), 15.0);
  EXPECT_DOUBLE_EQ(reg.value("sim.blocks", ba), 15.0);
  // A different label value is a different series.
  reg.add("sim.blocks", 1.0, {{"kernel", "sobel"}, {"mode", "full"}});
  EXPECT_EQ(reg.series_count(), 2u);
  EXPECT_DOUBLE_EQ(reg.value("sim.blocks", ab), 15.0);
}

TEST(Metrics, HistogramStreamsSamplesAndSummarizes) {
  MetricsRegistry reg;
  for (f64 v : {1.0, 2.0, 3.0, 4.0}) reg.observe("launch_ms", v);
  const std::optional<StreamingHistogram> hist = reg.histogram("launch_ms");
  ASSERT_TRUE(hist.has_value());
  EXPECT_EQ(hist->count(), 4u);
  const Json doc = reg.to_json();
  ASSERT_EQ(doc.size(), 1u);
  const Json& series = doc.items()[0];
  EXPECT_EQ(series.find("name")->as_string(), "launch_ms");
  EXPECT_EQ(series.find("kind")->as_string(), "histogram");
  EXPECT_EQ(series.find("count")->as_int(), 4);
  // min/max/mean are tracked exactly; p50 (nearest rank: the 2nd of 4
  // samples = 2.0) is a bucket estimate within the documented bound.
  EXPECT_DOUBLE_EQ(series.find("min")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(series.find("max")->as_number(), 4.0);
  EXPECT_DOUBLE_EQ(series.find("mean")->as_number(), 2.5);
  const f64 rel = hist->config().rel_error;
  EXPECT_NEAR(series.find("p50")->as_number(), 2.0, 2.0 * rel);
}

TEST(Metrics, ThreadSafeUnderConcurrentAdds) {
  MetricsRegistry reg;
  constexpr i64 kIters = 256;
  parallel_for(0, kIters, [&reg](i64 i) {
    reg.add("concurrent", 1.0, {{"kernel", "k"}});
    reg.observe("samples", static_cast<f64>(i));
  });
  EXPECT_DOUBLE_EQ(reg.value("concurrent", {{"kernel", "k"}}),
                   static_cast<f64>(kIters));
  ASSERT_TRUE(reg.histogram("samples").has_value());
  EXPECT_EQ(reg.histogram("samples")->count(), static_cast<u64>(kIters));
}

TEST(Metrics, ToJsonExportsLabelsAndValues) {
  MetricsRegistry reg;
  reg.add("sim.issue_slots", 128.0, {{"kernel", "gauss"}});
  const Json doc = reg.to_json();
  ASSERT_EQ(doc.size(), 1u);
  const Json& series = doc.items()[0];
  EXPECT_EQ(series.find("name")->as_string(), "sim.issue_slots");
  EXPECT_EQ(series.find("kind")->as_string(), "counter");
  EXPECT_DOUBLE_EQ(series.find("value")->as_number(), 128.0);
  const Json* labels = series.find("labels");
  ASSERT_NE(labels, nullptr);
  EXPECT_EQ(labels->find("kernel")->as_string(), "gauss");
  // The export itself must be valid JSON.
  const Json back = Json::parse(doc.dump(2));
  EXPECT_EQ(back.size(), 1u);
}

// --------------------------------------------------------------------------
// StreamingHistogram

/// Exact nearest-rank percentile over a copy of `values` — the reference the
/// histogram's estimate is bounded against.
f64 exact_nearest_rank(std::vector<f64> values, f64 p) {
  std::sort(values.begin(), values.end());
  if (p <= 0.0) return values.front();
  const auto n = static_cast<f64>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::min(std::max<std::size_t>(rank, 1), values.size());
  return values[rank - 1];
}

/// Asserts every probed percentile is within the histogram's documented
/// relative-error bound of the exact nearest-rank value.
void expect_within_bound(const std::vector<f64>& values,
                         const StreamingHistogram& h) {
  for (f64 p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const f64 exact = exact_nearest_rank(values, p);
    const std::optional<f64> est = h.percentile(p);
    ASSERT_TRUE(est.has_value());
    EXPECT_NEAR(*est, exact, h.config().rel_error * exact + 1e-12)
        << "p" << p << " exact=" << exact << " est=" << *est;
  }
}

TEST(Histogram, EmptyReturnsNullopt) {
  const StreamingHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_FALSE(h.percentile(50.0).has_value());
  EXPECT_FALSE(h.min().has_value());
  EXPECT_FALSE(h.max().has_value());
  EXPECT_FALSE(h.mean().has_value());
}

TEST(Histogram, TracksExactCountSumExtremaAndMean) {
  StreamingHistogram h;
  for (f64 v : {4.0, 1.0, 9.0, 2.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  EXPECT_DOUBLE_EQ(*h.min(), 1.0);
  EXPECT_DOUBLE_EQ(*h.max(), 9.0);
  EXPECT_DOUBLE_EQ(*h.mean(), 4.0);
  // p0 / p100 report the exact tracked extrema, not bucket midpoints.
  EXPECT_DOUBLE_EQ(*h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(*h.percentile(100.0), 9.0);
}

TEST(Histogram, MemoryStaysBoundedUnderSustainedRecording) {
  StreamingHistogram h;
  const std::size_t buckets_at_birth = h.bucket_count();
  Rng rng(11);
  // 100k samples spanning the full bucketed range (and past it on both
  // sides) must not grow the bucket array: memory is O(buckets), not O(n).
  for (int i = 0; i < 100000; ++i) {
    const f64 decade = rng.uniform_f64() * 12.0 - 1.0;  // 1e-4 .. 1e11
    h.record(std::pow(10.0, decade));
  }
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_EQ(h.bucket_count(), buckets_at_birth);
}

TEST(Histogram, PercentilesWithinBoundOnAdversarialDistributions) {
  const HistogramConfig cfg;  // rel_error 2.5%
  // Log-uniform across six decades: exercises many buckets far apart.
  {
    StreamingHistogram h(cfg);
    std::vector<f64> values;
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
      const f64 v = std::pow(10.0, rng.uniform_f64() * 6.0 - 2.0);
      values.push_back(v);
      h.record(v);
    }
    expect_within_bound(values, h);
  }
  // Pareto-like heavy tail: percentile mass concentrated near the floor,
  // extreme outliers in the tail.
  {
    StreamingHistogram h(cfg);
    std::vector<f64> values;
    Rng rng(2);
    for (int i = 0; i < 20000; ++i) {
      const f64 v = 0.5 / std::pow(1.0 - rng.uniform_f64() * 0.9999, 0.7);
      values.push_back(v);
      h.record(v);
    }
    expect_within_bound(values, h);
  }
  // Constant distribution: every percentile must land in the one bucket.
  {
    StreamingHistogram h(cfg);
    const std::vector<f64> values(5000, 3.14159);
    for (f64 v : values) h.record(v);
    expect_within_bound(values, h);
  }
  // Bimodal with both modes straddling bucket boundaries: the worst case
  // for midpoint reporting is a value at a bucket edge.
  {
    StreamingHistogram h(cfg);
    std::vector<f64> values;
    const f64 growth = (1.0 + cfg.rel_error) * (1.0 + cfg.rel_error);
    const f64 edge_low = cfg.min_value * std::pow(growth, 40.0);
    const f64 edge_high = cfg.min_value * std::pow(growth, 160.0);
    for (int i = 0; i < 4000; ++i) {
      const f64 v = (i % 2 == 0) ? edge_low * (1.0 + 1e-9)
                                 : edge_high * (1.0 - 1e-9);
      values.push_back(v);
      h.record(v);
    }
    expect_within_bound(values, h);
  }
}

TEST(Histogram, MergeMatchesRecordingIntoOne) {
  StreamingHistogram a;
  StreamingHistogram b;
  StreamingHistogram combined;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const f64 v = std::pow(10.0, rng.uniform_f64() * 4.0 - 1.0);
    ((i % 2 == 0) ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(*a.min(), *combined.min());
  EXPECT_DOUBLE_EQ(*a.max(), *combined.max());
  for (f64 p : {10.0, 50.0, 99.0}) {
    EXPECT_DOUBLE_EQ(*a.percentile(p), *combined.percentile(p));
  }
}

TEST(Histogram, MergeRejectsConfigMismatch) {
  StreamingHistogram a;
  HistogramConfig other;
  other.rel_error = 0.1;
  const StreamingHistogram b(other);
  EXPECT_THROW(a.merge(b), ContractError);
}

TEST(Histogram, OutOfRangeValuesReportExactExtrema) {
  HistogramConfig cfg;
  cfg.min_value = 1.0;
  cfg.max_value = 100.0;
  StreamingHistogram h(cfg);
  h.record(1e-6);  // underflow
  h.record(5000.0);  // overflow
  EXPECT_EQ(h.count(), 2u);
  // Underflow/overflow buckets report the exact tracked extrema rather
  // than a midpoint of an unbounded range.
  EXPECT_DOUBLE_EQ(*h.percentile(40.0), 1e-6);
  EXPECT_DOUBLE_EQ(*h.percentile(99.0), 5000.0);
}

TEST(Histogram, ResetKeepsLayoutDropsSamples) {
  StreamingHistogram h;
  h.record(2.0);
  const std::size_t buckets = h.bucket_count();
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(), buckets);
  EXPECT_FALSE(h.percentile(50.0).has_value());
}

TEST(Histogram, ToJsonSummarizes) {
  StreamingHistogram h;
  h.record(1.0);
  h.record(2.0);
  const Json j = h.to_json();
  EXPECT_EQ(j.find("count")->as_int(), 2);
  EXPECT_DOUBLE_EQ(j.find("min")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(j.find("max")->as_number(), 2.0);
  EXPECT_FALSE(j.find("p99")->is_null());
  // Empty export keeps the keys but nulls the sample-derived ones.
  const Json empty = StreamingHistogram().to_json();
  EXPECT_EQ(empty.find("count")->as_int(), 0);
  EXPECT_TRUE(empty.find("p50")->is_null());
}

// --------------------------------------------------------------------------
// TraceContext / request trees

TEST(Trace, ContextPropagatesThroughNestedSpans) {
  TraceSession::start();
  const u64 req = TraceSession::next_request_id();
  {
    TraceContext::Scope scope({req, 0});
    ScopedSpan outer("outer", "test");
    ScopedSpan inner("inner", "test");
  }
  EXPECT_EQ(TraceContext::current().request_id, 0u);
  EXPECT_EQ(TraceContext::current().span_id, 0u);
  const std::vector<TraceEvent> events = TraceSession::stop();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& outer = events[0].name == "outer" ? events[0] : events[1];
  const TraceEvent& inner = events[0].name == "inner" ? events[0] : events[1];
  EXPECT_EQ(outer.request_id, req);
  EXPECT_EQ(inner.request_id, req);
  EXPECT_NE(outer.span_id, 0u);
  EXPECT_EQ(outer.parent_span_id, 0u);  // root of its request
  EXPECT_EQ(inner.parent_span_id, outer.span_id);
}

TEST(Trace, ContextCarriesAcrossExplicitThreadHandoff) {
  TraceSession::start();
  const u64 req = TraceSession::next_request_id();
  {
    TraceContext::Scope scope({req, 0});
    ScopedSpan submit("submit", "test");
    // The handoff pattern every cross-thread hop in the repo uses: snapshot
    // on the submitting side, Scope-install inside the task.
    const TraceContext ctx = TraceContext::current();
    std::thread worker([ctx] {
      TraceContext::Scope install(ctx);
      ScopedSpan span("work", "test");
    });
    worker.join();
  }
  const std::vector<TraceEvent> events = TraceSession::stop();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& submit = events[0].name == "submit" ? events[0] : events[1];
  const TraceEvent& work = events[0].name == "work" ? events[0] : events[1];
  EXPECT_EQ(work.request_id, req);
  EXPECT_EQ(work.parent_span_id, submit.span_id);
  const RequestBreakdown b = request_breakdown(events, req);
  EXPECT_TRUE(b.has_root);
  EXPECT_EQ(b.unreachable, 0);
  EXPECT_EQ(b.spans, 2);
}

TEST(Trace, RecordSpanStitchesExplicitTimestamps) {
  EXPECT_EQ(record_span("inactive", "test", 0, 1, 1, 0), 0u);  // no session
  TraceSession::start();
  const u64 req = TraceSession::next_request_id();
  const u64 root = TraceSession::next_span_id();
  const u64 t0 = TraceSession::now_ns();
  const u64 used = record_span("pipeline.server.request.root", "pipeline", t0,
                               t0 + 5000, req, 0, root);
  EXPECT_EQ(used, root);
  const u64 child = record_span("child", "test", t0, t0 + 1000, req, root);
  EXPECT_NE(child, 0u);
  EXPECT_NE(child, root);
  const std::vector<TraceEvent> events = TraceSession::stop();
  ASSERT_EQ(events.size(), 2u);
  for (const TraceEvent& ev : events) {
    EXPECT_EQ(ev.request_id, req);
    if (ev.span_id == root) {
      EXPECT_DOUBLE_EQ(ev.dur_us, 5.0);
    }
    if (ev.span_id == child) {
      EXPECT_EQ(ev.parent_span_id, root);
      EXPECT_DOUBLE_EQ(ev.dur_us, 1.0);
    }
  }
}

TEST(Trace, RequestBreakdownCategorizesAndDetectsOrphans) {
  TraceSession::start();
  const u64 req = TraceSession::next_request_id();
  const u64 t0 = TraceSession::now_ns();
  const u64 root = record_span("pipeline.server.request.root", "pipeline", t0,
                               t0 + 100000, req, 0);
  record_span("pipeline.server.queue_wait", "pipeline", t0, t0 + 30000, req,
              root);
  const u64 compile = record_span("pipeline.cache.compile", "pipeline",
                                  t0 + 30000, t0 + 70000, req, root);
  // Nested under a counted compile span: must NOT double count.
  record_span("dsl.compile_kernel", "compile", t0 + 31000, t0 + 69000, req,
              compile);
  record_span("sim.launch_kernel", "sim", t0 + 70000, t0 + 90000, req, root);
  // Orphan: parent id that never appears -> unreachable.
  record_span("lost", "test", t0, t0 + 1000, req, /*parent=*/987654321);
  const std::vector<TraceEvent> events = TraceSession::stop();
  ASSERT_EQ(request_ids(events).size(), 1u);
  const RequestBreakdown b = request_breakdown(events, req);
  EXPECT_TRUE(b.has_root);
  EXPECT_EQ(b.spans, 6);
  EXPECT_EQ(b.unreachable, 1);
  EXPECT_DOUBLE_EQ(b.total_us, 100.0);
  EXPECT_DOUBLE_EQ(b.queue_us, 30.0);
  EXPECT_DOUBLE_EQ(b.compile_us, 40.0);  // nested dsl span not re-counted
  EXPECT_DOUBLE_EQ(b.sim_us, 20.0);
  EXPECT_DOUBLE_EQ(b.retry_backoff_us, 0.0);
  EXPECT_DOUBLE_EQ(b.other_us, 10.0);
  // Chrome export carries the tree in args.
  const Json doc = chrome_trace_json(events);
  const Json& first = doc.find("traceEvents")->items()[0];
  EXPECT_NE(first.find("args")->find("req"), nullptr);
}

// The one-pass grouping gives exactly the per-request breakdowns, on a
// synthetic trace whose requests interleave, with orphans, a request
// without a root, nested compile and run spans, unscoped events and span
// ids reused across requests.
TEST(Trace, RequestBreakdownsEqualsOneBreakdownPerRequest) {
  std::vector<TraceEvent> events;
  const auto span = [&](const char* name, u64 req, u64 id, u64 parent,
                        f64 dur_us) {
    TraceEvent ev;
    ev.name = name;
    ev.cat = "test";
    ev.request_id = req;
    ev.span_id = id;
    ev.parent_span_id = parent;
    ev.dur_us = dur_us;
    events.push_back(std::move(ev));
  };
  for (u64 round = 0; round < 3; ++round) {
    for (u64 req : {7u, 3u, 11u, 5u}) {
      const u64 base = req * 100 + round * 10;  // ids repeat across requests
      if (round == 0 && req != 5) {
        span("pipeline.server.request.root", req, req, 0, 1000.0 + req);
      }
      span("pipeline.server.queue_wait", req, base + 1, req, 10.0 + round);
      span("pipeline.cache.compile", req, base + 2, req, 40.0);
      span("dsl.compile_kernel", req, base + 3, base + 2, 25.0);
      span("exec.native.compile", req, base + 4, base + 3, 5.0);
      span("exec.native.run", req, base + 5, req, 20.0 + 0.1 * req);
      span("sim.launch.block", req, base + 6, base + 5, 3.0);
      span("resilience.retry.backoff", req, base + 7, req, 2.5);
      span("lost", req, base + 8, 987654321, 1.0);  // orphan
      span("unscoped", 0, base + 9, 0, 50.0);
    }
  }
  const std::vector<u64> ids = request_ids(events);
  const std::vector<RequestBreakdown> all = request_breakdowns(events);
  ASSERT_EQ(all.size(), ids.size());
  ASSERT_EQ(ids, (std::vector<u64>{3, 5, 7, 11}));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const RequestBreakdown one = request_breakdown(events, ids[i]);
    const RequestBreakdown& got = all[i];
    EXPECT_EQ(got.request_id, ids[i]);
    EXPECT_EQ(got.has_root, one.has_root) << ids[i];
    EXPECT_EQ(got.spans, one.spans) << ids[i];
    EXPECT_EQ(got.unreachable, one.unreachable) << ids[i];
    EXPECT_EQ(got.total_us, one.total_us) << ids[i];
    EXPECT_EQ(got.queue_us, one.queue_us) << ids[i];
    EXPECT_EQ(got.compile_us, one.compile_us) << ids[i];
    EXPECT_EQ(got.sim_us, one.sim_us) << ids[i];
    EXPECT_EQ(got.retry_backoff_us, one.retry_backoff_us) << ids[i];
    EXPECT_EQ(got.other_us, one.other_us) << ids[i];
  }
  // Request 5 has no root: all of its spans are unreachable.
  EXPECT_FALSE(all[1].has_root);
  EXPECT_EQ(all[1].unreachable, all[1].spans);
  // Request 3: three orphans; nested compiles and runs counted once.
  EXPECT_EQ(all[0].unreachable, 3);
  EXPECT_DOUBLE_EQ(all[0].compile_us, 120.0);
  EXPECT_TRUE(request_breakdowns({}).empty());
}

}  // namespace
}  // namespace ispb::obs
