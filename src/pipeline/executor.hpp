// PipelineExecutor: runs a KernelGraph on the simulator, scheduling stages
// whose dependencies are satisfied concurrently on a common::ThreadPool.
//
// On the interpreted engine Sobel's two derivative kernels execute in
// parallel and the magnitude stage starts the moment both finish (the
// native engine fuses all three into one kernel, KernelGraph::fused);
// Night's Atrous chain degrades to sequential execution naturally (each
// stage unblocks the next); on the native engine it runs as one chain,
// band by band, with band-local intermediates. Stage results are bit-identical to
// filters::run_app_reference regardless of schedule: stages only share
// images through completed dependencies, a buffer is reused only after
// every reader of its previous contents has finished
// (KernelGraph::buffer_plan), and each launch is deterministic.
//
// Threading: the executor owns a pool sized to the graph's parallelism. It
// deliberately does NOT run stage bodies on ThreadPool::global() — the
// simulator's block loop parallelizes over that pool via parallel_for, and
// parallel_for's wait would self-deadlock if its caller occupied a global
// worker slot. With concurrency 1 stages run inline on the caller's thread
// (no pool at all) — the right mode for serving, where parallelism comes
// from concurrent requests instead.
#pragma once

#include <optional>
#include <vector>

#include "exec/backend.hpp"
#include "pipeline/kernel_cache.hpp"
#include "pipeline/kernel_graph.hpp"
#include "resilience/circuit_breaker.hpp"
#include "resilience/retry.hpp"

namespace ispb::pipeline {

/// How the executor runs one graph.
struct ExecutorConfig {
  /// Device/block/variant/pattern knobs shared by every stage.
  filters::AppSimConfig sim;
  /// Max stages in flight: 1 = inline (no pool), 0 = one worker per
  /// independent root, capped at 8.
  i32 concurrency = 0;
  /// Compile cache; nullptr = KernelCache::global(). Ignored when
  /// use_cache is false (every stage compiles from scratch — the
  /// cold-compile baseline the benches compare against).
  KernelCache* cache = nullptr;
  bool use_cache = true;
  /// Execution engine for every stage (overridable per run()). Interpreted
  /// keeps modeled counters and is the default so profiling/cost-analysis
  /// flows are unchanged; serving flips to native for wall speed.
  exec::Backend backend = exec::Backend::kInterpreted;

  // ---- resilience ----------------------------------------------------------
  /// Per-stage retry (the whole compile+launch attempt is the retried
  /// unit). Default: one attempt, i.e. the pre-resilience behavior.
  resilience::RetryPolicy retry;
  /// Per-kernel circuit breakers. When set, a stage whose specialized
  /// (non-naive) path keeps failing is served by the naive variant — the
  /// runtime generalization of the paper's isp+m static fallback — and the
  /// breaker's half-open probes restore the ISP path once it heals.
  /// nullptr disables breaking (failures propagate as before).
  resilience::BreakerRegistry* breakers = nullptr;
  /// Clock for retry backoff (and nothing else); nullptr = wall clock.
  resilience::Clock* clock = nullptr;
};

/// Per-stage and aggregate outcome of one run.
struct ExecutorResult {
  Image<f32> output;
  f64 total_time_ms = 0.0;  ///< summed modeled stage time
  struct Stage {
    std::string kernel;
    codegen::Variant variant_used = codegen::Variant::kNaive;
    i32 regs_per_thread = 0;
    sim::LaunchStats stats;
    u32 attempts = 1;  ///< tries the retry policy spent on this stage
    /// True when the breaker served the naive variant in place of a failing
    /// (or tripped) specialized path.
    bool served_by_fallback = false;
    /// Engine that produced the output (native stats carry wall time only).
    exec::Backend backend_used = exec::Backend::kInterpreted;
    /// True when a failing (or circuit-broken) native path was served by
    /// the interpreted engine instead.
    bool backend_fallback = false;
  };
  /// In stage order of the graph that ran: graph.fused() on the native
  /// engine, the app's own graph on the interpreted one.
  std::vector<Stage> stages;
};

class PipelineExecutor;

/// What one run of a graph needs that depends only on the graph and its
/// keys — engine, variant override and source size — and not on the
/// pixels: the graph that runs (graph.fused() on the native engine),
/// validated; its chains, buffer plan, band count and concurrency; the
/// codegen options; each stage's breaker; and, on the native engine, each
/// stage's module, pinned. PipelineExecutor::prepare builds it; nothing
/// changes it afterwards, so one prepared run may serve concurrent runs of
/// the executor that built it (it points into that executor's breaker
/// registry and holds its config only under a variant override). A run
/// asks each breaker afresh: a breaker that trips or closes again takes
/// effect on the next run. DESIGN.md §12.
class PreparedRun {
 public:
  [[nodiscard]] exec::Backend engine() const { return engine_; }
  [[nodiscard]] std::optional<codegen::Variant> variant() const {
    return variant_;
  }
  [[nodiscard]] Size2 size() const { return size_; }
  /// The stages that run: graph.fused()'s on the native engine, the
  /// graph's own on the interpreted one.
  [[nodiscard]] const KernelGraph& graph() const { return graph_; }

  /// One stage's entry.
  struct Stage {
    /// Native engine: the stage's "<kernel>#native" breaker; interpreted:
    /// its variant breaker (none for kNaive). Null without a registry.
    resilience::CircuitBreaker* breaker = nullptr;
    /// Native engine: the module and what it reports; a null module is
    /// resolved through the cache by each run, as an unprepared run does.
    exec::NativeLaunch launch;
  };

 private:
  friend class PipelineExecutor;

  const PipelineExecutor* owner_ = nullptr;
  exec::Backend engine_ = exec::Backend::kInterpreted;
  std::optional<codegen::Variant> variant_;
  Size2 size_;
  /// The executor's config with the variant pinned, under an override.
  std::optional<ExecutorConfig> pinned_;
  KernelGraph graph_;
  std::vector<KernelGraph::Chain> chains_;
  KernelGraph::BufferPlan plan_;
  i64 bands_ = 1;
  i32 concurrency_ = 1;
  std::vector<Stage> stages_;
  u64 generation_ = 0;  ///< KernelCache::generation() before the lookups
  /// Every native stage holds its module: a run looks nothing up in the
  /// cache unless a breaker or a failure sends a stage to the interpreter.
  bool resolved_ = true;
};

class PipelineExecutor {
 public:
  explicit PipelineExecutor(ExecutorConfig config = {});

  /// Everything run(graph, source, backend, variant) settles before its
  /// first stage, for a source of `size`: validates the graph (throws
  /// ContractError), fuses it on the native engine, plans chains and
  /// buffers, fetches the breakers and, on the native engine, looks up
  /// each stage's module in the cache (find_native: a hit pins it, a
  /// miss or a window that does not fit the image leaves it to the run).
  /// Fires no fault point and compiles nothing.
  [[nodiscard]] PreparedRun prepare(
      const KernelGraph& graph, Size2 size,
      std::optional<exec::Backend> backend = std::nullopt,
      std::optional<codegen::Variant> variant = std::nullopt) const;

  /// Whether a run of `prepared` may stand in for a fresh prepare(): the
  /// cache is enabled, its generation has not moved since the lookups (no
  /// clear, set_jit or poison heal), and every module resolved. A capacity
  /// eviction leaves it reusable: its modules stay loaded while it holds
  /// them. Without the cache, or once this is false, prepare again.
  [[nodiscard]] bool reusable(const PreparedRun& prepared) const;

  /// Runs `prepared` over `source`, whose size must be prepared.size():
  /// run()'s per-request work — stop checks, retries, breakers, fault
  /// points, fallbacks, buffers and the launches — without its
  /// preparation. `prepared` must come from this executor's prepare().
  [[nodiscard]] ExecutorResult run(const PreparedRun& prepared,
                                   const Image<f32>& source) const;

  /// Runs every stage of `graph` over `source`, honoring the dependency
  /// structure. Rethrows the first stage failure after in-flight stages
  /// drain. `source` is read in place, never copied: stages reading image 0
  /// read the caller's buffer (any pitch). Stage outputs live in the
  /// graph's buffer_plan(): one uninitialized image per planned buffer,
  /// each pixel written once by the stage that owns it, and a buffer whose
  /// output is dead is reused within the run (night's five stages share
  /// two). On the native engine the stages are graph.fused()'s: sobel
  /// runs as one kernel and night as four, and ExecutorResult::stages
  /// lists the fused stages; the interpreted engine runs graph's own
  /// stages. The native engine also runs each of the fused graph's chains
  /// (KernelGraph::chains) band by band in one exec::run_native_chain call,
  /// so only a chain's last stage gets a buffer (night's four stages need
  /// one) and reports the chain's wall time; its other stages read 0. The run is synchronous, so the caller's reference outlives it.
  /// `backend` overrides ExecutorConfig::backend for this run
  /// (per-request selection in the server); `variant` pins every stage to
  /// one variant with model selection disabled (fleet brownout serves
  /// kNaive this way).
  /// Under a stop time (common/stop.hpp) it checks before each stage, per
  /// native strip or full-launch block, and after the last stage, and
  /// throws DeadlineExceeded at the first check past the stop: a cut that
  /// is not retried, charges no breaker and takes no fallback.
  /// It runs as run(prepare(graph, source.size(), backend, variant),
  /// source).
  [[nodiscard]] ExecutorResult run(
      const KernelGraph& graph, const Image<f32>& source,
      std::optional<exec::Backend> backend = std::nullopt,
      std::optional<codegen::Variant> variant = std::nullopt) const;

 private:
  ExecutorConfig config_;
};

}  // namespace ispb::pipeline
