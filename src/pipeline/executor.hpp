// PipelineExecutor: runs a KernelGraph on the simulator or the native
// engine, one stage after another in stage order on the calling thread.
//
// The paper runs a multi-kernel app as a sequence of launches, and all of
// its parallelism is inside each kernel, across thread blocks: the
// simulator's block loop and the native row bands parallelize each launch
// over ThreadPool::global(), and a server gets more from concurrent
// requests. On the interpreted engine Sobel runs dx, dy and the magnitude
// as three launches (the native engine fuses all three into one kernel,
// KernelGraph::fused); on the native engine Night runs as one chain, band
// by band, with band-local intermediates. Stage results are bit-identical
// to filters::run_app_reference: stages only read images of earlier
// stages, a buffer is reused only after every reader of its previous
// contents has run (KernelGraph::buffer_plan), and each launch is
// deterministic.
#pragma once

#include <memory>
#include <mutex>
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
  /// Must be 1 (the constructor rejects anything else): stages always run
  /// in order on the calling thread. Kept only because perfbench still
  /// assigns it; the field goes with perfbench's next change.
  i32 concurrency = 1;
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

/// Runs KernelGraphs. A run's plan — what depends only on the graph and
/// its keys (engine, variant override, source size), not on the pixels:
/// the graph that runs (graph.fused() on the native engine), validated; its
/// chains, buffer plan and band count; each stage's breaker;
/// and, on the native engine, each stage's module, pinned — is built once
/// and memoized inside the executor (at most 32 plans, least recently used
/// dropped first), so a repeated run pays only for its kernels. The memo's
/// key is the graph's content (its name and every stage's spec, constants
/// by bit pattern, input images and deps) plus those keys, never its
/// address. A plan is reused while the cache is enabled, its generation has
/// not moved since the plan's lookups (no clear, set_jit or poison heal)
/// and every module resolved; breakers are read afresh by every run.
/// DESIGN.md §12.
class PipelineExecutor {
 public:
  /// Throws ContractError unless config.concurrency is 1.
  explicit PipelineExecutor(ExecutorConfig config = {});

  /// Runs every stage of `graph` over `source` in stage order on the
  /// calling thread. Throws ContractError for an invalid graph and rethrows
  /// the first stage failure; later stages do not run. `source` is read in
  /// place, never copied: stages reading image 0 read the caller's buffer
  /// (any pitch); the run is synchronous, so the caller's reference
  /// outlives it. Stage outputs live in the graph's buffer_plan(): one
  /// uninitialized image per planned buffer, each pixel written once by
  /// the stage that owns it, and a buffer whose output is dead is reused
  /// within the run (night's five stages share two). On the native engine
  /// the stages are graph.fused()'s: sobel runs as one kernel and night as
  /// four, and ExecutorResult::stages lists the fused stages; the
  /// interpreted engine runs graph's own stages. The native engine also
  /// runs each of the fused graph's chains (KernelGraph::chains) band by
  /// band in one exec::run_native_chain call, so only a chain's last stage
  /// gets a buffer (night's four stages need one) and reports the chain's
  /// wall time; its other stages read 0.
  /// `backend` overrides ExecutorConfig::backend for this run
  /// (per-request selection in the server); `variant` pins every stage to
  /// one variant with model selection disabled (fleet brownout serves
  /// kNaive this way).
  /// Under a stop time (common/stop.hpp) it checks before each stage, per
  /// native strip or full-launch block, and after the last stage, and
  /// throws DeadlineExceeded at the first check past the stop: a cut that
  /// is not retried, charges no breaker and takes no fallback.
  /// Safe to call from several threads at once; they share the plans.
  [[nodiscard]] ExecutorResult run(
      const KernelGraph& graph, const Image<f32>& source,
      std::optional<exec::Backend> backend = std::nullopt,
      std::optional<codegen::Variant> variant = std::nullopt) const;

 private:
  struct Plan;  ///< a prepared run (executor.cpp)

  /// The memoized plan for these keys while it stays reusable, else a
  /// fresh one, memoized if it may be reused.
  [[nodiscard]] std::shared_ptr<const Plan> plan(
      const KernelGraph& graph, Size2 size, exec::Backend engine,
      std::optional<codegen::Variant> variant) const;

  ExecutorConfig config_;
  mutable std::mutex mu_;  ///< guards plans_
  /// Memoized plans, least recently used first.
  mutable std::vector<std::shared_ptr<const Plan>> plans_;
};

}  // namespace ispb::pipeline
