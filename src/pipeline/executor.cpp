#include "pipeline/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <span>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "dsl/compile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb::pipeline {

namespace {

/// Image slots of one run: [0] the caller's source, [i + 1] stage i's output.
using Slots = std::span<const Image<f32>* const>;

/// Compiles (through the cache) and launches one stage with a fixed
/// variant on the given engine; the building block the primary path, the
/// breaker's naive fallback and the backend fallback all share.
ExecutorResult::Stage launch_stage_variant(const KernelGraph::Stage& stage,
                                           const ExecutorConfig& config,
                                           Slots slots,
                                           Image<f32>& out,
                                           codegen::Variant variant,
                                           exec::Backend backend) {
  const filters::AppSimConfig& sim_cfg = config.sim;
  codegen::CodegenOptions options;
  options.pattern = sim_cfg.pattern;
  options.variant = variant;
  options.border_constant = sim_cfg.constant;
  // Tiled staging is specialized to the launch block shape; keep the two in
  // lockstep so the interpreted engine's tile contract holds.
  options.tile_block = sim_cfg.block;

  KernelCache* cache = nullptr;
  if (config.use_cache) {
    cache = config.cache != nullptr ? config.cache : &KernelCache::global();
  }

  std::vector<const Image<f32>*> inputs;
  inputs.reserve(stage.input_images.size());
  for (i32 img : stage.input_images) {
    inputs.push_back(slots[static_cast<std::size_t>(img)]);
  }

  // Device-level fault point: fires for every launch attempt on this
  // simulated device (primary, breaker fallback and retry alike), so a
  // chaos "kill" rule takes the whole device down — naive fallback
  // included — and the fleet layer has to fail the request over.
  resilience::fault_point("device.launch", sim_cfg.device.name);

  exec::BackendRun run;
  if (backend == exec::Backend::kNative) {
    exec::NativeBackend engine(cache);
    run = engine.run(stage.spec, options, sim_cfg.device, inputs, out,
                     sim_cfg.block, sim_cfg.sampled);
  } else {
    exec::InterpretedBackend engine(cache);
    run = engine.run(stage.spec, options, sim_cfg.device, inputs, out,
                     sim_cfg.block, sim_cfg.sampled);
  }

  ExecutorResult::Stage s;
  s.kernel = stage.spec.name;
  s.variant_used = run.variant_used;
  s.regs_per_thread = run.regs_per_thread;
  s.stats = run.stats;
  s.backend_used = run.backend;
  return s;
}

/// One interpreted attempt at a stage: breaker gating, variant planning,
/// compile, launch, and — when the specialized path fails under an active
/// breaker — the transparent naive fallback (the runtime isp+m).
ExecutorResult::Stage run_stage_interp_once(
    const KernelGraph::Stage& stage, const ExecutorConfig& config,
    Slots slots, Image<f32>& out) {
  const filters::AppSimConfig& sim_cfg = config.sim;

  resilience::CircuitBreaker* breaker = nullptr;
  if (config.breakers != nullptr &&
      sim_cfg.variant != codegen::Variant::kNaive) {
    breaker = &config.breakers->get(stage.spec.name);
    if (!breaker->allow()) {
      // Open breaker: serve the naive variant without planning or touching
      // the (still failing) specialized path at all.
      ExecutorResult::Stage s =
          launch_stage_variant(stage, config, slots, out,
                               codegen::Variant::kNaive,
                               exec::Backend::kInterpreted);
      s.served_by_fallback = true;
      return s;
    }
  }

  resilience::fault_point("executor.stage", stage.spec.name);
  try {
    codegen::Variant variant = sim_cfg.variant;
    if (sim_cfg.use_model) {
      const dsl::PlanDecision plan = dsl::plan_variant(
          sim_cfg.device, stage.spec, out.size(), sim_cfg.block,
          sim_cfg.pattern, sim_cfg.variant == codegen::Variant::kIspWarp);
      variant = plan.variant;
    }
    ExecutorResult::Stage s = launch_stage_variant(
        stage, config, slots, out, variant, exec::Backend::kInterpreted);
    if (breaker != nullptr) breaker->record_success();
    return s;
  } catch (const ContractError&) {
    throw;  // geometry/contract violations: the naive kernel cannot help
  } catch (...) {
    if (breaker == nullptr) throw;
    breaker->record_failure();
    // Abandon the specialized path for this request and serve naive; the
    // caller still sees kOk, with the degradation visible in variant_used.
    ExecutorResult::Stage s =
        launch_stage_variant(stage, config, slots, out,
                             codegen::Variant::kNaive,
                             exec::Backend::kInterpreted);
    s.served_by_fallback = true;
    return s;
  }
}

/// One attempt at a stage on the selected engine. The native path has its
/// own breaker (keyed "<kernel>#native", distinct from the variant
/// breaker): when the native toolchain keeps failing — or the breaker is
/// already open — the stage is served by the full interpreted path
/// instead, bit-identically, with the degradation visible in
/// backend_used/backend_fallback. ContractErrors pass through untouched:
/// bad geometry fails on every engine.
ExecutorResult::Stage run_stage_once(const KernelGraph::Stage& stage,
                                     const ExecutorConfig& config,
                                     Slots slots,
                                     Image<f32>& out, exec::Backend backend) {
  if (backend != exec::Backend::kNative) {
    return run_stage_interp_once(stage, config, slots, out);
  }

  resilience::CircuitBreaker* breaker = nullptr;
  if (config.breakers != nullptr) {
    breaker = &config.breakers->get(stage.spec.name + "#native");
    if (!breaker->allow()) {
      ExecutorResult::Stage s =
          run_stage_interp_once(stage, config, slots, out);
      s.backend_fallback = true;
      return s;
    }
  }

  resilience::fault_point("executor.stage", stage.spec.name);
  try {
    ExecutorResult::Stage s = launch_stage_variant(
        stage, config, slots, out, config.sim.variant,
        exec::Backend::kNative);
    if (breaker != nullptr) breaker->record_success();
    return s;
  } catch (const ContractError&) {
    throw;
  } catch (...) {
    if (breaker == nullptr) throw;
    breaker->record_failure();
    ExecutorResult::Stage s = run_stage_interp_once(stage, config, slots, out);
    s.backend_fallback = true;
    return s;
  }
}

/// Runs one stage under the retry policy and publishes resilience metrics.
ExecutorResult::Stage run_stage(const KernelGraph::Stage& stage,
                                const ExecutorConfig& config,
                                Slots slots,
                                Image<f32>& out, exec::Backend backend) {
  resilience::RetryOutcome outcome;
  ExecutorResult::Stage s;
  try {
    s = resilience::retry_call(
        config.retry, config.clock,
        [&] { return run_stage_once(stage, config, slots, out, backend); },
        &outcome);
  } catch (...) {
    if (obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
        reg != nullptr && outcome.attempts > 1) {
      reg->add("resilience.retry.attempts",
               static_cast<f64>(outcome.attempts - 1),
               {{"site", "executor.stage"}});
    }
    throw;
  }
  s.attempts = outcome.attempts;
  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
      reg != nullptr) {
    if (outcome.attempts > 1) {
      reg->add("resilience.retry.attempts",
               static_cast<f64>(outcome.attempts - 1),
               {{"site", "executor.stage"}});
    }
    if (s.served_by_fallback) {
      reg->add("resilience.fallback.served", 1.0,
               {{"kernel", stage.spec.name}});
    }
    if (s.backend_fallback) {
      reg->add("exec.backend.fallback", 1.0, {{"kernel", stage.spec.name}});
    }
  }
  return s;
}

}  // namespace

PipelineExecutor::PipelineExecutor(ExecutorConfig config)
    : config_(std::move(config)) {
  ISPB_EXPECTS(config_.concurrency >= 0);
}

ExecutorResult PipelineExecutor::run(
    const KernelGraph& graph, const Image<f32>& source,
    std::optional<exec::Backend> backend,
    std::optional<codegen::Variant> variant) const {
  graph.validate();
  // A per-run variant override pins every stage (model selection off);
  // config_ is copied only on that cold path.
  std::optional<ExecutorConfig> pinned;
  if (variant.has_value()) {
    pinned = config_;
    pinned->sim.variant = *variant;
    pinned->sim.use_model = false;
  }
  const ExecutorConfig& config = pinned.has_value() ? *pinned : config_;
  const exec::Backend engine = backend.value_or(config.backend);
  // The native engine runs pointwise consumers as their producers'
  // epilogues: one kernel, one memory pass and one dispatch fewer per
  // fusion. The interpreted engine keeps one simulated launch per kernel,
  // the paper's GPU model, so its stages and modeled counters stay
  // per-kernel (and its graph is not copied).
  std::optional<KernelGraph> fused;
  if (engine == exec::Backend::kNative) fused = graph.fused();
  const KernelGraph& run_graph = fused.has_value() ? *fused : graph;
  obs::ScopedSpan span("pipeline.execute", "pipeline");
  span.arg("graph", graph.name);
  span.arg("stages", static_cast<i64>(run_graph.stages.size()));
  span.arg("backend", std::string(exec::to_string(engine)));

  const std::size_t n = run_graph.stages.size();
  // slots[0] = the caller's source, read in place: run() is synchronous, so
  // the caller's reference outlives every stage, and no stage writes it.
  // slots[i + 1] = stage i's output, the plan's buffer for stage i. The
  // buffers are allocated uninitialized: every backend defines each output
  // pixel. A stage writes only its own buffer and reads only slots of
  // completed dependencies; the plan hands a buffer on only once its
  // previous holder and all that holder's readers are ancestors of the new
  // stage. So no synchronization beyond scheduling order is needed, and no
  // output ever aliases an input, which the native kernels' __restrict__
  // relies on.
  const KernelGraph::BufferPlan plan = run_graph.buffer_plan();
  std::vector<Image<f32>> buffers;
  buffers.reserve(static_cast<std::size_t>(plan.buffers));
  for (i32 b = 0; b < plan.buffers; ++b) {
    buffers.emplace_back(source.size(), Uninitialized{});
  }
  const auto output_of = [&](std::size_t stage) -> Image<f32>& {
    return buffers[static_cast<std::size_t>(plan.stage_buffer[stage])];
  };
  std::vector<const Image<f32>*> slots;
  slots.reserve(n + 1);
  slots.push_back(&source);
  for (std::size_t i = 0; i < n; ++i) slots.push_back(&output_of(i));

  ExecutorResult result;
  result.stages.resize(n);

  i32 concurrency = config.concurrency;
  if (concurrency == 0) {
    concurrency = std::min<i32>(
        {static_cast<i32>(run_graph.roots().size()), 8,
         std::max(1, static_cast<i32>(std::thread::hardware_concurrency()))});
  }

  if (concurrency <= 1 || n == 1) {
    // Inline: stage order is already topological.
    for (std::size_t i = 0; i < n; ++i) {
      result.stages[i] =
          run_stage(run_graph.stages[i], config, slots, output_of(i), engine);
    }
  } else {
    // Kahn scheduling over a dedicated pool (see header for why not the
    // global pool).
    std::vector<i32> remaining(n, 0);
    std::vector<std::vector<i32>> dependents(n);
    for (std::size_t i = 0; i < n; ++i) {
      remaining[i] = static_cast<i32>(run_graph.stages[i].deps.size());
      for (i32 dep : run_graph.stages[i].deps) {
        dependents[static_cast<std::size_t>(dep)].push_back(
            static_cast<i32>(i));
      }
    }

    ThreadPool pool(static_cast<unsigned>(concurrency));
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t pending = n;
    std::exception_ptr first_error;

    std::function<void(i32)> submit_stage;

    // Called under `mu` when a stage's last dependency settled: run it, or —
    // once a failure is recorded — settle it unrun and cascade.
    std::function<void(i32)> on_ready = [&](i32 stage_id) {
      if (first_error == nullptr) {
        submit_stage(stage_id);
        return;
      }
      if (--pending == 0) done_cv.notify_all();
      for (i32 dependent : dependents[static_cast<std::size_t>(stage_id)]) {
        if (--remaining[static_cast<std::size_t>(dependent)] == 0) {
          on_ready(dependent);
        }
      }
    };

    // Pool workers are fresh threads with empty trace contexts; carry the
    // caller's (the request this run belongs to) onto each stage task so
    // stage spans stay in the request's tree.
    const obs::TraceContext trace_ctx = obs::TraceContext::current();
    submit_stage = [&, trace_ctx](i32 stage_id) {
      pool.submit([&, trace_ctx, stage_id] {
        obs::TraceContext::Scope trace_scope(trace_ctx);
        const auto idx = static_cast<std::size_t>(stage_id);
        ExecutorResult::Stage outcome;
        std::exception_ptr error;
        try {
          outcome = run_stage(run_graph.stages[idx], config, slots,
                              output_of(idx), engine);
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard lock(mu);
        if (error == nullptr) {
          result.stages[idx] = std::move(outcome);
        } else if (first_error == nullptr) {
          first_error = error;
        }
        if (--pending == 0) done_cv.notify_all();
        for (i32 dependent : dependents[idx]) {
          if (--remaining[static_cast<std::size_t>(dependent)] == 0) {
            on_ready(dependent);
          }
        }
      });
    };

    {
      std::lock_guard lock(mu);
      for (i32 root : run_graph.roots()) submit_stage(root);
    }
    std::unique_lock lock(mu);
    done_cv.wait(lock, [&] { return pending == 0; });
    lock.unlock();
    pool.wait_idle();  // let the last task fully exit its closure
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }

  for (const ExecutorResult::Stage& stage : result.stages) {
    result.total_time_ms += stage.stats.time_ms;
  }
  result.output = std::move(output_of(n - 1));
  return result;
}

}  // namespace ispb::pipeline
