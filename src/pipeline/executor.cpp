#include "pipeline/executor.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <span>

#include "common/error.hpp"
#include "common/stop.hpp"
#include "common/thread_pool.hpp"
#include "dsl/compile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb::pipeline {

namespace {

/// Image slots of one run: [0] the caller's source, [i + 1] stage i's output.
using Slots = std::span<const Image<f32>* const>;

/// Plans a run's executor memoizes; beyond them the least recently used
/// plan goes.
constexpr std::size_t kPlans = 32;

/// One stage's entry of a plan.
struct PreparedStage {
  /// Native engine: the stage's "<kernel>#native" breaker; interpreted: its
  /// variant breaker (none for kNaive). Null without a registry.
  resilience::CircuitBreaker* breaker = nullptr;
  /// Native engine: the module and what it reports; a null module is
  /// resolved through the cache by each run.
  exec::NativeLaunch launch;
};

/// Whether two specs are one kernel: name, input count, output and every
/// node, constants by bit pattern as spec_fingerprint hashes them (0.0f and
/// -0.0f are different kernels).
bool same_spec(const codegen::StencilSpec& a, const codegen::StencilSpec& b) {
  const auto same_node = [](const codegen::Node& m, const codegen::Node& n) {
    return m.kind == n.kind &&
           std::bit_cast<u32>(m.value) == std::bit_cast<u32>(n.value) &&
           m.input == n.input && m.dx == n.dx && m.dy == n.dy &&
           m.lhs == n.lhs && m.rhs == n.rhs;
  };
  return a.name == b.name && a.num_inputs == b.num_inputs &&
         a.output == b.output &&
         std::equal(a.nodes.begin(), a.nodes.end(), b.nodes.begin(),
                    b.nodes.end(), same_node);
}

/// Whether two graphs have the same content: name, and per stage the spec,
/// input images and deps.
bool same_graph(const KernelGraph& a, const KernelGraph& b) {
  return a.name == b.name &&
         std::equal(a.stages.begin(), a.stages.end(), b.stages.begin(),
                    b.stages.end(),
                    [](const KernelGraph::Stage& s, const KernelGraph::Stage& t) {
                      return s.input_images == t.input_images &&
                             s.deps == t.deps && same_spec(s.spec, t.spec);
                    });
}

/// The inputs `stage` binds, from the run's slots.
std::vector<const Image<f32>*> inputs_of(const KernelGraph::Stage& stage,
                                         Slots slots) {
  std::vector<const Image<f32>*> inputs;
  inputs.reserve(stage.input_images.size());
  for (i32 img : stage.input_images) {
    inputs.push_back(slots[static_cast<std::size_t>(img)]);
  }
  return inputs;
}

/// Runs prepared native modules as one chain (one module: one stage),
/// traced as one exec.native.run span and counted as one native launch per
/// stage; returns wall milliseconds.
f64 run_native_traced(std::span<const KernelGraph::Stage> stages,
                      std::span<const exec::NativeModule* const> modules,
                      Slots slots, Image<f32>& out, i64 bands) {
  obs::ScopedSpan span("exec.native.run", "sim");
  if (span.recording()) {
    span.arg("kernel", stages.back().spec.name);
    if (stages.size() > 1) span.arg("chain", static_cast<i64>(stages.size()));
  }
  const f64 wall_ms = exec::run_native_chain(
      modules, inputs_of(stages.front(), slots), out, bands);
  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
      reg != nullptr) {
    for (const KernelGraph::Stage& stage : stages) {
      reg->add("exec.launches", 1.0,
               {{"backend", "native"}, {"kernel", stage.spec.name}});
    }
  }
  return wall_ms;
}

/// A native unit (KernelGraph::chains; a lone stage is a chain of one) on
/// its way to one run_native_chain call. While `deferred`, each stage's
/// attempt goes through breakers, fault points and the cache and stores its
/// resolved module here instead of running it. A stage that has to be
/// served by the interpreter needs its input as a full image: it calls
/// materialize() first, and the rest of the chain runs stage by stage.
///
/// No stage of a chain is checked with dsl::validate_inputs: the run's
/// graph.validate() checks each stage's input count, and the chain's first
/// stage reads only the source and planned buffers, all of the source's
/// size (a chain's interior outputs have one reader, the next stage).
struct ChainLaunch {
  std::span<const KernelGraph::Stage> stages;
  Slots slots;
  /// Outputs of every stage but the last; the slots point at them. Empty
  /// images until materialize().
  std::span<Image<f32>> interiors;
  std::span<ExecutorResult::Stage> results;
  i64 bands = 1;
  std::vector<exec::NativeModulePtr> modules;  ///< resolved so far
  bool deferred = true;

  /// Allocates the intermediates and runs the modules resolved so far one
  /// stage at a time into them.
  void materialize() {
    deferred = false;
    for (Image<f32>& img : interiors) {
      img = Image<f32>(slots[0]->size(), Uninitialized{});
    }
    for (std::size_t j = 0; j < modules.size(); ++j) {
      const exec::NativeModule* const module = modules[j].get();
      results[j].stats.time_ms = run_native_traced(
          stages.subspan(j, 1), {&module, 1}, slots, interiors[j], bands);
    }
  }
};

/// The cache a config resolves through, or nullptr when it has none.
KernelCache* cache_of(const ExecutorConfig& config) {
  if (!config.use_cache) return nullptr;
  return config.cache != nullptr ? config.cache : &KernelCache::global();
}

codegen::CodegenOptions codegen_options(const filters::AppSimConfig& sim_cfg,
                                        codegen::Variant variant) {
  codegen::CodegenOptions options;
  options.pattern = sim_cfg.pattern;
  options.variant = variant;
  options.border_constant = sim_cfg.constant;
  // Tiled staging is specialized to the launch block shape; keep the two in
  // lockstep so the interpreted engine's tile contract holds.
  options.tile_block = sim_cfg.block;
  return options;
}

bool window_fits(const codegen::StencilSpec& spec, BorderPattern pattern,
                 Size2 size) {
  try {
    dsl::validate_window(spec, pattern, size);
    return true;
  } catch (const ContractError&) {
    return false;
  }
}

/// The variant breaker of an interpreted attempt at `stage`: none for a
/// naive run or without a registry.
resilience::CircuitBreaker* variant_breaker(const KernelGraph::Stage& stage,
                                            const ExecutorConfig& config) {
  if (config.breakers == nullptr ||
      config.sim.variant == codegen::Variant::kNaive) {
    return nullptr;
  }
  return &config.breakers->get(stage.spec.name);
}

/// Compiles (through the cache) and launches one stage with a fixed
/// variant: on the native engine as part of `chain`, on the interpreted one
/// when `chain` is null. The building block the primary path, the
/// breaker's naive fallback and the backend fallback all share. A native
/// stage takes its `prepared` launch when that holds a module, else
/// resolves one, into a deferring chain, or runs it at once once a fallback
/// has materialized the chain.
ExecutorResult::Stage launch_stage_variant(
    const KernelGraph::Stage& stage, const ExecutorConfig& config, Slots slots,
    Image<f32>& out, codegen::Variant variant, ChainLaunch* chain,
    const exec::NativeLaunch* prepared = nullptr) {
  const filters::AppSimConfig& sim_cfg = config.sim;
  const codegen::CodegenOptions options = codegen_options(sim_cfg, variant);
  KernelCache* const cache = cache_of(config);

  // Device-level fault point: fires for every launch attempt on this
  // simulated device (primary, breaker fallback and retry alike), so a
  // chaos "kill" rule takes the whole device down — naive fallback
  // included — and the fleet layer has to fail the request over.
  resilience::fault_point("device.launch", sim_cfg.device.name);

  exec::BackendRun run;
  if (chain != nullptr) {
    // A chain stage's inputs may be band-local: check the window against
    // the run's size, the one size every image of a run has.
    exec::NativeLaunch launch =
        prepared != nullptr && prepared->module != nullptr
            ? *prepared
            : exec::NativeBackend(cache).prepare(stage.spec, options,
                                                 sim_cfg.device,
                                                 slots[0]->size());
    run = launch.run;
    if (chain->deferred) {
      chain->modules.push_back(std::move(launch.module));
    } else {
      const exec::NativeModule* const module = launch.module.get();
      run.stats.time_ms = run_native_traced({&stage, 1}, {&module, 1}, slots,
                                            out, chain->bands);
    }
  } else {
    run = exec::run_interpreted(stage.spec, options, sim_cfg.device,
                                inputs_of(stage, slots), out, sim_cfg.block,
                                sim_cfg.sampled, cache);
  }

  ExecutorResult::Stage s;
  s.kernel = stage.spec.name;
  s.variant_used = run.variant_used;
  s.regs_per_thread = run.regs_per_thread;
  s.stats = run.stats;
  s.backend_used = run.backend;
  return s;
}

/// One breaker-guarded attempt: `primary` when `breaker` admits it (or
/// there is none), else `fallback`. The executor.stage fault point fires
/// after allow(), once per admitted attempt. Every admitted attempt ends in
/// a verdict or a release: a failing primary records a failure and serves
/// `fallback`; a ContractError (bad geometry fails on every path), a cut
/// (DeadlineExceeded) or a throw from the fault point records nothing,
/// releases the breaker (a half-open probe frees its slot) and propagates.
/// Without a breaker every failure propagates.
template <typename Primary, typename Fallback>
ExecutorResult::Stage guarded_attempt(resilience::CircuitBreaker* breaker,
                                      std::string_view kernel,
                                      Primary&& primary, Fallback&& fallback) {
  if (breaker != nullptr && !breaker->allow()) return fallback();
  // Releases the admission on every exit that records no verdict.
  struct Admission {
    resilience::CircuitBreaker* breaker;
    ~Admission() {
      if (breaker != nullptr) breaker->release();
    }
  } admission{breaker};
  resilience::fault_point("executor.stage", kernel);
  try {
    ExecutorResult::Stage s = primary();
    if (breaker != nullptr) breaker->record_success();
    admission.breaker = nullptr;
    return s;
  } catch (const ContractError&) {
    throw;
  } catch (const DeadlineExceeded&) {
    throw;
  } catch (...) {
    if (breaker == nullptr) throw;
    breaker->record_failure();
    admission.breaker = nullptr;
  }
  return fallback();
}

/// One interpreted attempt at a stage: variant planning, compile and
/// launch under the stage's variant `breaker` (variant_breaker), which —
/// when the specialized path fails or has tripped it — serves the naive
/// variant instead (the runtime isp+m).
ExecutorResult::Stage run_interpreted_once(const KernelGraph::Stage& stage,
                                           const ExecutorConfig& config,
                                           Slots slots, Image<f32>& out,
                                           resilience::CircuitBreaker* breaker) {
  const filters::AppSimConfig& sim_cfg = config.sim;
  return guarded_attempt(
      breaker, stage.spec.name,
      [&] {
        codegen::Variant variant = sim_cfg.variant;
        if (sim_cfg.use_model) {
          variant = dsl::plan_variant(sim_cfg.device, stage.spec, out.size(),
                                      sim_cfg.block, sim_cfg.pattern,
                                      sim_cfg.variant ==
                                          codegen::Variant::kIspWarp)
                        .variant;
        }
        return launch_stage_variant(stage, config, slots, out, variant,
                                    nullptr);
      },
      [&] {
        // The caller still sees kOk, with the degradation visible in
        // variant_used.
        ExecutorResult::Stage s = launch_stage_variant(
            stage, config, slots, out, codegen::Variant::kNaive, nullptr);
        s.served_by_fallback = true;
        return s;
      });
}

/// One attempt at a stage: interpreted when `chain` is null, else native
/// under the stage's own native breaker (keyed "<kernel>#native", distinct
/// from the variant breaker), both held by the stage's `prepared` entry.
/// When the native path fails — or that breaker is open — the stage is
/// served by the full interpreted attempt instead, bit-identically, with
/// the degradation visible in backend_used/backend_fallback.
ExecutorResult::Stage run_stage_once(const KernelGraph::Stage& stage,
                                     const PreparedStage& prepared,
                                     const ExecutorConfig& config, Slots slots,
                                     Image<f32>& out, ChainLaunch* chain) {
  if (chain == nullptr) {
    return run_interpreted_once(stage, config, slots, out, prepared.breaker);
  }
  return guarded_attempt(
      prepared.breaker, stage.spec.name,
      [&] {
        return launch_stage_variant(stage, config, slots, out,
                                    config.sim.variant, chain,
                                    &prepared.launch);
      },
      [&] {
        // The interpreter reads full images: a deferring chain runs what it
        // has resolved so far first.
        if (chain->deferred) chain->materialize();
        ExecutorResult::Stage s = run_interpreted_once(
            stage, config, slots, out, variant_breaker(stage, config));
        s.backend_fallback = true;
        return s;
      });
}

/// Runs one stage under the retry policy and publishes resilience metrics.
/// A request whose stop passed is cut here, before the stage starts.
ExecutorResult::Stage run_stage(const KernelGraph::Stage& stage,
                                const PreparedStage& prepared,
                                const ExecutorConfig& config, Slots slots,
                                Image<f32>& out, ChainLaunch* chain) {
  check_stop();
  resilience::RetryOutcome outcome;
  ExecutorResult::Stage s;
  try {
    s = resilience::retry_call(
        config.retry, config.clock,
        [&] {
          return run_stage_once(stage, prepared, config, slots, out, chain);
        },
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

/// Runs one unit. The interpreted engine runs a lone stage as run_stage
/// does. The native engine prepares the chain's stages one by one
/// (retries, breakers, fault points and fallback per stage), then runs
/// them band by band in one run_native_chain call, whose wall time the
/// last stage reports. `interiors` holds the outputs of all stages but the
/// last, `prepared` and `results` the chain's entries of the prepared run
/// and of the result.
void run_chain(std::span<const KernelGraph::Stage> stages,
               std::span<const PreparedStage> prepared,
               const ExecutorConfig& config, Slots slots,
               std::span<Image<f32>> interiors, Image<f32>& out,
               exec::Backend backend, i64 bands,
               std::span<ExecutorResult::Stage> results) {
  if (backend != exec::Backend::kNative) {
    results[0] = run_stage(stages[0], prepared[0], config, slots, out, nullptr);
    return;
  }
  ChainLaunch chain{stages, slots, interiors, results, bands, {}, true};
  chain.modules.reserve(stages.size());
  for (std::size_t j = 0; j < stages.size(); ++j) {
    Image<f32>& stage_out = j + 1 < stages.size() ? interiors[j] : out;
    results[j] =
        run_stage(stages[j], prepared[j], config, slots, stage_out, &chain);
  }
  if (!chain.deferred) return;
  std::vector<const exec::NativeModule*> modules;
  modules.reserve(chain.modules.size());
  for (const exec::NativeModulePtr& m : chain.modules) modules.push_back(m.get());
  results.back().stats.time_ms =
      run_native_traced(stages, modules, slots, out, bands);
}

}  // namespace

/// Everything a run settles before its first stage: built once per keys
/// and graph, never changed afterwards, so one plan serves concurrent runs.
/// It points into the executor's breaker registry and holds the executor's
/// config only under a variant override.
struct PipelineExecutor::Plan {
  /// Validates `caller` (throws ContractError), fuses it on the native
  /// engine, plans chains and buffers, fetches the breakers and, on the
  /// native engine, looks up each stage's module in the cache (find_native:
  /// a hit pins it, a miss or a window that does not fit the image leaves
  /// it to the run). Fires no fault point and compiles nothing.
  Plan(const ExecutorConfig& base, const KernelGraph& caller, Size2 run_size,
       exec::Backend run_engine, std::optional<codegen::Variant> run_variant);

  /// Whether a run may use this plan instead of a fresh one: the cache is
  /// enabled, its generation has not moved since the lookups, and every
  /// module resolved. A capacity eviction leaves it reusable: its modules
  /// stay loaded while it holds them.
  [[nodiscard]] bool reusable(const KernelCache* cache) const {
    return cache != nullptr && resolved && generation == cache->generation();
  }

  KernelGraph key;  ///< the caller's graph; set when memoized
  exec::Backend engine;
  std::optional<codegen::Variant> variant;
  Size2 size;
  /// The executor's config with the variant pinned, under an override.
  std::optional<ExecutorConfig> pinned;
  KernelGraph graph;  ///< what runs: graph.fused() on the native engine
  std::vector<KernelGraph::Chain> chains;
  KernelGraph::BufferPlan buffers;
  i64 bands = 1;
  std::vector<PreparedStage> stages;
  u64 generation = 0;  ///< KernelCache::generation() before the lookups
  /// Every native stage holds its module: a run looks nothing up in the
  /// cache unless a breaker or a failure sends a stage to the interpreter.
  bool resolved = true;
};

PipelineExecutor::Plan::Plan(const ExecutorConfig& base,
                             const KernelGraph& caller, Size2 run_size,
                             exec::Backend run_engine,
                             std::optional<codegen::Variant> run_variant)
    : engine(run_engine), variant(run_variant), size(run_size) {
  caller.validate();
  // A per-run variant override pins every stage (model selection off);
  // the config is copied only on that cold path.
  if (variant.has_value()) {
    pinned = base;
    pinned->sim.variant = *variant;
    pinned->sim.use_model = false;
  }
  const ExecutorConfig& config = pinned.has_value() ? *pinned : base;
  KernelCache* const cache = cache_of(config);
  // Read before the lookups: a clear() or set_jit() after them moves it,
  // and reusable() then turns the plan down.
  if (cache != nullptr) generation = cache->generation();
  const bool native = engine == exec::Backend::kNative;
  // The native engine runs pointwise consumers as their producers'
  // epilogues: one kernel, one memory pass and one dispatch fewer per
  // fusion. The interpreted engine keeps one simulated launch per kernel,
  // the paper's GPU model, so its stages and modeled counters stay
  // per-kernel.
  graph = native ? caller.fused() : caller;
  const std::size_t n = graph.stages.size();
  // The native engine runs each chain (KernelGraph::chains) as one unit,
  // band by band, with the chain's intermediates in band-local scratch; the
  // interpreted engine runs every stage alone. The band count decides
  // whether repeat may chain, so the chain runner is handed the same one.
  if (native) {
    bands =
        exec::row_bands(size, static_cast<i64>(ThreadPool::global().size()));
    chains = graph.chains(config.sim.pattern, bands);
  } else {
    chains.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      chains.push_back({static_cast<i32>(i), static_cast<i32>(i)});
    }
  }
  buffers = graph.buffer_plan(chains);

  const codegen::CodegenOptions options =
      codegen_options(config.sim, config.sim.variant);
  stages.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const KernelGraph::Stage& stage = graph.stages[i];
    PreparedStage& ps = stages[i];
    if (!native) {
      ps.breaker = variant_breaker(stage, config);
      continue;
    }
    if (config.breakers != nullptr) {
      ps.breaker = &config.breakers->get(stage.spec.name + "#native");
    }
    // A window that does not fit the image stays unresolved: the run's
    // attempt throws its ContractError where it always did.
    exec::NativeModulePtr module;
    if (cache != nullptr && window_fits(stage.spec, config.sim.pattern, size)) {
      module = cache->find_native(stage.spec, options, config.sim.device.name);
    }
    if (module == nullptr) {
      resolved = false;
      continue;
    }
    ps.launch = exec::native_launch(std::move(module), stage.spec, options,
                                    size);
  }
}

PipelineExecutor::PipelineExecutor(ExecutorConfig config)
    : config_(std::move(config)) {
  ISPB_EXPECTS(config_.concurrency == 1);
}

std::shared_ptr<const PipelineExecutor::Plan> PipelineExecutor::plan(
    const KernelGraph& graph, Size2 size, exec::Backend engine,
    std::optional<codegen::Variant> variant) const {
  // A variant override's pinned config keeps the cache fields of config_.
  const KernelCache* const cache = cache_of(config_);
  const auto same_keys = [&](const std::shared_ptr<const Plan>& p) {
    return p->engine == engine && p->variant == variant && p->size == size &&
           same_graph(p->key, graph);
  };
  if (cache != nullptr) {
    const std::lock_guard lock(mu_);
    const auto it = std::find_if(plans_.begin(), plans_.end(), same_keys);
    if (it != plans_.end()) {
      if ((*it)->reusable(cache)) {
        std::rotate(it, it + 1, plans_.end());  // most recently used last
        return plans_.back();
      }
      plans_.erase(it);  // stale: retired
    }
  }
  // Built outside the lock: a cold plan validates and fuses the graph,
  // which runs of other graphs need not wait for.
  auto fresh = std::make_shared<Plan>(config_, graph, size, engine, variant);
  if (!fresh->reusable(cache)) return fresh;
  fresh->key = graph;
  const std::lock_guard lock(mu_);
  std::erase_if(plans_, same_keys);  // a concurrent run's copy
  if (plans_.size() >= kPlans) plans_.erase(plans_.begin());
  plans_.push_back(fresh);
  return fresh;
}

ExecutorResult PipelineExecutor::run(
    const KernelGraph& graph, const Image<f32>& source,
    std::optional<exec::Backend> backend,
    std::optional<codegen::Variant> variant) const {
  const std::shared_ptr<const Plan> prepared =
      plan(graph, source.size(), backend.value_or(config_.backend), variant);
  const ExecutorConfig& config =
      prepared->pinned.has_value() ? *prepared->pinned : config_;
  const exec::Backend engine = prepared->engine;
  const KernelGraph& run_graph = prepared->graph;
  const std::vector<KernelGraph::Chain>& chains = prepared->chains;
  const KernelGraph::BufferPlan& buffer_plan = prepared->buffers;
  const i64 bands = prepared->bands;
  obs::ScopedSpan span("pipeline.execute", "pipeline");
  if (span.recording()) {  // the arguments cost copies even when unused
    span.arg("graph", run_graph.name);
    span.arg("stages", static_cast<i64>(run_graph.stages.size()));
    span.arg("backend", exec::to_string(engine));
  }

  const std::size_t n = run_graph.stages.size();
  std::span<const KernelGraph::Stage> all_stages(run_graph.stages);
  std::span<const PreparedStage> all_prepared(prepared->stages);

  // slots[0] = the caller's source, read in place: run() is synchronous, so
  // the caller's reference outlives every stage, and no stage writes it.
  // slots[i + 1] = stage i's output: the plan's buffer for the last stage
  // of a chain, else an image that stays empty unless a fallback
  // materializes the chain. The buffers are allocated uninitialized: every
  // backend defines each output pixel. Chains run one after another in
  // stage order, each writing only its own buffer and reading only slots of
  // earlier chains; the plan hands a buffer on only once its previous holder
  // and all that holder's readers have run. So no output ever aliases an
  // input, which the native kernels' __restrict__ relies on.
  std::vector<Image<f32>> buffers;
  buffers.reserve(static_cast<std::size_t>(buffer_plan.buffers));
  for (i32 b = 0; b < buffer_plan.buffers; ++b) {
    buffers.emplace_back(source.size(), Uninitialized{});
  }
  std::vector<Image<f32>> interiors(n);
  const auto output_of = [&](std::size_t stage) -> Image<f32>& {
    const i32 b = buffer_plan.stage_buffer[stage];
    return b >= 0 ? buffers[static_cast<std::size_t>(b)] : interiors[stage];
  };
  std::vector<const Image<f32>*> slots;
  slots.reserve(n + 1);
  slots.push_back(&source);
  for (std::size_t i = 0; i < n; ++i) slots.push_back(&output_of(i));

  ExecutorResult result;
  result.stages.resize(n);
  // Chain order is a topological order.
  for (const KernelGraph::Chain& chain : chains) {
    const auto first = static_cast<std::size_t>(chain.first);
    const auto count = static_cast<std::size_t>(chain.last) - first + 1;
    run_chain(all_stages.subspan(first, count),
              all_prepared.subspan(first, count), config, slots,
              std::span<Image<f32>>(interiors).subspan(first, count - 1),
              output_of(first + count - 1), engine, bands,
              std::span<ExecutorResult::Stage>(result.stages)
                  .subspan(first, count));
  }

  check_stop();  // an output that arrives past the stop is late: a cut
  for (const ExecutorResult::Stage& stage : result.stages) {
    result.total_time_ms += stage.stats.time_ms;
  }
  result.output = std::move(output_of(n - 1));
  return result;
}

}  // namespace ispb::pipeline
