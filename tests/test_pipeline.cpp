// Pipeline runtime: kernel cache (single-flight, LRU, metrics), kernel
// graph derivation, DAG executor equivalence against the CPU reference, and
// the batched serving front-end (overflow, deadlines, drain-on-shutdown).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "filters/filters.hpp"
#include "image/compare.hpp"
#include "image/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/kernel_cache.hpp"
#include "pipeline/kernel_graph.hpp"
#include "pipeline/server.hpp"

namespace ispb {
namespace {

using codegen::CodegenOptions;
using codegen::Variant;

CodegenOptions opts(Variant variant,
                    BorderPattern pattern = BorderPattern::kClamp) {
  CodegenOptions o;
  o.pattern = pattern;
  o.variant = variant;
  return o;
}

/// A JIT directory for this binary, removed at exit. -O0 keeps the compiles
/// short; the emitted float sequence does not depend on the level.
exec::JitConfig test_jit() {
  static const struct Dir {
    std::filesystem::path path = std::filesystem::temp_directory_path() /
                                 ("ispb-test-pipeline-" +
                                  std::to_string(::getpid()));
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } dir;
  return {dir.path.string(), "", "-O0"};
}

/// Whether two images hold the same bits in every pixel (compare() reads
/// 0.0f and -0.0f as equal).
bool same_bits(const Image<f32>& a, const Image<f32>& b) {
  if (a.size() != b.size()) return false;
  for (i32 y = 0; y < a.height(); ++y) {
    for (i32 x = 0; x < a.width(); ++x) {
      if (std::bit_cast<u32>(a(x, y)) != std::bit_cast<u32>(b(x, y))) {
        return false;
      }
    }
  }
  return true;
}

// ---- fingerprint / key ------------------------------------------------------

TEST(SpecFingerprint, StableAcrossIndependentTraces) {
  const u64 a = pipeline::spec_fingerprint(filters::gaussian_spec(3));
  const u64 b = pipeline::spec_fingerprint(filters::gaussian_spec(3));
  EXPECT_EQ(a, b);
}

TEST(SpecFingerprint, DistinguishesSpecs) {
  const u64 g3 = pipeline::spec_fingerprint(filters::gaussian_spec(3));
  const u64 g5 = pipeline::spec_fingerprint(filters::gaussian_spec(5));
  const u64 l5 = pipeline::spec_fingerprint(filters::laplace_spec(5));
  EXPECT_NE(g3, g5);
  EXPECT_NE(g5, l5);
}

TEST(SpecFingerprint, DistinguishesSignedZeroConstants) {
  // 0.0f == -0.0f, but in(x, y) + 0.0f and in(x, y) + -0.0f differ on a
  // -0.0f pixel, so the two kernels must never share a cache entry.
  using codegen::NodeKind;
  codegen::StencilSpec positive;
  positive.name = "add_zero";
  positive.nodes = {{.kind = NodeKind::kRead},
                    {.kind = NodeKind::kConst, .value = 0.0f},
                    {.kind = NodeKind::kAdd, .lhs = 0, .rhs = 1}};
  positive.output = 2;
  positive.validate();
  codegen::StencilSpec negative = positive;
  negative.nodes[1].value = -0.0f;
  EXPECT_NE(pipeline::spec_fingerprint(positive),
            pipeline::spec_fingerprint(negative));
  EXPECT_NE(pipeline::cache_key(positive, opts(Variant::kIsp), ""),
            pipeline::cache_key(negative, opts(Variant::kIsp), ""));
}

TEST(CacheKey, CoversOptionsAndDevice) {
  const auto spec = filters::gaussian_spec(3);
  const std::string base = pipeline::cache_key(spec, opts(Variant::kIsp), "");
  EXPECT_NE(base, pipeline::cache_key(spec, opts(Variant::kNaive), ""));
  EXPECT_NE(base, pipeline::cache_key(
                      spec, opts(Variant::kIsp, BorderPattern::kMirror), ""));
  EXPECT_NE(base, pipeline::cache_key(spec, opts(Variant::kIsp), "rtx2080"));
}

// ---- cache hit/miss/LRU -----------------------------------------------------

TEST(KernelCache, HitMissAndLruEviction) {
  pipeline::KernelCache cache(/*capacity=*/2);
  const auto gauss = filters::gaussian_spec(3);
  const auto laplace = filters::laplace_spec(5);
  const auto sobel = filters::sobel_dx_spec();
  const CodegenOptions o = opts(Variant::kNaive);

  const auto g1 = cache.get_or_compile(gauss, o);    // miss
  const auto l1 = cache.get_or_compile(laplace, o);  // miss
  const auto g2 = cache.get_or_compile(gauss, o);    // hit, gauss -> MRU
  EXPECT_EQ(g1.get(), g2.get());

  (void)cache.get_or_compile(sobel, o);  // miss, evicts laplace (LRU)
  pipeline::KernelCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  const auto l2 = cache.get_or_compile(laplace, o);  // recompiled
  EXPECT_NE(l1.get(), l2.get());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_NEAR(cache.stats().hit_rate(), 1.0 / 5.0, 1e-12);
}

TEST(KernelCache, ClearDropsEntriesAndResetsCounters) {
  pipeline::KernelCache cache;
  const CodegenOptions o = opts(Variant::kNaive);
  (void)cache.get_or_compile(filters::gaussian_spec(3), o);
  (void)cache.get_or_compile(filters::gaussian_spec(3), o);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  (void)cache.get_or_compile(filters::gaussian_spec(3), o);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// The single-flight contract under real contention: many pool workers ask
// for the same missing key at once; exactly one compile may happen.
TEST(KernelCache, SingleFlightUnderContention) {
  pipeline::KernelCache cache;
  const auto spec = filters::bilateral_spec(13);  // expensive: a wide window
  const CodegenOptions o = opts(Variant::kIsp);

  constexpr int kRequests = 64;
  std::vector<pipeline::KernelCache::KernelPtr> results(kRequests);
  {
    ThreadPool pool(8);
    for (int i = 0; i < kRequests; ++i) {
      pool.submit([&cache, &spec, &o, &results, i] {
        results[static_cast<std::size_t>(i)] = cache.get_or_compile(spec, o);
      });
    }
    pool.wait_idle();
  }

  const pipeline::KernelCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u) << "a key must never be compiled twice";
  EXPECT_EQ(s.hits + s.coalesced, static_cast<u64>(kRequests - 1));
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get()) << "all callers share one kernel";
  }
}

TEST(KernelCache, PublishesMetricsWhenRegistryInstalled) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedInstall install(reg);
  pipeline::KernelCache cache;
  const CodegenOptions o = opts(Variant::kNaive);
  (void)cache.get_or_compile(filters::gaussian_spec(3), o);
  (void)cache.get_or_compile(filters::gaussian_spec(3), o);
  EXPECT_EQ(reg.value("pipeline.cache.misses"), 1.0);
  EXPECT_EQ(reg.value("pipeline.cache.hits"), 1.0);
  EXPECT_EQ(reg.value("pipeline.cache.size"), 1.0);
}

// ---- graph derivation -------------------------------------------------------

TEST(KernelGraph, SobelExposesParallelBranches) {
  const pipeline::KernelGraph g = pipeline::build_graph(filters::make_sobel_app());
  ASSERT_EQ(g.stages.size(), 3u);
  g.validate();
  EXPECT_TRUE(g.stages[0].deps.empty());  // dx, dy read the source
  EXPECT_TRUE(g.stages[1].deps.empty());
  EXPECT_EQ(g.stages[2].deps, (std::vector<i32>{0, 1}));
  EXPECT_EQ(g.stages[2].input_images, (std::vector<i32>{1, 2}));
}

TEST(KernelGraph, NightIsAPureChain) {
  const pipeline::KernelGraph g = pipeline::build_graph(filters::make_night_app());
  ASSERT_EQ(g.stages.size(), 5u);
  g.validate();
  EXPECT_TRUE(g.stages[0].deps.empty());
  for (std::size_t i = 1; i < g.stages.size(); ++i) {
    EXPECT_EQ(g.stages[i].deps, (std::vector<i32>{static_cast<i32>(i) - 1}));
  }
}

TEST(KernelGraph, SingleKernelAppsAreSingleNodes) {
  for (const char* name : {"gaussian", "laplace", "bilateral"}) {
    for (const auto& app : filters::all_apps()) {
      if (app.name != name) continue;
      const pipeline::KernelGraph g = pipeline::build_graph(app);
      EXPECT_EQ(g.stages.size(), 1u) << name;
      EXPECT_TRUE(g.stages[0].deps.empty()) << name;
    }
  }
}

TEST(KernelGraph, ValidateRejectsForwardReferences) {
  pipeline::KernelGraph g = pipeline::build_graph(filters::make_sobel_app());
  g.stages[0].input_images = {3};  // stage 0 cannot read stage 2's output
  EXPECT_THROW(g.validate(), ContractError);
}

// ---- buffer plan -------------------------------------------------------------

/// A synthetic app: stage k reads the images in bindings[k] (0 = source).
/// One-input stages alternate gaussian / laplace / atrous so that sibling
/// branches compute different images; two-input stages take the gradient
/// magnitude of their pair.
filters::MultiKernelApp synthetic_app(
    const std::string& name, const std::vector<std::vector<i32>>& bindings) {
  filters::MultiKernelApp app;
  app.name = name;
  for (std::size_t k = 0; k < bindings.size(); ++k) {
    codegen::StencilSpec spec;
    if (bindings[k].size() == 2) {
      spec = filters::sobel_magnitude_spec();
    } else if (k % 3 == 0) {
      spec = filters::gaussian_spec(3);
    } else if (k % 3 == 1) {
      spec = filters::laplace_spec(5);
    } else {
      spec = filters::atrous_spec(5);
    }
    app.stages.push_back({spec, bindings[k]});
  }
  return app;
}

/// Whether stage r reads stage j's output.
bool reads(const pipeline::KernelGraph& g, i32 r, i32 j) {
  const std::vector<i32>& deps = g.stages[static_cast<std::size_t>(r)].deps;
  return std::find(deps.begin(), deps.end(), j) != deps.end();
}

/// The in-order property the executor relies on, running stages one after
/// another in stage order: no stage writes the buffer of one of its inputs,
/// and every earlier stage sharing a stage's buffer — with every reader of
/// that earlier stage — comes before it.
void expect_plan_safe(const pipeline::KernelGraph& g) {
  const pipeline::KernelGraph::BufferPlan plan = g.buffer_plan();
  const auto n = static_cast<i32>(g.stages.size());
  ASSERT_EQ(plan.stage_buffer.size(), g.stages.size()) << g.name;
  std::set<i32> used;
  for (i32 i = 0; i < n; ++i) {
    const i32 b = plan.stage_buffer[static_cast<std::size_t>(i)];
    ASSERT_GE(b, 0) << g.name;
    ASSERT_LT(b, plan.buffers) << g.name;
    used.insert(b);
    for (i32 dep : g.stages[static_cast<std::size_t>(i)].deps) {
      EXPECT_NE(plan.stage_buffer[static_cast<std::size_t>(dep)], b)
          << g.name << ": stage " << i << " writes input stage " << dep;
    }
    for (i32 j = 0; j < i; ++j) {
      if (plan.stage_buffer[static_cast<std::size_t>(j)] != b) continue;
      for (i32 r = 0; r < n; ++r) {
        if (!reads(g, r, j)) continue;
        EXPECT_LT(r, i) << g.name << ": " << i << " overwrites " << j
                        << " before its reader " << r;
      }
    }
  }
  EXPECT_EQ(static_cast<i32>(used.size()), plan.buffers) << g.name;
}

TEST(KernelGraph, BufferPlanCountsForThePaperApps) {
  const std::map<std::string, i32> want = {
      {"gaussian", 1}, {"laplace", 1}, {"bilateral", 1}, {"sobel", 3},
      {"night", 2}};
  for (const auto& app : filters::all_apps()) {
    const pipeline::KernelGraph g = pipeline::build_graph(app);
    EXPECT_EQ(g.buffer_plan().buffers, want.at(app.name)) << app.name;
    expect_plan_safe(g);
  }
  // Night alternates two buffers down its chain.
  EXPECT_EQ(pipeline::build_graph(filters::make_night_app())
                .buffer_plan()
                .stage_buffer,
            (std::vector<i32>{0, 1, 0, 1, 0}));
}

TEST(KernelGraph, BufferPlanIsSafeOnSyntheticGraphs) {
  const std::vector<std::pair<filters::MultiKernelApp, i32>> cases = {
      {synthetic_app("chain", {{0}, {1}, {2}, {3}, {4}, {5}}), 2},
      // Stage 3 reads stage 0 again: stage 2 may not take stage 0's buffer.
      {synthetic_app("skip-chain", {{0}, {1}, {2}, {1, 3}}), 3},
      // Stage 1's output has no reader: stages 2 and 3 take its buffer.
      {synthetic_app("fan-out", {{0}, {1}, {1}, {1}}), 2},
      {synthetic_app("diamond", {{0}, {1}, {1}, {2, 3}, {4}}), 3},
      // Stage 3 takes stage 0's buffer once stages 1 and 2 have read it.
      {synthetic_app("two-sink", {{0}, {1}, {1}, {2}}), 3},
      {synthetic_app("source-fan", {{0}, {0}, {0}, {1, 2}, {3, 4}}), 4},
  };
  for (const auto& [app, buffers] : cases) {
    const pipeline::KernelGraph g = pipeline::build_graph(app);
    EXPECT_EQ(g.buffer_plan().buffers, buffers) << app.name;
    expect_plan_safe(g);
  }
}

// ---- stencil chains ----------------------------------------------------------

using Chains = std::vector<pipeline::KernelGraph::Chain>;

// Night's fused stages form one chain under every pattern that keeps a
// band's remapped rows inside the band; under repeat only when one band
// covers the image. Its native plan then holds one full-size buffer, the
// chain's output, instead of two.
TEST(KernelGraph, NightChainsAndItsPlanHoldsOneBuffer) {
  const pipeline::KernelGraph night =
      pipeline::build_graph(filters::make_night_app()).fused();
  for (BorderPattern pattern : kAllBorderPatterns) {
    for (i64 bands : {1, 2, 16}) {
      const Chains chains = night.chains(pattern, bands);
      if (pattern == BorderPattern::kRepeat && bands > 1) {
        EXPECT_EQ(chains, (Chains{{0, 0}, {1, 1}, {2, 2}, {3, 3}}));
      } else {
        EXPECT_EQ(chains, (Chains{{0, 3}})) << to_string(pattern) << bands;
      }
    }
  }
  EXPECT_EQ(night.buffer_plan().buffers, 2);
  const pipeline::KernelGraph::BufferPlan plan =
      night.buffer_plan(night.chains(BorderPattern::kClamp, 16));
  EXPECT_EQ(plan.buffers, 1);
  EXPECT_EQ(plan.stage_buffer, (std::vector<i32>{-1, -1, -1, 0}));

  // The apps with one fused stage are one-stage chains.
  for (const auto& app : filters::all_apps()) {
    if (app.name == "night") continue;
    EXPECT_EQ(pipeline::build_graph(app).fused().chains(BorderPattern::kMirror,
                                                        4),
              (Chains{{0, 0}}))
        << app.name;
  }
}

// A stage joins its predecessor's chain only when it reads that stage
// alone, through one binding, and is its only reader; and a chained plan
// still never lets a chain overwrite what a later chain reads.
TEST(KernelGraph, ChainsNeedASingleReaderOfASingleProducer) {
  const std::vector<std::pair<filters::MultiKernelApp, Chains>> cases = {
      {synthetic_app("chain", {{0}, {1}, {2}, {3}, {4}, {5}}), {{0, 5}}},
      // Stage 0 has two readers; stage 3 reads two images.
      {synthetic_app("skip-chain", {{0}, {1}, {2}, {1, 3}}),
       {{0, 0}, {1, 2}, {3, 3}}},
      {synthetic_app("fan-out", {{0}, {1}, {1}, {1}}),
       {{0, 0}, {1, 1}, {2, 2}, {3, 3}}},
      {synthetic_app("diamond", {{0}, {1}, {1}, {2, 3}, {4}}),
       {{0, 0}, {1, 1}, {2, 2}, {3, 4}}},
      {synthetic_app("source-fan", {{0}, {0}, {0}, {1, 2}, {3, 4}}),
       {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}}},
      // Stage 1 reads the source, not stage 0, so it starts a chain.
      {synthetic_app("two-chains", {{0}, {0}, {2}, {1, 3}, {4}}),
       {{0, 0}, {1, 2}, {3, 4}}},
  };
  for (const auto& [app, want] : cases) {
    const pipeline::KernelGraph g = pipeline::build_graph(app);
    const Chains chains = g.chains(BorderPattern::kClamp, 4);
    EXPECT_EQ(chains, want) << app.name;
    const pipeline::KernelGraph::BufferPlan plan = g.buffer_plan(chains);
    // Only a chain's last stage writes a buffer; a chain never writes the
    // buffer of an image its first stage reads, and takes a buffer over only
    // from an earlier chain whose every reader is an earlier chain too.
    for (std::size_t u = 0; u < chains.size(); ++u) {
      for (i32 i = chains[u].first; i < chains[u].last; ++i) {
        EXPECT_EQ(plan.stage_buffer[static_cast<std::size_t>(i)], -1)
            << app.name;
      }
      const i32 b =
          plan.stage_buffer[static_cast<std::size_t>(chains[u].last)];
      ASSERT_GE(b, 0) << app.name;
      for (i32 dep :
           g.stages[static_cast<std::size_t>(chains[u].first)].deps) {
        EXPECT_NE(plan.stage_buffer[static_cast<std::size_t>(dep)], b)
            << app.name << ": chain " << u << " writes its input";
      }
      for (std::size_t v = 0; v < u; ++v) {
        const i32 tail = chains[v].last;
        if (plan.stage_buffer[static_cast<std::size_t>(tail)] != b) continue;
        for (i32 r = 0; r < static_cast<i32>(g.stages.size()); ++r) {
          if (!reads(g, r, tail)) continue;
          EXPECT_LT(r, chains[u].first)
              << app.name << ": " << u << " overwrites " << v
              << " before its reader " << r;
        }
      }
    }
  }
}

// Branches fan out of one stage while the plan hands dead buffers to later
// stages; on both engines the output stays bit-identical to the reference.
// In fan-out and two-sink a stage takes the buffer of a stage that is not
// its ancestor, which only the in-order rule allows. (The TSan CI job runs
// this test too.)
TEST(PipelineExecutor, FanOutWithReusedBuffersMatchesReference) {
  const std::vector<filters::MultiKernelApp> apps = {
      synthetic_app("fan-out-join", {{0}, {1}, {1}, {1}, {2, 3}, {5, 4}}),
      synthetic_app("fan-out", {{0}, {1}, {1}, {1}}),
      synthetic_app("two-sink", {{0}, {1}, {1}, {2}}),
  };
  pipeline::KernelCache cache(16);
  cache.set_jit(test_jit());
  const auto src = make_noise_image({48, 40}, 5);
  for (const filters::MultiKernelApp& app : apps) {
    const pipeline::KernelGraph graph = pipeline::build_graph(app);
    const pipeline::KernelGraph::BufferPlan plan = graph.buffer_plan();
    ASSERT_LT(plan.buffers, static_cast<i32>(graph.stages.size())) << app.name;
    expect_plan_safe(graph);

    const Image<f32> expect =
        filters::run_app_reference(app, src, BorderPattern::kClamp);
    for (exec::Backend backend :
         {exec::Backend::kInterpreted, exec::Backend::kNative}) {
      pipeline::ExecutorConfig cfg;
      cfg.cache = &cache;
      cfg.backend = backend;
      const pipeline::PipelineExecutor exec(cfg);
      for (i32 round = 0; round < 2; ++round) {
        EXPECT_TRUE(same_bits(exec.run(graph, src).output, expect))
            << app.name << " on " << exec::to_string(backend) << ", round "
            << round;
      }
    }
  }
}

// ---- pointwise fusion ------------------------------------------------------

/// A graph's stages as a linear app, so run_app_reference evaluates them
/// in sequence.
filters::MultiKernelApp as_app(const pipeline::KernelGraph& g) {
  filters::MultiKernelApp app;
  app.name = g.name;
  for (const pipeline::KernelGraph::Stage& stage : g.stages) {
    app.stages.push_back({stage.spec, stage.input_images});
  }
  return app;
}

/// An app of hand-picked stages: stage k runs specs[k] on bindings[k].
filters::MultiKernelApp spec_app(
    const std::string& name, std::vector<codegen::StencilSpec> specs,
    const std::vector<std::vector<i32>>& bindings) {
  filters::MultiKernelApp app;
  app.name = name;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    app.stages.push_back({std::move(specs[k]), bindings[k]});
  }
  return app;
}

std::vector<std::string> stage_names(const pipeline::KernelGraph& g) {
  std::vector<std::string> names;
  for (const auto& stage : g.stages) names.push_back(stage.spec.name);
  return names;
}

TEST(KernelGraph, FusedStagesForThePaperApps) {
  const pipeline::KernelGraph sobel =
      pipeline::build_graph(filters::make_sobel_app()).fused();
  sobel.validate();
  ASSERT_EQ(sobel.stages.size(), 1u);
  EXPECT_EQ(sobel.stages[0].spec.name, "sobel_dx+sobel_dy+sobel_magnitude");
  EXPECT_EQ(sobel.stages[0].input_images, (std::vector<i32>{0}));
  EXPECT_EQ(sobel.stages[0].spec.num_inputs, 1);
  EXPECT_EQ(sobel.stages[0].spec.window(), (Window{3, 3}));
  EXPECT_EQ(sobel.buffer_plan().buffers, 1);

  const pipeline::KernelGraph night =
      pipeline::build_graph(filters::make_night_app()).fused();
  night.validate();
  EXPECT_EQ(stage_names(night),
            (std::vector<std::string>{"atrous3", "atrous5", "atrous9",
                                      "atrous17+tonemap"}));
  EXPECT_EQ(night.stages[3].input_images, (std::vector<i32>{3}));
  EXPECT_EQ(night.stages[3].spec.window(), (Window{17, 17}));

  for (const char* name : {"gaussian", "laplace", "bilateral"}) {
    for (const auto& app : filters::all_apps()) {
      if (app.name != name) continue;
      const pipeline::KernelGraph g = pipeline::build_graph(app);
      const pipeline::KernelGraph f = g.fused();
      ASSERT_EQ(f.stages.size(), 1u) << name;
      EXPECT_EQ(pipeline::spec_fingerprint(f.stages[0].spec),
                pipeline::spec_fingerprint(g.stages[0].spec))
          << name;
      EXPECT_EQ(f.stages[0].spec.name, g.stages[0].spec.name) << name;
    }
  }
}

// A producer read by two stages keeps its own stage (each reader would
// have to recompute it), and a consumer that reads its producer off-center
// cannot take it (the producer's values at neighbouring pixels are not
// computed in the consumer's loop).
TEST(KernelGraph, FusionSkipsSharedProducersAndOffsetReads) {
  const pipeline::KernelGraph shared =
      pipeline::build_graph(
          spec_app("shared",
                   {filters::tonemap_spec(), filters::sobel_dx_spec(),
                    filters::tonemap_spec(), filters::sobel_magnitude_spec()},
                   {{0}, {1}, {1}, {2, 3}}))
          .fused();
  // Stage 0 has two readers, so the pointwise stage 2 cannot take it;
  // stages 1 and 2 each feed only the magnitude, which takes both. The
  // fused stage then reads stage 0 through sobel_dx's off-center taps.
  EXPECT_EQ(stage_names(shared),
            (std::vector<std::string>{"tonemap",
                                      "sobel_dx+tonemap+sobel_magnitude"}));
  EXPECT_EQ(shared.stages[1].input_images, (std::vector<i32>{1}));
  EXPECT_EQ(shared.stages[1].deps, (std::vector<i32>{0}));

  const pipeline::KernelGraph offset =
      pipeline::build_graph(spec_app("offset",
                                     {filters::tonemap_spec(),
                                      filters::gaussian_spec(3)},
                                     {{0}, {1}}))
          .fused();
  EXPECT_EQ(stage_names(offset),
            (std::vector<std::string>{"tonemap", "gaussian3"}));

  // The other way round the consumer is pointwise and fuses.
  const pipeline::KernelGraph epilogue =
      pipeline::build_graph(spec_app("epilogue",
                                     {filters::gaussian_spec(3),
                                      filters::tonemap_spec()},
                                     {{0}, {1}}))
          .fused();
  EXPECT_EQ(stage_names(epilogue),
            (std::vector<std::string>{"gaussian3+tonemap"}));
}

// Fusion changes how many passes run, never a value: on random images, in
// every border pattern, the fused graph's specs evaluated in sequence are
// bit-identical to the original stages evaluated in sequence.
TEST(KernelGraph, FusedSpecsMatchStagesInSequence) {
  std::vector<filters::MultiKernelApp> apps = filters::all_apps();
  apps.push_back(spec_app(
      "shared",
      {filters::tonemap_spec(), filters::tonemap_spec(),
       filters::gaussian_spec(3), filters::sobel_magnitude_spec()},
      {{0}, {1}, {1}, {2, 3}}));
  apps.push_back(spec_app(
      "mixed-join",
      {filters::laplace_spec(5), filters::sobel_magnitude_spec(),
       filters::tonemap_spec()},
      {{0}, {1, 0}, {2}}));
  const f32 constant = -3.5f;
  for (u64 seed : {1u, 2u}) {
    const auto src = make_noise_image({41, 37}, seed);
    for (const auto& app : apps) {
      const pipeline::KernelGraph fused = pipeline::build_graph(app).fused();
      fused.validate();
      for (BorderPattern pattern : kAllBorderPatterns) {
        const Image<f32> expect =
            filters::run_app_reference(app, src, pattern, constant);
        const Image<f32> got =
            filters::run_app_reference(as_app(fused), src, pattern, constant);
        ASSERT_EQ(got.size(), expect.size());
        for (i32 y = 0; y < expect.height(); ++y) {
          for (i32 x = 0; x < expect.width(); ++x) {
            ASSERT_EQ(std::bit_cast<u32>(got(x, y)),
                      std::bit_cast<u32>(expect(x, y)))
                << app.name << "/" << to_string(pattern) << " seed " << seed
                << " (" << x << ", " << y << ")";
          }
        }
      }
    }
  }
}

// ---- executor equivalence ---------------------------------------------------

/// The system-level bar: the DAG executor must produce bit-identical output
/// to the sequential CPU reference for every app and border pattern.
TEST(PipelineExecutor, MatchesReferenceForAllAppsAndPatterns) {
  const Size2 size{48, 48};  // >= 2 * radius 8 so Mirror accepts atrous17
  const auto src = make_gradient_image(size);
  for (const auto& app : filters::all_apps()) {
    const auto graph = pipeline::build_graph(app);
    for (BorderPattern pattern :
         {BorderPattern::kClamp, BorderPattern::kMirror,
          BorderPattern::kRepeat, BorderPattern::kConstant}) {
      const f32 constant = 16.25f;
      const Image<f32> expect =
          filters::run_app_reference(app, src, pattern, constant);

      pipeline::ExecutorConfig cfg;
      cfg.sim.pattern = pattern;
      cfg.sim.constant = constant;
      const pipeline::PipelineExecutor exec(cfg);
      const pipeline::ExecutorResult result = exec.run(graph, src);

      const CompareResult diff = compare(result.output, expect);
      EXPECT_EQ(diff.max_abs, 0.0)
          << app.name << "/" << to_string(pattern) << " worst at "
          << diff.worst;
      EXPECT_EQ(result.stages.size(), app.stages.size());
    }
  }
}

// Every stage runs on the caller's thread: under a trace session, each span
// of a default-config run but the simulator's per-block spans (which come
// from the global pool's parallel_for) carries the caller's thread. An
// executor configured for any concurrency but 1 is refused.
TEST(PipelineExecutor, StagesRunOnTheCallersThread) {
  const auto graph = pipeline::build_graph(filters::make_sobel_app());
  const auto src = make_gradient_image({16, 16});
  pipeline::KernelCache cache(8);  // cold: every stage compiles
  pipeline::ExecutorConfig cfg;
  cfg.cache = &cache;
  cfg.sim.sampled = true;
  const pipeline::PipelineExecutor exec(cfg);

  obs::TraceSession::start();
  pipeline::ExecutorResult result;
  {
    obs::ScopedSpan caller("test.caller");
    result = exec.run(graph, src);
  }
  const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();
  for (const auto& stage : result.stages) {
    EXPECT_GT(stage.regs_per_thread, 0) << stage.kernel;
  }
  const auto caller = std::find_if(
      events.begin(), events.end(),
      [](const obs::TraceEvent& ev) { return ev.name == "test.caller"; });
  ASSERT_NE(caller, events.end());
  i32 compiles = 0;
  i32 launches = 0;
  i32 executes = 0;
  for (const obs::TraceEvent& ev : events) {
    if (ev.name == "sim.block") continue;
    EXPECT_EQ(ev.tid, caller->tid) << ev.name;
    compiles += ev.name == "dsl.compile_kernel" ? 1 : 0;
    launches += ev.name.starts_with("sim.launch") ? 1 : 0;
    executes += ev.name == "pipeline.execute" ? 1 : 0;
  }
  EXPECT_GE(compiles, 3);  // dx, dy and the magnitude, at least
  EXPECT_EQ(launches, 3);
  EXPECT_EQ(executes, 1);

  pipeline::ExecutorConfig wide = cfg;
  wide.concurrency = 2;
  EXPECT_THROW((void)pipeline::PipelineExecutor(wide), ContractError);
}

// A failing first stage's error reaches the caller: atrous17 (radius 8)
// under Mirror on a 6x6 image fails validation, and the gaussian branch and
// the join stage after it never run.
TEST(PipelineExecutor, BranchFailurePropagatesWithoutDeadlock) {
  pipeline::KernelGraph g;
  g.name = "failing-branch";
  g.stages.push_back({filters::atrous_spec(17), {0}, {}});
  g.stages.push_back({filters::gaussian_spec(3), {0}, {}});
  g.stages.push_back({filters::sobel_magnitude_spec(), {1, 2}, {0, 1}});

  const auto src = make_gradient_image({6, 6});
  pipeline::ExecutorConfig cfg;
  cfg.sim.pattern = BorderPattern::kMirror;
  const pipeline::PipelineExecutor exec(cfg);
  EXPECT_ANY_THROW((void)exec.run(g, src));
}

// An interpreted run with no cache configured compiles through the
// process-wide KernelCache — a second identical run compiles nothing,
// observable purely via cache-counter deltas.
TEST(PipelineExecutor, InterpretedRunsReuseGlobalKernelCache) {
  const auto app = filters::make_sobel_app();
  const auto src = make_gradient_image({32, 32});
  pipeline::ExecutorConfig cfg;
  cfg.sim.sampled = true;
  // A constant nobody else uses keys these compiles uniquely, isolating the
  // deltas from other tests sharing the global cache.
  cfg.sim.pattern = BorderPattern::kConstant;
  cfg.sim.constant = 123.5f;
  cfg.backend = exec::Backend::kInterpreted;
  ASSERT_EQ(cfg.cache, nullptr);
  const pipeline::PipelineExecutor exec(cfg);
  const pipeline::KernelGraph graph = pipeline::build_graph(app);

  pipeline::KernelCache& cache = pipeline::KernelCache::global();
  const auto before = cache.stats();
  (void)exec.run(graph, src);
  const auto after_first = cache.stats();
  EXPECT_EQ(after_first.misses - before.misses, 3u);  // dx, dy, magnitude

  (void)exec.run(graph, src);
  const auto after_second = cache.stats();
  EXPECT_EQ(after_second.misses, after_first.misses) << "second run recompiled";
  EXPECT_EQ(after_second.hits - after_first.hits, 3u);
}

// ---- server -----------------------------------------------------------------

pipeline::ServeRequest make_request(
    const std::shared_ptr<const pipeline::KernelGraph>& graph,
    const std::shared_ptr<const Image<f32>>& source, f64 deadline_ms = 0.0) {
  return {graph, source, deadline_ms, std::nullopt};
}

TEST(PipelineServer, ServesCorrectOutput) {
  const auto app = filters::make_sobel_app();
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(app));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({32, 32}));
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  pipeline::ServerConfig cfg;
  cfg.workers = 2;
  pipeline::PipelineServer server(cfg);
  auto future = server.submit(make_request(graph, src));
  pipeline::ServeResponse resp = future.get();
  ASSERT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
  EXPECT_EQ(compare(resp.output, expect).max_abs, 0.0);
  EXPECT_GE(resp.total_ms, resp.exec_ms);
  server.shutdown();
  const pipeline::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.total_latency_ms.count(), 1u);
}

TEST(PipelineServer, RejectsOnOverflowDeterministically) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 4;
  cfg.start_paused = true;  // nothing dequeues until resume()
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);

  std::vector<fleet::Pending<pipeline::ServeResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(server.submit(make_request(graph, src)));
  }
  // Overflowed submissions resolve immediately, while the server is paused.
  int rejected = 0;
  for (auto& f : futures) {
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready &&
        f.get().status == pipeline::ServeStatus::kRejected) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 6);

  server.resume();
  server.shutdown();
  const pipeline::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.rejected, 6u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(PipelineServer, ExpiresQueuedRequestsPastDeadline) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);

  auto strict = server.submit(make_request(graph, src, /*deadline_ms=*/1.0));
  auto lax = server.submit(make_request(graph, src, /*deadline_ms=*/0.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.resume();
  EXPECT_EQ(strict.get().status, pipeline::ServeStatus::kDeadlineExpired);
  EXPECT_EQ(lax.get().status, pipeline::ServeStatus::kOk);
  server.shutdown();
  EXPECT_EQ(server.stats().deadline_expired, 1u);
}

TEST(PipelineServer, WatchdogSettlesMidQueueExpiryWhilePaused) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);

  auto f = server.submit(make_request(graph, src, /*deadline_ms=*/2.0));
  // The server is never resumed: no worker will ever dequeue this request,
  // so only the deadline watchdog can settle it.
  ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
      << "watchdog did not settle an expired queued request";
  EXPECT_EQ(f.get().status, pipeline::ServeStatus::kDeadlineExpired);
  const resilience::HealthState health = server.health();
  EXPECT_EQ(health.queue_expired, 1u);
  EXPECT_EQ(health.watchdog_expired, 0u);  // it never started executing
  server.shutdown();
}

TEST(PipelineServer, DrainSettlesExpiredRequestsWithoutExecuting) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);

  auto strict = server.submit(make_request(graph, src, /*deadline_ms=*/1.0));
  auto lax = server.submit(make_request(graph, src, /*deadline_ms=*/0.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Shut down without ever resuming: the drain must settle the expired
  // request kDeadlineExpired (not execute it, not abandon it) and still
  // execute the one without a deadline.
  server.shutdown();
  EXPECT_EQ(strict.get().status, pipeline::ServeStatus::kDeadlineExpired);
  EXPECT_EQ(lax.get().status, pipeline::ServeStatus::kOk);
  EXPECT_EQ(server.stats().deadline_expired, 1u);
}

TEST(PipelineServer, ShutdownDrainsEveryQueuedRequest) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_laplace_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::ServerConfig cfg;
  cfg.workers = 2;
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);
  std::vector<fleet::Pending<pipeline::ServeResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit(make_request(graph, src)));
  }
  server.shutdown();  // must not abandon queued work
  u64 ok = 0;
  for (auto& f : futures) {
    if (f.get().status == pipeline::ServeStatus::kOk) ++ok;
  }
  EXPECT_EQ(ok, 8u);
  // submit() after shutdown rejects instead of blocking.
  auto late = server.submit(make_request(graph, src));
  EXPECT_EQ(late.get().status, pipeline::ServeStatus::kRejected);
}

TEST(PipelineServer, LatencyMemoryBoundedInRequestCount) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  // The latency stats must be O(histogram buckets), not O(requests): the
  // bucket array after 64 requests is exactly the size it was after 4.
  const auto serve = [&](int requests) {
    pipeline::ServerConfig cfg;
    cfg.workers = 2;
    cfg.executor.sim.sampled = true;
    pipeline::PipelineServer server(cfg);
    std::vector<fleet::Pending<pipeline::ServeResponse>> futures;
    for (int i = 0; i < requests; ++i) {
      futures.push_back(server.submit(make_request(graph, src)));
    }
    for (auto& f : futures) f.wait();
    server.shutdown();
    return server.stats();
  };
  const pipeline::ServerStats small = serve(4);
  const pipeline::ServerStats large = serve(64);
  EXPECT_EQ(small.total_latency_ms.count(), 4u);
  EXPECT_EQ(large.total_latency_ms.count(), 64u);
  EXPECT_EQ(large.total_latency_ms.bucket_count(),
            small.total_latency_ms.bucket_count());
  EXPECT_EQ(large.queue_latency_ms.bucket_count(),
            small.queue_latency_ms.bucket_count());
  EXPECT_EQ(large.exec_latency_ms.bucket_count(),
            small.exec_latency_ms.bucket_count());
  EXPECT_TRUE(large.total_latency_ms.percentile(99.0).has_value());
}

TEST(PipelineServer, TracePropagationAcrossWorkers) {
  // Multi-worker serve: spans for one request are emitted on the submitting
  // thread and a server worker. Every span must still link into exactly one
  // tree per request.
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_sobel_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  constexpr int kRequests = 12;
  obs::TraceSession::start();
  {
    pipeline::ServerConfig cfg;
    cfg.workers = 3;
    cfg.executor.sim.sampled = true;
    pipeline::PipelineServer server(cfg);
    std::vector<fleet::Pending<pipeline::ServeResponse>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(server.submit(make_request(graph, src)));
    }
    for (auto& f : futures) {
      EXPECT_EQ(f.get().status, pipeline::ServeStatus::kOk);
    }
    server.shutdown();
  }
  const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();

  const std::vector<u64> ids = obs::request_ids(events);
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kRequests));
  for (u64 id : ids) {
    const obs::RequestBreakdown b = obs::request_breakdown(events, id);
    EXPECT_TRUE(b.has_root) << "request " << id << " lost its root span";
    EXPECT_EQ(b.unreachable, 0)
        << "request " << id << " has spans not linked to its root";
    EXPECT_GE(b.spans, 3);  // root + queue_wait + at least one exec span
    EXPECT_GT(b.total_us, 0.0);
    // Exactly one root per request.
    int roots = 0;
    for (const obs::TraceEvent& ev : events) {
      if (ev.request_id == id && ev.parent_span_id == 0) ++roots;
    }
    EXPECT_EQ(roots, 1);
  }
}

// ---- prepared runs ----------------------------------------------------------

// A server's executor reuses a graph's plan: once the module is in the
// cache, requests after the second look nothing up. KernelCache::clear()
// and set_jit() each retire the plan and drop the module, so the next
// request resolves again and recompiles (native_misses rises). Every output
// is bit-identical to the reference.
TEST(PreparedRun, ServerResolvesAgainAfterClearOrSetJit) {
  const auto app = filters::make_sobel_app();
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(app));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({64, 48}));
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kMirror);
  pipeline::KernelCache cache(8);
  cache.set_jit(test_jit());
  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.executor.sim.pattern = BorderPattern::kMirror;
  cfg.executor.cache = &cache;
  cfg.executor.backend = exec::Backend::kNative;
  pipeline::PipelineServer server(cfg);
  const auto serve = [&] {
    const pipeline::ServeResponse resp =
        server.submit(make_request(graph, src)).get();
    ASSERT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
    EXPECT_EQ(resp.backend_used, exec::Backend::kNative);
    EXPECT_EQ(compare(resp.output, expect).max_abs, 0.0);
  };

  // 1: compiles the fused kernel. 2: plans with a hit. 3..5: reuse.
  for (int i = 0; i < 5; ++i) serve();
  EXPECT_EQ(cache.stats().native_misses, 1u);
  EXPECT_EQ(cache.stats().native_hits, 1u);

  cache.clear();  // drops the module and resets the counters
  serve();
  EXPECT_EQ(cache.stats().native_misses, 1u);
  serve();
  serve();
  EXPECT_EQ(cache.stats().native_hits, 1u);

  cache.set_jit(test_jit());  // keeps the counters
  serve();
  EXPECT_EQ(cache.stats().native_misses, 2u);
  serve();
  serve();
  EXPECT_EQ(cache.stats().native_misses, 2u);
  EXPECT_EQ(cache.stats().native_hits, 2u);
  server.shutdown();
}

// A capacity eviction does not retire plans: a hot graph served from the
// memo keeps its module while other graphs' compiles evict it from a
// one-entry cache, and its requests compile nothing.
TEST(PreparedRun, HotGraphKeepsItsModuleThroughEvictions) {
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({48, 40}));
  const auto graph_of = [](const filters::MultiKernelApp& app) {
    return std::make_shared<const pipeline::KernelGraph>(
        pipeline::build_graph(app));
  };
  const filters::MultiKernelApp hot_app = filters::make_gaussian_app();
  const auto hot = graph_of(hot_app);
  const Image<f32> hot_expect =
      filters::run_app_reference(hot_app, *src, BorderPattern::kMirror);
  pipeline::KernelCache cache(1);
  cache.set_jit(test_jit());
  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.executor.sim.pattern = BorderPattern::kMirror;
  cfg.executor.cache = &cache;
  cfg.executor.backend = exec::Backend::kNative;
  pipeline::PipelineServer server(cfg);
  const auto serve = [&](const std::shared_ptr<const pipeline::KernelGraph>&
                             graph) {
    pipeline::ServeResponse resp =
        server.submit(make_request(graph, src)).get();
    EXPECT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
    EXPECT_EQ(resp.backend_used, exec::Backend::kNative);
    return resp;
  };
  serve(hot);  // compiles
  serve(hot);  // plans with a hit: memoized
  for (const filters::MultiKernelApp& app :
       {filters::make_laplace_app(), filters::make_sobel_app()}) {
    serve(graph_of(app));  // compiles, evicting the cache's one entry
    const u64 misses = cache.stats().native_misses;
    EXPECT_EQ(compare(serve(hot).output, hot_expect).max_abs, 0.0);
    EXPECT_EQ(cache.stats().native_misses, misses) << "after " << app.name;
  }
  EXPECT_EQ(cache.stats().native_evictions, 2u);
  server.shutdown();
}

/// A native executor over `cache`, JITting at -O0.
pipeline::PipelineExecutor native_executor(pipeline::KernelCache& cache) {
  cache.set_jit(test_jit());
  pipeline::ExecutorConfig cfg;
  cfg.cache = &cache;
  cfg.backend = exec::Backend::kNative;
  return pipeline::PipelineExecutor(cfg);
}

// The executor's memo matches graphs by content, never by address: a graph
// that is freed and replaced by another — each allocated on its own, so the
// new graph may well land at the old one's address — never gets the old
// graph's plan, and a graph with the same content shares its plan.
TEST(PreparedRun, FreedGraphNeverMatchesANewGraph) {
  const Image<f32> src = make_gradient_image({32, 32});
  pipeline::KernelCache cache(8);
  const pipeline::PipelineExecutor executor = native_executor(cache);
  const std::vector<filters::MultiKernelApp> apps = {
      filters::make_gaussian_app(), filters::make_laplace_app(),
      filters::make_gaussian_app(), filters::make_sobel_app()};
  for (const filters::MultiKernelApp& app : apps) {
    auto graph =
        std::make_unique<pipeline::KernelGraph>(pipeline::build_graph(app));
    const Image<f32> expect =
        filters::run_app_reference(app, src, BorderPattern::kClamp);
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(same_bits(executor.run(*graph, src).output, expect))
          << app.name;
    }
    graph.reset();  // frees the graph while the memo still holds its plan
  }
  EXPECT_EQ(cache.stats().native_misses, 3u);  // gaussian, laplace, sobel
}

// A graph reassigned in place — the same object and address, another app —
// is planned afresh.
TEST(PreparedRun, GraphReassignedInPlaceIsPlannedAgain) {
  const Image<f32> src = make_gradient_image({40, 32});
  pipeline::KernelCache cache(8);
  const pipeline::PipelineExecutor executor = native_executor(cache);
  pipeline::KernelGraph graph;
  for (const filters::MultiKernelApp& app :
       {filters::make_gaussian_app(), filters::make_laplace_app(),
        filters::make_gaussian_app()}) {
    graph = pipeline::build_graph(app);
    const Image<f32> expect =
        filters::run_app_reference(app, src, BorderPattern::kClamp);
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(same_bits(executor.run(graph, src).output, expect))
          << app.name << " run " << i;
    }
  }
}

// Two graphs that differ only in a 0.0f / -0.0f constant are two kernels:
// each gets its own plan and module, and each output is bit-identical to
// its own reference (x * 0.0f and x * -0.0f differ in the sign bit).
TEST(PreparedRun, SignedZeroConstantsGetTheirOwnPlans) {
  const auto app_with = [](f32 zero) {
    codegen::SpecBuilder b("scale");
    const i32 x = b.read(0, 0, 0);
    const i32 y = b.read(0, 1, 0);
    const i32 sum = b.binary(codegen::NodeKind::kAdd, x, y);
    filters::MultiKernelApp app;
    app.name = "scale";
    app.stages.push_back(
        {b.finish(b.binary(codegen::NodeKind::kMul, sum, b.constant(zero))),
         {0}});
    return app;
  };
  const Image<f32> src = make_gradient_image({48, 40});
  pipeline::KernelCache cache(8);
  const pipeline::PipelineExecutor executor = native_executor(cache);
  const filters::MultiKernelApp plus = app_with(0.0f);
  const filters::MultiKernelApp minus = app_with(-0.0f);
  const pipeline::KernelGraph plus_graph = pipeline::build_graph(plus);
  const pipeline::KernelGraph minus_graph = pipeline::build_graph(minus);
  const Image<f32> plus_expect =
      filters::run_app_reference(plus, src, BorderPattern::kClamp);
  const Image<f32> minus_expect =
      filters::run_app_reference(minus, src, BorderPattern::kClamp);
  ASSERT_FALSE(same_bits(plus_expect, minus_expect));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(same_bits(executor.run(plus_graph, src).output, plus_expect))
        << "run " << i;
    EXPECT_TRUE(same_bits(executor.run(minus_graph, src).output,
                          minus_expect))
        << "run " << i;
  }
  EXPECT_EQ(cache.stats().native_misses, 2u);
  EXPECT_EQ(cache.stats().native_hits, 2u);  // each graph's second plan
}

// Concurrent runs share one plan: after a graph's second run no run looks
// anything up in the cache, and every output is bit-identical.
TEST(PreparedRun, ConcurrentRunsShareOnePreparedRun) {
  const auto app = filters::make_night_app();
  const pipeline::KernelGraph graph = pipeline::build_graph(app);
  const Image<f32> src = make_gradient_image({96, 80});
  const Image<f32> expect =
      filters::run_app_reference(app, src, BorderPattern::kClamp);
  pipeline::KernelCache cache(8);
  const pipeline::PipelineExecutor executor = native_executor(cache);
  (void)executor.run(graph, src);  // JIT the modules
  const pipeline::ExecutorResult planned = executor.run(graph, src);
  EXPECT_EQ(planned.stages.size(), 4u);  // night, fused
  const pipeline::KernelCacheStats before = cache.stats();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        if (!same_bits(executor.run(graph, src).output, expect)) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.stats().native_hits, before.native_hits);
  EXPECT_EQ(cache.stats().native_misses, before.native_misses);
}

}  // namespace
}  // namespace ispb
