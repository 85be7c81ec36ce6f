// Execution-backend subsystem tests: the C++ printer's lowering contract,
// the JIT's bit-exactness (special values at the production flags
// included), its ISA level rule, artifact naming and on-disk reuse, the
// full executor bit-identity matrix (5 apps x 4 patterns x 3 variants,
// native vs run_app_reference), the fused stages the native engine runs, in-place
// reads of a padded source, no unwritten output pixel on a poisoned heap,
// the backend.compile fault -> interpreted fallback path, the KernelCache
// native-module lifecycle (single-flight, refcounted eviction, variant
// canonicalization) and the fill's stop rule, the row-band rule with a multi-band run on
// the pool, night's stencil chain band by band (runner and executor, with a
// mid-chain fallback, and lone stages as chains of one), and the request
// breakdown of a traced native server.
#include <gtest/gtest.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <regex>
#include <thread>
#include <vector>

#include "codegen/cpp_printer.hpp"
#include "common/error.hpp"
#include "common/stop.hpp"
#include "common/thread_pool.hpp"
#include "exec/backend.hpp"
#include "exec/jit.hpp"
#include "filters/filters.hpp"
#include "image/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/kernel_cache.hpp"
#include "pipeline/kernel_graph.hpp"
#include "pipeline/server.hpp"
#include "resilience/circuit_breaker.hpp"
#include "resilience/clock.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test JIT artifact directory, removed on scope exit so tests
/// observe real compiles (and leave nothing behind in the system tmp).
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("ispb-test-exec-" + std::to_string(::getpid()) + "-" + tag + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// -O0 keeps the bilateral TU's compile seconds, not tens of seconds; the
/// emitted float sequence (and thus bit-exactness) is optimization-level
/// independent because contraction is off.
exec::JitConfig fast_jit(const TempDir& dir) {
  return {dir.path.string(), "", "-O0"};
}

/// Exact bit equality — the native backend's promise, stronger than any
/// tolerance compare (0.0f vs -0.0f included).
bool bit_identical(const Image<f32>& a, const Image<f32>& b) {
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

/// "" when `got` and `want` are bit-identical apart from NaN payloads, else
/// the first differing pixel with both bit patterns. IEEE 754 leaves open
/// which operand's NaN an operation propagates, and GCC reorders the
/// operands of commutative ops at any -O level above -O0 (vectorized or
/// not), so a +NaN input meeting a generated -NaN can come out with either
/// sign. NaN-ness itself, signed zeros, infinities and subnormals must match
/// bit for bit.
std::string first_mismatch(const Image<f32>& got, const Image<f32>& want) {
  if (got.size() != want.size()) return "size mismatch";
  for (i32 y = 0; y < got.height(); ++y) {
    for (i32 x = 0; x < got.width(); ++x) {
      const u32 g = std::bit_cast<u32>(got(x, y));
      const u32 w = std::bit_cast<u32>(want(x, y));
      if (g != w && !(std::isnan(got(x, y)) && std::isnan(want(x, y)))) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "(%d, %d): got 0x%08x (%g), want 0x%08x (%g)",
                      x, y, g, static_cast<double>(got(x, y)), w,
                      static_cast<double>(want(x, y)));
        return buf;
      }
    }
  }
  return "";
}

std::vector<const Image<f32>*> bind_inputs(const codegen::StencilSpec& spec,
                                           const Image<f32>& source) {
  return std::vector<const Image<f32>*>(
      static_cast<std::size_t>(spec.num_inputs), &source);
}

TEST(CppPrinter, EmitsExternCEntryAndCanonicalSymbol) {
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions isp;
  isp.variant = codegen::Variant::kIsp;
  const std::string sym = codegen::cpp_kernel_symbol(spec, isp);
  const std::string src = codegen::emit_cpp(spec, isp);
  EXPECT_NE(src.find("extern \"C\" void " + sym), std::string::npos) << src;

  // kIspWarp lowers identically to kIsp: same symbol, same TU.
  codegen::CodegenOptions warp = isp;
  warp.variant = codegen::Variant::kIspWarp;
  EXPECT_EQ(codegen::cpp_kernel_symbol(spec, warp), sym);
  EXPECT_EQ(codegen::emit_cpp(spec, warp), src);

  // kNaive is a different function (all-checks loop, own symbol).
  codegen::CodegenOptions naive = isp;
  naive.variant = codegen::Variant::kNaive;
  EXPECT_NE(codegen::cpp_kernel_symbol(spec, naive), sym);
  EXPECT_NE(codegen::emit_cpp(spec, naive), src);

  // kIspTiled stages the Body through a local tile buffer: own symbol, own
  // TU, and the staging loop is visible in the emitted source.
  codegen::CodegenOptions tiled = isp;
  tiled.variant = codegen::Variant::kIspTiled;
  const std::string tiled_sym = codegen::cpp_kernel_symbol(spec, tiled);
  const std::string tiled_src = codegen::emit_cpp(spec, tiled);
  EXPECT_NE(tiled_sym, sym);
  EXPECT_NE(tiled_src, src);
  EXPECT_NE(tiled_src.find("extern \"C\" void " + tiled_sym), std::string::npos)
      << tiled_src;
  EXPECT_NE(tiled_src.find("tile["), std::string::npos) << tiled_src;

  // One copy of the DAG per check set: the naive TU holds one, an ISP TU
  // three (the unchecked Body, the top and bottom rows with y checks, the
  // left and right rim with all checks), and the Body copy remaps nothing.
  const auto copies = [](const std::string& text) {
    std::size_t n = 0;
    for (std::size_t at = text.find("out[gy * pitch_out + gx] =");
         at != std::string::npos;
         at = text.find("out[gy * pitch_out + gx] =", at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(copies(codegen::emit_cpp(spec, naive)), 1u);
  for (const std::string& text : {src, tiled_src}) {
    EXPECT_EQ(copies(text), 3u) << text;
    const std::size_t body = text.find("{ // Body");
    const std::size_t rows = text.find("{ // Rows");
    ASSERT_NE(body, std::string::npos) << text;
    ASSERT_LT(body, rows) << text;
    const std::string body_text = text.substr(body, rows - body);
    EXPECT_EQ(body_text.find("if ("), std::string::npos) << body_text;
    EXPECT_EQ(body_text.find("while ("), std::string::npos) << body_text;
  }
}

// The TU is self-contained (no header parse on every JIT run), and every
// pointer it declares — the entry point's parameters and the per-input
// locals — carries __restrict__, without which the Body loop cannot
// vectorize.
TEST(CppPrinter, EmitsNoIncludesAndRestrictsEveryPointer) {
  const std::regex pointer_decl(R"((float|int)\*(\s*const\*)?\s+(\w+))");
  for (const filters::MultiKernelApp& app : filters::all_apps()) {
    for (const auto& stage : app.stages) {
      for (codegen::Variant variant :
           {codegen::Variant::kNaive, codegen::Variant::kIsp,
            codegen::Variant::kIspTiled}) {
        codegen::CodegenOptions opt;
        opt.variant = variant;
        const std::string src = codegen::emit_cpp(stage.spec, opt);
        const std::string combo = stage.spec.name + "/" +
                                  std::string(codegen::to_string(variant));
        EXPECT_EQ(src.find("#include"), std::string::npos) << combo;
        // in, pitch_in_v, out and one inN per input.
        const auto first =
            std::sregex_iterator(src.begin(), src.end(), pointer_decl);
        EXPECT_EQ(std::distance(first, std::sregex_iterator()),
                  3 + stage.spec.num_inputs)
            << combo;
        for (auto it = first; it != std::sregex_iterator(); ++it) {
          EXPECT_EQ((*it)[3].str(), "__restrict__")
              << combo << ": " << it->str();
        }
      }
    }
  }
}

/// Every stage the native engine can run for the paper apps: each app's
/// own stages and the stages of its fused graph.
std::vector<codegen::StencilSpec> native_stage_specs() {
  std::vector<codegen::StencilSpec> specs;
  for (const filters::MultiKernelApp& app : filters::all_apps()) {
    for (const auto& stage : app.stages) specs.push_back(stage.spec);
    for (const auto& stage : pipeline::build_graph(app).fused().stages) {
      if (stage.spec.name.find('+') != std::string::npos) {
        specs.push_back(stage.spec);
      }
    }
  }
  return specs;
}

// min/max lower to compare-and-select expressions, never to a libm call: a
// call per pixel keeps the Body loop scalar, and a fused epilogue would
// take its producer's loop down with it.
TEST(CppPrinter, EmitsNoMinMaxLibmCalls) {
  bool saw_select = false;
  for (const codegen::StencilSpec& spec : native_stage_specs()) {
    for (BorderPattern pattern : kAllBorderPatterns) {
      for (codegen::Variant variant :
           {codegen::Variant::kNaive, codegen::Variant::kIsp,
            codegen::Variant::kIspTiled}) {
        codegen::CodegenOptions opt;
        opt.pattern = pattern;
        opt.variant = variant;
        const std::string src = codegen::emit_cpp(spec, opt);
        const std::string combo = spec.name + "/" +
                                  std::string(to_string(pattern)) + "/" +
                                  std::string(codegen::to_string(variant));
        EXPECT_EQ(src.find("fmaxf"), std::string::npos) << combo;
        EXPECT_EQ(src.find("fminf"), std::string::npos) << combo;
        saw_select |= src.find(") ? ") != std::string::npos;
      }
    }
  }
  EXPECT_TRUE(saw_select) << "tonemap's max should print as a select";
}

// A toolchain upgrade must change the artifact name: the stem hashes the
// first line of `<driver> --version`, not just the driver's name. Three
// drivers share one name on different $PATHs; a and c report the same
// version, b another.
TEST(Jit, ArtifactStemTracksCompilerVersion) {
  const TempDir dir("stem");
  const auto make_driver = [&](const std::string& sub,
                               const std::string& version) {
    const fs::path bin = dir.path / sub;
    fs::create_directories(bin);
    const fs::path driver = bin / "ispb-test-cxx";
    {
      std::ofstream script(driver);
      script << "#!/bin/sh\necho '" << version << "'\necho 'more text'\n";
    }
    fs::permissions(driver, fs::perms::owner_all);
    return bin;
  };
  const fs::path a = make_driver("a", "ispb-test-cxx 12.2.0");
  const fs::path b = make_driver("b", "ispb-test-cxx 13.1.0");
  const fs::path c = make_driver("c", "ispb-test-cxx 12.2.0");

  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;
  exec::JitConfig config = fast_jit(dir);
  config.compiler = "ispb-test-cxx";

  const char* env_path = std::getenv("PATH");
  const std::string saved = env_path != nullptr ? env_path : "";
  const auto stem_with = [&](const fs::path& bin) {
    ::setenv("PATH", (bin.string() + ":" + saved).c_str(), 1);
    return exec::artifact_stem(spec, opt, config);
  };
  const std::string stem_a = stem_with(a);
  const std::string stem_b = stem_with(b);
  const std::string stem_c = stem_with(c);
  ::setenv("PATH", saved.c_str(), 1);

  EXPECT_NE(stem_a, stem_b);
  EXPECT_EQ(stem_a, stem_c);  // the version, not the driver's location
}

// The JIT targets x86-64-v3 exactly where cpuid reports it, and the level is
// part of the artifact stem: an object built at v3 never loads under the
// baseline flags (or on a host without AVX2, whose flags read baseline). The
// level is always spelled out, never as -march=native.
TEST(Jit, IsaLevelFollowsCpuidAndChangesTheStem) {
#if defined(__x86_64__)
  const bool v3 = __builtin_cpu_supports("x86-64-v3");
  EXPECT_EQ(exec::jit_isa_level(), v3 ? "x86-64-v3" : "x86-64");

  const TempDir dir("isa");
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;
  const exec::JitConfig production{dir.path.string(), "", ""};
  exec::JitConfig baseline = production;
  baseline.extra_flags = "-march=x86-64";
  if (v3) {
    EXPECT_NE(exec::artifact_stem(spec, opt, production),
              exec::artifact_stem(spec, opt, baseline));
  }

  // The command line itself, recorded by a driver that then fails: it
  // names the level and never -march=native, and the baseline override
  // comes last, so it wins. The compile span names the level that won.
  const fs::path args = dir.path / "args.txt";
  const fs::path driver = dir.path / "ispb-record-cxx";
  {
    std::ofstream script(driver);
    script << "#!/bin/sh\necho \"$@\" > '" << args.string() << "'\nexit 1\n";
  }
  fs::permissions(driver, fs::perms::owner_all);
  const auto command_line = [&](exec::JitConfig config) {
    config.compiler = driver.string();
    EXPECT_THROW((void)exec::jit_compile(spec, opt, config), IoError);
    std::ifstream in(args);
    std::string line;
    std::getline(in, line);
    return line;
  };
  const std::string level = "-march=" + std::string(exec::jit_isa_level());
  obs::TraceSession::start();
  const std::string at_level = command_line(production);
  const std::string at_baseline = command_line(baseline);
  std::vector<std::string> span_isa;
  for (const obs::TraceEvent& ev : obs::TraceSession::stop()) {
    for (const auto& [key, value] : ev.args) {
      if (ev.name == "exec.native.compile" && key == "isa") {
        span_isa.push_back(value.as_string());
      }
    }
  }
  EXPECT_EQ(span_isa, (std::vector<std::string>{
                          std::string(exec::jit_isa_level()), "x86-64"}));
  for (const std::string& line : {at_level, at_baseline}) {
    EXPECT_NE(line.find(level + " "), std::string::npos) << line;
    EXPECT_EQ(line.find("=native"), std::string::npos) << line;
  }
  EXPECT_GT(at_baseline.rfind("-march=x86-64 "), at_baseline.find(level + " "))
      << at_baseline;
#else
  GTEST_SKIP() << "ISA levels are x86-64 only";
#endif
}

TEST(Jit, CompilesBitExactKernelAndReusesDiskArtifact) {
  const TempDir dir("jit");
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;
  const Image<f32> source = make_noise_image({40, 40}, 7);
  const auto inputs = bind_inputs(spec, source);

  const exec::NativeModulePtr module = exec::jit_compile(spec, opt, fast_jit(dir));
  Image<f32> out(source.size());
  (void)exec::run_native_module(*module, inputs, out);
  const Image<f32> reference =
      dsl::run_reference(spec, opt.pattern, opt.border_constant, inputs);
  EXPECT_TRUE(bit_identical(out, reference));

  // Same source hash in the same directory: the second compile dlopens the
  // existing .so instead of re-running the toolchain (mtime unchanged).
  const fs::path artifact = module->artifact_path();
  ASSERT_TRUE(fs::exists(artifact));
  const auto mtime = fs::last_write_time(artifact);
  const exec::NativeModulePtr again = exec::jit_compile(spec, opt, fast_jit(dir));
  EXPECT_EQ(again->artifact_path(), module->artifact_path());
  EXPECT_EQ(fs::last_write_time(artifact), mtime);
}

/// Noise salted with IEEE special values: a sparse grid of +-NaN, +-Inf,
/// -0.0, +0.0 and subnormals in the left half, and subnormal-scale noise
/// (so sums and products of taps underflow gradually) in the bottom half.
/// The top-right quadrant stays plain noise, so wide windows there still
/// produce finite outputs.
Image<f32> make_special_image(Size2 size, u64 seed) {
  using limits = std::numeric_limits<f32>;
  const f32 specials[] = {limits::quiet_NaN(),   -limits::quiet_NaN(),
                          limits::infinity(),    -limits::infinity(),
                          -0.0f,                 0.0f,
                          limits::denorm_min(),  -limits::denorm_min(),
                          limits::min() / 64.0f, -limits::min() / 3.0f};
  constexpr i32 kSpecials = static_cast<i32>(std::size(specials));
  Image<f32> img = make_noise_image(size, seed);
  for (i32 y = 0; y < size.y; ++y) {
    for (i32 x = 0; x < size.x; ++x) {
      if (y >= size.y / 2) img(x, y) *= 0x1p-140f;
      if (x < size.x / 2 && x % 5 == 2 && y % 4 == 1) {
        img(x, y) = specials[(x / 5 + y / 4 + static_cast<i32>(seed)) %
                             kSpecials];
      }
    }
  }
  return img;
}

// Vectorized loops, the min/max selects, __builtin_sqrtf, -fno-math-errno
// and -fno-trapping-math must keep the reference's semantics bit for bit —
// NaN-ness, signed zeros, infinities and subnormals included; only NaN
// payloads may differ (see first_mismatch). Compiled with the production
// flag set (no -O0 override), which is what vectorizes the Body. Every
// stage of every app, and every fused stage the native engine runs
// (sobel as one kernel, atrous17 with tonemap as its epilogue), is checked
// against dsl::run_reference directly, so point stages (sobel's sqrt,
// night's max tonemap) see the special values too. The ISA level alternates
// with the border pattern: even patterns compile at jit_isa_level(), odd ones
// at baseline x86-64, so every stage meets both levels without doubling the
// compiles.
TEST(JitSpecialValues, BitIdenticalToReferenceAtProductionFlags) {
  const TempDir dir("special");
  const exec::JitConfig production{dir.path.string(), "", ""};
  exec::JitConfig baseline = production;
  baseline.extra_flags = "-march=x86-64";
  const Size2 size{40, 40};
  std::vector<Image<f32>> images;
  for (u64 seed = 1; seed <= 2; ++seed) {
    images.push_back(make_special_image(size, seed));
  }

  struct Case {
    const codegen::StencilSpec* spec;
    const exec::JitConfig* jit;
    codegen::CodegenOptions options;
    exec::NativeModulePtr module;
  };
  const std::vector<codegen::StencilSpec> specs = native_stage_specs();
  std::vector<Case> cases;
  for (const codegen::StencilSpec& spec : specs) {
    for (std::size_t p = 0; p < std::size(kAllBorderPatterns); ++p) {
      for (codegen::Variant variant :
           {codegen::Variant::kNaive, codegen::Variant::kIsp,
            codegen::Variant::kIspTiled}) {
        Case c{&spec, p % 2 == 0 ? &production : &baseline, {}, nullptr};
        c.options.pattern = kAllBorderPatterns[p];
        c.options.variant = variant;
        cases.push_back(std::move(c));
      }
    }
  }

  // Optimized compiles dominate the test; spread them over a few threads.
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> compilers;
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (unsigned t = 0; t < threads; ++t) {
    compilers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < cases.size();
           i = next.fetch_add(1)) {
        cases[i].module =
            exec::jit_compile(*cases[i].spec, cases[i].options, *cases[i].jit);
      }
    });
  }
  for (std::thread& th : compilers) th.join();

  for (const Case& c : cases) {
    std::vector<const Image<f32>*> inputs;
    for (i32 k = 0; k < c.spec->num_inputs; ++k) {
      inputs.push_back(&images[static_cast<std::size_t>(k)]);
    }
    const Image<f32> reference = dsl::run_reference(
        *c.spec, c.options.pattern, c.options.border_constant, inputs);
    Image<f32> out(size);
    (void)exec::run_native_module(*c.module, inputs, out);
    EXPECT_EQ(first_mismatch(out, reference), "")
        << c.spec->name << "/" << to_string(c.options.pattern) << "/"
        << codegen::to_string(c.options.variant) << " "
        << (c.jit->extra_flags.empty() ? exec::jit_isa_level() : "x86-64");
  }
}

// The acceptance matrix: every app, every border pattern, every variant —
// the native executor output is bit-identical to run_app_reference, no
// stage falls back to the interpreter. One shared cache (and artifact dir)
// keeps this to one JIT compile per (stage, pattern, canonical variant).
TEST(ExecutorNative, BitIdenticalToReferenceAcrossAppsPatternsVariants) {
  const TempDir dir("matrix");
  pipeline::KernelCache cache(256);
  cache.set_jit(fast_jit(dir));
  const Image<f32> source = make_noise_image({40, 40}, 42);

  for (const filters::MultiKernelApp& app : filters::all_apps()) {
    const pipeline::KernelGraph graph = pipeline::build_graph(app);
    for (BorderPattern pattern : kAllBorderPatterns) {
      const Image<f32> reference =
          filters::run_app_reference(app, source, pattern);
      for (codegen::Variant variant :
           {codegen::Variant::kNaive, codegen::Variant::kIsp,
            codegen::Variant::kIspWarp, codegen::Variant::kIspTiled}) {
        pipeline::ExecutorConfig cfg;
        cfg.sim.pattern = pattern;
        cfg.sim.variant = variant;
        cfg.concurrency = 1;
        cfg.cache = &cache;
        cfg.backend = exec::Backend::kNative;
        const pipeline::PipelineExecutor executor(cfg);
        const pipeline::ExecutorResult result = executor.run(graph, source);
        const std::string combo = app.name + "/" +
                                  std::string(to_string(pattern)) + "/" +
                                  std::string(codegen::to_string(variant));
        EXPECT_TRUE(bit_identical(result.output, reference)) << combo;
        for (const auto& stage : result.stages) {
          EXPECT_EQ(stage.backend_used, exec::Backend::kNative)
              << combo << " stage " << stage.kernel;
          EXPECT_FALSE(stage.backend_fallback)
              << combo << " stage " << stage.kernel;
        }
      }
    }
  }
  // Nothing in the matrix ever fell back, so every native lookup resolved.
  const pipeline::KernelCacheStats stats = cache.stats();
  EXPECT_GT(stats.native_misses, 0u);
  EXPECT_GT(stats.native_hits, 0u);
}

// The native engine runs the fused graph: sobel as one kernel, night as
// four with tonemap as atrous17's epilogue, and the result lists those
// stages. The interpreted engine keeps one simulated launch per kernel.
TEST(ExecutorNative, ReportsFusedStagesInterpretedReportsKernels) {
  const TempDir dir("fused");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  const Image<f32> source = make_noise_image({40, 36}, 5);
  struct Want {
    filters::MultiKernelApp app;
    std::vector<std::string> native;
    std::size_t interpreted;
  };
  const Want wants[] = {
      {filters::make_sobel_app(), {"sobel_dx+sobel_dy+sobel_magnitude"}, 3},
      {filters::make_night_app(),
       {"atrous3", "atrous5", "atrous9", "atrous17+tonemap"},
       5},
  };
  for (const Want& want : wants) {
    const pipeline::KernelGraph graph = pipeline::build_graph(want.app);
    const Image<f32> reference =
        filters::run_app_reference(want.app, source, BorderPattern::kMirror);
    for (exec::Backend backend :
         {exec::Backend::kNative, exec::Backend::kInterpreted}) {
      pipeline::ExecutorConfig cfg;
      cfg.sim.pattern = BorderPattern::kMirror;
      cfg.sim.variant = codegen::Variant::kIsp;
      cfg.cache = &cache;
      cfg.backend = backend;
      const pipeline::ExecutorResult result =
          pipeline::PipelineExecutor(cfg).run(graph, source);
      const std::string combo =
          want.app.name + "/" + std::string(exec::to_string(backend));
      EXPECT_TRUE(bit_identical(result.output, reference)) << combo;
      std::vector<std::string> kernels;
      for (const auto& stage : result.stages) {
        kernels.push_back(stage.kernel);
        EXPECT_EQ(stage.backend_used, backend) << combo << " " << stage.kernel;
      }
      if (backend == exec::Backend::kNative) {
        EXPECT_EQ(kernels, want.native) << combo;
      } else {
        EXPECT_EQ(kernels.size(), want.interpreted) << combo;
      }
    }
  }
}

// A fused stage whose native compile fails is served by the interpreted
// engine running the fused spec, still bit-identical.
TEST(ExecutorNative, FusedStageCompileFaultFallsBackBitIdentically) {
  const TempDir dir("fused-fault");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  resilience::FaultPlan plan;
  plan.rules.push_back({"backend.compile", resilience::FaultKind::kThrow,
                        "sobel_magnitude", 1.0, 0, 0});
  resilience::FaultInjector injector(plan);
  const resilience::FaultInjector::ScopedInstall install(injector);
  resilience::BreakerRegistry breakers;

  const filters::MultiKernelApp app = filters::make_sobel_app();
  const Image<f32> source = make_noise_image({33, 29}, 4);
  pipeline::ExecutorConfig cfg;
  cfg.sim.pattern = BorderPattern::kConstant;
  cfg.sim.constant = 2.5f;
  cfg.sim.variant = codegen::Variant::kIsp;
  cfg.cache = &cache;
  cfg.backend = exec::Backend::kNative;
  cfg.breakers = &breakers;
  const pipeline::ExecutorResult result =
      pipeline::PipelineExecutor(cfg).run(pipeline::build_graph(app), source);

  EXPECT_TRUE(bit_identical(result.output,
                            filters::run_app_reference(
                                app, source, BorderPattern::kConstant, 2.5f)));
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_EQ(result.stages[0].kernel, "sobel_dx+sobel_dy+sobel_magnitude");
  EXPECT_TRUE(result.stages[0].backend_fallback);
  EXPECT_EQ(result.stages[0].backend_used, exec::Backend::kInterpreted);
}

// The interpreted side of the tiled acceptance matrix: the simulator runs
// the staged smem program (ld.shared/st.shared/bar.sync) for every app and
// border pattern and still lands bit-identical on the reference. Together
// with the native matrix above this covers kIspTiled on both backends.
TEST(ExecutorInterpreted, TiledBitIdenticalToReferenceAcrossAppsPatterns) {
  pipeline::KernelCache cache(256);
  const Image<f32> source = make_noise_image({40, 40}, 42);

  for (const filters::MultiKernelApp& app : filters::all_apps()) {
    const pipeline::KernelGraph graph = pipeline::build_graph(app);
    for (BorderPattern pattern : kAllBorderPatterns) {
      const Image<f32> reference =
          filters::run_app_reference(app, source, pattern);
      pipeline::ExecutorConfig cfg;
      cfg.sim.pattern = pattern;
      cfg.sim.variant = codegen::Variant::kIspTiled;
      cfg.concurrency = 1;
      cfg.cache = &cache;
      cfg.backend = exec::Backend::kInterpreted;
      const pipeline::PipelineExecutor executor(cfg);
      const pipeline::ExecutorResult result = executor.run(graph, source);
      const std::string combo =
          app.name + "/" + std::string(to_string(pattern));
      EXPECT_TRUE(bit_identical(result.output, reference)) << combo;
      for (const auto& stage : result.stages) {
        EXPECT_EQ(stage.backend_used, exec::Backend::kInterpreted)
            << combo << " stage " << stage.kernel;
        EXPECT_EQ(stage.variant_used, codegen::Variant::kIspTiled)
            << combo << " stage " << stage.kernel;
      }
    }
  }
}

// The executor reads the caller's source in place. Sobel's dx and dy read
// image 0 and the magnitude reads images 1 and 2, on both engines and both
// schedules. The source is 77 wide, so each row ends in padding up to the
// pitch; the padding holds NaN, which would reach the output if any stage
// addressed the source with the wrong pitch. The source is never written.
TEST(Executor, ReadsPaddedSourceInPlace) {
  const TempDir dir("inplace");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp app = filters::make_sobel_app();
  const pipeline::KernelGraph graph = pipeline::build_graph(app);

  const Image<f32> noise = make_noise_image({77, 53}, 11);
  Image<f32> source(noise.size());
  ASSERT_GT(source.pitch(), source.width());
  source.fill(std::numeric_limits<f32>::quiet_NaN());
  for (i32 y = 0; y < source.height(); ++y) {
    for (i32 x = 0; x < source.width(); ++x) source(x, y) = noise(x, y);
  }
  const std::vector<f32> before(source.buffer().begin(),
                                source.buffer().end());
  const Image<f32> reference =
      filters::run_app_reference(app, noise, BorderPattern::kMirror);

  for (exec::Backend backend :
       {exec::Backend::kNative, exec::Backend::kInterpreted}) {
    for (i32 concurrency : {1, 2}) {
      pipeline::ExecutorConfig cfg;
      cfg.sim.pattern = BorderPattern::kMirror;
      cfg.sim.variant = codegen::Variant::kIsp;
      cfg.concurrency = concurrency;
      cfg.cache = &cache;
      cfg.backend = backend;
      const pipeline::PipelineExecutor executor(cfg);
      const pipeline::ExecutorResult result = executor.run(graph, source);
      const std::string combo = std::string(exec::to_string(backend)) +
                                "/concurrency " + std::to_string(concurrency);
      EXPECT_TRUE(bit_identical(result.output, reference)) << combo;
      for (const auto& stage : result.stages) {
        EXPECT_EQ(stage.backend_used, backend) << combo << " " << stage.kernel;
        EXPECT_FALSE(stage.backend_fallback) << combo << " " << stage.kernel;
      }
    }
  }
  EXPECT_EQ(std::memcmp(before.data(), source.buffer().data(),
                        before.size() * sizeof(f32)),
            0);
}

/// Poisons the heap for one scope. Under glibc's M_PERTURB every byte of a
/// fresh allocation reads 0x5a (and of a freed block 0xa5), so an output
/// pixel no stage writes comes out as 0x5a5a5a5a instead of a lucky zero
/// or a recycled, correct-looking value. Elsewhere (and under ASan, which
/// ignores M_PERTURB) it does nothing; the back-to-back runs below still
/// catch a buffer that keeps an earlier run's pixels.
class PoisonedHeap {
 public:
  PoisonedHeap() { set(0xA5); }
  ~PoisonedHeap() { set(0); }
  PoisonedHeap(const PoisonedHeap&) = delete;
  PoisonedHeap& operator=(const PoisonedHeap&) = delete;

 private:
  static void set([[maybe_unused]] int byte) {
#ifdef __GLIBC__
    mallopt(M_PERTURB, byte);
#endif
  }
};

/// Every app and pattern at a padded-pitch size (131 wide) and an unpadded
/// one, on a poisoned heap, against run_app_reference. Each cell runs two
/// different sources of one size back to back, so the second output must
/// not inherit the first's pixels either.
void expect_every_pixel_written(exec::Backend backend,
                                codegen::Variant variant) {
  const TempDir dir("poison");
  pipeline::KernelCache cache(256);
  cache.set_jit(fast_jit(dir));
  const PoisonedHeap poison;
  for (const Size2 size : {Size2{131, 75}, Size2{64, 64}}) {
    const Image<f32> first = make_noise_image(size, 7);
    const Image<f32> second = make_noise_image(size, 8);
    for (const filters::MultiKernelApp& app : filters::all_apps()) {
      const pipeline::KernelGraph graph = pipeline::build_graph(app);
      for (BorderPattern pattern : kAllBorderPatterns) {
        pipeline::ExecutorConfig cfg;
        cfg.sim.pattern = pattern;
        cfg.sim.variant = variant;
        cfg.concurrency = 1;
        cfg.cache = &cache;
        cfg.backend = backend;
        const pipeline::PipelineExecutor executor(cfg);
        for (const Image<f32>* source : {&first, &second}) {
          const pipeline::ExecutorResult result = executor.run(graph, *source);
          const Image<f32> reference =
              filters::run_app_reference(app, *source, pattern);
          EXPECT_EQ(first_mismatch(result.output, reference), "")
              << app.name << "/" << to_string(pattern) << " at " << size.x
              << "x" << size.y << (source == &first ? " first" : " second");
        }
      }
    }
  }
}

TEST(ExecutorPoisonedHeap, NativeIspWritesEveryPixel) {
  expect_every_pixel_written(exec::Backend::kNative, codegen::Variant::kIsp);
}

TEST(ExecutorPoisonedHeap, NativeNaiveWritesEveryPixel) {
  expect_every_pixel_written(exec::Backend::kNative, codegen::Variant::kNaive);
}

TEST(ExecutorPoisonedHeap, NativeTiledWritesEveryPixel) {
  expect_every_pixel_written(exec::Backend::kNative,
                             codegen::Variant::kIspTiled);
}

TEST(ExecutorPoisonedHeap, InterpretedFullWritesEveryPixel) {
  expect_every_pixel_written(exec::Backend::kInterpreted,
                             codegen::Variant::kIsp);
}

// A sampled interpreted launch runs only representative blocks. The
// executor's output must equal chaining launch_on_sim into zero-filled
// images, as the executor did before stage outputs were left
// uninitialized: unsampled pixels read exactly 0, never heap garbage.
TEST(ExecutorPoisonedHeap, SampledInterpretedMatchesZeroFilledLaunch) {
  const PoisonedHeap poison;
  const Image<f32> source = make_noise_image({131, 75}, 9);
  pipeline::ExecutorConfig cfg;
  cfg.sim.sampled = true;
  cfg.concurrency = 1;
  cfg.backend = exec::Backend::kInterpreted;
  const pipeline::PipelineExecutor executor(cfg);
  for (const filters::MultiKernelApp& app : filters::all_apps()) {
    std::vector<Image<f32>> images;
    images.push_back(source);
    for (const auto& stage : app.stages) {
      codegen::CodegenOptions options;
      options.pattern = cfg.sim.pattern;
      options.variant = cfg.sim.variant;
      options.border_constant = cfg.sim.constant;
      options.tile_block = cfg.sim.block;
      const dsl::CompiledKernel kernel =
          dsl::compile_kernel(stage.spec, options);
      std::vector<const Image<f32>*> inputs;
      for (i32 img : stage.input_bindings) {
        inputs.push_back(&images[static_cast<std::size_t>(img)]);
      }
      Image<f32> out(source.size());  // zero-filled
      (void)dsl::launch_on_sim(cfg.sim.device, kernel, inputs, out,
                               cfg.sim.block, true);
      images.push_back(std::move(out));
    }
    const pipeline::ExecutorResult result =
        executor.run(pipeline::build_graph(app), source);
    EXPECT_TRUE(bit_identical(result.output, images.back())) << app.name;
  }
}

TEST(ExecutorNative, DegenerateGeometryServesAllChecksNaive) {
  const TempDir dir("degen");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  // bilateral13 has radius 6: an 8x8 image is smaller than twice the radius,
  // so the partition would overlap. The ISP module's Body comes out empty
  // and its all-checks rim covers the image; the stage reports naive, as
  // launch_on_sim's naive fallback does.
  const filters::MultiKernelApp app = filters::make_bilateral_app();
  const pipeline::KernelGraph graph = pipeline::build_graph(app);
  const Image<f32> source = make_noise_image({8, 8}, 3);

  pipeline::ExecutorConfig cfg;
  cfg.sim.variant = codegen::Variant::kIsp;
  cfg.concurrency = 1;
  cfg.cache = &cache;
  cfg.backend = exec::Backend::kNative;
  const pipeline::PipelineExecutor executor(cfg);
  const pipeline::ExecutorResult result = executor.run(graph, source);

  const Image<f32> reference =
      filters::run_app_reference(app, source, BorderPattern::kClamp);
  EXPECT_TRUE(bit_identical(result.output, reference));
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_EQ(result.stages[0].variant_used, codegen::Variant::kNaive);
  EXPECT_EQ(result.stages[0].backend_used, exec::Backend::kNative);
  EXPECT_FALSE(result.stages[0].backend_fallback);
}

// Satellite: a failing native toolchain (backend.compile kThrow, p=1) must
// circuit-break to the interpreted engine with bit-identical output and
// leave no temp files in the artifact directory.
TEST(ExecutorNative, CompileFaultFallsBackToInterpreted) {
  const TempDir dir("fault");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  resilience::FaultPlan plan;
  plan.rules.push_back(
      {"backend.compile", resilience::FaultKind::kThrow, "", 1.0, 0, 0});
  resilience::FaultInjector injector(plan);
  const resilience::FaultInjector::ScopedInstall install(injector);
  resilience::BreakerRegistry breakers;

  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const pipeline::KernelGraph graph = pipeline::build_graph(app);
  const Image<f32> source = make_noise_image({24, 24}, 9);

  pipeline::ExecutorConfig cfg;
  cfg.sim.variant = codegen::Variant::kIsp;
  cfg.concurrency = 1;
  cfg.cache = &cache;
  cfg.backend = exec::Backend::kNative;
  cfg.breakers = &breakers;
  const pipeline::PipelineExecutor executor(cfg);
  const pipeline::ExecutorResult result = executor.run(graph, source);

  const Image<f32> reference =
      filters::run_app_reference(app, source, BorderPattern::kClamp);
  EXPECT_TRUE(bit_identical(result.output, reference));
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_TRUE(result.stages[0].backend_fallback);
  EXPECT_EQ(result.stages[0].backend_used, exec::Backend::kInterpreted);

  // The fault fires before the JIT touches the filesystem and real failures
  // unlink their temporaries — the artifact directory stays empty.
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    ADD_FAILURE() << "orphaned JIT file: " << entry.path();
  }

  // Every native attempt of the run went through the fault point.
  u64 thrown = 0;
  for (const auto& c : injector.counters()) {
    if (c.point == "backend.compile") thrown = c.thrown;
  }
  EXPECT_GT(thrown, 0u);
}

// Satellite: single-flight under an 8-thread hammer — exactly one JIT
// compile, everyone else waits on (or hits) the same shared module.
TEST(KernelCacheNative, SingleFlightUnderThreadHammer) {
  const TempDir dir("flight");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;

  constexpr int kThreads = 8;
  std::vector<exec::NativeModulePtr> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<std::size_t>(t)] = cache.get_or_compile_native(spec, opt);
    });
  }
  for (std::thread& th : threads) th.join();

  for (const exec::NativeModulePtr& m : got) {
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m.get(), got[0].get());
  }
  const pipeline::KernelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.native_misses, 1u);
  EXPECT_EQ(stats.native_hits + stats.native_coalesced, 7u);
}

// Satellite: LRU eviction only drops the cache's shared_ptr — a module an
// executor still holds stays dlopened (and runnable) until the last
// reference goes, then dlcloses.
TEST(KernelCacheNative, EvictionKeepsInUseModuleLoaded) {
  const TempDir dir("evict");
  pipeline::KernelCache cache(/*capacity=*/1);
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp gauss = filters::make_gaussian_app();
  const filters::MultiKernelApp laplace = filters::make_laplace_app();
  const codegen::StencilSpec& spec_a = gauss.stages.front().spec;
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;

  const i64 base = exec::NativeModule::open_count();
  exec::NativeModulePtr a = cache.get_or_compile_native(spec_a, opt);
  EXPECT_EQ(exec::NativeModule::open_count(), base + 1);
  const exec::NativeModulePtr b =
      cache.get_or_compile_native(laplace.stages.front().spec, opt);
  EXPECT_EQ(cache.stats().native_evictions, 1u);
  EXPECT_EQ(cache.native_size(), 1u);
  // Evicted from the cache, but our reference keeps it dlopened...
  EXPECT_EQ(exec::NativeModule::open_count(), base + 2);

  // ...and still correct to run.
  const Image<f32> source = make_noise_image({16, 16}, 1);
  const auto inputs = bind_inputs(spec_a, source);
  Image<f32> out(source.size());
  (void)exec::run_native_module(*a, inputs, out);
  const Image<f32> reference =
      dsl::run_reference(spec_a, opt.pattern, opt.border_constant, inputs);
  EXPECT_TRUE(bit_identical(out, reference));

  a.reset();  // last reference: the handle dlcloses now
  EXPECT_EQ(exec::NativeModule::open_count(), base + 1);
}

// A coalesced waiter whose stop passes while the leader fills is cut with
// DeadlineExceeded before the fill ends; the leader, which fills with its
// stop cleared, still publishes, so the next lookup is a hit on the one
// miss. Both kinds: an IR kernel held open at compile.lower and a native
// module held open at backend.compile (each a 400 ms wall-clock kDelay).
TEST(KernelCacheFill, WaiterCutAtItsStopLeavesTheFillToPublish) {
  const TempDir dir("cut");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;
  const auto check = [&](const std::string& point, auto lookup,
                         auto counts) {
    SCOPED_TRACE(point);
    resilience::FaultPlan plan;
    plan.seed = 5;
    plan.rules.push_back({point, resilience::FaultKind::kDelay, "", 1.0,
                          /*max_fires=*/1, /*delay_ms=*/400});
    resilience::FaultInjector injector(plan);  // SystemClock: real sleep
    resilience::FaultInjector::ScopedInstall install(injector);

    std::atomic<bool> filled{false};
    std::thread leader([&] {
      EXPECT_NE(lookup(), nullptr);
      filled = true;
    });
    while (counts().misses == 0) std::this_thread::yield();
    {
      const StopScope stop(StopClock::now() + std::chrono::milliseconds(50));
      EXPECT_THROW((void)lookup(), DeadlineExceeded);
    }
    EXPECT_FALSE(filled) << "the waiter must be cut while the fill runs";
    leader.join();

    EXPECT_NE(lookup(), nullptr);
    const auto n = counts();
    EXPECT_EQ(n.misses, 1u);
    EXPECT_EQ(n.coalesced, 1u);
    EXPECT_EQ(n.hits, 1u);
  };
  struct Counts {
    u64 hits, misses, coalesced;
  };
  check(
      "compile.lower", [&] { return cache.get_or_compile(spec, opt); },
      [&] {
        const pipeline::KernelCacheStats s = cache.stats();
        return Counts{s.hits, s.misses, s.coalesced};
      });
  check(
      "backend.compile",
      [&] { return cache.get_or_compile_native(spec, opt); },
      [&] {
        const pipeline::KernelCacheStats s = cache.stats();
        return Counts{s.native_hits, s.native_misses, s.native_coalesced};
      });
}

// Satellite: the native cache key canonicalizes variants that lower
// identically — kIspWarp is a hit on kIsp's module; kNaive is its own.
TEST(KernelCacheNative, IspWarpSharesIspModule) {
  const TempDir dir("canon");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions isp;
  isp.variant = codegen::Variant::kIsp;
  codegen::CodegenOptions warp = isp;
  warp.variant = codegen::Variant::kIspWarp;
  codegen::CodegenOptions naive = isp;
  naive.variant = codegen::Variant::kNaive;

  const exec::NativeModulePtr m_isp = cache.get_or_compile_native(spec, isp);
  const exec::NativeModulePtr m_warp = cache.get_or_compile_native(spec, warp);
  EXPECT_EQ(m_isp.get(), m_warp.get());
  EXPECT_EQ(cache.stats().native_misses, 1u);
  EXPECT_EQ(cache.stats().native_hits, 1u);

  const exec::NativeModulePtr m_naive = cache.get_or_compile_native(spec, naive);
  EXPECT_NE(m_naive.get(), m_isp.get());
  EXPECT_EQ(cache.stats().native_misses, 2u);

  // kIspTiled does NOT canonicalize onto isp: the tiled Body is a genuinely
  // different lowering, so it compiles (and caches) its own module, and the
  // key is specialized by tile shape.
  codegen::CodegenOptions tiled = isp;
  tiled.variant = codegen::Variant::kIspTiled;
  const exec::NativeModulePtr m_tiled = cache.get_or_compile_native(spec, tiled);
  EXPECT_NE(m_tiled.get(), m_isp.get());
  EXPECT_EQ(cache.stats().native_misses, 3u);

  codegen::CodegenOptions tiled_8x8 = tiled;
  tiled_8x8.tile_block = {8, 8};
  const exec::NativeModulePtr m_8x8 = cache.get_or_compile_native(spec, tiled_8x8);
  EXPECT_NE(m_8x8.get(), m_tiled.get());
  EXPECT_EQ(cache.stats().native_misses, 4u);
}

// ---- row bands --------------------------------------------------------------

// A small stage runs as one band on the calling thread; a 2048² frame keeps
// one band per pool task of the former fixed rule (4 per worker).
TEST(NativeBands, SmallStagesRunInlineLargeKeepFourPerWorker) {
  EXPECT_EQ(exec::row_bands({128, 128}, 4), 1);
  EXPECT_EQ(exec::row_bands({64, 64}, 4), 1);
  EXPECT_EQ(exec::row_bands({2048, 2048}, 4), 16);
  EXPECT_EQ(exec::row_bands({2048, 2048}, 1), 4);
  // Bands grow with the pixels: each holds at least the floor.
  EXPECT_EQ(exec::row_bands({512, 512}, 4), 512 * 512 / exec::kRowBandFloorPx);
}

TEST(NativeBands, NeverMoreBandsThanRowsNorAnEmptyBand) {
  EXPECT_EQ(exec::row_bands({16, 100000}, 4), 16);
  EXPECT_EQ(exec::row_bands({100000, 3}, 4), 3);
  EXPECT_EQ(exec::row_bands({1 << 20, 1}, 4), 1);
  // 17 rows in 16 bands of 2 rows would leave 7 bands empty.
  EXPECT_EQ(exec::row_bands({100000, 17}, 4), 9);
  for (const Size2 size : {Size2{100000, 17}, Size2{523, 301}, Size2{16, 100000},
                           Size2{4096, 31}, Size2{333, 511}, Size2{1, 1},
                           Size2{65536, 2}, Size2{2048, 2048}}) {
    for (i64 workers : {1, 2, 4, 7, 64}) {
      const i64 bands = exec::row_bands(size, workers);
      const i64 rows_per_band = (size.y + bands - 1) / bands;
      SCOPED_TRACE(std::to_string(size.x) + "x" + std::to_string(size.y) +
                   ", " + std::to_string(workers) + " workers");
      EXPECT_GE(bands, 1);
      EXPECT_LE(bands, size.y);
      EXPECT_LE(bands, 4 * workers);
      EXPECT_LT((bands - 1) * rows_per_band, size.y);  // last band has a row
      EXPECT_GE(bands * rows_per_band, size.y);        // bands cover the rows
    }
  }
}

// Above the floor, one run_native_module call goes through the pool, with a
// ragged last band, and must match the reference bit for bit.
TEST(NativeBands, MultiBandRunBitIdenticalToReference) {
  const TempDir dir("bands");
  const Size2 size{523, 301};
  const i64 bands = exec::row_bands(
      size, static_cast<i64>(ThreadPool::global().size()));
  ASSERT_GT(bands, 1);
  ASSERT_NE(size.y % ((size.y + bands - 1) / bands), 0);  // ragged last band
  const codegen::StencilSpec spec = filters::make_gaussian_app().stages[0].spec;
  const Image<f32> source = make_noise_image(size, 11);
  const auto inputs = bind_inputs(spec, source);
  for (BorderPattern pattern : kAllBorderPatterns) {
    codegen::CodegenOptions opt;
    opt.pattern = pattern;
    opt.variant = codegen::Variant::kIsp;
    const exec::NativeModulePtr module =
        exec::jit_compile(spec, opt, fast_jit(dir));
    Image<f32> out(size, Uninitialized{});
    (void)exec::run_native_module(*module, inputs, out);
    EXPECT_TRUE(bit_identical(
        out, dsl::run_reference(spec, pattern, opt.border_constant, inputs)))
        << to_string(pattern);
  }
}

// ---- stencil chains ---------------------------------------------------------

/// Night's fused stages (atrous3, atrous5, atrous9, atrous17+tonemap)
/// compiled for `options`, in chain order.
std::vector<exec::NativeModulePtr> night_chain(
    const codegen::CodegenOptions& options, const exec::JitConfig& jit) {
  std::vector<exec::NativeModulePtr> modules;
  for (const auto& stage :
       pipeline::build_graph(filters::make_night_app()).fused().stages) {
    modules.push_back(exec::jit_compile(stage.spec, options, jit));
  }
  return modules;
}

std::vector<const exec::NativeModule*> raw(
    const std::vector<exec::NativeModulePtr>& modules) {
  std::vector<const exec::NativeModule*> out;
  for (const auto& m : modules) out.push_back(m.get());
  return out;
}

// Night's four fused stages as one chain, band by band with band-local
// intermediates, match run_app_reference for every pattern a chain may run
// under, at band counts from one band to one row per band (and more bands
// than rows), with ragged last bands, on a padded-pitch image and on one
// wide enough that the intermediates' windows slide. Repeat chains only as
// one band.
TEST(NativeChain, NightMatchesReferenceAtExplicitBandCounts) {
  const TempDir dir("chain-bands");
  const filters::MultiKernelApp night = filters::make_night_app();
  // 131 wide: padded pitch, one strip per band. 9000 wide: strips of 3
  // rows, so every intermediate's window slides down its band.
  const Image<f32> narrow = make_noise_image({131, 75}, 21);
  const Image<f32> wide = make_noise_image({9000, 41}, 25);
  for (BorderPattern pattern : kAllBorderPatterns) {
    const Image<f32> references[] = {
        filters::run_app_reference(night, narrow, pattern, 1.25f),
        filters::run_app_reference(night, wide, pattern, 1.25f)};
    for (codegen::Variant variant :
         {codegen::Variant::kNaive, codegen::Variant::kIsp,
          codegen::Variant::kIspTiled}) {
      codegen::CodegenOptions options;
      options.pattern = pattern;
      options.variant = variant;
      options.border_constant = 1.25f;
      const auto modules = night_chain(options, fast_jit(dir));
      for (const Image<f32>* source : {&narrow, &wide}) {
        const Image<f32>& reference = references[source == &wide ? 1 : 0];
        const std::vector<const Image<f32>*> inputs{source};
        for (i64 bands : {1, 2, 3, 7, 16, 75, 200}) {
          if (pattern == BorderPattern::kRepeat && bands > 1) continue;
          Image<f32> out(source->size(), Uninitialized{});
          (void)exec::run_native_chain(raw(modules), inputs, out, bands);
          EXPECT_EQ(first_mismatch(out, reference), "")
              << to_string(pattern) << "/" << codegen::to_string(variant)
              << " at " << source->width() << "x" << source->height()
              << " in " << bands << " bands";
        }
      }
    }
  }
}

// At 2048² the chain runs in the production band count, with bands far
// taller than night's 15-row reach, at the production JIT flags.
TEST(NativeChain, NightMatchesReferenceAt2048) {
  const TempDir dir("chain-2k");
  const filters::MultiKernelApp night = filters::make_night_app();
  const Image<f32> source = make_noise_image({2048, 2048}, 22);
  const std::vector<const Image<f32>*> inputs{&source};
  ASSERT_GT(exec::row_bands(source.size(),
                            static_cast<i64>(ThreadPool::global().size())),
            1);
  for (BorderPattern pattern :
       {BorderPattern::kClamp, BorderPattern::kMirror,
        BorderPattern::kConstant}) {
    codegen::CodegenOptions options;
    options.pattern = pattern;
    options.variant = codegen::Variant::kIsp;
    const auto modules =
        night_chain(options, {dir.path.string(), "", ""});
    Image<f32> out(source.size(), Uninitialized{});
    (void)exec::run_native_chain(raw(modules), inputs, out);
    EXPECT_EQ(first_mismatch(out, filters::run_app_reference(night, source,
                                                             pattern)),
              "")
        << to_string(pattern);
  }
}

/// Runs `app` on the native executor over `source` while tracing, and
/// returns the result with the number of exec.native.run spans.
std::pair<pipeline::ExecutorResult, i32> run_traced(
    const pipeline::ExecutorConfig& cfg, const filters::MultiKernelApp& app,
    const Image<f32>& source) {
  obs::TraceSession::start();
  pipeline::ExecutorResult result =
      pipeline::PipelineExecutor(cfg).run(pipeline::build_graph(app), source);
  i32 runs = 0;
  for (const obs::TraceEvent& ev : obs::TraceSession::stop()) {
    if (ev.name == "exec.native.run") ++runs;
  }
  return {std::move(result), runs};
}

// The native executor runs night's fused stages as one chain when the
// pattern allows it over several bands, and stage by stage under repeat,
// bit-identical either way, inline and on the executor's pool. A chain
// launches once and reports its wall time on its last stage.
TEST(ExecutorChain, NightRunsAsOneChainExceptRepeatOverBands) {
  const TempDir dir("exec-chain");
  pipeline::KernelCache cache(64);
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp night = filters::make_night_app();
  const Image<f32> source = make_noise_image({523, 301}, 23);
  ASSERT_GT(exec::row_bands(source.size(),
                            static_cast<i64>(ThreadPool::global().size())),
            1);
  for (BorderPattern pattern : kAllBorderPatterns) {
    const Image<f32> reference =
        filters::run_app_reference(night, source, pattern, -2.0f);
    const bool chained = pattern != BorderPattern::kRepeat;
    for (i32 concurrency : {1, 0}) {
      pipeline::ExecutorConfig cfg;
      cfg.sim.pattern = pattern;
      cfg.sim.constant = -2.0f;
      cfg.sim.variant = codegen::Variant::kIsp;
      cfg.concurrency = concurrency;
      cfg.cache = &cache;
      cfg.backend = exec::Backend::kNative;
      const auto [result, runs] = run_traced(cfg, night, source);
      const std::string combo = std::string(to_string(pattern)) +
                                " at concurrency " +
                                std::to_string(concurrency);
      EXPECT_EQ(first_mismatch(result.output, reference), "") << combo;
      ASSERT_EQ(result.stages.size(), 4u) << combo;
      EXPECT_EQ(runs, chained ? 1 : 4) << combo;
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(result.stages[i].backend_used, exec::Backend::kNative);
        EXPECT_EQ(result.stages[i].stats.time_ms > 0.0, !chained || i == 3)
            << combo << " stage " << i;
      }
    }
  }
}

// A chain stage whose native compile fails is served by the interpreter:
// the stages before it run on their own into full images first, the rest of
// the chain runs stage by stage, the output stays bit-identical, and every
// stage passes its fault points once per attempt, as without chains.
TEST(ExecutorChain, FailingStageMidChainFallsBackBitIdentically) {
  const TempDir dir("chain-fault");
  pipeline::KernelCache cache(64);
  cache.set_jit(fast_jit(dir));
  resilience::FaultPlan plan;
  plan.rules.push_back({"backend.compile", resilience::FaultKind::kThrow,
                        "atrous9", 1.0, 0, 0});
  resilience::FaultInjector injector(plan);
  const resilience::FaultInjector::ScopedInstall install(injector);
  resilience::BreakerRegistry breakers;

  const filters::MultiKernelApp night = filters::make_night_app();
  const Image<f32> source = make_noise_image({523, 301}, 24);
  pipeline::ExecutorConfig cfg;
  cfg.sim.pattern = BorderPattern::kMirror;
  cfg.sim.variant = codegen::Variant::kIsp;
  cfg.concurrency = 1;
  cfg.cache = &cache;
  cfg.backend = exec::Backend::kNative;
  cfg.breakers = &breakers;
  const auto [result, runs] = run_traced(cfg, night, source);

  EXPECT_EQ(first_mismatch(result.output,
                           filters::run_app_reference(night, source,
                                                      BorderPattern::kMirror)),
            "");
  ASSERT_EQ(result.stages.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.stages[i].backend_fallback, i == 2) << i;
    EXPECT_EQ(result.stages[i].backend_used,
              i == 2 ? exec::Backend::kInterpreted : exec::Backend::kNative)
        << i;
  }
  EXPECT_EQ(runs, 3);  // atrous3, atrous5 and atrous17+tonemap, one by one
  // Four native attempts and atrous9's interpreted one.
  std::map<std::string, u64> evaluated;
  for (const auto& c : injector.counters()) evaluated[c.point] = c.evaluated;
  EXPECT_EQ(evaluated["executor.stage"], 5u);
  EXPECT_EQ(evaluated["device.launch"], 5u);

  // A lone native stage (gaussian; sobel fused to one kernel) is a chain of
  // one: healthy, it runs in one exec.native.run span and counts one native
  // launch; under an open "#native" breaker the interpreter serves it,
  // bit-identical to the reference.
  resilience::VirtualClock clock;
  resilience::BreakerRegistry open_breakers({1, 1000, 1}, &clock);
  for (const filters::MultiKernelApp& app :
       {filters::make_gaussian_app(), filters::make_sobel_app()}) {
    const Image<f32> reference =
        filters::run_app_reference(app, source, BorderPattern::kMirror);
    cfg.breakers = &breakers;
    obs::MetricsRegistry registry;
    std::string kernel;
    {
      const obs::MetricsRegistry::ScopedInstall metrics(registry);
      const auto [lone, lone_runs] = run_traced(cfg, app, source);
      EXPECT_TRUE(bit_identical(lone.output, reference)) << app.name;
      ASSERT_EQ(lone.stages.size(), 1u) << app.name;
      kernel = lone.stages[0].kernel;
      EXPECT_EQ(lone.stages[0].backend_used, exec::Backend::kNative);
      EXPECT_FALSE(lone.stages[0].backend_fallback) << app.name;
      EXPECT_EQ(lone_runs, 1) << app.name;
    }
    EXPECT_EQ(registry.value("exec.launches",
                             {{"backend", "native"}, {"kernel", kernel}}),
              1.0)
        << app.name;

    open_breakers.get(kernel + "#native").record_failure();
    cfg.breakers = &open_breakers;
    const auto [served, served_runs] = run_traced(cfg, app, source);
    EXPECT_TRUE(bit_identical(served.output, reference)) << app.name;
    ASSERT_EQ(served.stages.size(), 1u) << app.name;
    EXPECT_TRUE(served.stages[0].backend_fallback) << app.name;
    EXPECT_EQ(served.stages[0].backend_used, exec::Backend::kInterpreted);
    EXPECT_EQ(served_runs, 0) << app.name;
  }
}

// The request breakdown sees the native engine: a cold request's JIT is
// compile time and its run is kernel time; a warm request compiles nothing.
TEST(NativeTrace, RequestBreakdownCountsNativeCompileAndRun) {
  const TempDir dir("breakdown");
  pipeline::KernelCache cache(16);
  cache.set_jit(fast_jit(dir));
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
  const auto source =
      std::make_shared<const Image<f32>>(make_noise_image({48, 48}, 5));
  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.executor.cache = &cache;
  cfg.executor.backend = exec::Backend::kNative;

  obs::TraceSession::start();
  {
    pipeline::PipelineServer server(cfg);
    for (int i = 0; i < 2; ++i) {  // one at a time: cold, then warm
      pipeline::ServeRequest request;
      request.graph = graph;
      request.source = source;
      EXPECT_EQ(server.submit(std::move(request)).get().status,
                pipeline::ServeStatus::kOk);
    }
    server.shutdown();
  }
  const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();
  const std::vector<u64> ids = obs::request_ids(events);
  ASSERT_EQ(ids.size(), 2u);
  const obs::RequestBreakdown cold = obs::request_breakdown(events, ids[0]);
  const obs::RequestBreakdown warm = obs::request_breakdown(events, ids[1]);
  f64 jit_us = 0.0;
  for (const obs::TraceEvent& ev : events) {
    if (ev.request_id == ids[0] && ev.name == "exec.native.compile") {
      jit_us += ev.dur_us;
    }
  }
  EXPECT_GT(cold.compile_us, 0.0);
  EXPECT_DOUBLE_EQ(cold.compile_us, jit_us);  // each compile counted once
  EXPECT_GT(cold.sim_us, 0.0);
  EXPECT_EQ(warm.compile_us, 0.0);
  EXPECT_GT(warm.sim_us, 0.0);
  EXPECT_EQ(cache.stats().native_misses, 1u);
}

TEST(Backend, ParseAndToStringRoundTrip) {
  EXPECT_EQ(exec::parse_backend("interp"), exec::Backend::kInterpreted);
  EXPECT_EQ(exec::parse_backend("native"), exec::Backend::kNative);
  EXPECT_FALSE(exec::parse_backend("cuda").has_value());
  EXPECT_FALSE(exec::parse_backend("").has_value());
  for (exec::Backend b : {exec::Backend::kInterpreted, exec::Backend::kNative}) {
    EXPECT_EQ(exec::parse_backend(exec::to_string(b)), b);
  }
}

}  // namespace
}  // namespace ispb
