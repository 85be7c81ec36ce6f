// Differential fuzzer for the border lowering.
//
// A seeded generator builds random StencilSpecs: windows of 1..17 per axis
// (non-square, sparse taps), 1-3 inputs, and DAGs over every NodeKind. Each
// spec runs under every border pattern and the naive, isp and isp-tiled
// variants on a few awkward geometries: 1xN and Nx1 strips, an image
// smaller than the window, an image of twice the radius (empty Body) and
// one of twice the radius plus one (one-pixel Body), and sizes one off a
// tile_block multiple. Three engines must agree bit for bit (NaN compared
// by NaN-ness only):
//   - dsl::run_reference, the CPU oracle built on border/border.cpp;
//   - the native JIT (emit_cpp -> jit_compile -> run_native_module), and
//     the module called once per band of a seeded random row split, which
//     must match its one-call output bit for bit;
//   - the simulator running the IR lowering (dsl::launch_on_sim).
// For ISP programs the static analyzer must also prove every access in
// bounds, the region switch a partition of the grid and every barrier
// reached by all lanes, and find no border guard left in the Body section.
// A second leg runs random linear chains of stages band by band through
// exec::run_native_chain (see "chain leg" below).
//
// Seeds: the ctest run covers seeds 1..kSeedsPerRun. Passing
// --gtest_random_seed=S runs block S instead, seeds
// (S-1)*kSeedsPerRun+1 .. S*kSeedsPerRun; with --gtest_repeat=R and
// --gtest_shuffle gtest advances the seed once per iteration, so R
// iterations cover R consecutive blocks. Even seeds JIT at the production
// ISA level (exec::jit_isa_level()), odd seeds at baseline x86-64, so every
// block covers both. A failure message names its seed and level; the
// minimized failures live on as the LoweringFuzzRegression.* cases below.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "codegen/kernel_gen.hpp"
#include "common/rng.hpp"
#include "dsl/runtime.hpp"
#include "exec/backend.hpp"
#include "exec/jit.hpp"
#include "gpusim/device.hpp"
#include "image/generators.hpp"
#include "ir/analysis/checkers.hpp"
#include "pipeline/kernel_graph.hpp"

namespace ispb {
namespace {

namespace fs = std::filesystem;
using codegen::NodeKind;
using codegen::StencilSpec;
using codegen::Variant;

constexpr u64 kSeedsPerRun = 8;

constexpr Variant kVariants[] = {Variant::kNaive, Variant::kIsp,
                                 Variant::kIspTiled};

constexpr NodeKind kUnaryKinds[] = {NodeKind::kNeg, NodeKind::kAbs,
                                    NodeKind::kExp2, NodeKind::kLog2,
                                    NodeKind::kSqrt, NodeKind::kRcp};
constexpr NodeKind kBinaryKinds[] = {NodeKind::kAdd, NodeKind::kSub,
                                     NodeKind::kMul, NodeKind::kDiv,
                                     NodeKind::kMin, NodeKind::kMax};

/// The seeds this process runs (see the file comment).
std::vector<u64> seeds_to_run() {
  const bool flag_given = ::testing::GTEST_FLAG(random_seed) != 0;
  const u64 block =
      flag_given
          ? static_cast<u64>(::testing::UnitTest::GetInstance()->random_seed())
          : 1;
  std::vector<u64> seeds;
  for (u64 i = 1; i <= kSeedsPerRun; ++i) {
    seeds.push_back((block - 1) * kSeedsPerRun + i);
  }
  return seeds;
}

/// Finite constants the printers must spell exactly: integer-valued floats,
/// values with more than 6 significant digits, extremes and subnormals.
f32 random_constant(Rng& rng) {
  static const f32 kPool[] = {0.0f,
                              -0.0f,
                              -1.0f,
                              7.0f,
                              1.5f,
                              0x1.2c155cp-6f,
                              0.1f,
                              -3.14159274f,
                              std::numeric_limits<f32>::max(),
                              std::numeric_limits<f32>::min(),
                              std::numeric_limits<f32>::denorm_min(),
                              1e-30f};
  if (rng.bernoulli(0.6f)) {
    return kPool[rng.uniform_i32(0, static_cast<i32>(std::size(kPool)) - 1)];
  }
  f32 v = std::numeric_limits<f32>::quiet_NaN();
  while (!std::isfinite(v)) v = std::bit_cast<f32>(rng.next_u32());
  return v;
}

/// A random spec: the window is exactly (2rx+1)x(2ry+1) because the taps
/// include an extreme column and an extreme row; every tap feeds the
/// output, and some interior nodes are reused (a DAG, not a tree).
StencilSpec random_spec(u64 seed) {
  Rng rng(seed);
  const i32 inputs = rng.uniform_i32(1, 3);
  const i32 rx = rng.uniform_i32(0, 8);
  const i32 ry = rng.uniform_i32(0, 8);
  codegen::SpecBuilder b("fuzz" + std::to_string(seed), inputs);

  std::vector<i32> live;
  const auto tap = [&](i32 dx, i32 dy) {
    live.push_back(b.read(rng.uniform_i32(0, inputs - 1), dx, dy));
  };
  tap(rng.bernoulli(0.5f) ? rx : -rx, rng.uniform_i32(-ry, ry));
  tap(rng.uniform_i32(-rx, rx), rng.bernoulli(0.5f) ? ry : -ry);
  if (rng.bernoulli(0.5f)) tap(0, 0);
  for (i32 i = rng.uniform_i32(0, 9); i > 0; --i) {
    tap(rng.uniform_i32(-rx, rx), rng.uniform_i32(-ry, ry));
  }
  for (i32 i = rng.uniform_i32(0, 3); i > 0; --i) {
    live.push_back(b.constant(random_constant(rng)));
  }

  std::vector<i32> all = live;
  const auto take = [&]() {
    const std::size_t k = static_cast<std::size_t>(
        rng.uniform_i32(0, static_cast<i32>(live.size()) - 1));
    const i32 id = live[k];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    return id;
  };
  const auto pick = [&](std::span<const NodeKind> kinds) {
    return kinds[static_cast<std::size_t>(
        rng.uniform_i32(0, static_cast<i32>(kinds.size()) - 1))];
  };
  i32 extra_unary = rng.uniform_i32(1, 6);
  while (live.size() > 1 || extra_unary > 0) {
    i32 id = 0;
    if (live.size() < 2 || (extra_unary > 0 && rng.bernoulli(0.4f))) {
      --extra_unary;
      id = b.unary(pick(kUnaryKinds), take());
    } else {
      const i32 lhs = take();
      // Sometimes reuse an earlier node instead of consuming a live one.
      const i32 rhs =
          rng.bernoulli(0.2f)
              ? all[static_cast<std::size_t>(
                    rng.uniform_i32(0, static_cast<i32>(all.size()) - 1))]
              : take();
      id = b.binary(pick(kBinaryKinds), lhs, rhs);
    }
    live.push_back(id);
    all.push_back(id);
  }
  return b.finish(live.front());
}

/// One fuzz target: a spec, the tile_block its tiled variant stages (also
/// the simulator's launch block for every variant) and the image sizes it
/// runs on. `seed` labels failures and seeds the pixels and border
/// constants.
struct Target {
  StencilSpec spec;
  BlockSize tile;
  std::vector<Size2> sizes;
  u64 seed = 0;
  /// Random per case when unset.
  std::optional<f32> border_constant = std::nullopt;
};

/// The two sizes at the edge of the ISP partition for radii (rx, ry):
/// twice the radius, where the Body is empty and the left and right rim
/// columns touch, and one more, where the Body is one pixel.
std::vector<Size2> partition_edge_sizes(i32 rx, i32 ry) {
  return {{std::max(1, 2 * rx), std::max(1, 2 * ry)},
          {2 * rx + 1, 2 * ry + 1}};
}

/// A random spec with its geometries: a 1xN and an Nx1 strip, an image
/// smaller than the window (where the window is wider than one pixel), the
/// partition edge sizes, and a size one off a tile_block multiple on each
/// axis. The 8x2 tile is a block of less than one warp.
Target random_target(u64 seed) {
  Target t{random_spec(seed), {}, {}, seed};
  Rng rng(seed ^ 0x5bd1e995ull);
  const BlockSize tiles[] = {{32, 4}, {16, 8}, {8, 2}};
  t.tile = tiles[rng.uniform_i32(0, 2)];
  const Window w = t.spec.window();
  t.sizes = {{1, rng.uniform_i32(1, 40)}, {rng.uniform_i32(2, 40), 1}};
  if (w.m > 1 || w.n > 1) {
    t.sizes.push_back({rng.uniform_i32(1, w.m), rng.uniform_i32(1, w.n)});
  }
  for (const Size2 size :
       partition_edge_sizes(w.radius_x(), w.radius_y())) {
    t.sizes.push_back(size);
  }
  t.sizes.push_back(
      {t.tile.tx * rng.uniform_i32(1, 2) + rng.uniform_i32(-1, 1),
       t.tile.ty * rng.uniform_i32(2, 4) + rng.uniform_i32(-1, 1)});
  return t;
}

/// Noise over [-4, 4) with exact zeros and negative zeros mixed in, so
/// log2/sqrt/rcp/div produce NaN and infinities along with finite values.
Image<f32> random_image(Size2 size, u64 seed) {
  Image<f32> img = make_noise_image(size, seed);
  for (i32 y = 0; y < size.y; ++y) {
    for (i32 x = 0; x < size.x; ++x) {
      const f32 v = img(x, y);
      img(x, y) = v == 3.0f ? 0.0f : v == 5.0f ? -0.0f : v / 32.0f - 4.0f;
    }
  }
  return img;
}

/// "" when `got` matches `want` bit for bit apart from NaN payloads (see
/// test_exec's first_mismatch), else the first differing pixel.
std::string first_mismatch(const Image<f32>& got, const Image<f32>& want) {
  if (got.size() != want.size()) return "size mismatch";
  for (i32 y = 0; y < got.height(); ++y) {
    for (i32 x = 0; x < got.width(); ++x) {
      const u32 g = std::bit_cast<u32>(got(x, y));
      const u32 w = std::bit_cast<u32>(want(x, y));
      if (g != w && !(std::isnan(got(x, y)) && std::isnan(want(x, y)))) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "(%d, %d): got 0x%08x (%g), want 0x%08x (%g)", x, y, g,
                      static_cast<double>(got(x, y)), w,
                      static_cast<double>(want(x, y)));
        return buf;
      }
    }
  }
  return "";
}

/// Exact bit equality, NaN payloads included.
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

/// The spec, one node per line, for turning a failing seed into a
/// regression case.
std::string describe(const StencilSpec& spec) {
  static constexpr const char* kNames[] = {
      "read", "const", "add", "sub",  "mul",  "div",  "min",
      "max",  "neg",   "abs", "exp2", "log2", "sqrt", "rcp"};
  std::ostringstream os;
  os << spec.name << ": inputs " << spec.num_inputs << ", window "
     << spec.window().m << "x" << spec.window().n << ", output t"
     << spec.output << "\n";
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    const codegen::Node& n = spec.nodes[i];
    os << "  t" << i << " = " << kNames[static_cast<std::size_t>(n.kind)];
    if (n.kind == NodeKind::kRead) {
      os << " in" << n.input << "(" << n.dx << ", " << n.dy << ")";
    } else if (n.kind == NodeKind::kConst) {
      os << " " << std::hexfloat << n.value << std::defaultfloat;
    } else {
      os << " t" << n.lhs;
      if (n.rhs >= 0) os << " t" << n.rhs;
    }
    os << "\n";
  }
  return os.str();
}

/// Fresh JIT artifact directory, removed on scope exit.
struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("ispb-lowering-fuzz-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

struct Case {
  const Target* target;
  codegen::CodegenOptions options;
  exec::NativeModulePtr module;
};

/// Even seeds compile at the JIT's production level, odd seeds at baseline
/// x86-64, so a seed range covers both levels with one compile per case.
bool at_production_level(u64 seed) { return seed % 2 == 0; }

/// Every pattern x variant of each target, compiled at the production JIT
/// flags (or baseline, by seed parity) on a few threads (the compiles
/// dominate the run time).
std::vector<Case> compile_cases(const std::vector<Target>& targets,
                                const TempDir& dir) {
  std::vector<Case> cases;
  for (const Target& t : targets) {
    Rng rng(t.seed ^ 0xc2b2ae35ull);
    for (BorderPattern pattern : kAllBorderPatterns) {
      for (Variant variant : kVariants) {
        Case c{&t, {}, nullptr};
        c.options.pattern = pattern;
        c.options.variant = variant;
        c.options.tile_block = t.tile;
        c.options.border_constant =
            t.border_constant.value_or(random_constant(rng));
        cases.push_back(std::move(c));
      }
    }
  }
  const exec::JitConfig production{dir.path.string(), "", ""};
  exec::JitConfig baseline = production;
  baseline.extra_flags = "-march=x86-64";
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> compilers;
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (unsigned i = 0; i < threads; ++i) {
    compilers.emplace_back([&] {
      for (std::size_t k = next.fetch_add(1); k < cases.size();
           k = next.fetch_add(1)) {
        const Target& t = *cases[k].target;
        cases[k].module = exec::jit_compile(
            t.spec, cases[k].options,
            at_production_level(t.seed) ? production : baseline);
      }
    });
  }
  for (std::thread& th : compilers) th.join();
  return cases;
}

bool degenerate(Size2 image, BlockSize block, Window window) {
  const BlockBounds b = compute_block_bounds(image, block, window);
  return b.bh_l > b.bh_r || b.bh_t > b.bh_b;
}

/// A seeded split of [0, sy) into row ranges, as cut points from 0 to sy:
/// one cut inside the top border strip (the first ry rows), one inside the
/// bottom strip, a 1-row band and up to three more random cuts.
std::vector<i32> random_row_cuts(i32 sy, i32 ry, Rng& rng) {
  std::vector<i32> cuts{0, sy};
  if (sy > 1) {
    const i32 strip = std::clamp(ry, 1, sy - 1);
    cuts.push_back(rng.uniform_i32(1, strip));
    cuts.push_back(sy - rng.uniform_i32(1, strip));
    const i32 row = rng.uniform_i32(0, sy - 1);
    cuts.insert(cuts.end(), {row, row + 1});
    for (i32 i = rng.uniform_i32(0, 3); i > 0; --i) {
      cuts.push_back(rng.uniform_i32(1, sy - 1));
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

/// The module called once per row band of a random split must write exactly
/// the one-call output: run_native_module runs the fuzzer's small images as
/// one call, so this is what checks the kernel's row-range entry point.
void check_row_bands(const Case& c, std::span<const Image<f32>* const> inputs,
                     Window window, const Image<f32>& one_call) {
  const Size2 size = one_call.size();
  std::vector<const float*> ptrs;
  std::vector<int> pitches;
  for (const Image<f32>* img : inputs) {
    ptrs.push_back(img->buffer().data());
    pitches.push_back(img->pitch());
  }
  Rng rng(c.target->seed * 0x9e3779b97f4a7c15ull ^
          static_cast<u64>(size.x * 4099 + size.y));
  const std::vector<i32> cuts =
      random_row_cuts(size.y, window.radius_y(), rng);
  Image<f32> banded(size, Uninitialized{});
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    c.module->fn()(ptrs.data(), pitches.data(), banded.buffer().data(),
                   banded.pitch(), size.x, size.y, cuts[k], cuts[k + 1]);
  }
  std::string bands;
  for (i32 cut : cuts) bands += " " + std::to_string(cut);
  EXPECT_TRUE(bit_identical(banded, one_call)) << "native row bands at" << bands;
}

/// Runs one compiled case over its target's sizes through all three
/// engines and the analyzer.
void check_case(const Case& c) {
  const StencilSpec& spec = c.target->spec;
  const codegen::CodegenOptions& opt = c.options;
  const Window window = spec.window();
  const BlockSize block = opt.tile_block;
  char constant[32];
  std::snprintf(constant, sizeof(constant), "%a",
                static_cast<double>(opt.border_constant));
  SCOPED_TRACE("seed " + std::to_string(c.target->seed) + " at " +
               std::string(at_production_level(c.target->seed)
                               ? exec::jit_isa_level()
                               : "x86-64") +
               ", " +
               std::string(to_string(opt.pattern)) + "/" +
               std::string(codegen::to_string(opt.variant)) + ", tile " +
               std::to_string(block.tx) + "x" + std::to_string(block.ty) +
               ", border constant " + constant + "\n" + describe(spec));

  const dsl::CompiledKernel kernel = dsl::compile_kernel(spec, opt);
  const bool isp = opt.variant != Variant::kNaive;
  if (isp) {
    EXPECT_EQ(analysis::count_residual_guards(kernel.program, "Body"), 0u);
  }
  for (const Size2 size : c.target->sizes) {
    // Mirror reflects once; the launch contract needs the radius to fit.
    if (opt.pattern == BorderPattern::kMirror &&
        (window.radius_x() > size.x || window.radius_y() > size.y)) {
      continue;
    }
    SCOPED_TRACE("image " + std::to_string(size.x) + "x" +
                 std::to_string(size.y));
    std::vector<Image<f32>> images;
    std::vector<const Image<f32>*> inputs;
    for (i32 k = 0; k < spec.num_inputs; ++k) {
      images.push_back(
          random_image(size, c.target->seed * 31 + static_cast<u64>(k)));
    }
    for (const Image<f32>& img : images) inputs.push_back(&img);

    const Image<f32> reference = dsl::run_reference(
        spec, opt.pattern, opt.border_constant, inputs);

    Image<f32> native(size, Uninitialized{});
    (void)exec::run_native_module(*c.module, inputs, native);
    EXPECT_EQ(first_mismatch(native, reference), "") << "native";
    check_row_bands(c, inputs, window, native);

    // The analyzer proves the ISP program before it runs. A degenerate
    // partition launches the naive kernel instead, which it does not prove.
    const bool fallback = isp && degenerate(size, block, window);
    if (isp && !fallback) {
      const analysis::LaunchGeometry geom{size, block, window, opt.warp_width};
      for (const analysis::CheckReport& report :
           {analysis::check_bounds(kernel.program, geom),
            analysis::check_coverage(kernel.program, geom),
            analysis::check_barriers(kernel.program, geom)}) {
        EXPECT_TRUE(report.ok())
            << (report.findings.empty() ? "" : report.findings[0].detail);
      }
    }

    Image<f32> sim(size);
    try {
      const dsl::SimRun run =
          dsl::launch_on_sim(sim::make_gtx680(), kernel, inputs, sim, block);
      EXPECT_EQ(run.degenerate_fallback, fallback);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "interpreted: " << e.what();
      continue;
    }
    EXPECT_EQ(first_mismatch(sim, reference), "") << "interpreted";
  }
}

void run_targets(const std::vector<Target>& targets) {
  const TempDir dir;
  for (const Case& c : compile_cases(targets, dir)) check_case(c);
}

TEST(LoweringFuzz, NativeInterpretedAndReferenceAgree) {
  std::vector<Target> targets;
  for (u64 seed : seeds_to_run()) targets.push_back(random_target(seed));
  run_targets(targets);
}

// ---- chain leg ---------------------------------------------------------------
//
// Random linear chains of 2-5 single-input stages run through
// exec::run_native_chain the way the native executor runs them: grouped by
// pipeline::KernelGraph::chains for the pattern and band count, each chain
// band by band with band-local intermediates. Every pattern x variant runs
// at 1, 2, 3 and 16 bands and a seeded ragged count, on a 1xN strip, an Nx1
// strip, a wide short image, an image shorter than the chain's summed y
// radius and one taller than it, and the partition edge sizes of the
// stages' largest radii, and must match dsl::run_reference applied
// stage by stage bit for bit. ISP chains also run in 2 bands on an image so
// wide that a strip of exec::kChainStripPx pixels is two rows, so the
// intermediates' windows slide down each band. Stage windows include zero radii on one axis,
// and the summed radius exceeds a band's height at the higher band counts.
// The stages JIT at -O0: these cases check which rows each call computes,
// not the vectorizer, and -O0 keeps their compiles cheap.

/// A chain stage: one input, taps at (±rx, ·) and (·, ±ry) so the window is
/// exactly (2rx+1)x(2ry+1), folded by weighted sums with a min or max. Its
/// values stay finite, so a row computed from the wrong neighbours shows.
StencilSpec random_chain_stage(Rng& rng, const std::string& name, i32 rx,
                               i32 ry) {
  codegen::SpecBuilder b(name, 1);
  std::vector<i32> taps{
      b.read(0, rng.bernoulli(0.5f) ? rx : -rx, rng.uniform_i32(-ry, ry)),
      b.read(0, rng.uniform_i32(-rx, rx), rng.bernoulli(0.5f) ? ry : -ry)};
  for (i32 i = rng.uniform_i32(0, 3); i > 0; --i) {
    taps.push_back(b.read(0, rng.uniform_i32(-rx, rx), rng.uniform_i32(-ry, ry)));
  }
  i32 acc = b.binary(NodeKind::kMul, taps[0], b.constant(0.5f));
  for (std::size_t i = 1; i < taps.size(); ++i) {
    const i32 weighted = b.binary(
        NodeKind::kMul, taps[i],
        b.constant(static_cast<f32>(rng.uniform_i32(-3, 3)) / 8.0f));
    acc = b.binary(rng.bernoulli(0.25f)
                       ? (rng.bernoulli(0.5f) ? NodeKind::kMin : NodeKind::kMax)
                       : NodeKind::kAdd,
                   acc, weighted);
  }
  return b.finish(acc);
}

struct ChainTarget {
  u64 seed = 0;
  std::vector<StencilSpec> stages;
  std::vector<Size2> sizes;
  /// Strips of two rows: run in 2 bands, ISP only (a band covering the
  /// image runs each stage whole).
  Size2 wide;
  i64 ragged_bands = 4;
};

/// 2-5 stages of radius 0..3 in x and 0..4 in y, one of them zero on one
/// axis, with the geometries of the leg's comment.
ChainTarget random_chain(u64 seed) {
  Rng rng(seed ^ 0x27d4eb2full);
  ChainTarget t;
  t.seed = seed;
  const i32 n = rng.uniform_i32(2, 5);
  const i32 flat = rng.uniform_i32(0, n - 1);
  i32 reach = 0;
  i32 max_rx = 0;
  i32 max_ry = 0;
  for (i32 k = 0; k < n; ++k) {
    i32 rx = rng.uniform_i32(0, 3);
    i32 ry = rng.uniform_i32(0, 4);
    if (k == flat) (rng.bernoulli(0.5f) ? rx : ry) = 0;
    reach += ry;
    max_rx = std::max(max_rx, rx);
    max_ry = std::max(max_ry, ry);
    t.stages.push_back(random_chain_stage(
        rng, "chain" + std::to_string(seed) + "_" + std::to_string(k), rx,
        ry));
  }
  t.sizes = {{1, rng.uniform_i32(2, 40)},
             {rng.uniform_i32(2, 40), 1},
             {rng.uniform_i32(40, 90), rng.uniform_i32(2, 6)},
             {rng.uniform_i32(3, 20), std::max(1, reach - 1)},
             {rng.uniform_i32(9, 40), rng.uniform_i32(reach + 3, 60)}};
  for (const Size2 size : partition_edge_sizes(max_rx, max_ry)) {
    t.sizes.push_back(size);
  }
  t.wide = {rng.uniform_i32(11000, 11500), rng.uniform_i32(reach + 6, reach + 9)};
  t.ragged_bands = rng.uniform_i32(4, 13);
  return t;
}

/// The chain as a graph: stage k reads image k.
pipeline::KernelGraph chain_graph(const ChainTarget& t) {
  pipeline::KernelGraph g;
  g.name = "chain" + std::to_string(t.seed);
  for (std::size_t k = 0; k < t.stages.size(); ++k) {
    g.stages.push_back(
        {t.stages[k], {static_cast<i32>(k)}, {}});
    if (k > 0) g.stages.back().deps = {static_cast<i32>(k) - 1};
  }
  g.validate();
  return g;
}

struct ChainCase {
  const ChainTarget* target;
  codegen::CodegenOptions options;
  std::vector<exec::NativeModulePtr> modules;
};

/// Every pattern x variant of each chain, compiled at -O0 on a few threads.
std::vector<ChainCase> compile_chain_cases(
    const std::vector<ChainTarget>& targets, const TempDir& dir) {
  std::vector<ChainCase> cases;
  for (const ChainTarget& t : targets) {
    Rng rng(t.seed ^ 0x165667b1ull);
    for (BorderPattern pattern : kAllBorderPatterns) {
      for (Variant variant : kVariants) {
        ChainCase c{&t, {}, {}};
        c.options.pattern = pattern;
        c.options.variant = variant;
        c.options.tile_block = {8, 2};
        c.options.border_constant = random_constant(rng);
        c.modules.resize(t.stages.size());
        cases.push_back(std::move(c));
      }
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> jobs;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::size_t k = 0; k < cases[c].modules.size(); ++k) {
      jobs.emplace_back(c, k);
    }
  }
  const exec::JitConfig jit{dir.path.string(), "", "-O0"};
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> compilers;
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (unsigned i = 0; i < threads; ++i) {
    compilers.emplace_back([&] {
      for (std::size_t j = next.fetch_add(1); j < jobs.size();
           j = next.fetch_add(1)) {
        ChainCase& c = cases[jobs[j].first];
        c.modules[jobs[j].second] = exec::jit_compile(
            c.target->stages[jobs[j].second], c.options, jit);
      }
    });
  }
  for (std::thread& th : compilers) th.join();
  return cases;
}

void check_chain_case(const ChainCase& c) {
  const ChainTarget& t = *c.target;
  const codegen::CodegenOptions& opt = c.options;
  std::string stages;
  for (const StencilSpec& spec : t.stages) stages += describe(spec);
  SCOPED_TRACE("chain seed " + std::to_string(t.seed) + ", " +
               std::string(to_string(opt.pattern)) + "/" +
               std::string(codegen::to_string(opt.variant)) + "\n" + stages);
  const pipeline::KernelGraph graph = chain_graph(t);
  std::vector<std::pair<Size2, std::vector<i64>>> runs;
  for (const Size2 size : t.sizes) {
    runs.push_back({size, {1, 2, 3, 16, t.ragged_bands}});
  }
  if (opt.variant == Variant::kIsp) runs.push_back({t.wide, {2}});
  for (const auto& [size, band_counts] : runs) {
    // Mirror reflects once; the launch contract needs each radius to fit.
    if (opt.pattern == BorderPattern::kMirror &&
        std::any_of(t.stages.begin(), t.stages.end(),
                    [&](const StencilSpec& spec) {
                      return spec.window().radius_x() > size.x ||
                             spec.window().radius_y() > size.y;
                    })) {
      continue;
    }
    std::vector<Image<f32>> reference;
    reference.push_back(random_image(size, t.seed * 17 + 3));
    for (const StencilSpec& spec : t.stages) {
      const std::vector<const Image<f32>*> in{&reference.back()};
      reference.push_back(
          dsl::run_reference(spec, opt.pattern, opt.border_constant, in));
    }
    for (i64 bands : band_counts) {
      SCOPED_TRACE("image " + std::to_string(size.x) + "x" +
                   std::to_string(size.y) + " in " + std::to_string(bands) +
                   " bands");
      // images[k]: the input of stage k, or the chain output for k == n.
      std::vector<Image<f32>> images;
      images.push_back(reference.front());
      images.resize(t.stages.size() + 1);
      for (const pipeline::KernelGraph::Chain& chain :
           graph.chains(opt.pattern, bands)) {
        std::vector<const exec::NativeModule*> modules;
        for (i32 k = chain.first; k <= chain.last; ++k) {
          modules.push_back(c.modules[static_cast<std::size_t>(k)].get());
        }
        const auto in_id = static_cast<std::size_t>(chain.first);
        const auto out_id = static_cast<std::size_t>(chain.last) + 1;
        const std::vector<const Image<f32>*> in{&images[in_id]};
        images[out_id] = Image<f32>(size, Uninitialized{});
        (void)exec::run_native_chain(modules, in, images[out_id], bands);
      }
      EXPECT_EQ(first_mismatch(images.back(), reference.back()), "");
    }
  }
}

TEST(LoweringFuzz, NativeChainsMatchStagesInSequence) {
  // Half the block's seeds: each chain covers every pattern x variant, and
  // its stages' compiles are what the leg's run time is made of.
  std::vector<ChainTarget> targets;
  for (u64 seed : seeds_to_run()) {
    if (seed % 2 == 1) targets.push_back(random_chain(seed));
  }
  const TempDir dir;
  for (const ChainCase& c : compile_chain_cases(targets, dir)) {
    check_chain_case(c);
  }
}

// Minimized failures the fuzzer found, each a named regression.

// The simulator ran all 32 lanes of a block's last warp even when the block
// has fewer threads (8x2 here): the phantom lanes 16..31 took tid.y 2..3,
// i.e. pixels of the next block row, and read them under this block's
// region checks, past the bottom edge.
TEST(LoweringFuzzRegression, BlockSmallerThanAWarpRunsNoPhantomLanes) {
  codegen::SpecBuilder b("partial_warp");
  const StencilSpec spec = b.finish(b.read(0, 0, 3));
  run_targets({Target{spec, {8, 2}, {{8, 7}}, 26, std::nullopt}});
}

// Along a zero-radius axis Eq. (2) puts the partial last block column in
// the Body; its lanes past the image edge exit before the tiled Body's
// staging barrier, which the simulator rejects as a divergent barrier.
TEST(LoweringFuzzRegression, TiledZeroRadiusAxisSkipsStaging) {
  codegen::SpecBuilder b("column3", 1);
  const i32 up = b.read(0, 0, -1);
  const i32 down = b.read(0, 0, 1);
  const StencilSpec spec = b.finish(b.binary(NodeKind::kAdd, up, down));
  run_targets({Target{spec, {16, 8}, {{17, 25}, {1, 25}}, 5, std::nullopt}});
}

// In the Left region loop GCC knows gx == 0, so the tap is out of bounds
// at compile time, and GCC folded exp2f(border constant) to MPFR's
// correctly rounded 0x1.73594ep+1, one ulp below the 0x1.73595p+1 that
// glibc's exp2f, called by the reference, returns. The C++ printer now
// hides exp2f/log2f arguments from the optimizer.
TEST(LoweringFuzzRegression, NativeDoesNotFoldInexactMath) {
  codegen::SpecBuilder b("exp2_left");
  const StencilSpec spec =
      b.finish(b.unary(NodeKind::kExp2, b.read(0, -1, 0)));
  run_targets({Target{spec, {32, 4}, {{8, 8}}, 1, 0x1.8960acp+0f}});
}

// The generator's reach: over the ctest seeds every NodeKind occurs, and
// so do non-square windows, the widest 17-tap axis and multi-input specs.
TEST(LoweringFuzz, GeneratorCoversTheSpecSpace) {
  std::vector<bool> kinds(static_cast<std::size_t>(NodeKind::kRcp) + 1);
  bool non_square = false;
  bool widest = false;
  bool multi_input = false;
  for (u64 seed = 1; seed <= kSeedsPerRun; ++seed) {
    const StencilSpec spec = random_spec(seed);
    for (const codegen::Node& n : spec.nodes) {
      kinds[static_cast<std::size_t>(n.kind)] = true;
    }
    const Window w = spec.window();
    non_square = non_square || w.m != w.n;
    widest = widest || w.m == 17 || w.n == 17;
    multi_input = multi_input || spec.num_inputs > 1;
  }
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    EXPECT_TRUE(kinds[k]) << "NodeKind " << k << " never generated";
  }
  EXPECT_TRUE(non_square);
  EXPECT_TRUE(widest);
  EXPECT_TRUE(multi_input);
}

}  // namespace
}  // namespace ispb
