// Exhaustive small-geometry sweep: the ISP fat kernel must be bit-identical
// to the CPU reference for EVERY image size in a dense range, including the
// awkward ones (single block column, partial blocks everywhere, body
// exactly one block, window touching both sides). This is the strongest
// guard against off-by-one errors in the Eq. (2) bounds.
#include <gtest/gtest.h>

#include "dsl/runtime.hpp"
#include "filters/filters.hpp"
#include "image/compare.hpp"
#include "image/generators.hpp"
#include "pipeline/executor.hpp"

namespace ispb {
namespace {

class GeometrySweep : public ::testing::TestWithParam<BorderPattern> {};

TEST_P(GeometrySweep, DenseSizeRangeLaplace) {
  const BorderPattern pattern = GetParam();
  const codegen::StencilSpec spec = filters::laplace_spec(5);

  codegen::CodegenOptions options;
  options.pattern = pattern;
  options.variant = codegen::Variant::kIsp;
  options.border_constant = 9.5f;
  const dsl::CompiledKernel kernel = dsl::compile_kernel(spec, options);

  for (i32 w = 5; w <= 76; w += 7) {
    for (i32 h : {5, 9, 33}) {
      if (pattern == BorderPattern::kMirror && (w < 2 || h < 2)) continue;
      const Size2 size{w, h};
      const auto src = make_noise_image(size, static_cast<u64>(w * 131 + h));
      const Image<f32>* inputs[] = {&src};
      const Image<f32> expect =
          dsl::run_reference(spec, pattern, 9.5f, {inputs, 1});
      Image<f32> out(size);
      const dsl::SimRun run = dsl::launch_on_sim(
          sim::make_gtx680(), kernel, {inputs, 1}, out, {32, 4});
      ASSERT_EQ(compare(out, expect).max_abs, 0.0)
          << "size " << size << " pattern " << to_string(pattern)
          << " fallback=" << run.degenerate_fallback;
    }
  }
}

TEST_P(GeometrySweep, WarpVariantAcrossBlockShapes) {
  const BorderPattern pattern = GetParam();
  const codegen::StencilSpec spec = filters::gaussian_spec(3);

  codegen::CodegenOptions options;
  options.pattern = pattern;
  options.variant = codegen::Variant::kIspWarp;
  const dsl::CompiledKernel kernel = dsl::compile_kernel(spec, options);

  const Size2 size{97, 41};
  const auto src = make_noise_image(size, 5);
  const Image<f32>* inputs[] = {&src};
  const Image<f32> expect =
      dsl::run_reference(spec, pattern, 0.0f, {inputs, 1});

  for (const BlockSize block :
       {BlockSize{32, 1}, BlockSize{32, 4}, BlockSize{64, 2},
        BlockSize{96, 1}, BlockSize{128, 4}, BlockSize{16, 8}}) {
    Image<f32> out(size);
    (void)dsl::launch_on_sim(sim::make_gtx680(), kernel, {inputs, 1}, out,
                             block);
    ASSERT_EQ(compare(out, expect).max_abs, 0.0)
        << "block " << block.tx << "x" << block.ty << " pattern "
        << to_string(pattern);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, GeometrySweep,
                         ::testing::ValuesIn(kAllBorderPatterns),
                         [](const auto& inf) {
                           return std::string(to_string(inf.param));
                         });

/// Runs `app` on the interpreted engine one stage at a time, as ispb_run's
/// profile and simulate do.
pipeline::ExecutorResult run_simulated(const filters::MultiKernelApp& app,
                                       const Image<f32>& source,
                                       const filters::AppSimConfig& sim) {
  pipeline::ExecutorConfig cfg;
  cfg.sim = sim;
  cfg.concurrency = 1;
  cfg.backend = exec::Backend::kInterpreted;
  return pipeline::PipelineExecutor(cfg).run(pipeline::build_graph(app),
                                             source);
}

TEST(AppSimulated, PipelineApiMatchesReference) {
  const auto app = filters::make_sobel_app();
  const Size2 size{64, 48};
  const auto src = make_checker_image(size, 7);
  const Image<f32> expect =
      filters::run_app_reference(app, src, BorderPattern::kClamp);

  filters::AppSimConfig cfg;
  cfg.variant = codegen::Variant::kIsp;
  const pipeline::ExecutorResult result = run_simulated(app, src, cfg);
  EXPECT_EQ(compare(result.output, expect).max_abs, 0.0);
  EXPECT_EQ(result.stages.size(), 3u);
  EXPECT_GT(result.total_time_ms, 0.0);
}

TEST(AppSimulated, ModelSelectionKeepsPointOpsNaive) {
  const auto app = filters::make_sobel_app();
  const auto src = make_gradient_image({128, 128});
  filters::AppSimConfig cfg;
  cfg.use_model = true;
  const pipeline::ExecutorResult result = run_simulated(app, src, cfg);
  ASSERT_EQ(result.stages.size(), 3u);
  EXPECT_EQ(result.stages[2].kernel, "sobel_magnitude");
  EXPECT_EQ(result.stages[2].variant_used, codegen::Variant::kNaive);
}

}  // namespace
}  // namespace ispb
