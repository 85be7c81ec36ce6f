// DSL runtime: compiles StencilSpecs and launches them on the CPU reference
// backend or the GPU simulator (the stand-in for Hipacc's CUDA runtime).
#pragma once

#include <span>

#include "codegen/kernel_gen.hpp"
#include "gpusim/launcher.hpp"
#include "image/image.hpp"

namespace ispb::dsl {

/// A compiled kernel: the traced spec, its IR program after optimization,
/// and the register demand the occupancy model needs.
struct CompiledKernel {
  codegen::StencilSpec spec;
  codegen::CodegenOptions options;
  ir::Program program;
  i32 regs_per_thread = 0;
};

/// Generates + optimizes the kernel and measures its register demand.
[[nodiscard]] CompiledKernel compile_kernel(const codegen::StencilSpec& spec,
                                            const codegen::CodegenOptions& options);

/// The geometry contract every engine enforces, in two halves so a caller
/// whose inputs are not whole images (a native chain's band-local scratch)
/// can check the window alone. validate_inputs: one image per spec input,
/// each of `out_size`. validate_window: Mirror needs the window radius to
/// fit the image (single reflection). Both throw ContractError.
void validate_inputs(const codegen::StencilSpec& spec,
                     std::span<const Image<f32>* const> inputs,
                     Size2 out_size);
void validate_window(const codegen::StencilSpec& spec, BorderPattern pattern,
                     Size2 out_size);

/// Outcome of a simulated launch.
struct SimRun {
  sim::LaunchStats stats;
  codegen::Variant variant_used = codegen::Variant::kNaive;
  /// True when a degenerate partition (a block would need opposing-side
  /// checks, e.g. image narrower than the window) forced the naive kernel.
  bool degenerate_fallback = false;
};

/// Launches `kernel` over `output.size()` on the simulator. Inputs must
/// match the output size. With `sampled`, only representative blocks per
/// region execute and counts/timing are extrapolated (outputs incomplete).
/// Validates pattern preconditions (Mirror needs radius <= image extent) and
/// falls back to a naive kernel when the ISP partition would be degenerate.
SimRun launch_on_sim(const sim::DeviceSpec& dev, const CompiledKernel& kernel,
                     std::span<const Image<f32>* const> inputs,
                     Image<f32>& output, BlockSize block,
                     bool sampled = false);

/// Outcome of a separate-kernels-per-region execution (the alternative the
/// paper rejects in Section III-C: one launch per region instead of one fat
/// kernel with a runtime switch).
struct PerRegionRun {
  f64 total_time_ms = 0.0;  ///< sum over launches, each with launch overhead
  i32 launches = 0;         ///< non-empty regions launched
  std::vector<std::pair<Region, sim::LaunchStats>> per_region;
};

/// Runs the stencil as up to nine per-region kernel launches over disjoint
/// block rectangles. Produces the same output as the fat ISP kernel; the
/// point of this mode is to measure what the paper argues: the extra launch
/// overheads outweigh the switch savings. The geometry must be
/// non-degenerate (window fits the partition); throws otherwise.
PerRegionRun launch_per_region(const sim::DeviceSpec& dev,
                               const codegen::StencilSpec& spec,
                               const codegen::CodegenOptions& options,
                               std::span<const Image<f32>* const> inputs,
                               Image<f32>& output, BlockSize block);

/// Scalar CPU reference: evaluates the spec per pixel with border_read as
/// the out-of-bounds oracle. Bit-identical to the simulator for the same
/// spec (same float operations in the same order).
[[nodiscard]] Image<f32> run_reference(const codegen::StencilSpec& spec,
                                       BorderPattern pattern, f32 constant,
                                       std::span<const Image<f32>* const> inputs);

/// CPU-targeted index-set splitting (paper Section III-C, Eq. (1)): the
/// iteration space is partitioned at pixel granularity into the body
/// rectangle and border strips; body pixels read the image directly with no
/// border mapping. Bit-identical to run_reference, measurably faster on the
/// host (see bench/micro_cpu_iss).
[[nodiscard]] Image<f32> run_reference_partitioned(
    const codegen::StencilSpec& spec, BorderPattern pattern, f32 constant,
    std::span<const Image<f32>* const> inputs);

/// Builds the ParamMap a generated kernel expects for this geometry
/// (exposed for benches that drive sim::launch_* directly).
[[nodiscard]] sim::ParamMap build_params(const ir::Program& prog, Size2 image,
                                         std::span<const Image<f32>* const> inputs,
                                         const Image<f32>& output,
                                         BlockSize block, Window window,
                                         i32 warp_width = 32);

}  // namespace ispb::dsl
