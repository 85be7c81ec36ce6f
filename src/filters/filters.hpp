// The five evaluation applications (paper Section VI), implemented as DSL
// kernels: Gaussian, Laplace, Bilateral, Sobel (3 kernels) and the Night
// filter (5 kernels: 4 Atrous wavelet passes + tone mapping).
//
// Each filter exposes a StencilSpec factory for benches that drive the
// compiler directly; the apps run on the CPU reference here and on the
// simulator or the native engine through pipeline::PipelineExecutor.
// Window sizes follow the paper: Gaussian 3x3, Laplace 5x5,
// Bilateral 13x13, Sobel 3x3, Night 3/5/9/17.
#pragma once

#include <vector>

#include "dsl/hipacc.hpp"

namespace ispb::filters {

/// Normalized binomial Gaussian coefficients (odd size).
[[nodiscard]] dsl::Mask gaussian_mask(i32 size);

/// Laplacian-of-box mask (all -1 with a positive center), odd size.
[[nodiscard]] dsl::Mask laplace_mask(i32 size);

/// Sobel derivative masks.
[[nodiscard]] dsl::Mask sobel_mask_x();
[[nodiscard]] dsl::Mask sobel_mask_y();

// ---- StencilSpec factories (compiler-facing) --------------------------------

[[nodiscard]] codegen::StencilSpec gaussian_spec(i32 size = 3);
[[nodiscard]] codegen::StencilSpec laplace_spec(i32 size = 5);
[[nodiscard]] codegen::StencilSpec bilateral_spec(i32 size = 13,
                                                  f32 sigma_d = 3.0f,
                                                  f32 sigma_r = 16.0f);
[[nodiscard]] codegen::StencilSpec sobel_dx_spec();
[[nodiscard]] codegen::StencilSpec sobel_dy_spec();
[[nodiscard]] codegen::StencilSpec sobel_magnitude_spec();  // 2 inputs, point op
/// One Atrous (with-holes) wavelet pass: a sparse 5x5-tap pattern dilated to
/// the given window size (3, 5, 9, 17 in the Night filter).
[[nodiscard]] codegen::StencilSpec atrous_spec(i32 window);
[[nodiscard]] codegen::StencilSpec tonemap_spec();  // point op

/// A named single-kernel application for sweep benches.
struct FilterApp {
  std::string name;
  codegen::StencilSpec spec;
};

/// The paper's five applications flattened to their component kernels,
/// in execution order (Sobel and Night contribute several kernels).
struct MultiKernelApp {
  std::string name;
  /// Kernels with the index of the image each input reads: 0 is the source
  /// image, k>0 is the output of kernel k-1.
  struct Stage {
    codegen::StencilSpec spec;
    std::vector<i32> input_bindings;
  };
  std::vector<Stage> stages;
};

[[nodiscard]] MultiKernelApp make_gaussian_app();
[[nodiscard]] MultiKernelApp make_laplace_app();
[[nodiscard]] MultiKernelApp make_bilateral_app();
[[nodiscard]] MultiKernelApp make_sobel_app();
[[nodiscard]] MultiKernelApp make_night_app();

/// All five, in the paper's order.
[[nodiscard]] std::vector<MultiKernelApp> all_apps();

/// Runs a multi-kernel app on the CPU reference backend.
[[nodiscard]] Image<f32> run_app_reference(const MultiKernelApp& app,
                                           const Image<f32>& source,
                                           BorderPattern pattern,
                                           f32 constant = 0.0f);

/// How a multi-kernel app runs on the simulator or the native engine
/// (pipeline::ExecutorConfig::sim).
struct AppSimConfig {
  sim::DeviceSpec device = sim::make_gtx680();
  BlockSize block{32, 4};
  codegen::Variant variant = codegen::Variant::kIsp;
  bool use_model = false;  ///< isp+m per stage
  bool sampled = false;    ///< timing-only sampled launches
  BorderPattern pattern = BorderPattern::kClamp;
  f32 constant = 0.0f;
};

}  // namespace ispb::filters
