#include "filters/filters.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ispb::filters {

using dsl::Accessor;
using dsl::BoundaryCondition;
using dsl::Domain;
using dsl::IterationSpace;
using dsl::Mask;
using dsl::Reduce;
using dsl::Value;

// ---- masks ------------------------------------------------------------------

Mask gaussian_mask(i32 size) {
  ISPB_EXPECTS(size >= 1 && size % 2 == 1);
  // Binomial coefficients approximate a Gaussian and sum to a power of two.
  std::vector<f64> row(static_cast<std::size_t>(size), 0.0);
  row[0] = 1.0;
  for (i32 n = 1; n < size; ++n) {
    for (i32 k = n; k > 0; --k) {
      row[static_cast<std::size_t>(k)] += row[static_cast<std::size_t>(k - 1)];
    }
  }
  f64 sum = 0.0;
  for (f64 v : row) sum += v;

  Mask mask(size, size);
  const i32 r = size / 2;
  for (i32 dy = -r; dy <= r; ++dy) {
    for (i32 dx = -r; dx <= r; ++dx) {
      const f64 c = row[static_cast<std::size_t>(dx + r)] *
                    row[static_cast<std::size_t>(dy + r)] / (sum * sum);
      mask.at(dx, dy) = static_cast<f32>(c);
    }
  }
  return mask;
}

Mask laplace_mask(i32 size) {
  ISPB_EXPECTS(size >= 3 && size % 2 == 1);
  Mask mask(size, size);
  const i32 r = size / 2;
  for (i32 dy = -r; dy <= r; ++dy) {
    for (i32 dx = -r; dx <= r; ++dx) mask.at(dx, dy) = -1.0f;
  }
  mask.at(0, 0) = static_cast<f32>(size) * static_cast<f32>(size) - 1.0f;
  return mask;
}

Mask sobel_mask_x() {
  return Mask{{-1.0f, 0.0f, 1.0f}, {-2.0f, 0.0f, 2.0f}, {-1.0f, 0.0f, 1.0f}};
}

Mask sobel_mask_y() {
  return Mask{{-1.0f, -2.0f, -1.0f}, {0.0f, 0.0f, 0.0f}, {1.0f, 2.0f, 1.0f}};
}

// ---- DSL kernels ------------------------------------------------------------

namespace {

/// Generic convolution kernel (Gaussian, Laplace, Sobel derivatives, Atrous).
class ConvolutionKernel : public dsl::Kernel {
 public:
  ConvolutionKernel(IterationSpace& is, Accessor& in, Mask& mask, Domain& dom,
                    std::string name)
      : Kernel(is, std::move(name)), in_(in), mask_(mask), dom_(dom) {
    add_accessor(&in_);
  }

  void kernel() override {
    output() = convolve(mask_, dom_, Reduce::kSum,
                        [&] { return mask_(dom_) * in_(dom_); });
  }

 private:
  Accessor& in_;
  Mask& mask_;
  Domain& dom_;
};

/// Edge-preserving bilateral filter (paper Section IV-A1): spatial closeness
/// from the precomputed mask, range similarity via exp on the intensity
/// difference to the window center.
class BilateralKernel : public dsl::Kernel {
 public:
  BilateralKernel(IterationSpace& is, Accessor& in, Mask& closeness,
                  Domain& dom, f32 sigma_r)
      : Kernel(is, "bilateral"),
        in_(in),
        closeness_(closeness),
        dom_(dom),
        inv_two_sigma_r2_(1.0f / (2.0f * sigma_r * sigma_r)) {
    add_accessor(&in_);
  }

  void kernel() override {
    const Value center = in_(0, 0);
    Value weight_sum = 0.0f;
    Value pixel_sum = 0.0f;
    dsl::iterate(dom_, [&] {
      const Value diff = in_(dom_) - center;
      const Value weight =
          dsl::exp(diff * diff * Value(-inv_two_sigma_r2_)) *
          closeness_(dom_);
      weight_sum += weight;
      pixel_sum += weight * in_(dom_);
    });
    output() = pixel_sum / weight_sum;
  }

 private:
  Accessor& in_;
  Mask& closeness_;
  Domain& dom_;
  f32 inv_two_sigma_r2_;
};

/// Gradient magnitude from two precomputed derivative images (point op).
class MagnitudeKernel : public dsl::Kernel {
 public:
  MagnitudeKernel(IterationSpace& is, Accessor& gx, Accessor& gy)
      : Kernel(is, "sobel_magnitude"), gx_(gx), gy_(gy) {
    add_accessor(&gx_);
    add_accessor(&gy_);
  }

  void kernel() override {
    const Value x = gx_();
    const Value y = gy_();
    output() = dsl::sqrt(x * x + y * y);
  }

 private:
  Accessor& gx_;
  Accessor& gy_;
};

/// Reinhard-style global tone mapping (point op).
class TonemapKernel : public dsl::Kernel {
 public:
  TonemapKernel(IterationSpace& is, Accessor& in)
      : Kernel(is, "tonemap"), in_(in) {
    add_accessor(&in_);
  }

  void kernel() override {
    const Value v = dsl::max(in_(), Value(0.0f));
    output() = v / (v + 96.0f) * 350.0f;
  }

 private:
  Accessor& in_;
};

/// Traces a single-input convolution into a spec.
codegen::StencilSpec trace_convolution(Mask mask, Domain dom,
                                       const std::string& name) {
  Image<f32> dummy(1, 1);
  Image<f32> out(1, 1);
  const BoundaryCondition bc(dummy, mask, BorderPattern::kClamp);
  Accessor acc(bc);
  IterationSpace is(out);
  ConvolutionKernel k(is, acc, mask, dom, name);
  return k.trace();
}

}  // namespace

// ---- spec factories -----------------------------------------------------------

codegen::StencilSpec gaussian_spec(i32 size) {
  Mask mask = gaussian_mask(size);
  Domain dom(mask);
  return trace_convolution(std::move(mask), std::move(dom),
                           "gaussian" + std::to_string(size));
}

codegen::StencilSpec laplace_spec(i32 size) {
  Mask mask = laplace_mask(size);
  Domain dom(mask);
  return trace_convolution(std::move(mask), std::move(dom),
                           "laplace" + std::to_string(size));
}

codegen::StencilSpec bilateral_spec(i32 size, f32 sigma_d, f32 sigma_r) {
  ISPB_EXPECTS(size >= 3 && size % 2 == 1);
  // Spatial closeness coefficients.
  Mask closeness(size, size);
  const i32 r = size / 2;
  for (i32 dy = -r; dy <= r; ++dy) {
    for (i32 dx = -r; dx <= r; ++dx) {
      const f64 d2 = static_cast<f64>(dx) * dx + static_cast<f64>(dy) * dy;
      closeness.at(dx, dy) = static_cast<f32>(
          std::exp(-d2 / (2.0 * static_cast<f64>(sigma_d) *
                          static_cast<f64>(sigma_d))));
    }
  }
  Domain dom(closeness);

  Image<f32> dummy(1, 1);
  Image<f32> out(1, 1);
  const BoundaryCondition bc(dummy, closeness, BorderPattern::kClamp);
  Accessor acc(bc);
  IterationSpace is(out);
  BilateralKernel k(is, acc, closeness, dom, sigma_r);
  codegen::StencilSpec spec = k.trace();
  spec.name = "bilateral" + std::to_string(size);
  return spec;
}

codegen::StencilSpec sobel_dx_spec() {
  Mask mask = sobel_mask_x();
  Domain dom(mask);
  // The zero column contributes nothing; a sparse domain skips it (paper
  // future-work extension put to use).
  for (i32 dy = -1; dy <= 1; ++dy) dom.disable(0, dy);
  return trace_convolution(std::move(mask), std::move(dom), "sobel_dx");
}

codegen::StencilSpec sobel_dy_spec() {
  Mask mask = sobel_mask_y();
  Domain dom(mask);
  for (i32 dx = -1; dx <= 1; ++dx) dom.disable(dx, 0);
  return trace_convolution(std::move(mask), std::move(dom), "sobel_dy");
}

codegen::StencilSpec sobel_magnitude_spec() {
  Image<f32> dummy_x(1, 1);
  Image<f32> dummy_y(1, 1);
  Image<f32> out(1, 1);
  Accessor gx(dummy_x);
  Accessor gy(dummy_y);
  IterationSpace is(out);
  MagnitudeKernel k(is, gx, gy);
  return k.trace();
}

codegen::StencilSpec atrous_spec(i32 window) {
  ISPB_EXPECTS(window >= 3 && window % 2 == 1);
  const i32 dilation = window / 2;
  // 3x3 B-spline taps {1,2,1}x{1,2,1}/16 dilated "with holes".
  Mask mask(window, window);
  Domain dom(window, window);
  for (i32 dy = -dilation; dy <= dilation; ++dy) {
    for (i32 dx = -dilation; dx <= dilation; ++dx) {
      dom.disable(dx, dy);
    }
  }
  static constexpr f32 kTap[3] = {1.0f / 4.0f, 2.0f / 4.0f, 1.0f / 4.0f};
  for (i32 j = -1; j <= 1; ++j) {
    for (i32 i = -1; i <= 1; ++i) {
      const i32 dx = i * dilation;
      const i32 dy = j * dilation;
      mask.at(dx, dy) = kTap[i + 1] * kTap[j + 1];
      dom.enable(dx, dy);
    }
  }
  return trace_convolution(std::move(mask), std::move(dom),
                           "atrous" + std::to_string(window));
}

codegen::StencilSpec tonemap_spec() {
  Image<f32> dummy(1, 1);
  Image<f32> out(1, 1);
  Accessor acc(dummy);
  IterationSpace is(out);
  TonemapKernel k(is, acc);
  return k.trace();
}

// ---- applications -------------------------------------------------------------

MultiKernelApp make_gaussian_app() {
  return MultiKernelApp{"gaussian", {{gaussian_spec(3), {0}}}};
}

MultiKernelApp make_laplace_app() {
  return MultiKernelApp{"laplace", {{laplace_spec(5), {0}}}};
}

MultiKernelApp make_bilateral_app() {
  return MultiKernelApp{"bilateral", {{bilateral_spec(13), {0}}}};
}

MultiKernelApp make_sobel_app() {
  MultiKernelApp app;
  app.name = "sobel";
  app.stages.push_back({sobel_dx_spec(), {0}});
  app.stages.push_back({sobel_dy_spec(), {0}});
  app.stages.push_back({sobel_magnitude_spec(), {1, 2}});
  return app;
}

MultiKernelApp make_night_app() {
  MultiKernelApp app;
  app.name = "night";
  app.stages.push_back({atrous_spec(3), {0}});
  app.stages.push_back({atrous_spec(5), {1}});
  app.stages.push_back({atrous_spec(9), {2}});
  app.stages.push_back({atrous_spec(17), {3}});
  app.stages.push_back({tonemap_spec(), {4}});
  return app;
}

std::vector<MultiKernelApp> all_apps() {
  std::vector<MultiKernelApp> apps;
  apps.push_back(make_gaussian_app());
  apps.push_back(make_laplace_app());
  apps.push_back(make_bilateral_app());
  apps.push_back(make_sobel_app());
  apps.push_back(make_night_app());
  return apps;
}

Image<f32> run_app_reference(const MultiKernelApp& app,
                             const Image<f32>& source, BorderPattern pattern,
                             f32 constant) {
  ISPB_EXPECTS(!app.stages.empty());
  std::vector<Image<f32>> images;
  images.push_back(source);  // index 0 = source; index k = stage k-1 output
  for (const auto& stage : app.stages) {
    std::vector<const Image<f32>*> inputs;
    inputs.reserve(stage.input_bindings.size());
    for (i32 binding : stage.input_bindings) {
      ISPB_EXPECTS(binding >= 0 &&
                   binding < static_cast<i32>(images.size()));
      inputs.push_back(&images[static_cast<std::size_t>(binding)]);
    }
    images.push_back(dsl::run_reference(stage.spec, pattern, constant, inputs));
  }
  return std::move(images.back());
}

}  // namespace ispb::filters
