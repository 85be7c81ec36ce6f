#include "exec/backend.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/kernel_cache.hpp"

namespace ispb::exec {

namespace {

/// Same geometry contract as dsl::launch_on_sim (validate_geometry): the
/// native path must reject exactly what the interpreted path rejects, so a
/// backend switch can never turn a ContractError into silent corruption.
void validate_geometry(const codegen::StencilSpec& spec, BorderPattern pattern,
                       std::span<const Image<f32>* const> inputs,
                       Size2 out_size) {
  ISPB_EXPECTS(static_cast<i32>(inputs.size()) == spec.num_inputs);
  for (const Image<f32>* img : inputs) {
    ISPB_EXPECTS(img != nullptr);
    if (img->size() != out_size) {
      throw ContractError("input/output size mismatch in kernel '" +
                          spec.name + "'");
    }
  }
  const Window w = spec.window();
  if (pattern == BorderPattern::kMirror &&
      (w.radius_x() > out_size.x || w.radius_y() > out_size.y)) {
    throw ContractError(
        "Mirror border handling requires the window radius to fit the image "
        "(single reflection); got window " +
        std::to_string(w.m) + "x" + std::to_string(w.n) + " on image " +
        std::to_string(out_size.x) + "x" + std::to_string(out_size.y));
  }
}

}  // namespace

std::string_view to_string(Backend b) {
  return b == Backend::kNative ? "native" : "interp";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "interp") return Backend::kInterpreted;
  if (name == "native") return Backend::kNative;
  return std::nullopt;
}

BackendRun InterpretedBackend::run(const codegen::StencilSpec& spec,
                                   const codegen::CodegenOptions& options,
                                   const sim::DeviceSpec& device,
                                   std::span<const Image<f32>* const> inputs,
                                   Image<f32>& output, BlockSize block,
                                   bool sampled) {
  pipeline::KernelCache::KernelPtr kernel;
  if (cache_ != nullptr) {
    kernel = cache_->get_or_compile(spec, options, device.name);
  } else {
    kernel = std::make_shared<const dsl::CompiledKernel>(
        dsl::compile_kernel(spec, options));
  }
  // A sampled launch leaves unsampled blocks unwritten; zero them so the
  // output is fully defined (run()'s contract).
  if (sampled) output.fill(0.0f);
  const dsl::SimRun sim_run =
      dsl::launch_on_sim(device, *kernel, inputs, output, block, sampled);
  BackendRun run;
  run.stats = sim_run.stats;
  run.variant_used = sim_run.variant_used;
  run.degenerate_fallback = sim_run.degenerate_fallback;
  run.backend = Backend::kInterpreted;
  run.regs_per_thread = kernel->regs_per_thread;
  return run;
}

i64 row_bands(Size2 size, i64 workers, i64 floor_px) {
  ISPB_EXPECTS(floor_px >= 1);
  const i64 rows = size.y;
  if (rows <= 0) return 1;
  const i64 wanted = std::max<i64>(
      1, std::min({rows, 4 * workers, size.area() / floor_px}));
  // Equal bands of ceil(rows / wanted) rows leave the tail empty when rows
  // does not divide evenly (17 rows in 16 bands is 9 bands of 2 rows); count
  // only the bands that hold a row.
  const i64 rows_per_band = (rows + wanted - 1) / wanted;
  return (rows + rows_per_band - 1) / rows_per_band;
}

f64 run_native_module(const NativeModule& module,
                      std::span<const Image<f32>* const> inputs,
                      Image<f32>& output) {
  return run_native_module(
      module, inputs, output,
      row_bands(output.size(),
                static_cast<i64>(ThreadPool::global().size())));
}

f64 run_native_module(const NativeModule& module,
                      std::span<const Image<f32>* const> inputs,
                      Image<f32>& output, i64 bands) {
  ISPB_EXPECTS(bands >= 1);
  std::vector<const float*> in_ptrs;
  std::vector<i32> in_pitches;
  in_ptrs.reserve(inputs.size());
  in_pitches.reserve(inputs.size());
  for (const Image<f32>* img : inputs) {
    in_ptrs.push_back(img->buffer().data());
    in_pitches.push_back(img->pitch());
  }
  float* out = output.buffer().data();
  const i32 sx = output.width();
  const i32 sy = output.height();
  const i32 pitch_out = output.pitch();
  const NativeModule::KernelFn fn = module.fn();

  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  if (bands == 1) {
    fn(in_ptrs.data(), in_pitches.data(), out, pitch_out, sx, sy, 0, sy);
  } else {
    const i64 rows_per_band = (sy + bands - 1) / bands;
    parallel_for(0, bands, [&](i64 band) {
      const i32 y0 = static_cast<i32>(band * rows_per_band);
      const i32 y1 =
          static_cast<i32>(std::min<i64>(sy, (band + 1) * rows_per_band));
      if (y0 < y1) {
        fn(in_ptrs.data(), in_pitches.data(), out, pitch_out, sx, sy, y0, y1);
      }
    });
  }
  return std::chrono::duration<f64, std::milli>(Clock::now() - t0).count();
}

BackendRun NativeBackend::run(const codegen::StencilSpec& spec,
                              const codegen::CodegenOptions& options,
                              const sim::DeviceSpec& device,
                              std::span<const Image<f32>* const> inputs,
                              Image<f32>& output, BlockSize /*block*/,
                              bool /*sampled*/) {
  validate_geometry(spec, options.pattern, inputs, output.size());

  NativeModulePtr module;
  if (cache_ != nullptr) {
    module = cache_->get_or_compile_native(spec, options, device.name);
  } else {
    module = jit_compile(spec, options, jit_);
  }

  obs::ScopedSpan span("exec.native.run", "sim");
  span.arg("kernel", spec.name);
  const f64 wall_ms = run_native_module(*module, inputs, output);

  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
      reg != nullptr) {
    reg->add("exec.launches", 1.0,
             {{"backend", "native"}, {"kernel", spec.name}});
  }

  const Window w = spec.window();
  const bool degenerate = output.width() < 2 * w.radius_x() ||
                          output.height() < 2 * w.radius_y();
  BackendRun run;
  run.stats.time_ms = wall_ms;  // wall time; no modeled counters
  run.variant_used = degenerate ? codegen::Variant::kNaive : options.variant;
  run.degenerate_fallback =
      degenerate && options.variant != codegen::Variant::kNaive;
  run.backend = Backend::kNative;
  run.regs_per_thread = 0;
  return run;
}

}  // namespace ispb::exec
