#include "exec/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stop.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/kernel_cache.hpp"

namespace ispb::exec {

std::string_view to_string(Backend b) {
  return b == Backend::kNative ? "native" : "interp";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "interp") return Backend::kInterpreted;
  if (name == "native") return Backend::kNative;
  return std::nullopt;
}

BackendRun run_interpreted(const codegen::StencilSpec& spec,
                           const codegen::CodegenOptions& options,
                           const sim::DeviceSpec& device,
                           std::span<const Image<f32>* const> inputs,
                           Image<f32>& output, BlockSize block, bool sampled,
                           pipeline::KernelCache* cache) {
  pipeline::KernelCache::KernelPtr kernel;
  if (cache != nullptr) {
    kernel = cache->get_or_compile(spec, options, device.name);
  } else {
    kernel = std::make_shared<const dsl::CompiledKernel>(
        dsl::compile_kernel(spec, options));
  }
  // A sampled launch leaves unsampled blocks unwritten; zero them so the
  // output is fully defined.
  if (sampled) output.fill(0.0f);
  const dsl::SimRun sim_run =
      dsl::launch_on_sim(device, *kernel, inputs, output, block, sampled);
  BackendRun run;
  run.stats = sim_run.stats;
  run.variant_used = sim_run.variant_used;
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

f64 run_native_chain(std::span<const NativeModule* const> modules,
                     std::span<const Image<f32>* const> inputs,
                     Image<f32>& output) {
  return run_native_chain(
      modules, inputs, output,
      row_bands(output.size(),
                static_cast<i64>(ThreadPool::global().size())));
}

f64 run_native_chain(std::span<const NativeModule* const> modules,
                     std::span<const Image<f32>* const> inputs,
                     Image<f32>& output, i64 bands) {
  ISPB_EXPECTS(!modules.empty() && bands >= 1);
  const std::size_t last = modules.size() - 1;
  const i32 sx = output.width();
  const i32 sy = output.height();
  const i32 pitch_out = output.pitch();
  // reach[k]: rows beyond a band that stage k reads, its own y radius plus
  // those of the later stages; stage k writes reach[k + 1] rows beyond it.
  std::vector<i32> reach(modules.size() + 1, 0);
  for (std::size_t k = modules.size(); k-- > 0;) {
    reach[k] = reach[k + 1] + modules[k]->window().radius_y();
  }
  std::vector<const float*> in_ptrs;
  std::vector<i32> in_pitches;
  in_ptrs.reserve(inputs.size());
  in_pitches.reserve(inputs.size());
  for (const Image<f32>* img : inputs) {
    in_ptrs.push_back(img->buffer().data());
    in_pitches.push_back(img->pitch());
  }
  // Inside a band the stages advance in strips of about kChainStripPx
  // pixels: each stage computes the rows its consumer's next strip needs,
  // so a consumer reads rows its producer has just written, from cache, and
  // each intermediate lives in a window of rows that slides down the band.
  // A lone stage runs its band in one call, and so does each stage of a
  // band that covers the image: every call's virtual image is then the
  // true image, which is what lets repeat, whose taps wrap to the opposite
  // edge, chain as one band.
  const i32 chain_strip =
      static_cast<i32>(std::max<i64>(1, kChainStripPx / sx));
  // The bands run on pool threads, which carry no stop time of their own.
  const StopClock::time_point stop = stop_time();

  const auto run_band = [&](i32 y0, i32 y1) {
    const i32 strip_rows =
        last == 0 || (y0 == 0 && y1 == sy) ? y1 - y0 : chain_strip;
    // Stage k writes rows [lo, hi): the band for the last stage, else the
    // band widened by the later stages' reach, clipped to the image. It has
    // written [lo, done) so far. Stage k < last keeps its rows in a window
    // of `cap` rows of the output's pitch holding rows [first, first + cap).
    struct Stage {
      i32 lo = 0, hi = 0, done = 0;
      float* window = nullptr;
      i32 first = 0, cap = 0;
    };
    std::vector<Stage> stages(modules.size());
    i64 scratch_px = 0;
    for (std::size_t k = 0; k <= last; ++k) {
      Stage& st = stages[k];
      const i32 beyond = reach[k + 1];
      st.lo = k < last ? std::max(0, y0 - beyond) : y0;
      st.hi = k < last ? std::min(sy, y1 + beyond) : y1;
      st.done = st.lo;
      if (k == last) break;
      // A call writing rows [d, t) reads rows from d - r on and starts its
      // virtual image there, so the window must hold rows [d - r, t) and
      // the rows the consumer still reads: the first call spans at most a
      // strip plus twice the stage's reach beyond the band, a later one a
      // strip plus 2 r of the consumer; one strip more spaces the slides.
      st.first = std::max(0, st.lo - (reach[k] - beyond));
      st.cap = std::min(2 * strip_rows + reach[k] + beyond, st.hi - st.first);
      scratch_px += i64{st.cap} * pitch_out;
    }
    std::unique_ptr<float[]> scratch;
    if (scratch_px > 0) {
      scratch = std::make_unique_for_overwrite<float[]>(
          static_cast<std::size_t>(scratch_px));
    }
    float* next = scratch.get();
    for (std::size_t k = 0; k < last; ++k) {
      stages[k].window = next;
      next += static_cast<std::ptrdiff_t>(stages[k].cap) * pitch_out;
    }
    const auto row_of = [&](float* base, i32 row) {
      return base + static_cast<std::ptrdiff_t>(row) * pitch_out;
    };

    std::vector<const float*> shifted(in_ptrs.size());
    const float* mid_in = nullptr;
    for (i32 y = y0; y < y1;) {
      check_stop(stop);  // parallel_for rethrows the cut
      y = std::min(y1, y + strip_rows);
      for (std::size_t k = 0; k <= last; ++k) {
        Stage& st = stages[k];
        const i32 t = k < last ? std::min(st.hi, y + reach[k + 1]) : y;
        if (t <= st.done) continue;
        // The call's virtual image: rows [a, z), each a true edge or r rows
        // beyond the rows it writes. A lone stage reads and writes whole
        // images, so its edges are the true ones and repeat may wrap across
        // bands.
        const i32 r = reach[k] - reach[k + 1];
        const i32 a = last == 0 ? 0 : std::max(0, st.done - r);
        const i32 z = last == 0 ? sy : std::min(sy, t + r);
        const float* const* in = &mid_in;
        const i32* pitches = &pitch_out;
        if (k == 0) {
          for (std::size_t j = 0; j < shifted.size(); ++j) {
            shifted[j] =
                in_ptrs[j] + static_cast<std::ptrdiff_t>(a) * in_pitches[j];
          }
          in = shifted.data();
          pitches = in_pitches.data();
        } else {
          const Stage& p = stages[k - 1];
          mid_in = row_of(p.window, a - p.first);
        }
        float* out = nullptr;
        if (k < last) {
          if (t - st.first > st.cap) {
            // Slide the window: keep the rows from this call's virtual top
            // or the consumer's next read, whichever is lower.
            const i32 r_next = reach[k + 1] - reach[k + 2];
            const i32 keep = std::max(
                0, std::min(a, stages[k + 1].done - r_next));
            const i32 from = std::max(keep, st.lo);
            std::memmove(row_of(st.window, from - keep),
                         row_of(st.window, from - st.first),
                         static_cast<std::size_t>(st.done - from) *
                             static_cast<std::size_t>(pitch_out) *
                             sizeof(float));
            st.first = keep;
            ISPB_EXPECTS(t - st.first <= st.cap);
          }
          out = row_of(st.window, a - st.first);
        } else {
          out = row_of(output.buffer().data(), a);
        }
        modules[k]->fn()(in, pitches, out, pitch_out, sx, z - a, st.done - a,
                         t - a);
        st.done = t;
      }
    }
  };

  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  if (bands == 1) {
    run_band(0, sy);
  } else {
    const i64 rows_per_band = (sy + bands - 1) / bands;
    parallel_for(0, bands, [&](i64 band) {
      const i32 y0 = static_cast<i32>(band * rows_per_band);
      const i32 y1 =
          static_cast<i32>(std::min<i64>(sy, (band + 1) * rows_per_band));
      if (y0 < y1) run_band(y0, y1);
    });
  }
  return std::chrono::duration<f64, std::milli>(Clock::now() - t0).count();
}

f64 run_native_module(const NativeModule& module,
                      std::span<const Image<f32>* const> inputs,
                      Image<f32>& output) {
  const NativeModule* const one = &module;
  return run_native_chain({&one, 1}, inputs, output);
}

f64 run_native_module(const NativeModule& module,
                      std::span<const Image<f32>* const> inputs,
                      Image<f32>& output, i64 bands) {
  const NativeModule* const one = &module;
  return run_native_chain({&one, 1}, inputs, output, bands);
}

NativeLaunch native_launch(NativeModulePtr module,
                           const codegen::StencilSpec& spec,
                           const codegen::CodegenOptions& options, Size2 size) {
  NativeLaunch launch;
  launch.module = std::move(module);
  const Window w = spec.window();
  const bool degenerate =
      size.x < 2 * w.radius_x() || size.y < 2 * w.radius_y();
  BackendRun& run = launch.run;
  run.variant_used = degenerate ? codegen::Variant::kNaive : options.variant;
  run.backend = Backend::kNative;
  run.regs_per_thread = 0;  // no register model
  return launch;
}

NativeLaunch NativeBackend::prepare(const codegen::StencilSpec& spec,
                                    const codegen::CodegenOptions& options,
                                    const sim::DeviceSpec& device, Size2 size) {
  dsl::validate_window(spec, options.pattern, size);
  return native_launch(
      cache_ != nullptr
          ? cache_->get_or_compile_native(spec, options, device.name)
          : jit_compile(spec, options, jit_),
      spec, options, size);
}

BackendRun NativeBackend::run(const codegen::StencilSpec& spec,
                              const codegen::CodegenOptions& options,
                              const sim::DeviceSpec& device,
                              std::span<const Image<f32>* const> inputs,
                              Image<f32>& output, BlockSize /*block*/,
                              bool /*sampled*/) {
  dsl::validate_inputs(spec, inputs, output.size());
  NativeLaunch launch = prepare(spec, options, device, output.size());

  obs::ScopedSpan span("exec.native.run", "sim");
  span.arg("kernel", spec.name);
  // Wall time only; no modeled counters.
  launch.run.stats.time_ms = run_native_module(*launch.module, inputs, output);

  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
      reg != nullptr) {
    reg->add("exec.launches", 1.0,
             {{"backend", "native"}, {"kernel", spec.name}});
  }
  return launch.run;
}

}  // namespace ispb::exec
