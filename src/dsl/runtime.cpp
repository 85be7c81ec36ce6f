#include "dsl/runtime.hpp"

#include <string>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb::dsl {

CompiledKernel compile_kernel(const codegen::StencilSpec& spec,
                              const codegen::CodegenOptions& options) {
  obs::ScopedSpan span("dsl.compile_kernel", "compile");
  // Fault point at the same site the compile span instruments. The detail
  // carries the variant so a plan can fail ISP lowering while naive
  // compiles keep working (the breaker-fallback scenario).
  resilience::fault_point(
      "compile.lower",
      spec.name + "/" + std::string(codegen::to_string(options.variant)));
  CompiledKernel k;
  k.spec = spec;
  k.options = options;
  k.program = codegen::generate_kernel(spec, options);
  k.regs_per_thread = sim::estimate_kernel_registers(k.program);
  if (span.recording()) {
    span.arg("kernel", k.program.name);
    span.arg("instrs", static_cast<i64>(k.program.code.size()));
    span.arg("regs", static_cast<i64>(k.regs_per_thread));
  }
  return k;
}

void validate_inputs(const codegen::StencilSpec& spec,
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
}

void validate_window(const codegen::StencilSpec& spec, BorderPattern pattern,
                     Size2 out_size) {
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

sim::ParamMap build_params(const ir::Program& prog, Size2 image,
                           std::span<const Image<f32>* const> inputs,
                           const Image<f32>& output, BlockSize block,
                           Window window, i32 warp_width) {
  sim::ParamMap params;
  params["sx"] = ir::Word::from_i32(image.x);
  params["sy"] = ir::Word::from_i32(image.y);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    params["pitch_in" + std::to_string(i)] =
        ir::Word::from_i32(inputs[i]->pitch());
  }
  params["pitch_out"] = ir::Word::from_i32(output.pitch());
  params["ntid.x"] = ir::Word::from_i32(block.tx);
  params["ntid.y"] = ir::Word::from_i32(block.ty);

  // Partition parameters only when the kernel declares them.
  const auto declares = [&prog](std::string_view name) {
    for (const auto& p : prog.param_names) {
      if (p == name) return true;
    }
    return false;
  };
  if (declares("bh_l")) {
    const BlockBounds bounds = compute_block_bounds(image, block, window);
    params["bh_l"] = ir::Word::from_i32(bounds.bh_l);
    params["bh_r"] = ir::Word::from_i32(bounds.bh_r);
    params["bh_t"] = ir::Word::from_i32(bounds.bh_t);
    params["bh_b"] = ir::Word::from_i32(bounds.bh_b);
  }
  if (declares("w_l")) {
    const WarpBounds wb = compute_warp_bounds(image, block, window, warp_width);
    if (wb.enabled) {
      params["w_l"] = ir::Word::from_i32(wb.w_l);
      params["w_r"] = ir::Word::from_i32(wb.w_r);
    } else {
      // No warp may skip its block's checks: make both refinements vacuous
      // (wx >= w_l never holds; wx < w_r never holds).
      params["w_l"] = ir::Word::from_i32(block.tx);
      params["w_r"] = ir::Word::from_i32(0);
    }
  }
  return params;
}

SimRun launch_on_sim(const sim::DeviceSpec& dev, const CompiledKernel& kernel,
                     std::span<const Image<f32>* const> inputs,
                     Image<f32>& output, BlockSize block, bool sampled) {
  validate_inputs(kernel.spec, inputs, output.size());
  validate_window(kernel.spec, kernel.options.pattern, output.size());
  resilience::fault_point("launcher.launch", kernel.program.name);
  const Size2 image = output.size();
  const Window window = kernel.spec.window();

  // Degenerate partition (opposing sides on one block) cannot be expressed
  // by the 9-region switch; fall back to the naive kernel (which checks
  // every side) exactly as the planner would.
  const CompiledKernel* to_run = &kernel;
  CompiledKernel naive_fallback;
  SimRun run;
  run.variant_used = kernel.options.variant;
  if (kernel.options.variant == codegen::Variant::kIspTiled &&
      !(block == kernel.options.tile_block)) {
    // The staging loop's trip counts and tile extent were baked for
    // tile_block; any other shape would stage the wrong tile.
    throw ContractError(
        "kernel '" + kernel.program.name + "' was tiled for a " +
        std::to_string(kernel.options.tile_block.tx) + "x" +
        std::to_string(kernel.options.tile_block.ty) +
        " block, launched with " + std::to_string(block.tx) + "x" +
        std::to_string(block.ty));
  }
  if (kernel.options.variant != codegen::Variant::kNaive) {
    const BlockBounds bounds = compute_block_bounds(image, block, window);
    const bool degenerate = bounds.bh_l > bounds.bh_r ||
                            bounds.bh_t > bounds.bh_b;
    if (degenerate) {
      codegen::CodegenOptions naive_opt = kernel.options;
      naive_opt.variant = codegen::Variant::kNaive;
      naive_fallback = compile_kernel(kernel.spec, naive_opt);
      to_run = &naive_fallback;
      run.variant_used = codegen::Variant::kNaive;
      run.degenerate_fallback = true;
    }
  }

  // Bind buffers: inputs read-only, output writable.
  std::vector<ir::BufferBinding> buffers;
  buffers.reserve(inputs.size() + 1);
  for (const Image<f32>* img : inputs) {
    // const_cast is confined here; the binding is marked read-only and the
    // interpreter rejects stores through it.
    buffers.push_back(ir::BufferBinding{
        const_cast<f32*>(img->buffer().data()), img->buffer().size(), false});
  }
  buffers.push_back(ir::BufferBinding{output.buffer().data(),
                                      output.buffer().size(), true});

  const sim::ParamMap params = build_params(
      to_run->program, image, inputs, output, block, window,
      to_run->options.warp_width);
  sim::LaunchConfig cfg{image, block, to_run->regs_per_thread};
  cfg.smem_bytes_per_block =
      static_cast<i32>(to_run->program.smem_words * sizeof(f32));

  // Both modes classify blocks by side mask: sampled execution needs the
  // classes to pick representatives, and full execution uses them to fill
  // LaunchStats::per_region (attribution only; aggregates are unaffected).
  const BlockBounds bounds = compute_block_bounds(image, block, window);
  const sim::BlockClassFn classify = [bounds](i32 bx, i32 by) {
    return static_cast<u32>(classify_block(bounds, bx, by));
  };
  if (!sampled) {
    run.stats = sim::launch_full(dev, to_run->program, cfg, params, buffers,
                                 classify);
  } else {
    run.stats = sim::launch_sampled(dev, to_run->program, cfg, params,
                                    buffers, classify);
  }
  return run;
}

PerRegionRun launch_per_region(const sim::DeviceSpec& dev,
                               const codegen::StencilSpec& spec,
                               const codegen::CodegenOptions& options,
                               std::span<const Image<f32>* const> inputs,
                               Image<f32>& output, BlockSize block) {
  validate_inputs(spec, inputs, output.size());
  validate_window(spec, options.pattern, output.size());
  const Size2 image = output.size();
  const Window window = spec.window();
  const GridDims grid = make_grid(image, block);
  const BlockBounds bounds = compute_block_bounds(image, block, window);
  if (bounds.bh_l > bounds.bh_r || bounds.bh_t > bounds.bh_b) {
    throw ContractError(
        "per-region launches require a non-degenerate partition");
  }

  // Disjoint block rectangles per canonical region (x-ranges L/mid/R
  // crossed with y-ranges T/mid/B).
  const auto region_rect = [&](Region r) {
    const Side s = region_sides(r);
    const i32 x0 = has_side(s, Side::kLeft) ? 0
                   : has_side(s, Side::kRight) ? bounds.bh_r
                                               : bounds.bh_l;
    const i32 x1 = has_side(s, Side::kLeft) ? bounds.bh_l
                   : has_side(s, Side::kRight) ? grid.nbx
                                               : bounds.bh_r;
    const i32 y0 = has_side(s, Side::kTop) ? 0
                   : has_side(s, Side::kBottom) ? bounds.bh_b
                                                : bounds.bh_t;
    const i32 y1 = has_side(s, Side::kTop) ? bounds.bh_t
                   : has_side(s, Side::kBottom) ? grid.nby
                                                : bounds.bh_b;
    return Rect{x0, y0, x1, y1};
  };

  std::vector<ir::BufferBinding> buffers;
  buffers.reserve(inputs.size() + 1);
  for (const Image<f32>* img : inputs) {
    buffers.push_back(ir::BufferBinding{
        const_cast<f32*>(img->buffer().data()), img->buffer().size(), false});
  }
  buffers.push_back(ir::BufferBinding{output.buffer().data(),
                                      output.buffer().size(), true});

  PerRegionRun run;
  for (Region r : kAllRegions) {
    const Rect rect = region_rect(r);
    if (rect.empty()) continue;

    ir::Program prog = codegen::generate_region_kernel(spec, options, r);
    const i32 regs = sim::estimate_kernel_registers(prog);

    sim::ParamMap params;
    params["sx"] = ir::Word::from_i32(image.x);
    params["sy"] = ir::Word::from_i32(image.y);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      params["pitch_in" + std::to_string(i)] =
          ir::Word::from_i32(inputs[i]->pitch());
    }
    params["pitch_out"] = ir::Word::from_i32(output.pitch());
    params["ntid.x"] = ir::Word::from_i32(block.tx);
    params["ntid.y"] = ir::Word::from_i32(block.ty);
    params["boff_x"] = ir::Word::from_i32(rect.x0);
    params["boff_y"] = ir::Word::from_i32(rect.y0);

    const sim::LaunchConfig cfg{image, block, regs};
    sim::LaunchStats stats = sim::launch_subgrid(
        dev, prog, cfg, params, buffers, rect.width(), rect.height());
    run.total_time_ms += stats.time_ms;
    ++run.launches;
    run.per_region.emplace_back(r, std::move(stats));
  }
  return run;
}

Image<f32> run_reference(const codegen::StencilSpec& spec,
                         BorderPattern pattern, f32 constant,
                         std::span<const Image<f32>* const> inputs) {
  spec.validate();
  ISPB_EXPECTS(!inputs.empty());
  validate_inputs(spec, inputs, inputs[0]->size());
  validate_window(spec, pattern, inputs[0]->size());
  const Size2 size = inputs[0]->size();

  Image<f32> out(size);
  parallel_for(0, size.y, [&](i64 y) {
    for (i32 x = 0; x < size.x; ++x) {
      const f32 v = spec.evaluate([&](i32 input, i32 dx, i32 dy) {
        return border_read(*inputs[static_cast<std::size_t>(input)], pattern,
                           x + dx, static_cast<i32>(y) + dy, constant);
      });
      out(x, static_cast<i32>(y)) = v;
    }
  });
  return out;
}

Image<f32> run_reference_partitioned(const codegen::StencilSpec& spec,
                                     BorderPattern pattern, f32 constant,
                                     std::span<const Image<f32>* const> inputs) {
  spec.validate();
  ISPB_EXPECTS(!inputs.empty());
  validate_inputs(spec, inputs, inputs[0]->size());
  validate_window(spec, pattern, inputs[0]->size());
  const Size2 size = inputs[0]->size();
  const Window window = spec.window();

  Image<f32> out(size);
  const std::vector<PixelRegion> regions = cpu_partition(size, window);
  for (const PixelRegion& region : regions) {
    const bool needs_checks = region.sides != Side::kNone;
    parallel_for(region.rect.y0, region.rect.y1, [&](i64 y) {
      for (i32 x = region.rect.x0; x < region.rect.x1; ++x) {
        f32 v;
        if (needs_checks) {
          v = spec.evaluate([&](i32 input, i32 dx, i32 dy) {
            return border_read(*inputs[static_cast<std::size_t>(input)],
                               pattern, x + dx, static_cast<i32>(y) + dy,
                               constant);
          });
        } else {
          // Body: the whole window is in bounds; read unmapped.
          v = spec.evaluate([&](i32 input, i32 dx, i32 dy) {
            return (*inputs[static_cast<std::size_t>(input)])(
                x + dx, static_cast<i32>(y) + dy);
          });
        }
        out(x, static_cast<i32>(y)) = v;
      }
    });
  }
  return out;
}

}  // namespace ispb::dsl
