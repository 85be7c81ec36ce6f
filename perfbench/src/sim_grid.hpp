// The dsl/ir/gpusim layers: dsl::compile_kernel plus dsl::launch_on_sim
// over a grid of (app, pattern, variant, device) cells. The traced run
// checks a grid with full launches at an odd geometry against the CPU
// reference, then times the same grid with sampled launches at the
// workload's own geometry.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "filters/filters.hpp"
#include "gpusim/device.hpp"

namespace ispb::perfbench {

struct SimGrid {
  std::vector<filters::MultiKernelApp> apps;
  std::vector<BorderPattern> patterns;
  std::vector<codegen::Variant> variants;
  std::vector<sim::DeviceSpec> devices;
};

/// One cell: every stage of one app compiled and launched.
struct SimCell {
  std::size_t app = 0;  ///< index into SimGrid::apps
  BorderPattern pattern = BorderPattern::kClamp;
  std::string key;  ///< app/pattern/device; a naive and an ISP cell share it
  codegen::Variant variant = codegen::Variant::kNaive;
  f64 wall_ms = 0.0;
  f64 compile_ms = 0.0;
  f64 launch_ms = 0.0;
  f64 model_ms = 0.0;  ///< modelled GPU time, summed over stages
  u64 instrs = 0;      ///< IR instructions after optimize, summed
  Image<f32> output;   ///< last stage's output; full launches only
};

/// Runs every cell of `grid` once on `source`, in grid order. Sampled
/// launches time the simulator; full launches produce checkable outputs.
[[nodiscard]] std::vector<SimCell> run_sim_grid(const SimGrid& grid,
                                                const Image<f32>& source,
                                                bool sampled);

/// Reports dsl.compile_ms, ir.instrs, gpusim.launch_ms, gpusim.model_ms and
/// gpusim.isp_speedup_geomean from repeated passes over one grid (times are
/// medians over passes; counts come from the first pass).
void report_sim_layers(Report& report, const std::vector<std::vector<SimCell>>& passes);

/// The four apps the native layer ladder covers, by name.
[[nodiscard]] filters::MultiKernelApp make_app(const std::string& name);
[[nodiscard]] const std::vector<std::string>& ladder_apps();

}  // namespace ispb::perfbench
