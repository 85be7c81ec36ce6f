// The dsl/ir/gpusim layers: dsl::compile_kernel plus dsl::launch_on_sim
// over a grid of (app, pattern, variant, device) cells, and the paper app
// table the benchmark draws its apps from.
#include <map>
#include <stdexcept>

#include "dsl/runtime.hpp"
#include "sim_grid.hpp"

namespace ispb::perfbench {
namespace {

constexpr BlockSize kBlock{32, 4};

std::string pattern_name(BorderPattern p) { return std::string(to_string(p)); }

}  // namespace

filters::MultiKernelApp make_app(const std::string& name) {
  if (name == "gaussian") return filters::make_gaussian_app();
  if (name == "laplace") return filters::make_laplace_app();
  if (name == "bilateral") return filters::make_bilateral_app();
  if (name == "sobel") return filters::make_sobel_app();
  if (name == "night") return filters::make_night_app();
  throw std::invalid_argument("unknown app '" + name + "'");
}

std::vector<SimCell> run_sim_grid(const SimGrid& grid, const Image<f32>& source,
                                  bool sampled) {
  // Stage outputs are allocated once and reused by every cell: the grid
  // times compile and launch, not image allocation.
  std::vector<std::vector<Image<f32>>> outputs(grid.apps.size());
  for (std::size_t a = 0; a < grid.apps.size(); ++a) {
    for (std::size_t i = 0; i < grid.apps[a].stages.size(); ++i) {
      outputs[a].emplace_back(source.size());
    }
  }
  std::vector<SimCell> cells;
  for (std::size_t a = 0; a < grid.apps.size(); ++a) {
    const filters::MultiKernelApp& app = grid.apps[a];
    for (BorderPattern pattern : grid.patterns) {
      for (const sim::DeviceSpec& device : grid.devices) {
        for (codegen::Variant variant : grid.variants) {
          SimCell cell;
          cell.app = a;
          cell.pattern = pattern;
          cell.key = app.name + "/" + pattern_name(pattern) + "/" + device.name;
          cell.variant = variant;
          codegen::CodegenOptions options;
          options.pattern = pattern;
          options.variant = variant;
          const Clock::time_point t_cell = Clock::now();
          for (std::size_t i = 0; i < app.stages.size(); ++i) {
            const filters::MultiKernelApp::Stage& stage = app.stages[i];
            std::vector<const Image<f32>*> inputs;
            for (i32 b : stage.input_bindings) {
              inputs.push_back(b == 0 ? &source
                                      : &outputs[a][static_cast<std::size_t>(b - 1)]);
            }
            Clock::time_point t0 = Clock::now();
            const dsl::CompiledKernel kernel =
                dsl::compile_kernel(stage.spec, options);
            cell.compile_ms += ms_between(t0, Clock::now());
            cell.instrs += kernel.program.code.size();
            t0 = Clock::now();
            const dsl::SimRun run = dsl::launch_on_sim(
                device, kernel, inputs, outputs[a][i], kBlock, sampled);
            cell.launch_ms += ms_between(t0, Clock::now());
            cell.model_ms += run.stats.time_ms;
          }
          cell.wall_ms = ms_between(t_cell, Clock::now());
          if (!sampled) cell.output = outputs[a].back();
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

void report_sim_layers(Report& report,
                       const std::vector<std::vector<SimCell>>& passes) {
  std::vector<f64> compile_ms, launch_ms;
  for (const std::vector<SimCell>& pass : passes) {
    f64 c = 0.0;
    f64 l = 0.0;
    for (const SimCell& cell : pass) {
      c += cell.compile_ms;
      l += cell.launch_ms;
    }
    compile_ms.push_back(c);
    launch_ms.push_back(l);
  }
  f64 model_ms = 0.0;
  u64 instrs = 0;
  std::map<std::string, std::pair<f64, f64>> naive_isp;
  for (const SimCell& cell : passes.front()) {
    model_ms += cell.model_ms;
    instrs += cell.instrs;
    auto& [naive, isp] = naive_isp[cell.key];
    (cell.variant == codegen::Variant::kNaive ? naive : isp) = cell.model_ms;
  }
  std::vector<f64> speedups;
  for (const auto& [key, times] : naive_isp) {
    speedups.push_back(times.first / times.second);
  }
  report.metric("dsl.compile_ms", median(compile_ms), "ms");
  report.metric("ir.instrs", static_cast<f64>(instrs), "count");
  report.metric("gpusim.launch_ms", median(launch_ms), "ms");
  report.metric("gpusim.model_ms", model_ms, "ms");
  report.metric("gpusim.isp_speedup_geomean", geomean(speedups), "x");
}

}  // namespace ispb::perfbench
