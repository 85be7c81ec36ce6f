#include "harness.hpp"

#include <fstream>

#include "common/error.hpp"
#include "image/generators.hpp"

namespace ispb::bench {

obs::Json BenchJson::to_json() const {
  obs::Json rows = obs::Json::array();
  for (const Row& r : rows_) {
    obs::Json row = obs::Json::object();
    row["bench"] = bench_;
    if (!r.device.empty()) row["device"] = r.device;
    if (!r.app.empty()) row["app"] = r.app;
    if (!r.pattern.empty()) row["pattern"] = r.pattern;
    if (r.size != 0) row["size"] = r.size;
    if (!r.variant.empty()) row["variant"] = r.variant;
    if (!r.backend.empty()) row["backend"] = r.backend;
    if (!r.isa_level.empty()) row["isa_level"] = r.isa_level;
    row["metric"] = r.metric;
    row["value"] = r.value;
    rows.push_back(std::move(row));
  }
  return rows;
}

void BenchJson::write(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open '" + path + "' for writing");
  out << to_json().dump(1) << "\n";
  if (!out) throw IoError("write to '" + path + "' failed");
}

std::vector<sim::DeviceSpec> paper_devices() {
  return {sim::make_gtx680(), sim::make_rtx2080()};
}

std::string_view to_string(Impl impl) {
  switch (impl) {
    case Impl::kNaive:
      return "naive";
    case Impl::kIsp:
      return "isp";
    case Impl::kIspModel:
      return "isp+m";
    case Impl::kIspWarp:
      return "isp-warp";
  }
  return "?";
}

AppRunner::AppRunner(filters::MultiKernelApp app, BorderPattern pattern)
    : app_(std::move(app)), pattern_(pattern) {
  kernels_.reserve(app_.stages.size());
  for (const auto& stage : app_.stages) {
    StageKernels sk;
    pipeline::KernelCache& cache = pipeline::KernelCache::global();
    codegen::CodegenOptions naive_opt;
    naive_opt.pattern = pattern;
    naive_opt.variant = codegen::Variant::kNaive;
    sk.naive = cache.get_or_compile(stage.spec, naive_opt);
    codegen::CodegenOptions isp_opt = naive_opt;
    isp_opt.variant = codegen::Variant::kIsp;
    sk.isp = cache.get_or_compile(stage.spec, isp_opt);
    sk.costs = codegen::measure_costs(stage.spec, pattern);
    kernels_.push_back(std::move(sk));
  }
}

f64 AppRunner::run_pipeline(const sim::DeviceSpec& dev, Size2 size,
                            BlockSize block,
                            const std::vector<bool>& pick_isp) {
  auto source_it = sources_.find(size.x);
  if (source_it == sources_.end()) {
    source_it =
        sources_.emplace(size.x, make_gradient_image(size)).first;
  }

  std::vector<Image<f32>> images;
  images.reserve(app_.stages.size() + 1);
  images.push_back(source_it->second);

  f64 total_ms = 0.0;
  for (std::size_t s = 0; s < app_.stages.size(); ++s) {
    const auto& stage = app_.stages[s];
    std::vector<const Image<f32>*> inputs;
    inputs.reserve(stage.input_bindings.size());
    for (i32 binding : stage.input_bindings) {
      inputs.push_back(&images[static_cast<std::size_t>(binding)]);
    }
    const dsl::CompiledKernel& kernel =
        pick_isp[s] ? *kernels_[s].isp : *kernels_[s].naive;
    Image<f32> out(size);
    const dsl::SimRun run =
        dsl::launch_on_sim(dev, kernel, inputs, out, block, /*sampled=*/true);
    total_ms += run.stats.time_ms;
    images.push_back(std::move(out));
  }
  return total_ms;
}

std::vector<AppRunner::StageDecision> AppRunner::decide(
    const sim::DeviceSpec& dev, Size2 size, BlockSize block) const {
  std::vector<StageDecision> decisions;
  decisions.reserve(app_.stages.size());
  for (std::size_t s = 0; s < app_.stages.size(); ++s) {
    const StageKernels& sk = kernels_[s];
    ModelInputs in;
    in.image = size;
    in.block = block;
    in.window = app_.stages[s].spec.window();
    in.pattern = pattern_;
    in.check_per_side = sk.costs.check_per_side;
    in.kernel_per_tap = sk.costs.kernel_per_tap;
    in.address_per_tap = 0.0;
    in.switch_per_test = sk.costs.switch_per_test;
    // Eq. (10) uses theoretical occupancy directly (paper-faithful; see
    // dsl::plan_variant for the rationale).
    in.occupancy_naive = std::max(
        1e-6, sim::compute_occupancy(dev, block, sk.naive->regs_per_thread)
                  .fraction);
    in.occupancy_isp = std::max(
        1e-6,
        sim::compute_occupancy(dev, block, sk.isp->regs_per_thread).fraction);

    StageDecision d;
    d.kernel = app_.stages[s].spec.name;
    d.model = evaluate_model(in);
    const BlockBounds bounds =
        compute_block_bounds(size, block, in.window);
    const bool degenerate =
        bounds.bh_l > bounds.bh_r || bounds.bh_t > bounds.bh_b;
    d.use_isp = d.model.use_isp && !degenerate;
    decisions.push_back(std::move(d));
  }
  return decisions;
}

AppTiming AppRunner::time_app(const sim::DeviceSpec& dev, Size2 size,
                              BlockSize block) {
  AppTiming t;
  t.stages = static_cast<i32>(app_.stages.size());

  const std::vector<bool> all_naive(app_.stages.size(), false);
  const std::vector<bool> all_isp(app_.stages.size(), true);
  t.naive_ms = run_pipeline(dev, size, block, all_naive);
  t.isp_ms = run_pipeline(dev, size, block, all_isp);

  std::vector<bool> model_pick(app_.stages.size(), false);
  const auto decisions = decide(dev, size, block);
  for (std::size_t s = 0; s < decisions.size(); ++s) {
    model_pick[s] = decisions[s].use_isp;
    if (decisions[s].use_isp) ++t.stages_where_model_chose_isp;
  }
  if (model_pick == all_naive) {
    t.isp_model_ms = t.naive_ms;
  } else if (model_pick == all_isp) {
    t.isp_model_ms = t.isp_ms;
  } else {
    t.isp_model_ms = run_pipeline(dev, size, block, model_pick);
  }
  return t;
}

}  // namespace ispb::bench
