// Shared sweep machinery for the paper-reproduction benches.
//
// Each bench binary regenerates one table or figure (see DESIGN.md). The
// harness caches compiled kernels per (stage, pattern, variant) — kernels do
// not depend on the image geometry, only launches do — and runs sampled
// simulations for timing sweeps.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dsl/compile.hpp"
#include "filters/filters.hpp"
#include "obs/json.hpp"
#include "pipeline/kernel_cache.hpp"

namespace ispb::bench {

/// Machine-readable bench output: the `--json=<path>` option every
/// table/figure bench supports. Rows share one flat schema so sweep scripts
/// can concatenate outputs of different benches:
///   {"bench": ..., "device": ..., "app": ..., "pattern": ..., "size": ...,
///    "variant": ..., "metric": ..., "value": ...}
/// Dimensions a bench does not sweep stay at their empty/zero defaults and
/// are omitted from the emitted row.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  /// Every field has a default member initializer, so benches may name
  /// only the fields they fill (-Wmissing-field-initializers stays quiet).
  struct Row {
    std::string device{};
    std::string app{};
    std::string pattern{};
    std::string variant{};
    std::string backend{};  ///< execution engine ("interp"/"native"), "" = n/a
    std::string isa_level{};  ///< native JIT -march level, "" = n/a
    std::string metric{};  ///< what `value` measures, e.g. "speedup_isp"
    i32 size = 0;        ///< image extent, 0 when not applicable
    f64 value = 0.0;
  };

  void add(Row row) { rows_.push_back(std::move(row)); }

  /// Serializes all rows as a JSON array.
  [[nodiscard]] obs::Json to_json() const;

  /// Writes `to_json()` to `path`; no-op when `path` is empty (the option
  /// was not given). Throws IoError when the file cannot be written.
  void write(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<Row> rows_;
};

/// The paper's evaluation grid.
inline const std::vector<i32> kPaperSizes{512, 1024, 2048, 4096};

/// Simulated devices of the evaluation (GTX680 Kepler, RTX2080 Turing).
[[nodiscard]] std::vector<sim::DeviceSpec> paper_devices();

/// Which implementation a timing refers to.
enum class Impl : u8 { kNaive, kIsp, kIspModel, kIspWarp };
[[nodiscard]] std::string_view to_string(Impl impl);

/// Timing of one application (all stages) at one configuration.
struct AppTiming {
  f64 naive_ms = 0.0;
  f64 isp_ms = 0.0;
  f64 isp_model_ms = 0.0;  ///< per-stage model decision (isp+m)
  i32 stages_where_model_chose_isp = 0;
  i32 stages = 0;
  [[nodiscard]] f64 speedup_isp() const { return naive_ms / isp_ms; }
  [[nodiscard]] f64 speedup_isp_model() const {
    return naive_ms / isp_model_ms;
  }
};

/// Caches compiled kernels and per-stage model inputs for one application
/// under one border pattern, then times arbitrary (device, size, block)
/// configurations.
class AppRunner {
 public:
  AppRunner(filters::MultiKernelApp app, BorderPattern pattern);

  /// Times the full pipeline (sampled simulation) for naive, isp, and the
  /// model-selected variant.
  [[nodiscard]] AppTiming time_app(const sim::DeviceSpec& dev, Size2 size,
                                   BlockSize block);

  /// Per-stage model decision (gain G of Eq. (10)) at a configuration.
  struct StageDecision {
    std::string kernel;
    ModelResult model;
    bool use_isp = false;
  };
  [[nodiscard]] std::vector<StageDecision> decide(const sim::DeviceSpec& dev,
                                                  Size2 size,
                                                  BlockSize block) const;

  [[nodiscard]] const filters::MultiKernelApp& app() const { return app_; }
  [[nodiscard]] BorderPattern pattern() const { return pattern_; }

 private:
  /// Kernels are shared with the process-wide pipeline::KernelCache: a
  /// second AppRunner for the same (app, pattern) compiles nothing.
  struct StageKernels {
    pipeline::KernelCache::KernelPtr naive;
    pipeline::KernelCache::KernelPtr isp;
    codegen::MeasuredCosts costs;
  };

  /// Runs every stage with `pick_isp[stage]` selecting the variant; returns
  /// summed modeled time.
  f64 run_pipeline(const sim::DeviceSpec& dev, Size2 size, BlockSize block,
                   const std::vector<bool>& pick_isp);

  filters::MultiKernelApp app_;
  BorderPattern pattern_;
  std::vector<StageKernels> kernels_;
  /// Source image cache per size (content is irrelevant to cost; Repeat loop
  /// trip counts depend on coordinates only).
  std::map<i32, Image<f32>> sources_;
};

}  // namespace ispb::bench
