// ispb_run — command-line front end to the whole stack. Subcommands:
//
//   (default)  load (or synthesize) an image, run one of the five evaluation
//              applications under a chosen border pattern / variant / device,
//              write the result as PGM and print per-stage statistics:
//
//     ispb_run --app=sobel --pattern=mirror --variant=isp+m
//              [--in=input.pgm | --size=1024] [--device=rtx2080]
//              [--block=32x4] [--out=result.pgm] [--reference]
//
//   analyze    run the static checkers instead of the simulator: per stage
//              kernel it proves loads/stores in bounds, the region switch a
//              partition of the grid, the Body section free of residual
//              border guards and Body scenarios branch-uniform (exit 1 on
//              any finding):
//
//     ispb_run analyze --app=bilateral --pattern=mirror --variant=isp
//              [--size=512] [--block=32x4]
//
//              With --cost it instead runs the counter-validated static cost
//              model: every app x pattern x variant stage kernel is costed
//              statically (affine access extraction -> per-warp transaction
//              counting) AND executed on the simulator, and the per-region
//              counters must agree exactly wherever the kernel is inside the
//              affine fragment (non-affine fallbacks are listed, never
//              silently dropped). Also reports where the Eq. (10) predictor
//              fed with static cycles disagrees with the analytic model:
//
//     ispb_run analyze --cost [--app=sobel] [--pattern=mirror]
//              [--device=gtx680] [--size=128] [--block=32x4]
//              [--json | --json=calibration.json]
//
//   profile    run the pipeline under tracing and metrics collection and
//              emit a JSON report (compile-stage timings, per-kernel
//              registers/occupancy, per-region counters) plus an optional
//              Chrome trace loadable in Perfetto:
//
//     ispb_run profile --app=sobel --pattern=mirror --variant=isp
//              [--device=gtx680] [--size=2048] [--block=32x4]
//              [--json=profile.json] [--trace=trace.json]
//
//   serve      drive one serving fleet: submit N requests against K worker
//              threads per device through the compiled-kernel cache and
//              report throughput, latency percentiles, the cache hit-rate,
//              placement per device and admission per priority tier:
//
//     ispb_run serve --app=sobel --requests=64 --concurrency=8
//              [--pattern=clamp] [--variant=isp] [--backend=native|interp]
//              [--size=256] [--queue=64] [--deadline-ms=50] [--sampled]
//              [--devices=gtx680,rtx2080] [--shed-tiers=3]
//              [--json | --json=report.json]
//
//              serving defaults to the native (JIT shared-object) execution
//              backend; profile/analyze always use the interpreted engine
//              (modeled counters). Without --devices the fleet is the
//              one-device fleet a PipelineServer runs; with them, one shard
//              per device behind tiered admission and failover.
//
//   loadtest   open-loop Poisson load generator against the multi-device
//              fleet router: calibrate the fleet's closed-loop capacity,
//              then drive it at three load tiers (below / near / above
//              saturation) across an apps x patterns matrix with requests
//              spread over --shed-tiers priority tiers, measure sustained
//              throughput, latency percentiles, shed/brownout/rejection
//              behavior per admission tier and placement per device, re-run
//              the top tier with tracing + metrics + the SLO exporter
//              enabled to measure observability overhead, and write the
//              BENCH_serve.json perf artifact (schema v3):
//
//     ispb_run loadtest [--apps=gaussian,sobel] [--patterns=clamp,mirror]
//              [--devices=gtx680,rtx2080] [--shed-tiers=3] [--size=128]
//              [--workers=4] [--queue=128] [--duration-ms=1500]
//              [--tiers=0.5,0.9,1.5] [--deadline-ms=0] [--backend=native]
//              [--seed=7] [--full] [--quick] [--json=BENCH_serve.json]
//
//   chaos      resilience harness: run N seeded fault schedules against the
//              5-app x 4-pattern serving matrix on one fleet and assert the
//              invariants — every future settles, every kOk response is
//              bit-identical to the CPU reference, errors trace only to
//              injected points, flapped devices re-converge. On one device
//              (the default) compile/cache/executor/server/launcher faults
//              fire; --devices (>= 2 entries) instead kills, flaps or stalls
//              whole devices (--device-fault) while the fleet fails over.
//              Exit 1 names the dominant fault point when a schedule serves
//              nothing but failures:
//
//     ispb_run chaos [--schedules=64] [--seed=1] [--requests=2] [--size=64]
//              [--deadline-ms=0] [--force-fail=POINT] [--variant=isp]
//              [--devices=gtx680,rtx2080] [--device-fault=mix]
//              [--shed-tiers=3] [--json | --json=report.json]
//
//   help       print this overview.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <thread>

#include <sys/resource.h>

#include "codegen/kernel_gen.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "dsl/compile.hpp"
#include "dsl/runtime.hpp"
#include "exec/backend.hpp"
#include "filters/filters.hpp"
#include "image/compare.hpp"
#include "image/generators.hpp"
#include "image/image_io.hpp"
#include "ir/analysis/checkers.hpp"
#include "ir/analysis/divergence.hpp"
#include "ir/analysis/static_cost.hpp"
#include "common/rng.hpp"
#include "fleet/fleet_server.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/server.hpp"
#include "resilience/fault_injector.hpp"

using namespace ispb;

namespace {

filters::MultiKernelApp app_by_name(const std::string& name) {
  for (auto& app : filters::all_apps()) {
    if (app.name == name) return app;
  }
  throw IoError("unknown --app '" + name +
                "' (gaussian|laplace|bilateral|sobel|night)");
}

// Bad subcommand *arguments* fail the same way everywhere: nonzero exit and
// an error naming the unknown value plus the accepted ones.
BorderPattern parse_pattern_arg(const std::string& name) {
  const auto pattern = parse_border_pattern(name);
  if (!pattern.has_value()) {
    throw IoError("unknown --pattern '" + name +
                  "' (clamp|mirror|repeat|constant)");
  }
  return *pattern;
}

sim::DeviceSpec parse_device(const std::string& name) {
  if (name == "gtx680") return sim::make_gtx680();
  if (name == "rtx2080") return sim::make_rtx2080();
  throw IoError("unknown --device '" + name + "' (gtx680|rtx2080)");
}

/// Strict --devices list: comma-separated device names -> specs, exit 1
/// naming the first unknown entry. Order is preserved (it becomes the
/// fleet's shard order).
std::vector<sim::DeviceSpec> parse_devices(const std::string& spec) {
  std::vector<sim::DeviceSpec> devices;
  std::string text = spec;
  std::replace(text.begin(), text.end(), ',', ' ');
  std::istringstream in(text);
  std::string word;
  while (in >> word) {
    if (word == "gtx680") {
      devices.push_back(sim::make_gtx680());
    } else if (word == "rtx2080") {
      devices.push_back(sim::make_rtx2080());
    } else {
      throw IoError("unknown device '" + word +
                    "' in --devices (gtx680|rtx2080, comma-separated)");
    }
  }
  if (devices.empty()) {
    throw IoError("--devices parsed to no device names "
                  "(gtx680|rtx2080, comma-separated)");
  }
  return devices;
}

/// Strict --shed-tiers: priority tier count for the fleet's admission
/// ladder; tier 0 never sheds, so 1 disables shedding entirely.
u32 parse_shed_tiers(const Cli& cli) {
  const i64 tiers = cli.get_int("shed-tiers", 3);
  if (tiers < 1 || tiers > 16) {
    throw IoError("unknown --shed-tiers '" + std::to_string(tiers) +
                  "' (1..16)");
  }
  return static_cast<u32>(tiers);
}

exec::Backend parse_backend_arg(const std::string& name) {
  const auto backend = exec::parse_backend(name);
  if (!backend.has_value()) {
    throw IoError("unknown --backend '" + name + "' (interp|native)");
  }
  return *backend;
}

BlockSize parse_block(const std::string& text) {
  const auto x = text.find('x');
  if (x == std::string::npos) throw IoError("--block expects TXxTY, e.g. 32x4");
  return BlockSize{std::stoi(text.substr(0, x)),
                   std::stoi(text.substr(x + 1))};
}

codegen::Variant parse_variant(const std::string& name, bool* use_model) {
  if (use_model != nullptr) *use_model = false;
  if (name == "naive") return codegen::Variant::kNaive;
  if (name == "isp") return codegen::Variant::kIsp;
  if (name == "isp-warp") return codegen::Variant::kIspWarp;
  if (name == "isp-tiled") return codegen::Variant::kIspTiled;
  if (name == "isp+m") {
    if (use_model != nullptr) *use_model = true;
    return codegen::Variant::kIsp;
  }
  throw IoError("unknown --variant '" + name +
                "' (naive|isp|isp-warp|isp-tiled|isp+m)");
}

std::string_view limiter_name(sim::Occupancy::Limiter l) {
  switch (l) {
    case sim::Occupancy::Limiter::kWarps:
      return "warps";
    case sim::Occupancy::Limiter::kBlocks:
      return "blocks";
    case sim::Occupancy::Limiter::kRegisters:
      return "registers";
    case sim::Occupancy::Limiter::kSharedMem:
      return "smem";
    case sim::Occupancy::Limiter::kNone:
      return "none";
  }
  return "none";
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open '" + path + "' for writing");
  out << text << "\n";
  if (!out) throw IoError("write to '" + path + "' failed");
}

/// --deadline-ms of serve and chaos (ServeRequest::deadline_ms).
constexpr const char* kDeadlineHelp =
    "whole-request deadline in ms, queue wait and execution, 0 = none";

/// A histogram percentile, or JSON null when nothing was recorded (rather
/// than a fake 0.0 ms latency).
obs::Json opt_json(std::optional<f64> v) {
  return v ? obs::Json(*v) : obs::Json(nullptr);
}

/// Per-device placement of a fleet run: where requests landed, how often
/// each device was quarantined, how many half-open probes it absorbed.
obs::Json devices_json(const std::vector<fleet::FleetDeviceStats>& devices) {
  obs::Json a = obs::Json::array();
  for (const fleet::FleetDeviceStats& d : devices) {
    obs::Json j = obs::Json::object();
    j["device"] = d.device;
    j["routed"] = d.routed;
    j["completed"] = d.completed;
    j["errors"] = d.errors;
    j["rejected"] = d.rejected;
    j["probes"] = d.probes;
    j["quarantines"] = d.quarantines;
    a.push_back(std::move(j));
  }
  return a;
}

/// Shared option set of the subcommands that drive the app pipeline.
Cli& declare_pipeline_options(Cli& cli) {
  return cli
      .option("app", "gaussian|laplace|bilateral|sobel|night (default gaussian)")
      .option("pattern", "clamp|mirror|repeat|constant (default clamp)")
      .option("device", "gtx680|rtx2080 (default gtx680)")
      .option("size", "synthetic image extent (default 512)")
      .option("block", "threadblock TXxTY (default 32x4)")
      .option("constant", "border constant for the constant pattern");
}

filters::AppSimConfig pipeline_config(const Cli& cli,
                                      const std::string& default_variant) {
  filters::AppSimConfig cfg;
  cfg.pattern = parse_pattern_arg(cli.get_string("pattern", "clamp"));
  cfg.constant = static_cast<f32>(cli.get_double("constant", 0.0));
  cfg.block = parse_block(cli.get_string("block", "32x4"));
  cfg.device = parse_device(cli.get_string("device", "gtx680"));
  cfg.variant =
      parse_variant(cli.get_string("variant", default_variant), &cfg.use_model);
  return cfg;
}

// ---- subcommands ------------------------------------------------------------

/// Default subcommand: simulate an app end to end and write the result.
int run_simulate(int argc, char** argv);
/// `analyze`: static bounds/coverage/lint verdicts for every stage kernel.
int run_analyze(int argc, char** argv);
/// `profile`: traced + metered pipeline run with a JSON report.
int run_profile(int argc, char** argv);
/// `serve`: batched serving driver reporting throughput/latency/cache stats.
int run_serve(int argc, char** argv);
/// `loadtest`: open-loop Poisson load tiers writing the BENCH_serve artifact.
int run_loadtest(int argc, char** argv);
/// `chaos`: seeded fault schedules asserting the serving invariants.
int run_chaos(int argc, char** argv);

struct Subcommand {
  std::string_view name;
  std::string_view summary;
  int (*fn)(int argc, char** argv);
};

constexpr std::array<Subcommand, 6> kSubcommands = {{
    {"run", "simulate an application end to end (the default)", run_simulate},
    {"analyze", "statically prove bounds, coverage and Body specialization",
     run_analyze},
    {"profile", "traced run emitting a JSON report (+ optional Chrome trace)",
     run_profile},
    {"serve", "batched pipeline serving: throughput/latency/cache report",
     run_serve},
    {"loadtest", "Poisson load tiers -> BENCH_serve.json perf artifact",
     run_loadtest},
    {"chaos", "seeded fault-injection schedules asserting serving invariants",
     run_chaos},
}};

std::string subcommand_overview() {
  std::string out = "subcommands (ispb_run <subcommand> --help for options):\n";
  for (const Subcommand& s : kSubcommands) {
    out += "  " + std::string(s.name);
    out.append(s.name.size() < 8 ? 8 - s.name.size() : 1, ' ');
    out += std::string(s.summary) + "\n";
  }
  return out;
}

// ---- analyze --cost: counter-validated static cost model --------------------

/// Canonical region name of a classify_block side mask.
std::string region_name(u32 key) {
  for (Region r : kAllRegions) {
    if (static_cast<u32>(region_sides(r)) == key) {
      return std::string(to_string(r));
    }
  }
  return "mask" + std::to_string(key);
}

/// Appends one line per counter where the static and the simulated value
/// differ. Integer counters compare exactly; that is the whole point of the
/// calibration — the static model replays the simulator's accounting, it
/// does not approximate it.
void diff_counters(const analysis::StaticCounters& st,
                   const sim::WarpResult& sm, const std::string& where,
                   std::vector<std::string>& out) {
  const auto check = [&](std::string_view field, u64 a, u64 b) {
    if (a != b) {
      out.push_back(where + ": " + std::string(field) + " static " +
                    std::to_string(a) + " != sim " + std::to_string(b));
    }
  };
  check("issue_slots", st.issue_slots, sm.issue_slots);
  check("lane_instructions", st.lane_instructions, sm.lane_instructions);
  check("mem_transactions", st.mem_transactions, sm.mem_transactions);
  check("mem_transactions_wide", st.mem_transactions_wide,
        sm.mem_transactions_wide);
  check("mem_cache_misses", st.mem_cache_misses, sm.mem_cache_misses);
  check("divergent_branches", st.divergent_branches, sm.divergent_branches);
  for (std::size_t i = 0; i < sim::kPipeCount; ++i) {
    check("pipe[" + std::to_string(i) + "]", st.per_pipe[i],
          sm.issued_per_pipe[i]);
  }
}

obs::Json counters_json(const analysis::StaticCounters& c) {
  obs::Json j = obs::Json::object();
  j["issue_slots"] = c.issue_slots;
  j["lane_instructions"] = c.lane_instructions;
  j["mem_transactions"] = c.mem_transactions;
  j["mem_transactions_wide"] = c.mem_transactions_wide;
  j["mem_cache_misses"] = c.mem_cache_misses;
  j["divergent_branches"] = c.divergent_branches;
  return j;
}

obs::Json counters_json(const sim::WarpResult& w) {
  obs::Json j = obs::Json::object();
  j["issue_slots"] = w.issue_slots;
  j["lane_instructions"] = w.lane_instructions;
  j["mem_transactions"] = w.mem_transactions;
  j["mem_transactions_wide"] = w.mem_transactions_wide;
  j["mem_cache_misses"] = w.mem_cache_misses;
  j["divergent_branches"] = w.divergent_branches;
  return j;
}

int run_analyze_cost(const Cli& cli) {
  const sim::DeviceSpec dev = parse_device(cli.get_string("device", "gtx680"));
  // Full simulation of the whole matrix is the expensive half of the
  // calibration; 128x128 keeps the sweep fast while still exercising every
  // region class and partial-warp layout. --size overrides.
  const i32 size = static_cast<i32>(cli.get_int("size", 128));
  const BlockSize block = parse_block(cli.get_string("block", "32x4"));
  const Size2 image{size, size};

  // Optional restriction; the default sweep covers everything. Variants are
  // always all three — the Eq. (10) comparison needs the naive/isp pair.
  std::vector<filters::MultiKernelApp> apps;
  const std::string app_filter = cli.get_string("app", "");
  if (app_filter.empty()) {
    apps = filters::all_apps();
  } else {
    apps.push_back(app_by_name(app_filter));
  }
  std::vector<BorderPattern> patterns;
  const std::string pattern_filter = cli.get_string("pattern", "");
  if (pattern_filter.empty()) {
    patterns.assign(kAllBorderPatterns.begin(), kAllBorderPatterns.end());
  } else {
    patterns.push_back(parse_pattern_arg(pattern_filter));
  }
  struct VariantChoice {
    codegen::Variant variant;
    std::string_view name;
  };
  constexpr std::array<VariantChoice, 3> kVariants = {{
      {codegen::Variant::kNaive, "naive"},
      {codegen::Variant::kIsp, "isp"},
      {codegen::Variant::kIspWarp, "isp-warp"},
  }};

  std::vector<std::string> violations;
  std::vector<std::string> fallback_lines;  ///< every degradation, verbatim
  /// Static cost per app/pattern/stage/variant, for the Eq. (10) pass.
  struct StageCost {
    analysis::StaticLaunchCost cost;
    bool degenerate = false;
  };
  std::map<std::string, StageCost> stage_costs;

  AsciiTable table("static cost calibration: " + std::to_string(size) + "x" +
                   std::to_string(size) + ", block " + std::to_string(block.tx) +
                   "x" + std::to_string(block.ty) + ", " + dev.name);
  table.set_header({"app", "pattern", "variant", "stages", "regions",
                    "slots st/sim", "txn st/sim", "wide", "misses", "div",
                    "verdict"});

  obs::Json combos_json = obs::Json::array();
  for (const filters::MultiKernelApp& app : apps) {
    for (BorderPattern pattern : patterns) {
      for (const VariantChoice& vc : kVariants) {
        codegen::CodegenOptions opt;
        opt.pattern = pattern;
        opt.variant = vc.variant;

        // Stage chain: addresses never depend on image data, so a zero
        // source drives the launches; intermediates chain like the real
        // pipeline so pitches match the executor's stage images.
        std::vector<Image<f32>> chain;
        chain.reserve(app.stages.size() + 1);
        chain.emplace_back(image);

        analysis::StaticCounters combo_static;
        sim::WarpResult combo_sim;
        u64 regions_total = 0, regions_exact = 0;
        bool combo_match = true, combo_bounded = false;

        obs::Json stages_json = obs::Json::array();
        for (std::size_t si = 0; si < app.stages.size(); ++si) {
          const auto& stage = app.stages[si];
          std::vector<const Image<f32>*> inputs;
          inputs.reserve(stage.input_bindings.size());
          for (i32 b : stage.input_bindings) {
            inputs.push_back(&chain[static_cast<std::size_t>(b)]);
          }
          Image<f32> output(image);

          const dsl::CompiledKernel kernel =
              dsl::compile_kernel(stage.spec, opt);
          const dsl::SimRun run =
              dsl::launch_on_sim(dev, kernel, inputs, output, block);

          // Cost the program the simulator actually ran: a degenerate
          // partition falls back to the naive kernel in both worlds.
          const ir::Program* prog = &kernel.program;
          dsl::CompiledKernel naive_fallback;
          if (run.degenerate_fallback) {
            codegen::CodegenOptions nopt = opt;
            nopt.variant = codegen::Variant::kNaive;
            naive_fallback = dsl::compile_kernel(stage.spec, nopt);
            prog = &naive_fallback.program;
          }
          analysis::LaunchGeometry geom;
          geom.image = image;
          geom.block = block;
          geom.window = stage.spec.window();
          geom.warp_width = kernel.options.warp_width;

          const analysis::StaticLaunchCost scost =
              analysis::compute_static_cost(*prog, geom, dev);
          const analysis::DivergenceResult div =
              analysis::analyze_divergence(*prog, geom);

          const std::string where = app.name + "/" +
                                    std::string(to_string(pattern)) + "/" +
                                    std::string(vc.name) + " " + prog->name;
          stage_costs[app.name + "|" + std::string(to_string(pattern)) + "|" +
                      std::to_string(si) + "|" + std::string(vc.name)] =
              StageCost{scost, run.degenerate_fallback};

          // The divergence proof: every Body-routed scenario branch-uniform.
          if (!div.report.ok()) {
            for (const analysis::Finding& f : div.report.findings) {
              violations.push_back(where + ": [" +
                                   std::string(to_string(f.kind)) + "] " +
                                   f.detail);
            }
          }
          for (const std::string& fb : scost.fallbacks) {
            fallback_lines.push_back(where + ": " + fb);
          }

          // Region-by-region validation. The key sets must agree — both
          // sides attribute every block of the same grid — and every region
          // the static side claims exact must match counter for counter.
          std::vector<std::string> mismatches;
          for (const auto& [key, rc] : run.stats.per_region) {
            if (scost.per_region.find(key) == scost.per_region.end()) {
              mismatches.push_back(where + ": region " + region_name(key) +
                                   " missing from the static cost");
            }
          }
          obs::Json regions_json = obs::Json::array();
          for (const auto& [key, src] : scost.per_region) {
            ++regions_total;
            const auto it = run.stats.per_region.find(key);
            if (it == run.stats.per_region.end()) {
              mismatches.push_back(where + ": region " + region_name(key) +
                                   " missing from the simulator run");
              continue;
            }
            const sim::RegionCounters& simrc = it->second;
            obs::Json rj = obs::Json::object();
            rj["region"] = region_name(key);
            rj["blocks"] = simrc.blocks;
            rj["exact"] = src.exact;
            rj["static"] = counters_json(src.counters);
            rj["sim"] = counters_json(simrc.warps);
            rj["static_cycles"] = src.cycles;
            rj["sim_cycles"] = simrc.cycles;
            if (src.exact) {
              ++regions_exact;
              const std::string rwhere = where + " " + region_name(key);
              if (src.blocks != simrc.blocks) {
                mismatches.push_back(rwhere + ": blocks static " +
                                     std::to_string(src.blocks) + " != sim " +
                                     std::to_string(simrc.blocks));
              }
              diff_counters(src.counters, simrc.warps, rwhere, mismatches);
              // Cycles derive from the integer counters by the same linear
              // formula on both sides; only fp summation order differs.
              const f64 rel = std::abs(src.cycles - simrc.cycles) /
                              std::max(1.0, std::abs(simrc.cycles));
              if (rel > 1e-6) {
                mismatches.push_back(rwhere + ": cycles static " +
                                     std::to_string(src.cycles) + " != sim " +
                                     std::to_string(simrc.cycles));
              }
            } else {
              combo_bounded = true;
            }
            regions_json.push_back(std::move(rj));
          }
          if (!mismatches.empty()) combo_match = false;
          for (std::string& m : mismatches) violations.push_back(std::move(m));

          combo_static += scost.total;
          combo_sim += run.stats.warps;

          obs::Json sj = obs::Json::object();
          sj["kernel"] = prog->name;
          sj["variant_used"] = std::string(codegen::to_string(run.variant_used));
          sj["degenerate_fallback"] = run.degenerate_fallback;
          sj["exact"] = scost.exact;
          sj["match"] = mismatches.empty();
          sj["divergence_uniform"] = div.report.ok();
          sj["static_total_cycles"] = scost.total_cycles;
          sj["sim_total_cycles"] = run.stats.total_warp_cycles;
          sj["static"] = counters_json(scost.total);
          sj["sim"] = counters_json(run.stats.warps);
          obs::Json fb = obs::Json::array();
          for (const std::string& f : scost.fallbacks) fb.push_back(f);
          sj["fallbacks"] = std::move(fb);
          sj["regions"] = std::move(regions_json);
          stages_json.push_back(std::move(sj));

          chain.push_back(std::move(output));
        }

        table.add_row(
            {app.name, std::string(to_string(pattern)), std::string(vc.name),
             std::to_string(app.stages.size()),
             std::to_string(regions_exact) + "/" + std::to_string(regions_total),
             std::to_string(combo_static.issue_slots) + "/" +
                 std::to_string(combo_sim.issue_slots),
             std::to_string(combo_static.mem_transactions) + "/" +
                 std::to_string(combo_sim.mem_transactions),
             std::to_string(combo_static.mem_transactions_wide),
             std::to_string(combo_static.mem_cache_misses),
             std::to_string(combo_static.divergent_branches),
             !combo_match ? "MISMATCH" : (combo_bounded ? "bounded" : "exact")});

        obs::Json cj = obs::Json::object();
        cj["app"] = app.name;
        cj["pattern"] = std::string(to_string(pattern));
        cj["variant"] = std::string(vc.name);
        cj["match"] = combo_match;
        cj["bounded"] = combo_bounded;
        cj["stages"] = std::move(stages_json);
        combos_json.push_back(std::move(cj));
      }
    }
  }

  // Eq. (10) with static cycles as the workload-reduction input, compared
  // against the analytic model's verdict for the same stage. Disagreements
  // are reported, not failed: the two predictors share only the occupancy
  // term, and the calibration artifact is how their gap is tracked.
  AsciiTable gain_table("Eq. (10): analytic model vs static cycles");
  gain_table.set_header({"app", "pattern", "kernel", "model G", "static G",
                         "model", "static", "agree"});
  obs::Json gain_json = obs::Json::array();
  u64 disagreements = 0;
  for (const filters::MultiKernelApp& app : apps) {
    for (BorderPattern pattern : patterns) {
      for (std::size_t si = 0; si < app.stages.size(); ++si) {
        const std::string base = app.name + "|" +
                                 std::string(to_string(pattern)) + "|" +
                                 std::to_string(si) + "|";
        const auto naive_it = stage_costs.find(base + "naive");
        const auto isp_it = stage_costs.find(base + "isp");
        if (naive_it == stage_costs.end() || isp_it == stage_costs.end()) {
          continue;
        }
        if (isp_it->second.degenerate) continue;  // no ISP kernel ran

        const dsl::PlanDecision plan = dsl::plan_variant(
            dev, app.stages[si].spec, image, block, pattern, false);
        const analysis::StaticGain sg = analysis::static_gain(
            naive_it->second.cost, isp_it->second.cost,
            std::max(1e-6, plan.occ_naive.fraction),
            std::max(1e-6, plan.occ_isp.fraction));
        const bool exact =
            naive_it->second.cost.exact && isp_it->second.cost.exact;
        const bool agree = plan.model.use_isp == sg.use_isp;
        if (!agree) ++disagreements;

        gain_table.add_row(
            {app.name, std::string(to_string(pattern)),
             app.stages[si].spec.name, AsciiTable::num(plan.model.gain, 3),
             AsciiTable::num(sg.gain, 3) + (exact ? "" : "*"),
             plan.model.use_isp ? "isp" : "naive",
             sg.use_isp ? "isp" : "naive", agree ? "yes" : "NO"});
        obs::Json gj = obs::Json::object();
        gj["app"] = app.name;
        gj["pattern"] = std::string(to_string(pattern));
        gj["kernel"] = app.stages[si].spec.name;
        gj["model_gain"] = plan.model.gain;
        gj["model_use_isp"] = plan.model.use_isp;
        gj["static_gain"] = sg.gain;
        gj["static_r"] = sg.r_static;
        gj["static_use_isp"] = sg.use_isp;
        gj["static_exact"] = exact;
        gj["agree"] = agree;
        gain_json.push_back(std::move(gj));
      }
    }
  }

  obs::Json report = obs::Json::object();
  report["size"] = size;
  report["block"] = std::to_string(block.tx) + "x" + std::to_string(block.ty);
  report["device"] = dev.name;
  report["combos"] = std::move(combos_json);
  report["gain"] = std::move(gain_json);
  report["model_static_disagreements"] = disagreements;
  obs::Json fallbacks_json = obs::Json::array();
  for (const std::string& f : fallback_lines) fallbacks_json.push_back(f);
  report["fallbacks"] = std::move(fallbacks_json);
  obs::Json violations_json = obs::Json::array();
  for (const std::string& v : violations) violations_json.push_back(v);
  report["violations"] = std::move(violations_json);
  report["ok_verdict"] = violations.empty();

  const std::string json_arg = cli.get_string("json", "");
  if (json_arg == "true") {
    std::cout << report.dump(2) << "\n";  // bare --json: report to stdout
  } else {
    if (!json_arg.empty()) write_text_file(json_arg, report.dump(2));
    table.print(std::cout);
    if (!fallback_lines.empty()) {
      std::cout << "non-affine fallbacks (counters are lower bounds there):\n";
      std::set<std::string> printed;
      for (const std::string& f : fallback_lines) {
        if (printed.insert(f).second) std::cout << "  " << f << "\n";
      }
    }
    gain_table.print(std::cout);
    if (disagreements != 0) {
      std::cout << disagreements
                << " stage(s) where the static predictor disagrees with the "
                   "analytic model (see the gain table)\n";
    }
    if (!json_arg.empty()) std::cout << "wrote " << json_arg << "\n";
  }

  if (!violations.empty()) {
    constexpr std::size_t kMaxPrinted = 16;
    for (std::size_t i = 0; i < violations.size() && i < kMaxPrinted; ++i) {
      std::cerr << "calibration violation: " << violations[i] << "\n";
    }
    if (violations.size() > kMaxPrinted) {
      std::cerr << "... and " << violations.size() - kMaxPrinted << " more\n";
    }
    std::cerr << "CALIBRATION FAILED: " << violations.size()
              << " violation(s)\n";
    return 1;
  }
  std::cout << "static counters match the simulator on every exact region\n";
  return 0;
}

int run_analyze(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.option("app", "gaussian|laplace|bilateral|sobel|night (default gaussian)")
      .option("pattern", "clamp|mirror|repeat|constant (default clamp)")
      .option("variant", "naive|isp|isp-warp|isp-tiled (default isp)")
      .option("device", "gtx680|rtx2080 (default gtx680; --cost cycle costs)")
      .option("size", "image extent the launch geometry covers (default 512)")
      .option("block", "threadblock TXxTY (default 32x4)")
      .option("cost",
              "counter-validated static cost sweep (all apps x patterns x "
              "variants unless --app/--pattern restrict it)")
      .option("json",
              "--cost calibration artifact: --json to stdout, --json=PATH");
  if (cli.finish()) {
    std::cout << cli.help();
    return 0;
  }
  if (cli.get_flag("cost")) return run_analyze_cost(cli);
  parse_device(cli.get_string("device", "gtx680"));  // strict even when unused
  const filters::MultiKernelApp app =
      app_by_name(cli.get_string("app", "gaussian"));
  const BorderPattern pattern =
      parse_pattern_arg(cli.get_string("pattern", "clamp"));
  const codegen::Variant variant =
      parse_variant(cli.get_string("variant", "isp"), nullptr);

  analysis::LaunchGeometry geom;
  const i32 size = static_cast<i32>(cli.get_int("size", 512));
  geom.image = {size, size};
  geom.block = parse_block(cli.get_string("block", "32x4"));

  AsciiTable table("static analysis: " + app.name + " on " +
                   std::to_string(size) + "x" + std::to_string(size) + ", " +
                   std::string(to_string(pattern)) + ", " +
                   std::string(codegen::to_string(variant)));
  table.set_header({"kernel", "bounds", "proven accesses", "coverage",
                    "scenarios", "Body guards", "divergence", "smem halo",
                    "barriers", "lint"});
  std::vector<std::pair<std::string, analysis::Finding>> findings;
  bool ok = true;
  for (const auto& stage : app.stages) {
    geom.window = stage.spec.window();
    codegen::CodegenOptions opt;
    opt.pattern = pattern;
    opt.variant = variant;
    opt.tile_block = geom.block;  // tiled staging specializes to the block
    const ir::Program prog = codegen::generate_kernel(stage.spec, opt);

    const analysis::CheckReport bounds = analysis::check_bounds(prog, geom);
    const analysis::CheckReport coverage = analysis::check_coverage(prog, geom);
    const analysis::CheckReport lint_report = analysis::lint(prog);
    const analysis::DivergenceResult div =
        analysis::analyze_divergence(prog, geom);
    // Shared-memory proof obligations: trivially proven for smem-free
    // kernels, real work for the tiled variant's staging phase.
    const bool has_smem = prog.smem_words > 0;
    const analysis::CheckReport halo =
        analysis::check_smem_coverage(prog, geom);
    const analysis::CheckReport bars = analysis::check_barriers(prog, geom);
    const u32 guards = variant == codegen::Variant::kNaive
                           ? 0
                           : analysis::count_residual_guards(prog, "Body");
    const bool stage_ok = bounds.ok() && coverage.ok() && lint_report.ok() &&
                          div.report.ok() && halo.ok() && bars.ok() &&
                          guards == 0;
    ok = ok && stage_ok;
    for (const auto* report :
         {&bounds, &coverage, &lint_report, &div.report, &halo, &bars}) {
      for (const analysis::Finding& f : report->findings) {
        findings.emplace_back(prog.name, f);
      }
    }
    table.add_row({prog.name, bounds.ok() ? "proven" : "FAIL",
                   std::to_string(bounds.proven_accesses),
                   coverage.ok() ? "proven" : "FAIL",
                   std::to_string(bounds.scenarios),
                   variant == codegen::Variant::kNaive ? "-"
                                                       : std::to_string(guards),
                   div.report.ok() ? "uniform" : "FAIL",
                   has_smem ? (halo.ok() ? "proven" : "FAIL") : "-",
                   has_smem ? (bars.ok() ? "uniform" : "FAIL") : "-",
                   lint_report.ok() ? "clean" : "FAIL"});
  }
  table.print(std::cout);
  std::set<std::string> printed;  // bounds + coverage can report the same fact
  for (const auto& [kernel, f] : findings) {
    const std::string line = kernel + ": [" + std::string(to_string(f.kind)) +
                             "] " + f.detail;
    if (printed.insert(line).second) std::cout << line << "\n";
  }
  std::cout << (ok ? "all checks proven\n" : "ANALYSIS FAILED\n");
  return ok ? 0 : 1;
}

/// Runs `app` on the interpreted engine, one stage at a time on this
/// thread, through the process-wide kernel cache: the modeled per-stage
/// counters profile and simulate report.
pipeline::ExecutorResult run_simulated(const filters::MultiKernelApp& app,
                                       const Image<f32>& source,
                                       const filters::AppSimConfig& sim) {
  pipeline::ExecutorConfig config;
  config.sim = sim;
  config.concurrency = 1;
  config.backend = exec::Backend::kInterpreted;
  return pipeline::PipelineExecutor(config).run(pipeline::build_graph(app),
                                                source);
}

int run_profile(int argc, char** argv) {
  Cli cli(argc, argv);
  declare_pipeline_options(cli)
      .option("variant", "naive|isp|isp-warp|isp-tiled|isp+m (default isp)")
      .option("json", "report output path (default profile.json)")
      .option("trace", "also write a Chrome trace-event JSON to this path");
  if (cli.finish()) {
    std::cout << cli.help();
    return 0;
  }

  const filters::MultiKernelApp app =
      app_by_name(cli.get_string("app", "gaussian"));
  const filters::AppSimConfig cfg = pipeline_config(cli, "isp");
  const i32 size = static_cast<i32>(cli.get_int("size", 512));
  const Image<f32> source = make_noise_image({size, size}, 4242);

  // Observe the whole pipeline: spans land in the trace session, launch
  // counters in the registry. Both are uninstalled before the report is
  // assembled, so report generation never observes itself.
  obs::MetricsRegistry registry;
  std::vector<obs::TraceEvent> events;
  pipeline::ExecutorResult result;
  {
    obs::MetricsRegistry::ScopedInstall install(registry);
    obs::TraceSession::start();
    // Profiling is pinned to the interpreted engine: per-region counters,
    // occupancy and modeled time only exist there (the native backend
    // reports wall time alone).
    result = run_simulated(app, source, cfg);
    events = obs::TraceSession::stop();
  }

  obs::Json report = obs::Json::object();
  report["app"] = app.name;
  report["pattern"] = std::string(to_string(cfg.pattern));
  report["variant"] = cli.get_string("variant", "isp");
  report["device"] = cfg.device.name;
  report["size"] = size;
  report["block"] = std::to_string(cfg.block.tx) + "x" +
                    std::to_string(cfg.block.ty);
  report["total_time_ms"] = result.total_time_ms;

  // Compile-stage timings: one summary row per span name (pass spans carry
  // the "compile.pass" category, pipeline stages "compile").
  std::vector<obs::TraceEvent> compile_events;
  for (const obs::TraceEvent& ev : events) {
    if (ev.cat.rfind("compile", 0) == 0) compile_events.push_back(ev);
  }
  obs::Json compile = obs::Json::array();
  for (const obs::SpanSummary& s : obs::summarize_spans(compile_events)) {
    obs::Json row = obs::Json::object();
    row["span"] = s.name;
    row["count"] = s.count;
    row["total_us"] = s.total_us;
    row["p50_us"] = s.p50_us;
    row["p99_us"] = s.p99_us;
    compile.push_back(std::move(row));
  }
  report["compile_spans"] = std::move(compile);

  obs::Json stages = obs::Json::array();
  for (const auto& stage : result.stages) {
    obs::Json st = obs::Json::object();
    st["kernel"] = stage.kernel;
    st["variant"] = std::string(codegen::to_string(stage.variant_used));
    st["regs_per_thread"] = stage.regs_per_thread;
    st["smem_bytes_per_block"] = stage.stats.smem_bytes_per_block;
    obs::Json occ = obs::Json::object();
    occ["fraction"] = stage.stats.occupancy.fraction;
    occ["active_blocks_per_sm"] = stage.stats.occupancy.active_blocks_per_sm;
    occ["active_warps_per_sm"] = stage.stats.occupancy.active_warps_per_sm;
    occ["limiter"] = std::string(limiter_name(stage.stats.occupancy.limiter));
    occ["smem_limited"] =
        stage.stats.occupancy.limiter == sim::Occupancy::Limiter::kSharedMem;
    st["occupancy"] = std::move(occ);
    st["time_ms"] = stage.stats.time_ms;
    obs::Json totals = obs::Json::object();
    totals["blocks"] = stage.stats.blocks_total;
    totals["issue_slots"] = stage.stats.warps.issue_slots;
    totals["lane_instructions"] = stage.stats.warps.lane_instructions;
    totals["mem_transactions"] = stage.stats.warps.mem_transactions;
    totals["mem_cache_misses"] = stage.stats.warps.mem_cache_misses;
    totals["divergent_branches"] = stage.stats.warps.divergent_branches;
    totals["smem_transactions"] = stage.stats.warps.smem_transactions;
    totals["smem_bank_conflicts"] = stage.stats.warps.smem_bank_conflicts;
    totals["warp_cycles"] = stage.stats.total_warp_cycles;
    st["totals"] = std::move(totals);

    // All nine canonical regions, zeros where the launch had no such blocks
    // (point-op stages classify everything as Body), so rows always sum to
    // the totals above.
    obs::Json regions = obs::Json::array();
    for (Region r : kAllRegions) {
      const u32 key = static_cast<u32>(region_sides(r));
      const auto it = stage.stats.per_region.find(key);
      static const sim::RegionCounters kEmpty;
      const sim::RegionCounters& rc =
          it != stage.stats.per_region.end() ? it->second : kEmpty;
      obs::Json row = obs::Json::object();
      row["region"] = std::string(to_string(r));
      row["blocks"] = rc.blocks;
      row["issue_slots"] = rc.warps.issue_slots;
      row["lane_instructions"] = rc.warps.lane_instructions;
      row["mem_transactions"] = rc.warps.mem_transactions;
      row["mem_cache_misses"] = rc.warps.mem_cache_misses;
      row["divergent_branches"] = rc.warps.divergent_branches;
      row["smem_transactions"] = rc.warps.smem_transactions;
      row["smem_bank_conflicts"] = rc.warps.smem_bank_conflicts;
      row["warp_cycles"] = rc.cycles;
      regions.push_back(std::move(row));
    }
    st["regions"] = std::move(regions);
    stages.push_back(std::move(st));
  }
  report["stages"] = std::move(stages);
  report["metrics"] = registry.to_json();

  const std::string json_path = cli.get_string("json", "profile.json");
  write_text_file(json_path, report.dump(2));

  const std::string trace_path = cli.get_string("trace", "");
  if (!trace_path.empty()) {
    write_text_file(trace_path, obs::chrome_trace_json(events).dump());
  }

  // Human-readable summary of the same data.
  AsciiTable spans_table("compile spans (" + app.name + ", " +
                         std::to_string(size) + "x" + std::to_string(size) +
                         ")");
  spans_table.set_header({"span", "count", "total ms", "p50 us", "p99 us"});
  for (const obs::SpanSummary& s : obs::summarize_spans(compile_events)) {
    spans_table.add_row({s.name, std::to_string(s.count),
                         AsciiTable::num(s.total_us / 1000.0, 3),
                         AsciiTable::num(s.p50_us, 1),
                         AsciiTable::num(s.p99_us, 1)});
  }
  spans_table.print(std::cout);

  AsciiTable stage_table("per-stage results");
  stage_table.set_header({"stage", "variant", "regs", "smem B/blk",
                          "occupancy", "limiter", "bank conflicts",
                          "time ms"});
  for (const auto& stage : result.stages) {
    stage_table.add_row(
        {stage.kernel, std::string(codegen::to_string(stage.variant_used)),
         std::to_string(stage.regs_per_thread),
         std::to_string(stage.stats.smem_bytes_per_block),
         AsciiTable::num(stage.stats.occupancy.fraction, 2),
         std::string(limiter_name(stage.stats.occupancy.limiter)),
         std::to_string(stage.stats.warps.smem_bank_conflicts),
         AsciiTable::num(stage.stats.time_ms, 4)});
  }
  stage_table.print(std::cout);

  for (const auto& stage : result.stages) {
    AsciiTable region_table("per-region counters: " + stage.kernel);
    region_table.set_header(
        {"region", "blocks", "issue slots", "divergent", "transactions"});
    for (Region r : kAllRegions) {
      const auto it =
          stage.stats.per_region.find(static_cast<u32>(region_sides(r)));
      if (it == stage.stats.per_region.end()) continue;
      region_table.add_row({std::string(to_string(r)),
                            std::to_string(it->second.blocks),
                            std::to_string(it->second.warps.issue_slots),
                            std::to_string(it->second.warps.divergent_branches),
                            std::to_string(it->second.warps.mem_transactions)});
    }
    region_table.print(std::cout);
  }

  std::cout << "wrote " << json_path;
  if (!trace_path.empty()) std::cout << " and " << trace_path;
  std::cout << "\n";
  return 0;
}

int run_serve(int argc, char** argv) {
  Cli cli(argc, argv);
  declare_pipeline_options(cli)
      .option("variant", "naive|isp|isp-warp|isp-tiled|isp+m (default isp)")
      .option("backend", "interp|native execution engine (default native)")
      .option("requests", "requests to submit (default 64)")
      .option("concurrency", "server worker threads (default 4)")
      .option("queue", "bounded queue capacity (default: requests, no drops)")
      .option("deadline-ms", kDeadlineHelp)
      .option("sampled", "timing-only sampled launches (max throughput)")
      .option("devices",
              "comma list of fleet devices; when set, requests go through "
              "the multi-device fleet router")
      .option("shed-tiers", "fleet admission priority tiers (default 3)")
      .option("json", "report as JSON: --json to stdout, --json=PATH to file");
  if (cli.finish()) {
    std::cout << cli.help();
    return 0;
  }

  const filters::MultiKernelApp app =
      app_by_name(cli.get_string("app", "gaussian"));
  filters::AppSimConfig cfg = pipeline_config(cli, "isp");
  cfg.sampled = cli.get_flag("sampled");
  // Serving defaults to the native engine for wall speed; profiling and
  // cost analysis stay interpreted (modeled counters).
  const exec::Backend backend =
      parse_backend_arg(cli.get_string("backend", "native"));
  const i32 size = static_cast<i32>(cli.get_int("size", 256));
  const i32 requests = static_cast<i32>(cli.get_int("requests", 64));
  const i32 concurrency = static_cast<i32>(cli.get_int("concurrency", 4));
  if (requests <= 0) throw IoError("--requests must be positive");
  if (concurrency <= 0) throw IoError("--concurrency must be positive");
  const auto queue_capacity = static_cast<std::size_t>(
      cli.get_int("queue", requests));
  const f64 deadline_ms = cli.get_double("deadline-ms", 0.0);

  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(app));
  const auto source = std::make_shared<const Image<f32>>(
      make_noise_image({size, size}, 4242));

  // A fresh cache per invocation so the reported hit-rate describes this
  // serving run, not whatever the process did before.
  pipeline::KernelCache cache;
  pipeline::ServerConfig shard;
  shard.workers = concurrency;
  shard.queue_capacity = queue_capacity;
  shard.executor.sim = cfg;
  shard.executor.concurrency = 1;  // parallelism across requests
  shard.executor.cache = &cache;
  shard.executor.backend = backend;
  // Without --devices, the one-device fleet a PipelineServer runs; with
  // them, one shard per device behind the admission ladder.
  const std::string devices_arg = cli.get_string("devices", "");
  fleet::FleetConfig fleet_cfg;
  if (devices_arg.empty()) {
    fleet_cfg = pipeline::one_device_fleet(std::move(shard));
  } else {
    fleet_cfg.devices = parse_devices(devices_arg);
    fleet_cfg.shard = std::move(shard);
    fleet_cfg.admission.tiers = parse_shed_tiers(cli);
  }
  const u32 shed_tiers = fleet_cfg.admission.tiers;

  using Clock = std::chrono::steady_clock;
  fleet::FleetStats stats;
  const Clock::time_point t0 = Clock::now();
  {
    fleet::FleetServer server(std::move(fleet_cfg));
    std::vector<fleet::Pending<fleet::FleetResponse>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    for (i32 i = 0; i < requests; ++i) {
      fleet::FleetRequest req;
      req.graph = graph;
      req.source = source;
      req.deadline_ms = deadline_ms;
      req.backend = backend;
      req.tier = static_cast<u32>(i) % shed_tiers;
      futures.push_back(server.submit(std::move(req)));
    }
    for (auto& f : futures) (void)f.get();
    server.shutdown();
    stats = server.stats();
  }
  const f64 wall_ms =
      std::chrono::duration<f64, std::milli>(Clock::now() - t0).count();
  const f64 throughput_rps =
      wall_ms > 0.0 ? static_cast<f64>(stats.completed) / (wall_ms / 1000.0)
                    : 0.0;
  obs::StreamingHistogram latency_all;
  for (const fleet::FleetTierStats& t : stats.tiers) {
    latency_all.merge(t.latency_ms);
  }
  const pipeline::KernelCacheStats cache_stats = cache.stats();
  // The lookups of the engine that served: native modules or IR kernels.
  // A coalesced wait is served without compiling, so it counts as a hit.
  const bool native = backend == exec::Backend::kNative;
  const u64 served_hits =
      native ? cache_stats.native_hits + cache_stats.native_coalesced
             : cache_stats.hits + cache_stats.coalesced;
  const u64 served_misses =
      native ? cache_stats.native_misses : cache_stats.misses;
  const u64 lookups = served_hits + served_misses;
  const f64 hit_rate = lookups == 0 ? 0.0
                                    : static_cast<f64>(served_hits) /
                                          static_cast<f64>(lookups);
  std::string device_names;
  for (const fleet::FleetDeviceStats& d : stats.devices) {
    device_names += (device_names.empty() ? "" : "+") + d.device;
  }

  obs::Json report = obs::Json::object();
  report["app"] = app.name;
  report["pattern"] = std::string(to_string(cfg.pattern));
  report["variant"] = cli.get_string("variant", "isp");
  report["backend"] = std::string(exec::to_string(backend));
  report["device"] = device_names;
  report["size"] = size;
  report["requests"] = static_cast<i64>(requests);
  report["concurrency"] = static_cast<i64>(concurrency);
  report["queue_capacity"] = static_cast<i64>(queue_capacity);
  report["shed_tiers"] = static_cast<i64>(shed_tiers);
  report["sampled"] = cfg.sampled;
  report["wall_ms"] = wall_ms;
  report["throughput_rps"] = throughput_rps;
  obs::Json latency = obs::Json::object();
  latency["p50_ms"] = opt_json(latency_all.percentile(50.0));
  latency["p95_ms"] = opt_json(latency_all.percentile(95.0));
  latency["p99_ms"] = opt_json(latency_all.percentile(99.0));
  latency["mean_ms"] = opt_json(latency_all.mean());
  latency["max_ms"] = opt_json(latency_all.max());
  latency["queue_p50_ms"] = opt_json(stats.queue_latency_ms.percentile(50.0));
  latency["exec_p50_ms"] = opt_json(stats.exec_latency_ms.percentile(50.0));
  report["latency"] = std::move(latency);
  const std::pair<const char*, u64> counts[] = {
      {"completed", stats.completed},
      {"shed", stats.shed},
      {"rejected", stats.rejected},
      {"deadline_expired", stats.deadline_expired},
      {"errors", stats.errors},
      {"failovers", stats.failovers}};
  obs::Json statuses = obs::Json::object();
  for (const auto& [name, count] : counts) statuses[name] = count;
  report["statuses"] = std::move(statuses);
  report["warm_pickups"] = stats.warm_pickups;
  obs::Json cache_json = obs::Json::object();
  cache_json["hits"] = cache_stats.hits;
  cache_json["misses"] = cache_stats.misses;
  cache_json["coalesced"] = cache_stats.coalesced;
  cache_json["evictions"] = cache_stats.evictions;
  cache_json["hit_rate"] = hit_rate;
  cache_json["native_hits"] = cache_stats.native_hits;
  cache_json["native_misses"] = cache_stats.native_misses;
  cache_json["native_coalesced"] = cache_stats.native_coalesced;
  cache_json["native_evictions"] = cache_stats.native_evictions;
  report["cache"] = std::move(cache_json);
  report["devices"] = devices_json(stats.devices);
  obs::Json tiers_json = obs::Json::array();
  for (const fleet::FleetTierStats& t : stats.tiers) {
    obs::Json j = obs::Json::object();
    j["tier"] = static_cast<i64>(t.tier);
    j["submitted"] = t.submitted;
    j["completed"] = t.completed;
    j["shed"] = t.shed;
    j["browned_out"] = t.browned_out;
    j["rejected"] = t.rejected;
    j["deadline_expired"] = t.deadline_expired;
    j["errors"] = t.errors;
    j["p99_ms"] = opt_json(t.latency_ms.percentile(99.0));
    tiers_json.push_back(std::move(j));
  }
  report["admission"] = std::move(tiers_json);

  const std::string json_arg = cli.get_string("json", "");
  if (json_arg == "true") {
    std::cout << report.dump(2) << "\n";  // bare --json: report to stdout
    return 0;
  }
  if (!json_arg.empty()) write_text_file(json_arg, report.dump(2));

  AsciiTable table("serving " + app.name + " (" +
                   std::to_string(app.stages.size()) + " kernel(s)) on " +
                   device_names + ", " + std::to_string(size) + "x" +
                   std::to_string(size));
  table.set_header({"metric", "value"});
  table.add_row({"backend", std::string(exec::to_string(backend))});
  table.add_row({"requests", std::to_string(requests)});
  table.add_row({"workers", std::to_string(concurrency)});
  for (const auto& [name, count] : counts) {
    table.add_row({name, std::to_string(count)});
  }
  table.add_row({"warm pickups", std::to_string(stats.warm_pickups)});
  table.add_row({"wall time ms", AsciiTable::num(wall_ms, 2)});
  table.add_row({"throughput req/s", AsciiTable::num(throughput_rps, 1)});
  for (const int p : {50, 95, 99}) {
    const std::optional<f64> v = latency_all.percentile(p);
    table.add_row({"latency p" + std::to_string(p) + " ms",
                   v ? AsciiTable::num(*v, 3) : std::string("n/a")});
  }
  table.add_row({"cache hits / misses", std::to_string(served_hits) + " / " +
                                            std::to_string(served_misses)});
  table.add_row({"cache hit rate", AsciiTable::num(hit_rate, 3)});
  for (const fleet::FleetDeviceStats& d : stats.devices) {
    table.add_row({"routed -> " + d.device, std::to_string(d.routed)});
  }
  table.print(std::cout);
  if (!json_arg.empty()) std::cout << "wrote " << json_arg << "\n";
  return 0;
}

// ---- loadtest: open-loop Poisson tiers -> BENCH_serve.json ------------------

/// One application in the serving mix (graph + synthetic source).
struct LoadCombo {
  std::string app_name;
  std::shared_ptr<const pipeline::KernelGraph> graph;
  std::shared_ptr<const Image<f32>> source;
};

/// The border pattern is part of the executor's compile config, so one
/// server serves one pattern: the apps x patterns matrix becomes one slice
/// per pattern (the app mix rotates within a slice), run serially per tier
/// with their stats merged — the streaming histograms merge exactly.
struct LoadSlice {
  std::string pattern_name;
  filters::AppSimConfig sim;
  f64 capacity_rps = 0.0;  ///< closed-loop calibration result
};

struct LoadSetup {
  std::vector<LoadCombo> combos;
  std::vector<LoadSlice> slices;
  std::vector<sim::DeviceSpec> devices;
  pipeline::KernelCache* cache = nullptr;
  i32 workers = 4;  ///< per shard
  std::size_t queue_capacity = 128;  ///< per shard
  f64 deadline_ms = 0.0;
  u32 shed_tiers = 3;
  exec::Backend backend = exec::Backend::kNative;
};

fleet::FleetConfig loadtest_fleet_config(const LoadSetup& setup,
                                         const LoadSlice& slice) {
  fleet::FleetConfig cfg;
  cfg.devices = setup.devices;
  cfg.shard.workers = setup.workers;
  cfg.shard.queue_capacity = setup.queue_capacity;
  cfg.shard.executor.sim = slice.sim;  // per-shard device overwritten inside
  cfg.shard.executor.concurrency = 1;  // parallelism across requests
  cfg.shard.executor.cache = setup.cache;
  cfg.shard.executor.backend = setup.backend;
  cfg.admission.tiers = setup.shed_tiers;
  return cfg;
}

fleet::FleetRequest load_request(const LoadSetup& setup, const LoadCombo& c,
                                 u32 tier) {
  fleet::FleetRequest req;
  req.graph = c.graph;
  req.source = c.source;
  req.deadline_ms = setup.deadline_ms;
  req.backend = setup.backend;
  req.tier = tier;
  return req;
}

/// Closed-loop capacity probe for one slice: keep 2x (workers x devices)
/// top-tier requests outstanding for `duration_ms` and measure the fleet's
/// completion rate. The open-loop tiers offer multiples of this rate.
f64 calibrate_capacity_rps(const LoadSetup& setup, const LoadSlice& slice,
                           f64 duration_ms) {
  using Clock = std::chrono::steady_clock;
  fleet::FleetServer server(loadtest_fleet_config(setup, slice));
  const std::size_t outstanding_target =
      static_cast<std::size_t>(setup.workers) * setup.devices.size() * 2;
  std::deque<fleet::Pending<fleet::FleetResponse>> inflight;
  u64 ok = 0;
  std::size_t combo = 0;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<f64, std::milli>(duration_ms));
  while (Clock::now() < end) {
    if (inflight.size() < outstanding_target) {
      const LoadCombo& c = setup.combos[combo++ % setup.combos.size()];
      inflight.push_back(server.submit(load_request(setup, c, 0)));
    } else {
      if (inflight.front().get().status == fleet::FleetStatus::kOk) ++ok;
      inflight.pop_front();
    }
  }
  for (auto& f : inflight) {
    if (f.get().status == fleet::FleetStatus::kOk) ++ok;
  }
  server.shutdown();
  const f64 wall_s = std::chrono::duration<f64>(Clock::now() - t0).count();
  if (ok == 0 || wall_s <= 0.0) {
    throw IoError("loadtest calibration for pattern '" + slice.pattern_name +
                  "' completed no requests");
  }
  return static_cast<f64>(ok) / wall_s;
}

/// Index-wise fleet stats merge: the tier runs all use the same device
/// order and admission tier count, so devices/tiers line up by position.
void merge_fleet_stats(fleet::FleetStats& into,
                       const fleet::FleetStats& from) {
  into.submitted += from.submitted;
  into.completed += from.completed;
  into.shed += from.shed;
  into.rejected += from.rejected;
  into.deadline_expired += from.deadline_expired;
  into.errors += from.errors;
  into.failovers += from.failovers;
  into.warm_pickups += from.warm_pickups;
  if (into.devices.empty()) into.devices.resize(from.devices.size());
  for (std::size_t i = 0; i < from.devices.size(); ++i) {
    fleet::FleetDeviceStats& d = into.devices[i];
    const fleet::FleetDeviceStats& s = from.devices[i];
    d.device = s.device;
    d.routed += s.routed;
    d.completed += s.completed;
    d.errors += s.errors;
    d.rejected += s.rejected;
    d.probes += s.probes;
    d.quarantines += s.quarantines;
  }
  if (into.tiers.empty()) into.tiers.resize(from.tiers.size());
  for (std::size_t i = 0; i < from.tiers.size(); ++i) {
    fleet::FleetTierStats& t = into.tiers[i];
    const fleet::FleetTierStats& s = from.tiers[i];
    t.tier = s.tier;
    t.submitted += s.submitted;
    t.shed += s.shed;
    t.browned_out += s.browned_out;
    t.completed += s.completed;
    t.rejected += s.rejected;
    t.deadline_expired += s.deadline_expired;
    t.errors += s.errors;
    t.latency_ms.merge(s.latency_ms);
  }
}

/// Merged result of one tier (all slices, run serially).
struct TierResult {
  f64 offered_rps = 0.0;  ///< wall-time-weighted mean offered rate
  f64 wall_s = 0.0;       ///< first submit -> fully drained, summed
  fleet::FleetStats stats;

  [[nodiscard]] f64 throughput_rps() const {
    return wall_s > 0.0 ? static_cast<f64>(stats.completed) / wall_s : 0.0;
  }
  [[nodiscard]] f64 rejection_rate() const {
    return stats.submitted > 0
               ? static_cast<f64>(stats.rejected) /
                     static_cast<f64>(stats.submitted)
               : 0.0;
  }
  [[nodiscard]] f64 shed_rate() const {
    return stats.submitted > 0 ? static_cast<f64>(stats.shed) /
                                     static_cast<f64>(stats.submitted)
                               : 0.0;
  }
  [[nodiscard]] obs::StreamingHistogram latency_all() const {
    obs::StreamingHistogram all;
    for (const fleet::FleetTierStats& t : stats.tiers) all.merge(t.latency_ms);
    return all;
  }
};

/// Open-loop tier run: Poisson arrivals (exponential inter-arrival times)
/// at `multiplier` x each slice's calibrated fleet capacity, independent of
/// completion — queue pressure above capacity is real, as at a production
/// ingress. Requests rotate through the app mix AND the admission priority
/// tiers, so overload shows up as tier-ordered shedding rather than
/// indiscriminate rejection. Slices run serially on fresh fleets over the
/// shared warm cache. `flight_recorder` (optional) receives per-device SLO
/// snapshots (200 ms exporter) and "watchdog_cut" frames.
TierResult run_tier(const LoadSetup& setup, f64 multiplier, f64 duration_ms,
                    u64 seed, obs::FlightRecorder* flight_recorder) {
  using Clock = std::chrono::steady_clock;
  TierResult result;
  f64 offered_weighted = 0.0;
  for (std::size_t s = 0; s < setup.slices.size(); ++s) {
    const LoadSlice& slice = setup.slices[s];
    const f64 offered_rps = slice.capacity_rps * multiplier;
    fleet::FleetConfig cfg = loadtest_fleet_config(setup, slice);
    cfg.shard.flight_recorder = flight_recorder;
    fleet::FleetServer server(cfg);

    std::unique_ptr<obs::SloExporter> exporter;
    if (flight_recorder != nullptr) {
      exporter = std::make_unique<obs::SloExporter>(
          *flight_recorder,
          [&server] {
            obs::Json all = obs::Json::object();
            for (const auto& [device, slo] : server.device_slo()) {
              all[device] = slo.to_json();
            }
            return all;
          },
          /*interval_ms=*/200);
    }

    Rng rng(seed + s);
    std::size_t combo = 0;
    u32 tier_rr = 0;
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<f64, std::milli>(duration_ms));
    std::chrono::duration<f64> next{0.0};
    for (;;) {
      next += std::chrono::duration<f64>(rng.exponential(offered_rps));
      const Clock::time_point at =
          t0 + std::chrono::duration_cast<Clock::duration>(next);
      if (at >= end) break;
      std::this_thread::sleep_until(at);
      const LoadCombo& c = setup.combos[combo++ % setup.combos.size()];
      // Open loop: the handle is dropped — the fleet settles every promise
      // and its stats count every outcome; the generator never blocks.
      (void)server.submit(
          load_request(setup, c, tier_rr++ % setup.shed_tiers));
    }
    server.shutdown();  // drains every shard; every request settles
    const f64 wall_s = std::chrono::duration<f64>(Clock::now() - t0).count();
    if (exporter != nullptr) exporter->stop();  // final window sample
    merge_fleet_stats(result.stats, server.stats());
    result.wall_s += wall_s;
    offered_weighted += offered_rps * wall_s;
  }
  result.offered_rps =
      result.wall_s > 0.0 ? offered_weighted / result.wall_s : 0.0;
  return result;
}

obs::Json tier_json(std::string_view name, f64 multiplier, f64 duration_ms,
                    const TierResult& tier) {
  obs::Json t = obs::Json::object();
  t["tier"] = std::string(name);
  t["multiplier"] = multiplier;
  t["offered_rps"] = tier.offered_rps;
  t["duration_ms"] = duration_ms;
  t["wall_s"] = tier.wall_s;
  t["submitted"] = tier.stats.submitted;
  t["completed"] = tier.stats.completed;
  t["shed"] = tier.stats.shed;
  t["rejected"] = tier.stats.rejected;
  t["deadline_expired"] = tier.stats.deadline_expired;
  t["errors"] = tier.stats.errors;
  t["failovers"] = tier.stats.failovers;
  t["warm_pickups"] = tier.stats.warm_pickups;
  t["throughput_rps"] = tier.throughput_rps();
  t["rejection_rate"] = tier.rejection_rate();
  t["shed_rate"] = tier.shed_rate();
  const obs::StreamingHistogram all = tier.latency_all();
  obs::Json latency = obs::Json::object();
  latency["p50_ms"] = opt_json(all.percentile(50.0));
  latency["p90_ms"] = opt_json(all.percentile(90.0));
  latency["p99_ms"] = opt_json(all.percentile(99.0));
  latency["mean_ms"] = opt_json(all.mean());
  latency["max_ms"] = opt_json(all.max());
  t["latency"] = std::move(latency);
  // Per-admission-priority-tier breakdown: the schema gate (bench_diff)
  // requires this section — it is how shedding order and the admitted
  // top-tier p99 get asserted in CI.
  obs::Json admission = obs::Json::array();
  for (const fleet::FleetTierStats& a : tier.stats.tiers) {
    obs::Json j = obs::Json::object();
    j["tier"] = static_cast<i64>(a.tier);
    j["submitted"] = a.submitted;
    j["shed"] = a.shed;
    j["browned_out"] = a.browned_out;
    j["completed"] = a.completed;
    j["rejected"] = a.rejected;
    j["deadline_expired"] = a.deadline_expired;
    j["errors"] = a.errors;
    obs::Json lat = obs::Json::object();
    lat["p50_ms"] = opt_json(a.latency_ms.percentile(50.0));
    lat["p99_ms"] = opt_json(a.latency_ms.percentile(99.0));
    j["latency"] = std::move(lat);
    admission.push_back(std::move(j));
  }
  t["admission"] = std::move(admission);
  return t;
}

/// Aggregate critical-path view over every traced request: where the wall
/// time went, and whether every span linked into its request's tree.
obs::Json critical_path_json(const std::vector<obs::TraceEvent>& events) {
  obs::Json out = obs::Json::object();
  const std::vector<obs::RequestBreakdown> breakdowns =
      obs::request_breakdowns(events);
  u64 complete = 0;
  u64 unreachable_spans = 0;
  f64 total = 0.0;
  f64 queue = 0.0;
  f64 compile = 0.0;
  f64 sim = 0.0;
  f64 retry = 0.0;
  f64 other = 0.0;
  for (const obs::RequestBreakdown& b : breakdowns) {
    if (b.has_root && b.unreachable == 0) ++complete;
    unreachable_spans += static_cast<u64>(b.unreachable);
    total += b.total_us;
    queue += b.queue_us;
    compile += b.compile_us;
    sim += b.sim_us;
    retry += b.retry_backoff_us;
    other += b.other_us;
  }
  out["requests_traced"] = static_cast<i64>(breakdowns.size());
  out["requests_complete_trees"] = complete;
  out["unreachable_spans"] = unreachable_spans;
  if (total > 0.0) {
    out["queue_fraction"] = queue / total;
    out["compile_fraction"] = compile / total;
    out["sim_fraction"] = sim / total;
    out["retry_backoff_fraction"] = retry / total;
    out["other_fraction"] = other / total;
  }
  return out;
}

int run_loadtest(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.option("apps", "comma list of apps to mix (default gaussian,sobel)")
      .option("patterns", "comma list of border patterns (default clamp,mirror)")
      .option("devices",
              "comma list of fleet devices (default gtx680,rtx2080)")
      .option("shed-tiers", "fleet admission priority tiers (default 3)")
      .option("size", "synthetic image extent (default 128)")
      .option("block", "threadblock TXxTY (default 32x4)")
      .option("workers", "worker threads per device shard (default 4)")
      .option("queue", "queue capacity per device shard (default 128)")
      .option("duration-ms", "submission window per tier slice (default 1500)")
      .option("tiers", "capacity multipliers (default 0.5,0.9,1.5)")
      .option("deadline-ms", "per-request deadline, 0 = none")
      .option("backend", "interp|native execution engine (default native)")
      .option("seed", "arrival-process seed (default 7)")
      .option("full", "full (non-sampled) launches; slower, exact outputs")
      .option("quick", "CI smoke mode: ~300 ms slices at size 64")
      .option("json", "artifact path (default BENCH_serve.json)");
  if (cli.finish()) {
    std::cout << cli.help();
    return 0;
  }

  const bool quick = cli.get_flag("quick");
  const i32 size = static_cast<i32>(cli.get_int("size", quick ? 64 : 128));
  const f64 duration_ms = cli.get_double("duration-ms", quick ? 300.0 : 1500.0);
  const i32 workers = static_cast<i32>(cli.get_int("workers", 4));
  if (workers <= 0) throw IoError("--workers must be positive");
  if (duration_ms <= 0.0) throw IoError("--duration-ms must be positive");

  std::vector<f64> multipliers;
  {
    std::string spec = cli.get_string("tiers", "0.5,0.9,1.5");
    std::replace(spec.begin(), spec.end(), ',', ' ');
    std::istringstream in(spec);
    f64 m = 0.0;
    while (in >> m) {
      if (m <= 0.0) throw IoError("--tiers multipliers must be positive");
      multipliers.push_back(m);
    }
  }
  if (multipliers.empty()) throw IoError("--tiers parsed to no multipliers");

  const auto split_csv = [](std::string spec) {
    std::vector<std::string> out;
    std::replace(spec.begin(), spec.end(), ',', ' ');
    std::istringstream in(spec);
    std::string word;
    while (in >> word) out.push_back(word);
    return out;
  };

  LoadSetup setup;
  setup.workers = workers;
  setup.queue_capacity = static_cast<std::size_t>(cli.get_int("queue", 128));
  setup.deadline_ms = cli.get_double("deadline-ms", 0.0);
  setup.backend = parse_backend_arg(cli.get_string("backend", "native"));
  setup.devices = parse_devices(cli.get_string("devices", "gtx680,rtx2080"));
  setup.shed_tiers = parse_shed_tiers(cli);

  filters::AppSimConfig base_sim;
  base_sim.sampled = !cli.get_flag("full");
  base_sim.block = parse_block(cli.get_string("block", "32x4"));

  const std::vector<std::string> app_names =
      split_csv(cli.get_string("apps", "gaussian,sobel"));
  const std::vector<std::string> pattern_names =
      split_csv(cli.get_string("patterns", "clamp,mirror"));
  if (app_names.empty() || pattern_names.empty()) {
    throw IoError("--apps / --patterns must name at least one entry each");
  }
  for (const std::string& app_name : app_names) {
    const filters::MultiKernelApp app = app_by_name(app_name);
    LoadCombo combo;
    combo.app_name = app_name;
    combo.graph = std::make_shared<const pipeline::KernelGraph>(
        pipeline::build_graph(app));
    combo.source = std::make_shared<const Image<f32>>(
        make_noise_image({size, size}, 4242));
    setup.combos.push_back(std::move(combo));
  }
  for (const std::string& pattern_name : pattern_names) {
    LoadSlice slice;
    slice.pattern_name = pattern_name;
    slice.sim = base_sim;
    slice.sim.pattern = parse_pattern_arg(pattern_name);
    setup.slices.push_back(std::move(slice));
  }

  const u64 seed = static_cast<u64>(cli.get_int("seed", 7));
  pipeline::KernelCache cache;
  setup.cache = &cache;
  const std::string json_path = cli.get_string("json", "BENCH_serve.json");

  // Warm the shared cache: one pass over every app x pattern x device
  // pairing (pinned placements so every shard compiles its own device-keyed
  // modules) so tier runs measure steady-state serving, not first-touch
  // compilation. The kNaive pass pre-compiles the brownout artifacts —
  // otherwise the first browned-out request under overload pays a JIT
  // compile inside the measurement window.
  for (const LoadSlice& slice : setup.slices) {
    fleet::FleetServer warm(loadtest_fleet_config(setup, slice));
    std::vector<fleet::Pending<fleet::FleetResponse>> futures;
    for (const LoadCombo& c : setup.combos) {
      for (const sim::DeviceSpec& dev : setup.devices) {
        for (const std::optional<codegen::Variant> variant :
             {std::optional<codegen::Variant>{},
              std::optional<codegen::Variant>{codegen::Variant::kNaive}}) {
          fleet::FleetRequest req = load_request(setup, c, 0);
          req.deadline_ms = 0.0;
          req.pin_device = dev.name;
          req.variant = variant;
          futures.push_back(warm.submit(std::move(req)));
        }
      }
    }
    for (auto& f : futures) {
      const fleet::FleetResponse r = f.get();
      if (r.status != fleet::FleetStatus::kOk) {
        throw IoError("loadtest warmup (" + slice.pattern_name +
                      ") failed: " + r.error);
      }
    }
    warm.shutdown();
  }

  std::cout << "calibrating closed-loop fleet capacity ("
            << setup.combos.size() << " apps x " << setup.slices.size()
            << " patterns, " << setup.devices.size() << " device(s) x "
            << workers << " workers)...\n";
  const f64 calib_ms = std::max(duration_ms * 0.5, 200.0);
  f64 capacity_sum = 0.0;
  for (LoadSlice& slice : setup.slices) {
    slice.capacity_rps = calibrate_capacity_rps(setup, slice, calib_ms);
    std::cout << "  " << slice.pattern_name << ": "
              << AsciiTable::num(slice.capacity_rps, 1) << " req/s\n";
    capacity_sum += slice.capacity_rps;
  }
  const f64 capacity_rps =
      capacity_sum / static_cast<f64>(setup.slices.size());

  const auto tier_name = [](f64 m) {
    if (m < 0.75) return std::string("below");
    if (m <= 1.1) return std::string("near");
    return std::string("above");
  };

  obs::Json tiers = obs::Json::array();
  AsciiTable table("loadtest tiers (fleet capacity " +
                   AsciiTable::num(capacity_rps, 1) + " req/s over " +
                   std::to_string(setup.devices.size()) + " device(s))");
  table.set_header({"tier", "offered rps", "throughput rps", "p50 ms",
                    "p99 ms", "shed %", "rejected %"});
  f64 top_multiplier = 0.0;
  for (f64 m : multipliers) top_multiplier = std::max(top_multiplier, m);
  fleet::FleetStats fleet_total;  ///< all measured tiers (placement story)
  for (std::size_t i = 0; i < multipliers.size(); ++i) {
    const f64 m = multipliers[i];
    const TierResult tier =
        run_tier(setup, m, duration_ms, seed + i * 100, nullptr);
    tiers.push_back(tier_json(tier_name(m), m, duration_ms, tier));
    merge_fleet_stats(fleet_total, tier.stats);
    const obs::StreamingHistogram all = tier.latency_all();
    const auto p = [&](f64 pct) {
      const std::optional<f64> v = all.percentile(pct);
      return v ? AsciiTable::num(*v, 3) : std::string("n/a");
    };
    table.add_row({tier_name(m) + " x" + AsciiTable::num(m, 2),
                   AsciiTable::num(tier.offered_rps, 1),
                   AsciiTable::num(tier.throughput_rps(), 1), p(50.0), p(99.0),
                   AsciiTable::num(tier.shed_rate() * 100.0, 1),
                   AsciiTable::num(tier.rejection_rate() * 100.0, 1)});
  }

  // Observability overhead: run the top tier obs-off and obs-on (metrics
  // registry, trace session with request-scoped spans, SLO exporter into a
  // flight recorder) back to back with the same arrival seed, so machine
  // drift over the sweep cancels and only the telemetry cost differs.
  const TierResult obs_off =
      run_tier(setup, top_multiplier, duration_ms, seed + 1000, nullptr);
  obs::FlightRecorder flight(256);
  obs::MetricsRegistry registry;
  obs::TraceSession::start();
  TierResult obs_on;
  {
    obs::MetricsRegistry::ScopedInstall install(registry);
    obs_on = run_tier(setup, top_multiplier, duration_ms, seed + 1000, &flight);
  }
  const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();
  const f64 off_rps = obs_off.throughput_rps();
  const f64 on_rps = obs_on.throughput_rps();
  const f64 overhead_pct =
      off_rps > 0.0 ? (off_rps - on_rps) / off_rps * 100.0 : 0.0;

  obs::Json report = obs::Json::object();
  report["bench"] = "loadtest";
  // v2: fleet serving — per-device placement stats and per-admission-tier
  // shed/brownout breakdowns joined the schema (bench_diff gates on it).
  // v3: each load tier counts its warm pickups (requests a spinning worker
  // took without a wake-up), which explain its queue wait.
  report["schema_version"] = static_cast<i64>(3);
  obs::Json config = obs::Json::object();
  config["apps"] = [&] {
    obs::Json a = obs::Json::array();
    for (const auto& n : app_names) a.push_back(obs::Json(n));
    return a;
  }();
  config["patterns"] = [&] {
    obs::Json a = obs::Json::array();
    for (const auto& n : pattern_names) a.push_back(obs::Json(n));
    return a;
  }();
  config["size"] = size;
  config["workers"] = static_cast<i64>(workers);
  config["queue_capacity"] = static_cast<i64>(setup.queue_capacity);
  config["duration_ms"] = duration_ms;
  config["deadline_ms"] = setup.deadline_ms;
  config["seed"] = seed;
  config["sampled"] = base_sim.sampled;
  config["devices"] = [&] {
    obs::Json a = obs::Json::array();
    for (const sim::DeviceSpec& d : setup.devices) {
      a.push_back(obs::Json(d.name));
    }
    return a;
  }();
  config["shed_tiers"] = static_cast<i64>(setup.shed_tiers);
  config["backend"] = std::string(exec::to_string(setup.backend));
  report["config"] = std::move(config);
  report["capacity_rps"] = capacity_rps;
  report["tiers"] = std::move(tiers);
  // Placement over every measured tier.
  report["devices"] = devices_json(fleet_total.devices);
  obs::Json overhead = obs::Json::object();
  overhead["obs_off_rps"] = off_rps;
  overhead["obs_on_rps"] = on_rps;
  overhead["overhead_pct"] = overhead_pct;
  report["obs_overhead"] = std::move(overhead);
  report["critical_path"] = critical_path_json(events);
  report["slo_timeline"] = flight.to_json();
  // Peak resident set of the whole run (ru_maxrss is in KiB on Linux).
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report["peak_rss_mb"] = static_cast<f64>(usage.ru_maxrss) / 1024.0;

  write_text_file(json_path, report.dump(2));

  table.print(std::cout);
  std::cout << "obs overhead at x" << AsciiTable::num(top_multiplier, 2)
            << ": " << AsciiTable::num(off_rps, 1) << " -> "
            << AsciiTable::num(on_rps, 1) << " req/s ("
            << AsciiTable::num(overhead_pct, 2) << "%)\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

/// Extracts the fault-point name from an InjectedFault message ("injected
/// fault at '<point>' ..."), or "" when the error is not an injected one.
std::string injected_point(const std::string& error) {
  static constexpr std::string_view kMarker = "injected fault at '";
  const auto at = error.find(kMarker);
  if (at == std::string::npos) return {};
  const auto start = at + kMarker.size();
  const auto end = error.find('\'', start);
  if (end == std::string::npos) return {};
  return error.substr(start, end - start);
}

/// `chaos`: seeded fault schedules against the 5-app x 4-pattern matrix on
/// one fleet — the one-device fleet a PipelineServer runs, or with
/// --devices one shard per device. The device count picks the faults and
/// the resilience layer under test:
///   - one device: FaultPlan::chaos over compile/cache/executor/server/
///     launcher points, absorbed by shard breakers (naive fallback),
///     executor retries and cache healing;
///   - two or more: FaultPlan::device_chaos kills, flaps or stalls all but
///     one seed-chosen device; shard breakers stay off so a device fault
///     surfaces as a device error and exercises failover and quarantine.
/// Invariants, in both cases:
///   - every future settles (60 s cap -> hard exit, likely deadlock);
///   - every kOk answer is bit-identical to the CPU reference — retried,
///     fallback, failed-over and browned-out (kNaive) responses included;
///   - errors only ever trace back to injected fault points;
///   - every schedule completes at least one request;
///   - flapped devices re-converge: once their faults clear, a half-open
///     probe must restore routing to them.
int run_chaos(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.option("schedules", "seeded fault schedules to run (default 64)")
      .option("seed", "base seed; schedule s uses seed + s (default 1)")
      .option("requests", "requests per app x pattern combination (default 2)")
      .option("size", "synthetic image extent, >= 64 (default 64)")
      .option("variant",
              "naive|isp|isp-warp|isp-tiled|isp+m kernel variant under chaos "
              "(default: executor default)")
      .option("deadline-ms", kDeadlineHelp)
      .option("force-fail",
              "fault point to fail unrecoverably: compile.lower|cache.insert|"
              "executor.stage|server.exec|launcher.launch")
      .option("devices",
              "comma-separated fleet (gtx680|rtx2080), >= 2 entries; switches "
              "to device-level fleet chaos")
      .option("device-fault",
              "fleet fault mode: kill|flap|stall|mix (default mix)")
      .option("shed-tiers", "admission tiers for fleet chaos (default 3)")
      .option("json", "report as JSON: --json to stdout, --json=PATH to file");
  if (cli.finish()) {
    std::cout << cli.help();
    return 0;
  }

  const i32 schedules = static_cast<i32>(cli.get_int("schedules", 64));
  const u64 seed_base = static_cast<u64>(cli.get_int("seed", 1));
  const i32 requests = static_cast<i32>(cli.get_int("requests", 2));
  const i32 size = static_cast<i32>(cli.get_int("size", 64));
  const f64 deadline_ms = cli.get_double("deadline-ms", 0.0);
  const std::string force_fail = cli.get_string("force-fail", "");
  const std::string variant_arg = cli.get_string("variant", "");
  bool chaos_use_model = false;
  codegen::Variant chaos_variant = codegen::Variant::kIsp;
  if (!variant_arg.empty()) {
    chaos_variant = parse_variant(variant_arg, &chaos_use_model);
  }
  if (schedules <= 0) throw IoError("--schedules must be positive");
  if (requests <= 0) throw IoError("--requests must be positive");
  // Below the 32x4 block footprint the launcher's degenerate-partition
  // fallback forces naive everywhere and the ISP paths go untested.
  if (size < 64) throw IoError("--size must be >= 64");

  const std::string devices_arg = cli.get_string("devices", "");
  const std::string mode = cli.get_string("device-fault", "mix");
  if (mode != "kill" && mode != "flap" && mode != "stall" && mode != "mix") {
    throw IoError("unknown --device-fault '" + mode +
                  "' (kill|flap|stall|mix)");
  }
  const std::vector<sim::DeviceSpec> devices =
      devices_arg.empty() ? std::vector{filters::AppSimConfig{}.device}
                          : parse_devices(devices_arg);
  // Device-level chaos always spares one device, so on one device it would
  // afflict nothing.
  const bool device_level = devices.size() > 1;
  if (!device_level && (!devices_arg.empty() || cli.has("device-fault"))) {
    throw IoError("device-level chaos (--devices/--device-fault) needs "
                  "--devices with >= 2 entries (one always survives)");
  }
  const u32 shed_tiers = device_level ? parse_shed_tiers(cli) : 1;
  std::vector<std::string> device_names;
  obs::Json devices_report = obs::Json::array();
  std::string device_list;  // "GTX680+RTX2080"
  for (const sim::DeviceSpec& d : devices) {
    device_names.push_back(d.name);
    devices_report.push_back(d.name);
    device_list += (device_list.empty() ? "" : "+") + d.name;
  }

  // The matrix: all five evaluation apps under all four border patterns,
  // with per-combo CPU references computed fault-free up front.
  const std::vector<filters::MultiKernelApp> apps = filters::all_apps();
  const f32 border_constant = 32.5f;
  const Image<f32> source_img = make_noise_image({size, size}, 4242);
  const auto source = std::make_shared<const Image<f32>>(source_img);

  struct Combo {
    const filters::MultiKernelApp* app;
    BorderPattern pattern;
    std::shared_ptr<const pipeline::KernelGraph> graph;
    Image<f32> reference;
  };
  std::vector<Combo> combos;
  for (const filters::MultiKernelApp& app : apps) {
    const auto graph = std::make_shared<const pipeline::KernelGraph>(
        pipeline::build_graph(app));
    for (BorderPattern pattern : kAllBorderPatterns) {
      combos.push_back({&app, pattern, graph,
                        filters::run_app_reference(app, source_img, pattern,
                                                   border_constant)});
    }
  }

  u64 total_requests = 0;
  u64 ok = 0, errors = 0, expired = 0, rejected = 0, shed = 0;
  u64 browned = 0, failovers = 0, quarantines = 0, recoveries = 0;
  u64 fallbacks = 0, retries = 0, watchdog_expired = 0;
  std::map<std::string, u64> fires_by_point;
  std::map<std::string, u64> error_points;  ///< injected points seen in kError
  std::vector<std::string> violations;

  for (i32 s = 0; s < schedules; ++s) {
    const u64 seed = seed_base + static_cast<u64>(s);
    resilience::FaultPlan plan =
        device_level
            ? resilience::FaultPlan::device_chaos(seed, device_names, mode)
            : resilience::FaultPlan::chaos(seed);
    if (!force_fail.empty()) {
      // Unlimited, probability-1 throw: no retry budget, breaker fallback
      // or failover can absorb it, so the schedule must end with zero
      // successes.
      resilience::FaultRule rule;
      rule.point = force_fail;
      rule.kind = resilience::FaultKind::kThrow;
      plan.rules.push_back(rule);
    }
    resilience::VirtualClock vclock;  // delays, backoff and cooldowns: free
    resilience::FaultInjector injector(plan, &vclock);
    resilience::FaultInjector::ScopedInstall install(injector);

    u64 schedule_ok = 0;
    for (const Combo& combo : combos) {
      // Fresh cache per combo so corrupt/poison state never leaks between
      // schedules and every combo exercises the fill path.
      pipeline::KernelCache cache;
      pipeline::ServerConfig shard;
      shard.workers = 2;
      shard.queue_capacity = static_cast<std::size_t>(std::max(requests, 4));
      shard.executor.sim.pattern = combo.pattern;
      shard.executor.sim.constant = border_constant;
      if (!variant_arg.empty()) {
        shard.executor.sim.variant = chaos_variant;
        shard.executor.sim.use_model = chaos_use_model;
      }
      shard.executor.cache = &cache;
      shard.clock = &vclock;
      fleet::FleetConfig fleet_cfg;
      if (device_level) {
        // The fleet is the resilience layer under test: shard breakers stay
        // off so an injected device fault surfaces as a device error and
        // exercises failover, not the kernel fallback.
        shard.breakers_enabled = false;
        fleet_cfg.devices = devices;
        fleet_cfg.shard = std::move(shard);
        fleet_cfg.device_breaker.failure_threshold = 2;
        fleet_cfg.device_breaker.open_cooldown_ms = 50;
        fleet_cfg.admission.tiers = shed_tiers;
      } else {
        resilience::RetryPolicy retry;
        retry.max_attempts = 3;
        retry.seed = seed;
        cache.set_retry(retry, &vclock);
        shard.executor.retry = retry;
        shard.breaker.open_cooldown_ms = 50;
        fleet_cfg = pipeline::one_device_fleet(std::move(shard));
      }

      fleet::FleetServer server(std::move(fleet_cfg));
      std::vector<fleet::Pending<fleet::FleetResponse>> futures;
      futures.reserve(static_cast<std::size_t>(requests));
      for (i32 i = 0; i < requests; ++i) {
        fleet::FleetRequest req;
        req.graph = combo.graph;
        req.source = source;
        req.deadline_ms = deadline_ms;
        req.tier = static_cast<u32>(i) % shed_tiers;
        futures.push_back(server.submit(std::move(req)));
      }

      for (auto& f : futures) {
        ++total_requests;
        // Invariant: every future settles. Simulated launches take
        // milliseconds; a future still pending after 60s is a deadlock.
        if (f.wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
          std::cerr << "chaos violation: request did not settle within 60s "
                    << "(seed " << seed << ", " << combo.app->name << "/"
                    << to_string(combo.pattern) << ") — likely deadlock\n";
          std::_Exit(1);  // unwinding would block on the hung fleet
        }
        const fleet::FleetResponse resp = f.get();
        switch (resp.status) {
          case fleet::FleetStatus::kOk: {
            ++ok;
            ++schedule_ok;
            if (resp.serve.served_by_fallback) ++fallbacks;
            if (resp.browned_out) ++browned;
            if (resp.dispatches > 1) ++failovers;
            const CompareResult diff =
                compare(resp.serve.output, combo.reference);
            if (diff.max_abs != 0.0) {
              violations.push_back(
                  "seed " + std::to_string(seed) + ": " + combo.app->name +
                  "/" + std::string(to_string(combo.pattern)) + " kOk on " +
                  resp.device + " diverges from reference (max abs " +
                  std::to_string(diff.max_abs) + ")");
            }
            break;
          }
          case fleet::FleetStatus::kError: {
            ++errors;
            const std::string point = injected_point(resp.error);
            if (point.empty()) {
              violations.push_back("seed " + std::to_string(seed) +
                                   ": non-injected error: " + resp.error);
            } else {
              ++error_points[point];
            }
            break;
          }
          case fleet::FleetStatus::kDeadlineExpired:
            ++expired;
            break;
          case fleet::FleetStatus::kShed:
            ++shed;
            break;
          case fleet::FleetStatus::kRejected:
            ++rejected;
            break;
        }
      }

      // Re-convergence: a flapped device (its launch faults clear after
      // max_fires) whose breaker tripped must come back once its faults are
      // exhausted — advance past the cooldown and let the pinned request
      // ride in as the half-open probe. Bounded attempts: the flap burns at
      // most a few fires.
      for (const resilience::FaultRule& rule : plan.rules) {
        if (rule.point != "device.launch" || rule.max_fires == 0 ||
            rule.kind != resilience::FaultKind::kThrow) {
          continue;
        }
        const std::string& device = rule.match;
        const auto health = server.device_health();
        if (std::none_of(health.begin(), health.end(), [&](const auto& b) {
              return b.kernel.find(device) != std::string::npos && b.trips > 0;
            })) {
          continue;  // flap absorbed without a quarantine
        }
        bool healed = false;
        for (int attempt = 0; attempt < 10 && !healed; ++attempt) {
          vclock.advance(60);
          fleet::FleetRequest probe;
          probe.graph = combo.graph;
          probe.source = source;
          probe.pin_device = device;
          auto future = server.submit(std::move(probe));
          if (future.wait_for(std::chrono::seconds(60)) !=
              std::future_status::ready) {
            std::cerr << "chaos violation: recovery probe did not settle "
                      << "(seed " << seed << ", device " << device << ")\n";
            std::_Exit(1);
          }
          healed = future.get().status == fleet::FleetStatus::kOk;
        }
        if (healed) {
          ++recoveries;
        } else {
          violations.push_back("seed " + std::to_string(seed) + ": flapped " +
                               device +
                               " never restored by half-open probes");
        }
      }

      // Summed over shards: the counters shard_health(i) reports.
      server.shutdown();
      for (const fleet::FleetDeviceStats& d : server.stats().devices) {
        quarantines += d.quarantines;
        retries += d.retries;
        watchdog_expired += d.watchdog_expired;
      }
    }

    for (const resilience::FaultPointCounters& c : injector.counters()) {
      fires_by_point[c.point] += c.thrown + c.delayed + c.corrupted;
    }

    // Invariant: the stack absorbs the schedule — retries, fallbacks, cache
    // healing or the surviving device keep at least one request succeeding.
    // Otherwise name the fault point behind most errors so far.
    if (schedule_ok == 0) {
      const auto worst = std::max_element(
          error_points.begin(), error_points.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      violations.push_back(
          "seed " + std::to_string(seed) +
          ": no request succeeded — unrecoverable fault" +
          (worst == error_points.end()
               ? std::string()
               : " at fault point '" + worst->first + "'"));
    }
  }

  obs::Json report = obs::Json::object();
  report["mode"] = device_level ? "fleet" : "single";
  if (device_level) report["device_fault"] = mode;
  report["devices"] = std::move(devices_report);
  report["schedules"] = static_cast<i64>(schedules);
  report["seed_base"] = static_cast<i64>(seed_base);
  report["apps"] = static_cast<i64>(apps.size());
  report["patterns"] = static_cast<i64>(kAllBorderPatterns.size());
  report["requests_per_combo"] = static_cast<i64>(requests);
  report["shed_tiers"] = static_cast<i64>(shed_tiers);
  report["size"] = size;
  report["deadline_ms"] = deadline_ms;
  if (!force_fail.empty()) report["force_fail"] = force_fail;
  if (!variant_arg.empty()) report["variant"] = variant_arg;
  // errors are injected ones: any other error is a violation.
  const std::pair<const char*, u64> counts[] = {
      {"requests", total_requests}, {"ok", ok},
      {"errors", errors},           {"deadline_expired", expired},
      {"shed", shed},               {"rejected", rejected},
      {"browned_out", browned},     {"failovers", failovers},
      {"quarantines", quarantines}, {"probe_recoveries", recoveries},
      {"fallbacks_served", fallbacks}, {"retries", retries},
      {"watchdog_expired", watchdog_expired}};
  obs::Json totals = obs::Json::object();
  for (const auto& [name, count] : counts) totals[name] = count;
  report["totals"] = std::move(totals);
  obs::Json fires = obs::Json::object();
  for (const auto& [point, count] : fires_by_point) fires[point] = count;
  report["fault_fires"] = std::move(fires);
  obs::Json violations_json = obs::Json::array();
  for (const std::string& v : violations) violations_json.push_back(v);
  report["violations"] = std::move(violations_json);
  report["ok_verdict"] = violations.empty();

  const std::string json_arg = cli.get_string("json", "");
  if (json_arg == "true") {
    std::cout << report.dump(2) << "\n";  // bare --json: report to stdout
  } else {
    if (!json_arg.empty()) write_text_file(json_arg, report.dump(2));
    AsciiTable table("chaos: " + std::to_string(schedules) + " schedule(s) x " +
                     std::to_string(combos.size()) + " app/pattern combos x " +
                     std::to_string(requests) + " request(s) on " +
                     device_list + (device_level ? " (" + mode + ")" : ""));
    table.set_header({"metric", "value"});
    for (const auto& [name, count] : counts) {
      table.add_row({name, std::to_string(count)});
    }
    for (const auto& [point, count] : fires_by_point) {
      table.add_row({"fires: " + point, std::to_string(count)});
    }
    table.print(std::cout);
    if (!json_arg.empty()) std::cout << "wrote " << json_arg << "\n";
  }

  if (violations.empty()) {
    std::cout << "chaos invariants hold across " << schedules
              << " schedule(s)\n";
    return 0;
  }
  constexpr std::size_t kMaxPrinted = 8;
  for (std::size_t i = 0; i < violations.size() && i < kMaxPrinted; ++i) {
    std::cerr << "chaos violation: " << violations[i] << "\n";
  }
  if (violations.size() > kMaxPrinted) {
    std::cerr << "... and " << violations.size() - kMaxPrinted << " more\n";
  }
  std::cerr << "chaos FAILED: " << violations.size() << " violation(s)\n";
  return 1;
}

int run_simulate(int argc, char** argv) {
  Cli cli(argc, argv);
  declare_pipeline_options(cli)
      .option("variant", "naive|isp|isp-warp|isp-tiled|isp+m (default isp+m)")
      .option("in", "input PGM (default: synthetic noise)")
      .option("out", "output PGM path (default result.pgm)")
      .option("reference", "also run the CPU reference and compare");
  if (cli.finish()) {
    std::cout << cli.help() << subcommand_overview();
    return 0;
  }
  if (!cli.positional().empty()) {
    throw IoError("unknown subcommand '" + cli.positional()[0] + "'\n" +
                  subcommand_overview());
  }

  const filters::MultiKernelApp app =
      app_by_name(cli.get_string("app", "gaussian"));
  const filters::AppSimConfig cfg = pipeline_config(cli, "isp+m");

  const std::string in_path = cli.get_string("in", "");
  const Image<f32> source =
      in_path.empty()
          ? make_noise_image({static_cast<i32>(cli.get_int("size", 512)),
                              static_cast<i32>(cli.get_int("size", 512))},
                             4242)
          : read_pgm(in_path);

  std::cout << "running " << app.name << " (" << app.stages.size()
            << " kernel(s)) on " << cfg.device.name << ", " << source.size()
            << ", " << to_string(cfg.pattern) << ", variant "
            << cli.get_string("variant", "isp+m") << "\n\n";

  const pipeline::ExecutorResult result = run_simulated(app, source, cfg);

  AsciiTable table("per-stage results");
  table.set_header({"stage", "variant", "time ms", "occupancy",
                    "warp instructions", "divergent branches"});
  for (const auto& stage : result.stages) {
    table.add_row({stage.kernel,
                   std::string(codegen::to_string(stage.variant_used)),
                   AsciiTable::num(stage.stats.time_ms, 4),
                   AsciiTable::num(stage.stats.occupancy.fraction, 2),
                   std::to_string(stage.stats.warps.issue_slots),
                   std::to_string(stage.stats.warps.divergent_branches)});
  }
  table.print(std::cout);
  std::cout << "total modeled time: " << result.total_time_ms << " ms\n";

  if (cli.get_flag("reference")) {
    const Image<f32> expect =
        filters::run_app_reference(app, source, cfg.pattern, cfg.constant);
    const CompareResult diff = compare(result.output, expect);
    std::cout << "simulator vs CPU reference: max abs diff = " << diff.max_abs
              << (diff.max_abs == 0.0 ? " (bit-exact)" : "") << "\n";
  }

  const std::string out_path = cli.get_string("out", "result.pgm");
  write_pgm(result.output, out_path);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && argv[1][0] != '-') {
      const std::string sub = argv[1];
      if (sub == "help") {
        std::cout << "ispb_run — front end to the ISP border-handling stack\n\n"
                  << subcommand_overview();
        return 0;
      }
      for (const Subcommand& s : kSubcommands) {
        if (sub == s.name) return s.fn(argc - 1, argv + 1);
      }
      throw IoError("unknown subcommand '" + sub + "'\n" +
                    subcommand_overview());
    }
    return run_simulate(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
