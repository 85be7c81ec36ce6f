// Row bands vs image size: how many row bands a native stage should run as.
//
// For gaussian, fused sobel and fused night (the stages the native engine
// runs, KernelGraph::fused()), ISP, at square sizes from 64² to 2048², times
// one call of every fused stage of the app through exec::run_native_module
// with each band rule, and night's four fused stages once more as one
// chain through exec::run_native_chain ("night chain": band by band, with
// band-local intermediates, as the native executor runs them):
//   - inline: one band, a single call of the module on the calling thread;
//   - 16 bands: the former fixed rule, min(rows, 4 x pool workers);
//   - rule: exec::row_bands, the production floor kRowBandFloorPx;
//   - floor=N: exec::row_bands with a candidate per-band pixel floor N.
// The rules are interleaved: every rep times each rule once, in a seeded
// random order, so a host that drifts slows all of them alike and no rule
// always follows the long inline call (whose idle pool workers the next
// banded call must wake).
// Reports the median wall µs per app call per rule; JSON rows also carry
// each rule's interquartile range over its median and its median minor page
// faults (getrusage ru_minflt, whole process) per steady-state call, and the
// table's spread column is the largest of a row's IQR/median. Before
// timing, every rule's output is checked bit for bit against
// filters::run_app_reference; exits 1 on a mismatch.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "exec/backend.hpp"
#include "exec/jit.hpp"
#include "harness.hpp"
#include "image/generators.hpp"
#include "pipeline/kernel_graph.hpp"

namespace ispb::bench {
namespace {

using Clock = std::chrono::steady_clock;

std::vector<i64> parse_list(const std::string& text) {
  std::vector<i64> values;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');) {
    values.push_back(std::stoll(item));
  }
  return values;
}

/// Value at quantile q of `sorted` (nearest rank).
f64 quantile(const std::vector<f64>& sorted, f64 q) {
  const f64 rank = q * static_cast<f64>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

bool bit_identical(const Image<f32>& a, const Image<f32>& b) {
  if (a.size() != b.size()) return false;
  for (i32 y = 0; y < a.height(); ++y) {
    for (i32 x = 0; x < a.width(); ++x) {
      if (std::bit_cast<u32>(a(x, y)) != std::bit_cast<u32>(b(x, y))) {
        return false;
      }
    }
  }
  return true;
}

/// Minor page faults of the whole process so far.
i64 minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// One timed row: an app's fused stages, stage by stage or as one chain.
struct Subject {
  std::string label;
  filters::MultiKernelApp app;
  bool chained = false;
};

struct Rule {
  std::string name;
  i64 floor_px = 0;  ///< 0: a fixed band count, below
  i64 fixed_bands = 0;
};

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.option("sizes",
             "square extents (default 64,128,192,256,320,384,512,768,1024,"
             "2048)");
  cli.option("floors",
             "candidate per-band pixel floors (default 16384,32768,65536)");
  cli.option("reps", "interleaved reps per size (default 41, quick 7)");
  cli.option("quick", "64,256,1024 and few reps (smoke)");
  cli.option("json", "JSON rows: --json to stdout, --json=PATH to file");
  if (cli.finish()) {
    std::cout << cli.help();
    return 0;
  }
  const bool quick = cli.get_flag("quick");
  const std::vector<i64> sizes = parse_list(cli.get_string(
      "sizes",
      quick ? "64,256,1024" : "64,128,192,256,320,384,512,768,1024,2048"));
  const std::vector<i64> floors =
      parse_list(cli.get_string("floors", "16384,32768,65536"));
  const i64 reps = cli.get_int("reps", quick ? 7 : 41);
  const std::string json_arg = cli.get_string("json", "");
  const i64 workers = static_cast<i64>(ThreadPool::global().size());
  constexpr BorderPattern kPattern = BorderPattern::kMirror;

  // Indices 1 and 2 (the former rule and the production one) are compared
  // in the last column.
  std::vector<Rule> rules{
      {"inline", 0, 1},
      {"16 bands", 0, 4 * workers},
      {"rule (floor=" + std::to_string(exec::kRowBandFloorPx) + ")",
       exec::kRowBandFloorPx, 0}};
  for (i64 f : floors) {
    if (f != exec::kRowBandFloorPx) {
      rules.push_back({"floor=" + std::to_string(f), f, 0});
    }
  }

  std::vector<std::string> header{"app", "size"};
  for (const Rule& r : rules) header.push_back(r.name + " us");
  header.insert(header.end(),
                {"spread", "rule bands", "rule / 16 bands", "rule minflt"});
  AsciiTable table("native µs per app call, mirror, isp, " +
                   std::to_string(workers) + " pool workers, " +
                   std::to_string(reps) + " interleaved reps");
  table.set_header(header);
  BenchJson json("micro_bands");
  bool gate_ok = true;

  codegen::CodegenOptions options;
  options.pattern = kPattern;
  options.variant = codegen::Variant::kIsp;
  for (const Subject& subject :
       {Subject{"gaussian", filters::make_gaussian_app()},
        Subject{"sobel", filters::make_sobel_app()},
        Subject{"night", filters::make_night_app()},
        Subject{"night chain", filters::make_night_app(), true}}) {
    const filters::MultiKernelApp& app = subject.app;
    const pipeline::KernelGraph graph = pipeline::build_graph(app).fused();
    std::vector<exec::NativeModulePtr> modules;
    std::vector<const exec::NativeModule*> chain;
    for (const auto& stage : graph.stages) {
      modules.push_back(exec::jit_compile(stage.spec, options));
      chain.push_back(modules.back().get());
    }
    for (i64 extent : sizes) {
      const Size2 size{static_cast<i32>(extent), static_cast<i32>(extent)};
      std::vector<Image<f32>> images;
      images.push_back(make_noise_image(size, 4242));
      for (std::size_t i = 0; i < graph.stages.size(); ++i) {
        images.emplace_back(size, Uninitialized{});
      }
      std::vector<std::vector<const Image<f32>*>> inputs(graph.stages.size());
      for (std::size_t i = 0; i < graph.stages.size(); ++i) {
        for (i32 id : graph.stages[i].input_images) {
          inputs[i].push_back(&images[static_cast<std::size_t>(id)]);
        }
      }
      const auto call = [&](i64 bands) {
        if (subject.chained) {
          (void)exec::run_native_chain(chain, inputs[0], images.back(), bands);
          return;
        }
        for (std::size_t i = 0; i < graph.stages.size(); ++i) {
          (void)exec::run_native_module(*modules[i], inputs[i],
                                        images[i + 1], bands);
        }
      };
      const auto bands_of = [&](const Rule& r) {
        return r.floor_px > 0 ? exec::row_bands(size, workers, r.floor_px)
                              : std::min<i64>(size.y, r.fixed_bands);
      };

      const Image<f32> reference =
          filters::run_app_reference(app, images.front(), kPattern);
      for (const Rule& r : rules) {
        call(bands_of(r));
        if (!bit_identical(images.back(), reference)) {
          std::cerr << "mismatch: " << subject.label << " " << extent << " "
                    << r.name << "\n";
          gate_ok = false;
        }
      }

      std::vector<std::vector<f64>> us(rules.size());
      std::vector<std::vector<f64>> faults(rules.size());
      std::vector<std::size_t> order(rules.size());
      for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
      Rng rng(static_cast<u64>(extent));
      for (i64 rep = 0; rep < reps; ++rep) {
        for (std::size_t k = order.size(); k > 1; --k) {
          std::swap(order[k - 1], order[rng.next_u64() % k]);
        }
        for (std::size_t r : order) {
          const i64 bands = bands_of(rules[r]);
          const i64 faults0 = minor_faults();
          const Clock::time_point t0 = Clock::now();
          call(bands);
          const std::chrono::duration<f64, std::micro> took =
              Clock::now() - t0;
          us[r].push_back(took.count());
          faults[r].push_back(static_cast<f64>(minor_faults() - faults0));
        }
      }

      std::vector<std::string> row{subject.label, std::to_string(extent)};
      std::vector<f64> medians;
      std::vector<f64> fault_medians;
      f64 spread = 0.0;
      for (std::size_t r = 0; r < rules.size(); ++r) {
        std::sort(us[r].begin(), us[r].end());
        const f64 med = quantile(us[r], 0.5);
        const f64 iqr = quantile(us[r], 0.75) - quantile(us[r], 0.25);
        std::sort(faults[r].begin(), faults[r].end());
        medians.push_back(med);
        fault_medians.push_back(quantile(faults[r], 0.5));
        spread = std::max(spread, iqr / med);
        row.push_back(AsciiTable::num(med, 1));
        BenchJson::Row j;
        j.app = subject.label;
        j.pattern = std::string(to_string(kPattern));
        j.variant = "isp";
        j.backend = "native";
        j.size = static_cast<i32>(extent);
        j.metric = "us_per_call." + rules[r].name;
        j.value = med;
        json.add(j);
        j.metric = "iqr_over_median." + rules[r].name;
        j.value = iqr / med;
        json.add(j);
        j.metric = "minflt_per_call." + rules[r].name;
        j.value = fault_medians.back();
        json.add(j);
      }
      row.push_back(AsciiTable::num(spread, 2));
      row.push_back(std::to_string(exec::row_bands(size, workers)));
      row.push_back(AsciiTable::num(medians[2] / medians[1], 2));
      row.push_back(AsciiTable::num(fault_medians[2], 0));
      table.add_row(row);
    }
  }

  if (json_arg == "true") {
    std::cout << json.to_json().dump(1) << "\n";
  } else {
    if (!json_arg.empty()) json.write(json_arg);
    table.print(std::cout);
    if (!json_arg.empty()) std::cout << "wrote " << json_arg << "\n";
  }
  if (!gate_ok) {
    std::cerr << "bit-identity gate FAILED\n";
    return 1;
  }
  std::cerr << "bit-identity gate passed\n";
  return 0;
}

}  // namespace
}  // namespace ispb::bench

int main(int argc, char** argv) { return ispb::bench::run(argc, argv); }
