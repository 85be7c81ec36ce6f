// Benchmark binary entry point. Run through perfbench/run.py, which builds
// this binary, passes the frozen workload settings and assembles the JSON
// result line; see perfbench/README.md for the workloads and metrics.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace ispb::perfbench {

void Report::metric(const std::string& name, f64 value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::mismatch(const std::string& cell) {
  mismatches_.push_back(cell);
  ++failed;
  std::cout << "mismatch " << cell << "\n";
}

void Report::print() const {
  for (const Metric& m : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    std::cout << "metric " << m.name << " " << value << " " << m.unit << "\n";
  }
  std::cout << "attempted " << attempted << "\n"
            << "failed " << failed << "\n"
            << "correct " << (correct() ? 1 : 0) << "\n";
  std::cout.flush();
}

i64 first_mismatch(const Image<f32>& a, const Image<f32>& b) {
  if (a.size() != b.size()) return 0;
  for (i32 y = 0; y < a.height(); ++y) {
    for (i32 x = 0; x < a.width(); ++x) {
      if (std::bit_cast<u32>(a(x, y)) != std::bit_cast<u32>(b(x, y))) {
        return static_cast<i64>(y) * a.width() + x;
      }
    }
  }
  return -1;
}

bool check_output(Report& report, const Options& opt, const std::string& cell,
                  Image<f32>& out, const Image<f32>& ref) {
  static bool flipped = false;
  if (opt.flip_pixel && !flipped && out.width() > 0 && out.height() > 0) {
    flipped = true;
    const i32 x = out.width() / 2;
    const i32 y = out.height() / 2;
    out(x, y) = std::bit_cast<f32>(std::bit_cast<u32>(out(x, y)) ^ 1u);
  }
  const i64 at = first_mismatch(out, ref);
  if (at < 0) return true;
  report.mismatch(cell + " pixel " + std::to_string(at));
  return false;
}

f64 percentile(std::vector<f64> v, f64 p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<f64>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

f64 geomean(const std::vector<f64>& v) {
  if (v.empty()) return 0.0;
  f64 log_sum = 0.0;
  for (f64 x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<f64>(v.size()));
}

namespace {

int usage() {
  std::cerr << "usage: ispb_perfbench "
               "--workload=<frame_2k|serve_128> --seed=N --seconds=S "
               "--trace=0|1 --work-dir=DIR --limit-ms=MS --floor-ms=MS "
               "[--flip-pixel]\n";
  return 2;
}

/// Parses "--key=value" arguments; returns false on anything unknown.
bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--flip-pixel") {
      opt.flip_pixel = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (!arg.starts_with("--") || eq == std::string_view::npos) return false;
    const std::string key(arg.substr(2, eq - 2));
    const std::string value(arg.substr(eq + 1));
    if (key == "workload") {
      opt.workload = value;
    } else if (key == "seed") {
      opt.seed = std::stoull(value);
    } else if (key == "seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "trace") {
      opt.trace = value == "1";
    } else if (key == "work-dir") {
      opt.work_dir = value;
    } else if (key == "limit-ms") {
      opt.limit_ms = std::stod(value);
    } else if (key == "floor-ms") {
      opt.floor_ms = std::stod(value);
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && !opt.work_dir.empty() && opt.seconds > 0.0 &&
         opt.limit_ms > 0.0 && opt.floor_ms > 0.0;
}

}  // namespace
}  // namespace ispb::perfbench

int main(int argc, char** argv) {
  using namespace ispb::perfbench;
  Options opt;
  try {
    if (!parse(argc, argv, opt)) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  try {
    std::cout << "host " << host_block_json() << "\n";
    if (opt.workload != "frame_2k" && opt.workload != "serve_128") {
      return usage();
    }
    Report report;
    run_native_workload(opt, report);
    report.metric("process.peak_rss_mb", peak_rss_mib(), "MiB");
    report.print();
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
