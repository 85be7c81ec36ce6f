// Shared pieces of the benchmark binary: run options, the metric report,
// exact-bit output checks and small order statistics.
//
// The binary prints one line per metric ("metric <name> <value> <unit>")
// plus the operation accounting; perfbench/run.py turns those lines into
// the single JSON result line. Informational lines start with "# ".
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "image/image.hpp"

namespace ispb::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline f64 ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<f64, std::milli>(b - a).count();
}
[[nodiscard]] inline f64 seconds_since(Clock::time_point t) {
  return std::chrono::duration<f64>(Clock::now() - t).count();
}

/// One run's settings. perfbench/run.py passes the values frozen in
/// perfbench/config.json; nothing here is calibrated at run time.
struct Options {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  /// Scratch root inside the checkout for per-set-up JIT artifact dirs.
  std::string work_dir;
  f64 limit_ms = 0.0;     ///< latency limit behind slo_attainment
  /// The parallel streaming floor of the probe host, ms, to which
  /// latency_ms is scaled.
  f64 floor_ms = 0.0;
  /// Self-test hook: corrupt one pixel of the first checked output, so the
  /// correctness gate must trip.
  bool flip_pixel = false;
};

/// Metrics and operation accounting of one run.
class Report {
 public:
  void metric(const std::string& name, f64 value, const std::string& unit);
  /// Records a failed bit-identity check for `cell` (counted in `failed`).
  void mismatch(const std::string& cell);
  void print() const;

  u64 attempted = 0;
  /// kError settles plus bit mismatches: operations that went wrong.
  u64 failed = 0;
  [[nodiscard]] bool correct() const { return mismatches_.empty(); }

 private:
  struct Metric {
    std::string name;
    f64 value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> mismatches_;
};

/// Exact bit equality (std::bit_cast<u32>), 0.0f vs -0.0f and NaN payloads
/// included. Returns the first differing pixel as y * width + x, or -1.
[[nodiscard]] i64 first_mismatch(const Image<f32>& a, const Image<f32>& b);

/// Compares `out` to `ref`; a difference records a mismatch for `cell`.
/// Honors Options::flip_pixel once per process.
bool check_output(Report& report, const Options& opt, const std::string& cell,
                  Image<f32>& out, const Image<f32>& ref);

/// Order statistics over samples (nearest rank). Empty input gives 0.
[[nodiscard]] f64 percentile(std::vector<f64> v, f64 p);
[[nodiscard]] inline f64 median(std::vector<f64> v) {
  return percentile(std::move(v), 50.0);
}
[[nodiscard]] f64 geomean(const std::vector<f64>& v);

/// The host block printed with every result (compiler, JIT compiler, nproc,
/// measured effective parallelism, CPU model, caches, build type).
[[nodiscard]] std::string host_block_json();
/// ru_maxrss of this process, MiB.
[[nodiscard]] f64 peak_rss_mib();
/// User plus system CPU time of this process, all threads, seconds.
[[nodiscard]] f64 process_cpu_s();

/// Resident set after handing freed heap pages back to the kernel
/// (malloc_trim), MiB: the memory the process still holds, which a leak or
/// a new cache raises while a transient backlog does not.
[[nodiscard]] f64 retained_rss_mib();

/// Workloads. Each fills the report with every end-to-end metric (and,
/// with Options::trace, every per-layer metric).
void run_native_workload(const Options& opt, Report& report);

}  // namespace ispb::perfbench
