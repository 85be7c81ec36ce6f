// bench_diff: schema validation and regression gating for BENCH_serve.json.
//
// Two modes:
//   bench_diff <report.json>             validate the loadtest schema only
//   bench_diff <old.json> <new.json>     validate both, then fail if any
//                                        tier's throughput in `new` fell more
//                                        than --threshold percent (default 10)
//                                        below the same tier in `old`
//
// Exit status: 0 = valid (and, in diff mode, no regression); 1 = malformed
// report or regression. CI runs the one-arg form as a hard gate on the smoke
// artifact and the two-arg form as an advisory step against the committed
// BENCH_serve.json — advisory because CI machines and the machine that wrote
// the committed baseline differ in absolute speed.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace ispb::tools {
namespace {

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One tier's gated numbers, pulled out of the report.
struct TierSummary {
  std::string name;
  f64 multiplier = 0.0;
  f64 throughput_rps = 0.0;
};

const obs::Json& require(const obs::Json& obj, std::string_view key,
                         std::string_view where) {
  const obs::Json* v = obj.find(key);
  if (v == nullptr) {
    throw IoError("missing key '" + std::string(key) + "' in " +
                  std::string(where));
  }
  return *v;
}

f64 require_number(const obs::Json& obj, std::string_view key,
                   std::string_view where) {
  const obs::Json& v = require(obj, key, where);
  if (v.kind() != obs::Json::Kind::kNumber) {
    throw IoError("key '" + std::string(key) + "' in " + std::string(where) +
                  " is not a number");
  }
  return v.as_number();
}

/// Parses and validates one loadtest report; throws IoError with a
/// pinpointed message on any schema violation.
std::vector<TierSummary> validate(const std::string& path) {
  const obs::Json report = obs::Json::parse(read_text_file(path));
  if (!report.is_object()) throw IoError(path + ": top level is not an object");
  const obs::Json& bench = require(report, "bench", "top level");
  if (bench.as_string() != "loadtest") {
    throw IoError(path + ": bench != \"loadtest\"");
  }
  // Schema v2 (fleet serving): config names the device mix and tier count,
  // every load tier carries a per-priority-tier admission breakdown (shed /
  // browned-out / completed counts with latency percentiles), and a
  // top-level `devices` array records where the router placed the work.
  // v3 adds each load tier's warm_pickups: requests a spinning worker took
  // without a wake-up, so the tier's queue wait can be read from the file.
  if (require_number(report, "schema_version", "top level") != 3.0) {
    throw IoError(path + ": unsupported schema_version (expected 3)");
  }
  const obs::Json& config = require(report, "config", "top level");
  const obs::Json& config_devices = require(config, "devices", "config");
  if (!config_devices.is_array() || config_devices.size() == 0) {
    throw IoError(path + ": config.devices is not a non-empty array");
  }
  require_number(config, "shed_tiers", "config");
  require_number(report, "capacity_rps", "top level");
  require(report, "obs_overhead", "top level");
  require(report, "critical_path", "top level");
  // Optional: the run's peak RSS in MiB (older reports lack it).
  if (report.find("peak_rss_mb") != nullptr) {
    require_number(report, "peak_rss_mb", "top level");
  }

  const obs::Json& devices = require(report, "devices", "top level");
  if (!devices.is_array() || devices.size() != config_devices.size()) {
    throw IoError(path + ": 'devices' is not an array matching config.devices");
  }
  for (const obs::Json& d : devices.items()) {
    if (!d.is_object()) throw IoError(path + ": device entry is not an object");
    require(d, "device", "device entry");
    for (const char* key :
         {"routed", "completed", "errors", "rejected", "probes",
          "quarantines"}) {
      require_number(d, key, "device entry");
    }
  }

  const obs::Json& tiers = require(report, "tiers", "top level");
  if (!tiers.is_array() || tiers.size() == 0) {
    throw IoError(path + ": 'tiers' is not a non-empty array");
  }
  std::vector<TierSummary> out;
  for (const obs::Json& t : tiers.items()) {
    if (!t.is_object()) throw IoError(path + ": tier entry is not an object");
    TierSummary s;
    s.name = require(t, "tier", "tier entry").as_string();
    s.multiplier = require_number(t, "multiplier", "tier entry");
    s.throughput_rps = require_number(t, "throughput_rps", "tier entry");
    require_number(t, "rejection_rate", "tier entry");
    require_number(t, "shed_rate", "tier entry");
    require_number(t, "failovers", "tier entry");
    require_number(t, "warm_pickups", "tier entry");
    const obs::Json& latency = require(t, "latency", "tier entry");
    for (const char* key : {"p50_ms", "p99_ms"}) {
      const obs::Json& v = require(latency, key, "tier latency");
      if (!v.is_null() && v.kind() != obs::Json::Kind::kNumber) {
        throw IoError(path + ": latency." + key + " is neither null nor number");
      }
    }
    const obs::Json& admission = require(t, "admission", "tier entry");
    if (!admission.is_array() || admission.size() == 0) {
      throw IoError(path + ": tier 'admission' is not a non-empty array");
    }
    for (const obs::Json& a : admission.items()) {
      if (!a.is_object()) {
        throw IoError(path + ": admission entry is not an object");
      }
      for (const char* key :
           {"tier", "submitted", "shed", "browned_out", "completed",
            "rejected", "deadline_expired", "errors"}) {
        require_number(a, key, "admission entry");
      }
      require(a, "latency", "admission entry");
    }
    out.push_back(std::move(s));
  }
  return out;
}

int run(int argc, char** argv) {
  std::vector<std::string> paths;
  f64 threshold_pct = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      threshold_pct = std::stod(arg.substr(12));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_diff [--threshold=PCT] <report.json> "
                   "[<new.json>]\n"
                   "  one path: schema-validate a loadtest report\n"
                   "  two paths: also fail if any tier's throughput regressed "
                   "more than PCT% (default 10)\n";
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty() || paths.size() > 2) {
    std::cerr << "bench_diff: expected one or two report paths (see --help)\n";
    return 1;
  }

  const std::vector<TierSummary> baseline = validate(paths[0]);
  std::cout << paths[0] << ": schema ok (" << baseline.size() << " tiers)\n";
  if (paths.size() == 1) return 0;

  const std::vector<TierSummary> current = validate(paths[1]);
  std::cout << paths[1] << ": schema ok (" << current.size() << " tiers)\n";

  bool regressed = false;
  for (const TierSummary& old_tier : baseline) {
    // Match by tier name; a renamed/removed tier is a schema drift worth
    // flagging loudly rather than silently skipping.
    const TierSummary* new_tier = nullptr;
    for (const TierSummary& c : current) {
      if (c.name == old_tier.name) {
        new_tier = &c;
        break;
      }
    }
    if (new_tier == nullptr) {
      std::cerr << "bench_diff: tier '" << old_tier.name << "' present in "
                << paths[0] << " but missing from " << paths[1] << "\n";
      regressed = true;
      continue;
    }
    const f64 floor = old_tier.throughput_rps * (1.0 - threshold_pct / 100.0);
    const f64 delta_pct =
        old_tier.throughput_rps > 0.0
            ? (new_tier->throughput_rps - old_tier.throughput_rps) /
                  old_tier.throughput_rps * 100.0
            : 0.0;
    std::cout << "  " << old_tier.name << ": " << old_tier.throughput_rps
              << " -> " << new_tier->throughput_rps << " req/s ("
              << (delta_pct >= 0 ? "+" : "") << delta_pct << "%)\n";
    if (new_tier->throughput_rps < floor) {
      std::cerr << "bench_diff: tier '" << old_tier.name
                << "' regressed beyond " << threshold_pct << "% threshold\n";
      regressed = true;
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace
}  // namespace ispb::tools

int main(int argc, char** argv) {
  try {
    return ispb::tools::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_diff: " << e.what() << "\n";
    return 1;
  }
}
