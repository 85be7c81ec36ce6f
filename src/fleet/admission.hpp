// Tiered admission control for the fleet server.
//
// Requests carry a priority tier (0 = highest). As fleet occupancy rises,
// the controller walks the degradation ladder instead of failing cliff-style:
//
//   occupancy < shed(tier)      admit at full quality
//   occupancy >= shed(tier)     shed (tier > 0 only; lowest tier first)
//   occupancy >= brownout_start brown out surviving tiers: serve kNaive —
//                               bit-identical pixels, cheaper plan — which
//                               frees compile and occupancy headroom
//   occupancy >= reject_start   reject everything not already shed
//
// Shed thresholds are spaced evenly between shed_start (the lowest tier)
// and reject_start (just above tier 1), so load peels tiers off one by one
// from the bottom. Tier 0 never sheds: it degrades via brownout and is
// rejected only at reject_start or when the fleet's one queue is full.
//
// The controller is stateless — a pure function of (tier, occupancy) — so
// the fleet server can consult it lock-free on the submit path and tests
// can table-drive the ladder.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace ispb::fleet {

struct AdmissionConfig {
  /// Priority tiers; requests clamp to [0, tiers). 0 = highest priority.
  u32 tiers = 3;
  /// Occupancy where the lowest tier starts shedding.
  f64 shed_start = 0.50;
  /// Occupancy where admitted tiers are served kNaive (browned out).
  f64 brownout_start = 0.75;
  /// Occupancy where every tier is rejected outright.
  f64 reject_start = 0.95;
};

enum class AdmissionDecision : u8 { kAdmit, kBrownout, kShed, kReject };
[[nodiscard]] std::string_view to_string(AdmissionDecision d);

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  /// The ladder decision for a request of `tier` at fleet `occupancy`
  /// (0 = idle, 1 = every queue slot and worker busy).
  [[nodiscard]] AdmissionDecision decide(u32 tier, f64 occupancy) const;

  /// Occupancy at which `tier` starts shedding; +infinity for tier 0.
  [[nodiscard]] f64 shed_threshold(u32 tier) const;

  [[nodiscard]] const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
};

}  // namespace ispb::fleet
