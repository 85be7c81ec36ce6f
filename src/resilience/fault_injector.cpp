#include "resilience/fault_injector.hpp"

#include <algorithm>

#include "common/stop.hpp"
#include "obs/metrics.hpp"

namespace ispb::resilience {

std::atomic<FaultInjector*> FaultInjector::g_installed{nullptr};

namespace {

/// SplitMix64 finalizer: a high-quality 64 -> 64 bit mix. Feeding it the
/// (seed, rule, occurrence) triple gives every occurrence an independent,
/// reproducible coin flip with no cross-thread RNG state.
u64 mix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void publish_fire(std::string_view point, FaultKind kind) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
  if (reg == nullptr) return;
  reg->add("resilience.fault.fired", 1.0,
           {{"point", std::string(point)},
            {"kind", std::string(to_string(kind))}});
}

}  // namespace

std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kThrow:
      return "throw";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kCorrupt:
      return "corrupt";
  }
  return "?";
}

FaultPlan FaultPlan::chaos(u64 seed) {
  FaultPlan plan;
  plan.seed = seed;
  static constexpr std::string_view kPoints[] = {
      "compile.lower", "cache.insert", "executor.stage", "server.exec",
      "launcher.launch"};
  std::size_t i = 0;
  for (std::string_view point : kPoints) {
    // Seed-derived per-point probabilities in [0.02, 0.12]: enough pressure
    // to exercise every recovery path over a schedule without drowning the
    // run in errors.
    const f64 p_throw =
        0.02 + 0.10 * (static_cast<f64>(mix64(seed * 31 + i) >> 11) * 0x1.0p-53);
    const f64 p_delay =
        0.02 +
        0.10 * (static_cast<f64>(mix64(seed * 31 + i + 100) >> 11) * 0x1.0p-53);
    plan.rules.push_back(
        {std::string(point), FaultKind::kThrow, "", p_throw, 0, 0});
    plan.rules.push_back(
        {std::string(point), FaultKind::kDelay, "", p_delay, 0,
         1 + (mix64(seed * 31 + i + 200) % 3)});  // 1-3 ms
    ++i;
  }
  plan.rules.push_back(
      {"cache.insert", FaultKind::kCorrupt, "", 0.25, 0, 0});
  // backend.compile rules ride at the end so the per-rule random streams of
  // the points above are unchanged for a given seed (tests compare
  // injectors sharing one plan across schedules).
  {
    const f64 p_throw =
        0.02 +
        0.10 * (static_cast<f64>(mix64(seed * 31 + i) >> 11) * 0x1.0p-53);
    const f64 p_delay =
        0.02 +
        0.10 * (static_cast<f64>(mix64(seed * 31 + i + 100) >> 11) * 0x1.0p-53);
    plan.rules.push_back(
        {"backend.compile", FaultKind::kThrow, "", p_throw, 0, 0});
    plan.rules.push_back(
        {"backend.compile", FaultKind::kDelay, "", p_delay, 0,
         1 + (mix64(seed * 31 + i + 200) % 3)});  // 1-3 ms
  }
  return plan;
}

FaultPlan FaultPlan::device_chaos(u64 seed,
                                  const std::vector<std::string>& devices,
                                  std::string_view mode) {
  ISPB_EXPECTS(!devices.empty());
  ISPB_EXPECTS(mode == "kill" || mode == "flap" || mode == "stall" ||
               mode == "mix");
  FaultPlan plan;
  plan.seed = seed;
  if (devices.size() < 2) return plan;  // nothing to afflict safely
  const std::size_t survivor = mix64(seed ^ 0xdeadbeefull) % devices.size();
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (i == survivor) continue;
    const std::string& device = devices[i];
    std::string_view fault = mode;
    if (fault == "mix") {
      static constexpr std::string_view kModes[] = {"kill", "flap", "stall"};
      fault = kModes[mix64(seed * 131 + i) % 3];
    }
    if (fault == "kill") {
      plan.rules.push_back(
          {"device.launch", FaultKind::kThrow, device, 1.0, 0, 0});
    } else if (fault == "flap") {
      const u32 fires = 1 + static_cast<u32>(mix64(seed * 131 + i + 7) % 3);
      plan.rules.push_back(
          {"device.launch", FaultKind::kThrow, device, 1.0, fires, 0});
    } else {  // stall
      plan.rules.push_back(
          {"device.launch", FaultKind::kDelay, device, 0.5, 0,
           5 + (mix64(seed * 131 + i + 13) % 20)});  // 5-24 ms
    }
    // Routing/probe faults are capped so a flapped device can always heal
    // once its launch rule is spent.
    plan.rules.push_back(
        {"shard.dispatch", FaultKind::kThrow, device, 0.05, 2, 0});
    plan.rules.push_back(
        {"health.probe", FaultKind::kThrow, device, 0.25, 2, 0});
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, Clock* clock)
    : plan_(std::move(plan)), clock_(clock) {
  rules_.reserve(plan_.rules.size());
  for (const FaultRule& rule : plan_.rules) {
    auto state = std::make_unique<RuleState>();
    state->rule = rule;
    rules_.push_back(std::move(state));
  }
}

bool FaultInjector::fires(const FaultRule& rule, std::size_t index,
                          u64 occurrence) const {
  if (rule.probability <= 0.0) return false;
  if (rule.probability >= 1.0) return true;
  const u64 h = mix64(plan_.seed ^ (static_cast<u64>(index) * 0x9e3779b9ull) ^
                      (occurrence * 0x85ebca6bull));
  return static_cast<f64>(h >> 11) * 0x1.0p-53 < rule.probability;
}

void FaultInjector::record_fire(std::string_view point, u64 occurrence,
                                FaultKind kind) {
  publish_fire(point, kind);
  std::lock_guard lock(mu_);
  auto it = std::find_if(
      counters_.begin(), counters_.end(),
      [&](const FaultPointCounters& c) { return c.point == point; });
  if (it == counters_.end()) {
    counters_.push_back({std::string(point), 0, 0, 0, 0});
    it = counters_.end() - 1;
  }
  switch (kind) {
    case FaultKind::kThrow:
      ++it->thrown;
      break;
    case FaultKind::kDelay:
      ++it->delayed;
      break;
    case FaultKind::kCorrupt:
      ++it->corrupted;
      break;
  }
  log_.push_back(std::string(point) + "#" + std::to_string(occurrence) + "/" +
                 std::string(to_string(kind)));
}

void FaultInjector::hit(std::string_view point, std::string_view detail) {
  {
    std::lock_guard lock(mu_);
    auto it = std::find_if(
        counters_.begin(), counters_.end(),
        [&](const FaultPointCounters& c) { return c.point == point; });
    if (it == counters_.end()) {
      counters_.push_back({std::string(point), 0, 0, 0, 0});
      it = counters_.end() - 1;
    }
    ++it->evaluated;
  }

  // Delays first, then throws: a plan can make a point slow *and* failing,
  // and the delay still lands before the exception unwinds.
  const FaultRule* throwing = nullptr;
  u64 throw_occurrence = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    RuleState& state = *rules_[i];
    const FaultRule& rule = state.rule;
    if (rule.kind == FaultKind::kCorrupt || rule.point != point) continue;
    if (!rule.match.empty() &&
        std::string_view(detail).find(rule.match) == std::string_view::npos) {
      continue;
    }
    const u64 occurrence = state.occurrences.fetch_add(1);
    if (!fires(rule, i, occurrence)) continue;
    if (rule.max_fires != 0 && state.fires.load() >= rule.max_fires) continue;
    state.fires.fetch_add(1);
    if (rule.kind == FaultKind::kDelay) {
      record_fire(point, occurrence, FaultKind::kDelay);
      // A delay ends at the running request's stop; its next check cuts it.
      clock_or_system(clock_).sleep_ms(cap_to_stop(rule.delay_ms));
    } else if (throwing == nullptr) {
      throwing = &rule;
      throw_occurrence = occurrence;
    }
  }
  if (throwing != nullptr) {
    record_fire(point, throw_occurrence, FaultKind::kThrow);
    throw InjectedFault(point, detail);
  }
}

bool FaultInjector::should_corrupt(std::string_view point,
                                   std::string_view detail) {
  bool corrupt = false;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    RuleState& state = *rules_[i];
    const FaultRule& rule = state.rule;
    if (rule.kind != FaultKind::kCorrupt || rule.point != point) continue;
    if (!rule.match.empty() &&
        std::string_view(detail).find(rule.match) == std::string_view::npos) {
      continue;
    }
    const u64 occurrence = state.occurrences.fetch_add(1);
    if (!fires(rule, i, occurrence)) continue;
    if (rule.max_fires != 0 && state.fires.load() >= rule.max_fires) continue;
    state.fires.fetch_add(1);
    record_fire(point, occurrence, FaultKind::kCorrupt);
    corrupt = true;
  }
  return corrupt;
}

std::vector<FaultPointCounters> FaultInjector::counters() const {
  std::lock_guard lock(mu_);
  std::vector<FaultPointCounters> out = counters_;
  std::sort(out.begin(), out.end(),
            [](const FaultPointCounters& a, const FaultPointCounters& b) {
              return a.point < b.point;
            });
  return out;
}

u64 FaultInjector::total_fires() const {
  std::lock_guard lock(mu_);
  u64 total = 0;
  for (const FaultPointCounters& c : counters_) {
    total += c.thrown + c.delayed + c.corrupted;
  }
  return total;
}

std::vector<std::string> FaultInjector::firing_log() const {
  std::lock_guard lock(mu_);
  return log_;
}

}  // namespace ispb::resilience
