#include "resilience/circuit_breaker.hpp"

#include <memory>

#include "obs/metrics.hpp"

namespace ispb::resilience {

namespace {

void publish_transition(std::string_view kernel, BreakerState to) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
  if (reg == nullptr) return;
  reg->add("resilience.breaker.transitions", 1.0,
           {{"kernel", std::string(kernel)},
            {"to", std::string(to_string(to))}});
}

}  // namespace

std::string_view to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(std::string kernel, BreakerConfig config,
                               Clock* clock)
    : kernel_(std::move(kernel)), config_(config), clock_(clock) {}

bool CircuitBreaker::allow() {
  std::lock_guard lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen: {
      const u64 now = clock_or_system(clock_).now_ms();
      if (now - opened_at_ms_ < config_.open_cooldown_ms) {
        ++short_circuits_;
        return false;
      }
      state_ = BreakerState::kHalfOpen;
      probes_in_flight_ = 0;
      publish_transition(kernel_, state_);
      [[fallthrough]];
    }
    case BreakerState::kHalfOpen:
      if (probes_in_flight_ >= config_.half_open_probes) {
        ++short_circuits_;
        return false;
      }
      ++probes_in_flight_;
      ++probes_;
      return true;
  }
  return true;
}

void CircuitBreaker::record_success() {
  std::lock_guard lock(mu_);
  consecutive_failures_ = 0;
  if (state_ != BreakerState::kClosed) {
    state_ = BreakerState::kClosed;
    probes_in_flight_ = 0;
    publish_transition(kernel_, state_);
  }
}

void CircuitBreaker::record_failure() {
  std::lock_guard lock(mu_);
  ++consecutive_failures_;
  const bool trip =
      state_ == BreakerState::kHalfOpen ||
      (state_ == BreakerState::kClosed &&
       consecutive_failures_ >= config_.failure_threshold);
  if (trip) {
    state_ = BreakerState::kOpen;
    opened_at_ms_ = clock_or_system(clock_).now_ms();
    probes_in_flight_ = 0;
    ++trips_;
    publish_transition(kernel_, state_);
  }
}

void CircuitBreaker::release() {
  std::lock_guard lock(mu_);
  if (state_ == BreakerState::kHalfOpen && probes_in_flight_ > 0) {
    --probes_in_flight_;
  }
}

BreakerSnapshot CircuitBreaker::snapshot() const {
  std::lock_guard lock(mu_);
  BreakerSnapshot s;
  s.kernel = kernel_;
  s.state = state_;
  s.consecutive_failures = consecutive_failures_;
  s.trips = trips_;
  s.short_circuits = short_circuits_;
  s.probes = probes_;
  return s;
}

BreakerRegistry::BreakerRegistry(BreakerConfig config, Clock* clock)
    : config_(config), clock_(clock) {}

CircuitBreaker& BreakerRegistry::get(std::string_view kernel) {
  std::lock_guard lock(mu_);
  const auto it = breakers_.find(kernel);
  if (it != breakers_.end()) return *it->second;
  auto breaker =
      std::make_unique<CircuitBreaker>(std::string(kernel), config_, clock_);
  CircuitBreaker& ref = *breaker;
  breakers_.emplace(std::string(kernel), std::move(breaker));
  return ref;
}

std::vector<BreakerSnapshot> BreakerRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<BreakerSnapshot> out;
  out.reserve(breakers_.size());
  for (const auto& [name, breaker] : breakers_) {
    out.push_back(breaker->snapshot());
  }
  return out;
}

}  // namespace ispb::resilience
