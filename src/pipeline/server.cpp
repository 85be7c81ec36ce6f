#include "pipeline/server.hpp"

#include <limits>
#include <utility>

#include "fleet/fleet_server.hpp"

namespace ispb::pipeline {

fleet::FleetConfig one_device_fleet(ServerConfig config) {
  fleet::FleetConfig fleet;
  fleet.devices = {config.executor.sim.device};
  fleet.shard = std::move(config);
  // No admission ladder: one tier that never browns out or rejects, so
  // only a full queue or shutdown refuses a request.
  constexpr f64 kNever = std::numeric_limits<f64>::infinity();
  fleet.admission.tiers = 1;
  fleet.admission.brownout_start = kNever;
  fleet.admission.reject_start = kNever;
  // With one device there is nowhere to fail over to: its breaker never
  // quarantines it, so every error reaches the caller with its own text.
  fleet.device_breaker.failure_threshold = std::numeric_limits<u32>::max();
  return fleet;
}

std::string_view to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kRejected:
      return "rejected";
    case ServeStatus::kDeadlineExpired:
      return "deadline_expired";
    case ServeStatus::kError:
      return "error";
  }
  return "?";
}

PipelineServer::PipelineServer(ServerConfig config)
    : fleet_(std::make_unique<fleet::FleetServer>(
          one_device_fleet(std::move(config)))) {}

PipelineServer::~PipelineServer() = default;

fleet::Pending<ServeResponse> PipelineServer::submit(ServeRequest request) {
  return fleet_->submit_serve(std::move(request));
}

void PipelineServer::resume() { fleet_->resume(); }

void PipelineServer::shutdown() { fleet_->shutdown(); }

ServerStats PipelineServer::stats() const {
  const fleet::FleetStats fleet = fleet_->stats();
  ServerStats s;
  s.submitted = fleet.submitted;
  s.rejected = fleet.rejected;
  s.accepted = fleet.submitted - fleet.rejected;
  s.completed = fleet.completed;
  s.deadline_expired = fleet.deadline_expired;
  s.watchdog_expired = fleet.devices.front().watchdog_expired;
  s.errors = fleet.errors;
  s.warm_pickups = fleet.warm_pickups;
  s.total_latency_ms = fleet.tiers.front().latency_ms;
  s.queue_latency_ms = fleet.queue_latency_ms;
  s.exec_latency_ms = fleet.exec_latency_ms;
  return s;
}

resilience::HealthState PipelineServer::health() const {
  resilience::HealthState h = fleet_->shard_health(0);
  // Every other expiry happened in the queue. (Saturating: the cut count
  // can lead the settled count while a cut request is settling.)
  const u64 expired = fleet_->stats().deadline_expired;
  h.queue_expired = expired > h.watchdog_expired ? expired - h.watchdog_expired
                                                 : 0;
  return h;
}

}  // namespace ispb::pipeline
