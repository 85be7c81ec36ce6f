// PipelineServer: async batched serving on one simulated device.
//
// A PipelineServer is a one-device fleet::FleetServer (fleet_server.hpp)
// over config.executor.sim.device, with the admission ladder turned off:
// one tier that never browns out or rejects, and a device breaker that
// never quarantines its only device. Everything else is the fleet's one
// serving core and is documented there: the bounded queue drained by
// `workers` threads (submit() never blocks), deadlines (the sweeper for
// queued requests, stop checks for running ones), the per-kernel breakers
// with their naive fallback and the executor's retries, the warm hand-off
// and the caller poll (submit() returns a fleet::Pending handle), latency
// histograms and an SloWindow, and request-scoped tracing.
//
// Workers execute stages inline (executor concurrency 1) by default:
// throughput comes from request-level parallelism, and the simulator's
// block loop still parallelizes each launch over the global pool.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "fleet/pending.hpp"
#include "obs/histogram.hpp"
#include "obs/slo.hpp"
#include "pipeline/executor.hpp"
#include "resilience/health.hpp"

namespace ispb::fleet {
class FleetServer;
struct FleetConfig;
}  // namespace ispb::fleet

namespace ispb::pipeline {

/// One unit of work. Graph and source are shared_ptr so a caller can submit
/// the same graph/image to many requests without copying specs or pixels.
struct ServeRequest {
  std::shared_ptr<const KernelGraph> graph;
  std::shared_ptr<const Image<f32>> source;
  /// Whole-request budget in wall milliseconds, measured from submit();
  /// 0 = none. Covers queue wait AND execution: expiry while queued is
  /// settled without executing, expiry mid-execution cuts the run at its
  /// next stop check.
  f64 deadline_ms = 0.0;
  /// Per-request engine override; nullopt = ExecutorConfig::backend.
  std::optional<exec::Backend> backend;
  /// Per-request variant override: forces every stage onto this variant
  /// (model selection disabled for the request); nullopt = executor config.
  /// The fleet admission controller uses kNaive here to brown out low-tier
  /// requests — same pixels, cheaper plan.
  std::optional<codegen::Variant> variant = std::nullopt;
};

enum class ServeStatus : u8 {
  kOk,
  kRejected,         ///< queue full or server shut down
  kDeadlineExpired,  ///< exceeded deadline_ms queued or executing
  kError,            ///< the pipeline threw; see error text
};
[[nodiscard]] std::string_view to_string(ServeStatus s);

struct ServeResponse {
  ServeStatus status = ServeStatus::kOk;
  Image<f32> output;        ///< valid iff status == kOk
  f64 sim_time_ms = 0.0;    ///< modeled GPU time (kOk only)
  f64 queue_ms = 0.0;       ///< submit -> dequeue wall time
  f64 exec_ms = 0.0;        ///< dequeue -> finish wall time (failover incl.)
  f64 total_ms = 0.0;       ///< submit -> finish wall time
  std::string error;        ///< kError / kRejected detail
  /// The variant that produced `output` (kOk, single-variant runs): stays
  /// kIsp under normal serving, reads kNaive while the breaker degrades.
  codegen::Variant variant_used = codegen::Variant::kNaive;
  bool served_by_fallback = false;  ///< any stage degraded to naive
  /// Engine that produced `output`: the requested one, downgraded to
  /// kInterpreted when any stage backend-fell-back (conservative, like
  /// variant_used).
  exec::Backend backend_used = exec::Backend::kInterpreted;
  bool backend_fallback = false;  ///< any native stage served interpreted
};

/// Aggregate serving counters and bounded latency sketches (kOk requests
/// only), read from the underlying fleet's one set of counters. Memory is
/// O(histogram buckets) no matter how many requests the server handles.
struct ServerStats {
  u64 submitted = 0;
  u64 accepted = 0;
  u64 rejected = 0;
  u64 completed = 0;
  u64 deadline_expired = 0;  ///< queued + mid-execution expiries
  u64 watchdog_expired = 0;  ///< subset cut at a stop check mid-execution
  u64 errors = 0;
  /// Requests a spinning worker took without a wake-up (the warm hand-off
  /// in fleet_server.hpp): how much of queue_latency_ms skipped a futex.
  u64 warm_pickups = 0;
  obs::StreamingHistogram total_latency_ms;
  obs::StreamingHistogram queue_latency_ms;
  obs::StreamingHistogram exec_latency_ms;
};

/// The executor defaults the server wants: stages inline, parallelism from
/// concurrent requests (see the class comment).
[[nodiscard]] inline ExecutorConfig serving_executor_config() {
  ExecutorConfig config;
  config.concurrency = 1;
  return config;
}

/// A PipelineServer's configuration, and a fleet's per-device template
/// (FleetConfig::shard), where workers and queue_capacity count per device.
struct ServerConfig {
  i32 workers = 4;                ///< >= 1
  std::size_t queue_capacity = 64;  ///< pending requests before rejection
  ExecutorConfig executor = serving_executor_config();
  /// When true the workers start idle; queued requests run only after
  /// resume(). Gives tests deterministic control over overflow and
  /// deadline paths. (The deadline sweeper still runs while paused.)
  bool start_paused = false;
  /// Per-device per-kernel circuit breakers, threaded into the device's
  /// executor unless the caller already supplied executor.breakers.
  /// Disable to restore fail-fast (errors propagate, no naive fallback).
  bool breakers_enabled = true;
  resilience::BreakerConfig breaker;
  /// Clock for breaker cooldowns (the kernel breakers' and, in a fleet,
  /// the device breakers') and retry backoff; nullptr = wall clock.
  /// Latency accounting and deadlines always use steady_clock.
  resilience::Clock* clock = nullptr;
  /// Sliding-window shape of the per-device SLO view
  /// (fleet::FleetServer::device_slo()).
  obs::SloConfig slo;
  /// Optional crash-dump sink: the worker notes a "watchdog_cut" frame
  /// (graph name + latency + an SLO snapshot) every time a request is cut
  /// at a stop check. Not owned; must outlive the server.
  obs::FlightRecorder* flight_recorder = nullptr;
};

/// The fleet a PipelineServer runs: one device (config.executor.sim.device)
/// with `config` as its shard, one admission tier that never browns out or
/// rejects, and a device breaker that never quarantines. Callers that want
/// fleet responses from the same server build a fleet::FleetServer on it.
[[nodiscard]] fleet::FleetConfig one_device_fleet(ServerConfig config);

class PipelineServer {
 public:
  explicit PipelineServer(ServerConfig config);
  /// Shuts down (drains the queue) if the caller has not already.
  ~PipelineServer();

  PipelineServer(const PipelineServer&) = delete;
  PipelineServer& operator=(const PipelineServer&) = delete;

  /// Enqueues a request. Never blocks: on overflow (or after shutdown) the
  /// returned handle is already settled with kRejected. Its get() polls
  /// briefly before it parks (fleet/pending.hpp).
  [[nodiscard]] fleet::Pending<ServeResponse> submit(ServeRequest request);

  /// Starts processing when constructed with start_paused. Idempotent.
  void resume();

  /// Stops accepting, drains every queued request (expired ones settle
  /// kDeadlineExpired, the rest execute) and joins the workers. Idempotent.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;

  /// Resilience snapshot: breaker states, retry/fallback counters, cuts
  /// and queue expiries.
  [[nodiscard]] resilience::HealthState health() const;

 private:
  std::unique_ptr<fleet::FleetServer> fleet_;
};

}  // namespace ispb::pipeline
