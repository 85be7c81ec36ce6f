// FleetServer: the serving core — one bounded queue, one worker pool and
// one deadline sweeper in front of one executor per simulated device, with
// health-checked failover (heterogeneous mixes — GTX680 next to RTX2080 —
// are the point). pipeline::PipelineServer is a one-device FleetServer.
//
// Queue: submit() runs admission, then enqueues into one queue of
// devices × shard.queue_capacity entries, drained by devices × shard.workers
// worker threads. It never blocks: a full queue or a shut-down fleet
// settles kRejected at once.
//
// Placement happens when a worker dequeues a request, so an idle worker
// never waits behind a busy device: a pinned request goes to its device;
// otherwise a quarantined device whose cooldown elapsed takes it as the
// half-open probe (probe-first, bounded by half_open_probes) so a healed
// device re-enters rotation without a side channel; otherwise it goes to the
// device with the lowest (running + 1) / capacity score. A device's capacity
// comes from the existing per-device analytic model: its SM count, clock and
// issue-throughput factor at the kernels' occupancy
// (sim::compute_occupancy / throughput_factor), computed once per shard. A
// 46-SM Turing therefore absorbs proportionally more load than an 8-SMX
// Kepler, and the router needs no calibration run. The score has no graph
// term: a graph's modeled instruction count is the same on every device,
// so dividing each device's capacity by it scales every score alike and
// changes no placement (DESIGN.md §18).
//
// Shards: a device keeps only its PipelineExecutor, that executor's
// per-kernel resilience::BreakerRegistry (the runtime form of the paper's
// isp+m fallback: a kernel whose ISP path keeps failing is served naive), a
// device-level resilience::CircuitBreaker, an SloWindow, its capacity and a
// running count.
//
// Deadlines: deadline_ms covers the whole request, submit to settle. A
// request that expires queued is settled kDeadlineExpired by the sweeper
// (timely while paused and during the shutdown drain) or by the worker
// that dequeues it, without executing. Every request runs inline on its
// worker; execute() installs the deadline as the thread's stop time
// (common/stop.hpp), and the executor cuts the run at its next check —
// before each stage, per native strip, per simulated block — with
// DeadlineExceeded. The worker settles the cut kDeadlineExpired itself
// (counted in watchdog_expired); no kernel or device breaker records it.
//
// Failover: an execution that settles kError charges the device breaker (a
// tripped breaker quarantines the device — no placements — until its
// cooldown elapses) and the same worker places the request again on a
// device it has not tried, under the request's one original deadline.
// Requests are pure (graph, source) -> pixels, so running again is
// idempotent and bit-identity is preserved. kDeadlineExpired is terminal
// (the budget is gone, not the device).
//
// Fault points: every placement fires `shard.dispatch`, every probe
// `health.probe`, every execution `server.exec`; the per-launch
// `device.launch` point lives in the executor.
//
// Admission: before enqueueing, the AdmissionController walks the
// degradation ladder (admission.hpp): shed low tiers under load, brown out
// survivors to kNaive (bit-identical), reject at saturation.
//
// Hand-off: a worker that settles a request and finds the queue empty
// spins for up to kSpinWindow on an atomic mirror of the queue's length
// before it parks on work_cv_, so a closed-loop caller's next request is
// taken by a worker that is still awake. At most one worker spins at a
// time; admit() skips its notify while the queue holds no more requests
// than there are spinners. The spinner stops spinning under mu_ and then
// checks the queue under the same lock, so a request whose notify was
// skipped is always seen (FleetStats::warm_pickups counts them).
//
// Back-off: a spin that no request answered, followed by a request within
// kSpinWindow of its end, is a missed spin — the signature of a caller that
// could run only once the spinner parked, as while the host lends the
// process about one core. After kMissedSpinLimit missed spins in a row,
// workers spin only after every kMissedSpinLimit-th settle, as a probe. A
// warm pickup, or a cold spin whose next request came later than that (the
// spin kept no one waiting), ends the streak. Sparse open-loop traffic
// seldom misses kMissedSpinLimit spins in a row, so it keeps its spins.
//
// Caller poll: submit() returns a Pending handle (pending.hpp) whose get()
// polls for up to kSpinWindow before it parks, so a short request settles
// to a caller that is still awake, without a futex wake. The budget is
// fixed at submit: kSpinWindow when the request went straight to a free
// worker (no request queued ahead of it, fleet not paused) and a moving
// average of recent kOk exec_ms (one atomic, updated in settle()) is at
// most kSpinWindow; 0 otherwise, so long executions (a 2048² frame) and
// callers at overload park at once. A caller that calls get() on a settled
// request pays nothing, so open-loop generators are not throttled.
//
// Plans: a shard keeps no per-graph state. Its executor memoizes each
// graph's plan (pipeline::PipelineExecutor), so a request whose graph was
// served before runs without validate, fusion, planning, breaker or cache
// lookup (DESIGN.md §12).
//
// Tracing: with an obs::TraceSession active, an enqueued request gets a
// request id; its queue wait, every execution and its root span
// (pipeline.server.{queue_wait,request,request.root}) form one tree.
//
// Every request resolves its handle exactly once. shutdown() stops
// accepting and drains the queue: each request runs (failing over as
// needed) or expires on the worker or sweeper that holds it, so no handle
// is left unsettled.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "fleet/admission.hpp"
#include "fleet/pending.hpp"
#include "gpusim/device.hpp"
#include "pipeline/server.hpp"

namespace ispb::fleet {

struct FleetConfig {
  /// Devices to serve on, one shard each; 1..64 entries.
  std::vector<sim::DeviceSpec> devices;
  /// Per-device template: workers and queue_capacity count per device (the
  /// fleet owns devices × each). executor.sim.device is overwritten per
  /// device; executor.cache (when set) is shared by all devices — cache
  /// keys are device-scoped already. shard.clock also times the device
  /// breakers below.
  pipeline::ServerConfig shard;
  AdmissionConfig admission;
  /// Device-level quarantine breakers (failure threshold, cooldown,
  /// half-open probe budget).
  resilience::BreakerConfig device_breaker;
};

enum class FleetStatus : u8 {
  kOk,
  kShed,             ///< admission dropped it (low tier under load)
  kRejected,         ///< admission reject, queue full, or shutdown
  kDeadlineExpired,  ///< budget exhausted queued/executing/failing over
  kError,            ///< all eligible devices failed it; see error
};
[[nodiscard]] std::string_view to_string(FleetStatus s);

/// A ServeRequest (whose deadline_ms covers queueing, execution and
/// failover, and whose variant admission brownout overrides with kNaive)
/// plus fleet routing.
struct FleetRequest : pipeline::ServeRequest {
  /// Priority tier, 0 = highest; clamped to admission.tiers.
  u32 tier = 0;
  /// Route to this device only (tests, directed probes); "" = router picks.
  /// Pinned dispatches still respect the device breaker.
  std::string pin_device;
};

struct FleetResponse {
  FleetStatus status = FleetStatus::kOk;
  /// The request's serving response: output, the status and error in
  /// pipeline terms, and submit-relative queue/exec/total times (0 for
  /// kShed and kRejected, which never queue).
  pipeline::ServeResponse serve;
  std::string device;  ///< device of the terminal dispatch ("" if none)
  u32 tier = 0;
  u32 dispatches = 0;  ///< device placements; > 1 means failover happened
  bool browned_out = false;  ///< admission served it kNaive
  f64 total_ms = 0.0;        ///< fleet submit -> settle wall time
  std::string error;
};

struct FleetDeviceStats {
  std::string device;
  u64 routed = 0;     ///< executions placed on this device
  u64 completed = 0;  ///< kOk settled here
  u64 errors = 0;     ///< kError settled here (incl. injected dispatch/probe)
  /// Always 0: a request is placed only when a worker is free to run it,
  /// so no device queue overflows and nothing bounces between devices.
  u64 rejected = 0;
  u64 probes = 0;     ///< half-open probes admitted by the device breaker
  u64 quarantines = 0;  ///< breaker trips (quarantine episodes)
  u64 inflight = 0;     ///< running on this device now
  u64 retries = 0;      ///< stage attempts beyond the first
  u64 fallbacks = 0;    ///< executions with any stage served by fallback
  u64 watchdog_expired = 0;  ///< executions cut at a stop check
};

struct FleetTierStats {
  u32 tier = 0;
  u64 submitted = 0;
  u64 shed = 0;
  u64 browned_out = 0;  ///< kOk responses served kNaive by admission
  u64 completed = 0;
  u64 rejected = 0;
  u64 deadline_expired = 0;
  u64 errors = 0;
  obs::StreamingHistogram latency_ms;  ///< kOk fleet total_ms
};

struct FleetStats {
  u64 submitted = 0;
  u64 completed = 0;
  u64 shed = 0;
  u64 rejected = 0;
  u64 deadline_expired = 0;
  u64 errors = 0;
  u64 failovers = 0;  ///< re-placements after a device failure
  /// Requests a spinning worker took off the queue without a wake-up.
  u64 warm_pickups = 0;
  /// Settles after which a worker spun for the next request, whether a
  /// request came (warm) or not (cold); counted when the spin ends.
  u64 spins = 0;
  obs::StreamingHistogram queue_latency_ms;  ///< kOk serve.queue_ms
  obs::StreamingHistogram exec_latency_ms;   ///< kOk serve.exec_ms
  std::vector<FleetDeviceStats> devices;
  std::vector<FleetTierStats> tiers;
};

class FleetServer {
 public:
  /// How long a worker that settled a request and found the queue empty
  /// spins for the next one before it parks, and a granted caller's poll
  /// budget. Measured by a sweep of 10, 30 and 100 µs on serve_128
  /// (DESIGN.md §18, EXPERIMENTS.md "Warm hand-off").
  static constexpr std::chrono::microseconds kSpinWindow{30};
  /// Missed spins in a row (see "Back-off" above) after which only every
  /// kMissedSpinLimit-th settle spins, as a probe. While the host lends
  /// the process about one core every spin is missed, and each one delays
  /// the caller's next request by the window (EXPERIMENTS.md "Spin
  /// back-off").
  static constexpr u32 kMissedSpinLimit = 8;

  explicit FleetServer(FleetConfig config);
  /// Shuts down (drains the queue) if the caller has not already.
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Admits (or sheds/rejects) and enqueues one request. Never blocks; the
  /// handle settles exactly once, and its get() polls for the budget fixed
  /// here (see "Caller poll" above) before it parks.
  [[nodiscard]] Pending<FleetResponse> submit(FleetRequest request);

  /// Starts the workers of a fleet constructed shard.start_paused, or
  /// paused by pause(). Idempotent.
  void resume();
  /// Stops workers from taking queued requests until resume(); running
  /// requests finish and the sweeper still expires queued ones. A no-op
  /// once shutdown() began (the drain runs the queue). Idempotent.
  void pause();
  /// Stops accepting, drains the queue, joins the workers and the sweeper.
  /// Idempotent.
  void shutdown();

  [[nodiscard]] FleetStats stats() const;
  /// Device breaker snapshots, in device order.
  [[nodiscard]] std::vector<resilience::BreakerSnapshot> device_health() const;
  /// Per-device SLO slices. A device's window records the requests that
  /// settled on it; requests settled before any placement (refused,
  /// expired queued or between failovers) go to every device's window.
  [[nodiscard]] std::vector<std::pair<std::string, obs::SloSnapshot>>
  device_slo() const;
  /// Device-internal health (kernel breakers, retries, fallbacks, cuts)
  /// for invariants. queue_expired reads 0: a queued request
  /// belongs to no device (FleetStats::deadline_expired counts it).
  [[nodiscard]] resilience::HealthState shard_health(std::size_t index) const;
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] const sim::DeviceSpec& device(std::size_t index) const {
    return shards_[index]->device;
  }
  /// Fraction of fleet slots (queue + workers, all devices) in flight.
  [[nodiscard]] f64 occupancy() const;

 private:
  friend class pipeline::PipelineServer;  // submits with a ServeResponse
  using Clock = std::chrono::steady_clock;

  struct Shard {
    Shard(const sim::DeviceSpec& spec, const FleetConfig& config);
    sim::DeviceSpec device;
    resilience::BreakerRegistry breakers;  ///< before executor (aliased)
    pipeline::PipelineExecutor executor;
    resilience::CircuitBreaker breaker;  ///< device-level quarantine
    obs::SloWindow slo;                  ///< own lock
    /// Modeled issue capacity: SMs × clock × throughput factor at the
    /// kernels' occupancy. Placement's speed.
    f64 capacity = 0.0;
    std::atomic<u64> running{0};
  };
  /// One admitted request. Driven by one thread at a time: the submitter,
  /// then the worker or sweeper that takes it off the queue.
  struct Item {
    FleetRequest request;
    /// The submitter's promise, emplaced by enqueue(): a FleetResponse,
    /// or a ServeResponse for PipelineServer's submits.
    std::variant<std::monostate, std::promise<FleetResponse>,
                 std::promise<pipeline::ServeResponse>>
        promise;
    Clock::time_point submitted_at;
    std::optional<Clock::time_point> dequeued_at;
    u32 tier = 0;
    bool browned_out = false;
    u32 dispatches = 0;
    // Tracing identity, assigned when the request is enqueued while a
    // session is active (0 otherwise): the request's id, its root span, and
    // the submit time on the trace clock.
    u64 request_id = 0;
    u64 root_span_id = 0;
    u64 submitted_ns = 0;
    [[nodiscard]] bool has_deadline() const {
      return request.deadline_ms > 0.0;
    }
    [[nodiscard]] Clock::time_point deadline_at() const {
      return submitted_at +
             std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<f64, std::milli>(request.deadline_ms));
    }
  };
  using ItemPtr = std::unique_ptr<Item>;
  /// One execution on one device.
  struct Attempt {
    pipeline::ServeResponse response;  ///< kOk, kError or kDeadlineExpired
    u64 retries = 0;                   ///< stage attempts beyond the first
  };
  static constexpr std::size_t kNoShard = ~std::size_t{0};

  /// Weight of the newest kOk exec_ms in recent_exec_ms_: 1/8.
  static constexpr f64 kRecentExecWeight = 1.0 / 8.0;

  /// PipelineServer's submit(): the same path, answered as a ServeResponse.
  [[nodiscard]] Pending<pipeline::ServeResponse> submit_serve(
      pipeline::ServeRequest request);
  /// Both submits: the item's promise of a `Response`, admitted.
  template <typename Response>
  [[nodiscard]] Pending<Response> enqueue(ItemPtr item);
  /// Shared tail of the submits: counts, admission ladder, enqueue or
  /// settle the refusal. Returns the caller's poll budget.
  [[nodiscard]] std::chrono::nanoseconds admit(ItemPtr item);
  void worker_loop();
  /// After a settle: unless the queue already holds work or another worker
  /// spins, claims the spin and waits up to kSpinWindow for queued_ to turn
  /// non-zero. Returns whether it claimed the spin, which the caller must
  /// release under mu_.
  [[nodiscard]] bool spin_for_work();
  void sweeper_loop();
  /// Places, runs and fails over one dequeued request until it settles.
  void process(Item& it);
  /// The device for the next placement, or kNoShard with `why` set;
  /// `probe` marks a half-open probe. Skips devices in `tried`.
  [[nodiscard]] std::size_t place(const Item& item, u64 tried, bool& probe,
                                  std::string& why);
  /// Runs the request on `shard`'s executor on this thread, with its
  /// deadline as the stop time.
  [[nodiscard]] Attempt execute(Shard& shard, const Item& item);
  /// Accounts, publishes and resolves the future. `index` is the device
  /// of the terminal execution, or kNoShard.
  void settle(Item& item, FleetStatus status, pipeline::ServeResponse serve,
              std::size_t index, std::string error);
  /// Breaker failure + quarantine accounting for a device-level error.
  void device_failure(std::size_t index);

  FleetConfig config_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<u64> inflight_{0};  ///< admitted, not yet settled
  /// Moving average of kOk exec_ms; a caller polls only while it is at
  /// most kSpinWindow. Updated in settle() without a lock: a lost update
  /// only delays the average by one sample.
  std::atomic<f64> recent_exec_ms_{0.0};

  mutable std::mutex mu_;  ///< queue_, the flags and stats_
  std::condition_variable work_cv_;
  std::condition_variable sweeper_cv_;
  std::deque<ItemPtr> queue_;
  std::atomic<std::size_t> queued_{0};  ///< queue_.size(), stored under mu_
  std::atomic<bool> spinning_{false};   ///< a worker spins; cleared under mu_
  bool paused_ = false;
  bool accepting_ = true;
  bool draining_ = false;
  FleetStats stats_;
  /// When the last spin ended unanswered, until the next request judges
  /// it missed or not. Guarded by mu_.
  std::optional<Clock::time_point> cold_spin_end_;
  /// Missed spins in a row; stored under mu_. From kMissedSpinLimit on,
  /// only every kMissedSpinLimit-th settle spins.
  std::atomic<u32> missed_spins_{0};
  std::atomic<u32> skipped_spins_{0};  ///< settles that skipped the spin
  std::vector<std::thread> workers_;
  std::thread sweeper_;
};

}  // namespace ispb::fleet
