#include "fleet/fleet_server.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "common/stop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb::fleet {

namespace {

using pipeline::ServeResponse;
using pipeline::ServeStatus;

f64 ms_between(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<f64, std::milli>(b - a).count();
}

void publish_fleet_status(FleetStatus status) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
  if (reg == nullptr) return;
  reg->add("fleet.requests", 1.0,
           {{"status", std::string(to_string(status))}});
}

/// A device's modeled issue capacity at the kernels' rough occupancy: the
/// same occupancy/cost model the planner uses, evaluated without compiling
/// anything.
f64 device_capacity(const sim::DeviceSpec& dev, BlockSize block) {
  const sim::Occupancy occ =
      sim::compute_occupancy(dev, block, /*regs_per_thread=*/32);
  return std::max(static_cast<f64>(dev.num_sms) * dev.clock_ghz *
                      sim::throughput_factor(dev, occ),
                  1e-12);
}

ServeStatus serve_status(FleetStatus status) {
  switch (status) {
    case FleetStatus::kOk:
      return ServeStatus::kOk;
    case FleetStatus::kShed:
    case FleetStatus::kRejected:
      return ServeStatus::kRejected;
    case FleetStatus::kDeadlineExpired:
      return ServeStatus::kDeadlineExpired;
    case FleetStatus::kError:
      break;
  }
  return ServeStatus::kError;
}

}  // namespace

void spin_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

std::string_view to_string(FleetStatus s) {
  switch (s) {
    case FleetStatus::kOk:
      return "ok";
    case FleetStatus::kShed:
      return "shed";
    case FleetStatus::kRejected:
      return "rejected";
    case FleetStatus::kDeadlineExpired:
      return "deadline_expired";
    case FleetStatus::kError:
      return "error";
  }
  return "?";
}

FleetServer::Shard::Shard(const sim::DeviceSpec& spec,
                          const FleetConfig& config)
    : device(spec),
      breakers(config.shard.breaker, config.shard.clock),
      executor([&] {
        pipeline::ExecutorConfig ec = config.shard.executor;
        ec.sim.device = spec;
        if (config.shard.breakers_enabled && ec.breakers == nullptr) {
          ec.breakers = &breakers;
        }
        if (ec.clock == nullptr) ec.clock = config.shard.clock;
        return ec;
      }()),
      breaker("device:" + spec.name, config.device_breaker,
              config.shard.clock),
      slo(config.shard.slo),
      capacity(device_capacity(spec, config.shard.executor.sim.block)) {}

FleetServer::FleetServer(FleetConfig config)
    : config_(std::move(config)),
      admission_(config_.admission),
      paused_(config_.shard.start_paused) {
  ISPB_EXPECTS(!config_.devices.empty() && config_.devices.size() <= 64);
  ISPB_EXPECTS(config_.shard.workers >= 1);
  stats_.devices.resize(config_.devices.size());
  stats_.tiers.resize(config_.admission.tiers);
  for (u32 t = 0; t < config_.admission.tiers; ++t) stats_.tiers[t].tier = t;

  shards_.reserve(config_.devices.size());
  for (std::size_t i = 0; i < config_.devices.size(); ++i) {
    shards_.push_back(std::make_unique<Shard>(config_.devices[i], config_));
    stats_.devices[i].device = config_.devices[i].name;
  }
  const std::size_t workers =
      shards_.size() * static_cast<std::size_t>(config_.shard.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  sweeper_ = std::thread([this] { sweeper_loop(); });
}

FleetServer::~FleetServer() { shutdown(); }

template <typename Response>
Pending<Response> FleetServer::enqueue(ItemPtr item) {
  std::future<Response> future =
      item->promise.template emplace<std::promise<Response>>().get_future();
  const std::chrono::nanoseconds budget = admit(std::move(item));
  return {std::move(future), budget};
}

Pending<FleetResponse> FleetServer::submit(FleetRequest request) {
  auto item = std::make_unique<Item>();
  item->request = std::move(request);
  return enqueue<FleetResponse>(std::move(item));
}

Pending<ServeResponse> FleetServer::submit_serve(
    pipeline::ServeRequest request) {
  auto item = std::make_unique<Item>();
  static_cast<pipeline::ServeRequest&>(item->request) = std::move(request);
  return enqueue<ServeResponse>(std::move(item));
}

std::chrono::nanoseconds FleetServer::admit(ItemPtr item) {
  ISPB_EXPECTS(item->request.graph != nullptr &&
               item->request.source != nullptr);
  item->tier = std::min(item->request.tier, config_.admission.tiers - 1);
  item->submitted_at = Clock::now();
  FleetStatus refused = FleetStatus::kOk;  // kOk: enqueued
  std::string why;
  bool wake = false;
  bool straight = false;
  // Read before the queue takes the item: a worker may settle it at once.
  const bool has_deadline = item->has_deadline();
  {
    std::lock_guard lock(mu_);
    ++stats_.submitted;
    ++stats_.tiers[item->tier].submitted;
    const f64 occ = occupancy();
    if (!accepting_) {
      refused = FleetStatus::kRejected;
      why = "fleet shut down";
    } else {
      switch (admission_.decide(item->tier, occ)) {
        case AdmissionDecision::kReject:
          refused = FleetStatus::kRejected;
          why = "admission: fleet saturated (occupancy " +
                std::to_string(occ) + ")";
          break;
        case AdmissionDecision::kShed:
          refused = FleetStatus::kShed;
          why = "admission: shed tier " + std::to_string(item->tier) +
                " at occupancy " + std::to_string(occ);
          break;
        case AdmissionDecision::kBrownout:
          item->browned_out = true;
          item->request.variant = codegen::Variant::kNaive;
          [[fallthrough]];
        case AdmissionDecision::kAdmit:
          if (queue_.size() >=
              shards_.size() * config_.shard.queue_capacity) {
            refused = FleetStatus::kRejected;
            why = "queue full";
            break;
          }
          if (obs::TraceSession::active()) {
            item->request_id = obs::TraceSession::next_request_id();
            item->root_span_id = obs::TraceSession::next_span_id();
            item->submitted_ns = obs::TraceSession::now_ns();
          }
          // Straight to a worker: nothing queued ahead of it, and fewer
          // requests in flight than workers, so one of them is free.
          straight =
              inflight_.fetch_add(1, std::memory_order_relaxed) <
                  workers_.size() &&
              queue_.empty() && !paused_;
          if (cold_spin_end_.has_value()) {
            // The first request after an unanswered spin judges it: one
            // that came within a window of the spin's end most likely
            // waited for the spinner to park (a missed spin).
            const bool missed =
                item->submitted_at - *cold_spin_end_ < kSpinWindow;
            missed_spins_.store(
                missed ? missed_spins_.load(std::memory_order_relaxed) + 1 : 0,
                std::memory_order_relaxed);
            cold_spin_end_.reset();
          }
          queue_.push_back(std::move(item));
          queued_ = queue_.size();
          // A spinning worker takes the request without a wake-up; only
          // requests beyond the spinners need a parked worker.
          wake = queue_.size() > (spinning_ ? 1u : 0u);
          break;
      }
    }
  }
  if (refused != FleetStatus::kOk) {
    settle(*item, refused, {}, kNoShard, std::move(why));
    return std::chrono::nanoseconds::zero();
  }
  if (wake) work_cv_.notify_one();
  // The sweeper may need to wake earlier than it planned to.
  if (has_deadline) sweeper_cv_.notify_one();
  const bool short_runs =
      recent_exec_ms_.load(std::memory_order_relaxed) <=
      std::chrono::duration<f64, std::milli>(kSpinWindow).count();
  return straight && short_runs ? kSpinWindow
                                : std::chrono::nanoseconds::zero();
}

void FleetServer::worker_loop() {
  bool spun = false;  // this worker holds the spin and must release it
  for (;;) {
    ItemPtr item;
    {
      std::unique_lock lock(mu_);
      // Released under mu_: an admit that skipped its notify because this
      // worker was spinning enqueued before this point, so the check below
      // sees its request (or another worker already took it).
      if (spun) {
        spinning_ = false;
        ++stats_.spins;
      }
      const bool warm = spun && !paused_ && !queue_.empty();
      if (warm) {
        missed_spins_.store(0, std::memory_order_relaxed);
        cold_spin_end_.reset();
      } else if (spun && queue_.empty()) {
        cold_spin_end_ = Clock::now();
      }
      spun = false;
      work_cv_.wait(lock, [this] {
        return draining_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        if (draining_) return;
        continue;  // spurious wake while paused
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      queued_ = queue_.size();
      if (warm) ++stats_.warm_pickups;
    }
    process(*item);
    spun = spin_for_work();
  }
}

bool FleetServer::spin_for_work() {
  if (queued_ != 0) return false;  // work waits: take it at once
  // Backed off: only every kMissedSpinLimit-th settle spins, as a probe.
  if (missed_spins_.load(std::memory_order_relaxed) >= kMissedSpinLimit &&
      skipped_spins_.fetch_add(1, std::memory_order_relaxed) %
              kMissedSpinLimit !=
          kMissedSpinLimit - 1) {
    return false;
  }
  bool idle = false;
  if (!spinning_.compare_exchange_strong(idle, true)) return false;
  const Clock::time_point until = Clock::now() + kSpinWindow;
  while (queued_ == 0 && Clock::now() < until) spin_pause();
  return true;
}

void FleetServer::sweeper_loop() {
  // Sweeps the queue for requests whose deadline passed before any worker
  // dequeued them — which a paused or saturated fleet would otherwise sit
  // on indefinitely — and settles them kDeadlineExpired. Runs even while
  // paused_; exits on drain (the workers settle whatever remains).
  std::unique_lock lock(mu_);
  for (;;) {
    if (draining_) return;

    bool any = false;
    Clock::time_point next{};
    for (const ItemPtr& it : queue_) {
      if (!it->has_deadline()) continue;
      const Clock::time_point d = it->deadline_at();
      if (!any || d < next) next = d;
      any = true;
    }
    if (!any) {
      sweeper_cv_.wait(lock);  // woken by submit(deadline) or shutdown
      continue;
    }
    const Clock::time_point now = Clock::now();
    if (next > now) {
      sweeper_cv_.wait_until(lock, next);
      continue;
    }

    std::vector<ItemPtr> expired;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if ((*it)->has_deadline() && (*it)->deadline_at() <= now) {
        expired.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    queued_ = queue_.size();
    lock.unlock();
    for (const ItemPtr& item : expired) {
      if (item->request_id != 0) {
        obs::record_span("pipeline.server.queue_wait", "pipeline",
                         item->submitted_ns, obs::TraceSession::now_ns(),
                         item->request_id, item->root_span_id);
      }
      settle(*item, FleetStatus::kDeadlineExpired, {}, kNoShard,
             "deadline expired after " +
                 std::to_string(ms_between(item->submitted_at, now)) +
                 " ms queued (never dequeued)");
    }
    lock.lock();
  }
}

void FleetServer::process(Item& it) {
  it.dequeued_at = Clock::now();
  if (it.request_id != 0) {
    obs::record_span("pipeline.server.queue_wait", "pipeline",
                     it.submitted_ns, obs::TraceSession::now_ns(),
                     it.request_id, it.root_span_id);
  }
  u64 tried = 0;  // bit per device already attempted
  std::string last_error;
  for (;;) {
    // The deadline covers failover too: once the budget is gone the
    // request settles instead of burning another device.
    if (it.has_deadline() && Clock::now() >= it.deadline_at()) {
      settle(it, FleetStatus::kDeadlineExpired, {}, kNoShard,
             it.dispatches == 0
                 ? "deadline expired after " +
                       std::to_string(
                           ms_between(it.submitted_at, *it.dequeued_at)) +
                       " ms queued"
                 : "deadline expired during failover");
      return;
    }
    bool probe = false;
    std::string why;
    const std::size_t index = place(it, tried, probe, why);
    if (index == kNoShard) {
      settle(it, FleetStatus::kError, {}, kNoShard,
             last_error.empty() ? std::move(why) : std::move(last_error));
      return;
    }
    Shard& shard = *shards_[index];
    tried |= u64{1} << index;
    ++it.dispatches;
    try {
      resilience::fault_point("shard.dispatch", shard.device.name);
      if (probe) resilience::fault_point("health.probe", shard.device.name);
    } catch (const std::exception& e) {
      // Injected dispatch/probe failure: charge the device and move on.
      device_failure(index);
      std::lock_guard lock(mu_);
      ++stats_.devices[index].errors;
      last_error = e.what();
      continue;
    }

    shard.running.fetch_add(1, std::memory_order_relaxed);
    Attempt attempt = execute(shard, it);
    shard.running.fetch_sub(1, std::memory_order_relaxed);
    const ServeStatus status = attempt.response.status;
    {
      std::lock_guard lock(mu_);
      FleetDeviceStats& d = stats_.devices[index];
      ++d.routed;
      d.retries += attempt.retries;
      // Both degradation flavors count as "served by fallback":
      // naive-for-isp and interpreted-for-native are the same story (the
      // request succeeded on the backup path).
      if (attempt.response.served_by_fallback ||
          attempt.response.backend_fallback) {
        ++d.fallbacks;
      }
      if (status == ServeStatus::kDeadlineExpired) ++d.watchdog_expired;
      if (status == ServeStatus::kOk) ++d.completed;
      if (status == ServeStatus::kError) {
        ++d.errors;
        ++stats_.failovers;
      }
    }
    if (status == ServeStatus::kOk) {
      shard.breaker.record_success();
      settle(it, FleetStatus::kOk, std::move(attempt.response), index, "");
      return;
    }
    if (status == ServeStatus::kError) {
      // Device-level failure: quarantine pressure + failover.
      device_failure(index);
      last_error = std::move(attempt.response.error);
      continue;
    }
    // kDeadlineExpired, cut at a stop check; terminal. A cut says nothing
    // about the device: a probe only hands back its slot.
    if (probe) shard.breaker.release();
    if (obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
        reg != nullptr) {
      reg->add("resilience.watchdog.expired", 1.0);
    }
    if (config_.shard.flight_recorder != nullptr) {
      // Crash-dump breadcrumb: what was cut, how long it had run, and the
      // window state at the moment of the cut.
      const Clock::time_point now = Clock::now();
      obs::Json frame = obs::Json::object();
      frame["graph"] = it.request.graph->name;
      frame["queue_ms"] = ms_between(it.submitted_at, *it.dequeued_at);
      frame["exec_ms"] = ms_between(*it.dequeued_at, now);
      frame["deadline_ms"] = it.request.deadline_ms;
      frame["slo"] = shard.slo.snapshot(obs::steady_now_ms()).to_json();
      config_.shard.flight_recorder->note("watchdog_cut", std::move(frame));
    }
    settle(it, FleetStatus::kDeadlineExpired, std::move(attempt.response),
           index, "");
    return;
  }
}

std::size_t FleetServer::place(const Item& item, u64 tried, bool& probe,
                               std::string& why) {
  if (!item.request.pin_device.empty()) {
    std::size_t pin = kNoShard;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i]->device.name == item.request.pin_device) pin = i;
    }
    if (pin == kNoShard) {
      why = "unknown pinned device '" + item.request.pin_device + "'";
      return kNoShard;
    }
    if ((tried >> pin) & 1u) return kNoShard;  // its error is the answer
    resilience::CircuitBreaker& breaker = shards_[pin]->breaker;
    probe = breaker.snapshot().state != resilience::BreakerState::kClosed;
    if (!breaker.allow()) {
      why = "pinned device '" + item.request.pin_device + "' is quarantined";
      return kNoShard;
    }
    return pin;
  }

  // Probe-first: a quarantined device whose cooldown elapsed takes this
  // request as its half-open probe (breaker-bounded), so a healed device
  // re-enters rotation; otherwise pick the closed device with the lowest
  // load per capacity.
  for (;;) {
    std::size_t best = kNoShard;
    f64 best_score = 0.0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if ((tried >> i) & 1u) continue;
      Shard& shard = *shards_[i];
      if (shard.breaker.snapshot().state !=
          resilience::BreakerState::kClosed) {
        if (shard.breaker.allow()) {
          probe = true;
          return i;
        }
        continue;  // quarantined, cooldown still running
      }
      const f64 score =
          static_cast<f64>(shard.running.load(std::memory_order_relaxed) +
                           1) /
          shard.capacity;
      if (best == kNoShard || score < best_score) {
        best = i;
        best_score = score;
      }
    }
    if (best == kNoShard) {
      why = "no eligible device (all tried or quarantined)";
      return kNoShard;
    }
    // The closed-state check above is advisory; allow() is authoritative
    // and may refuse if the breaker tripped in between.
    if (shards_[best]->breaker.allow()) return best;
    tried |= u64{1} << best;
  }
}

FleetServer::Attempt FleetServer::execute(Shard& shard, const Item& item) {
  // The request's spans hang off its root span, and its deadline is the
  // stop every check compares with; the executor carries both onto its
  // pool tasks.
  const obs::TraceContext::Scope trace_scope(
      {item.request_id, item.root_span_id});
  const StopScope stop_scope(item.has_deadline() ? item.deadline_at()
                                                 : kNoStop);
  Attempt attempt;
  ServeResponse& response = attempt.response;
  try {
    obs::ScopedSpan span("pipeline.server.request", "pipeline");
    if (span.recording()) span.arg("graph", item.request.graph->name);
    resilience::fault_point("server.exec", item.request.graph->name);
    pipeline::ExecutorResult result =
        shard.executor.run(*item.request.graph, *item.request.source,
                           item.request.backend, item.request.variant);
    // The variant and engine that reached the caller: kNaive/kInterpreted
    // if *any* stage degraded to it (a graph has at least one stage).
    response.sim_time_ms = result.total_time_ms;
    response.variant_used = result.stages.back().variant_used;
    response.backend_used = result.stages.back().backend_used;
    for (const pipeline::ExecutorResult::Stage& stage : result.stages) {
      attempt.retries += stage.attempts > 0 ? stage.attempts - 1 : 0;
      response.served_by_fallback |= stage.served_by_fallback;
      response.backend_fallback |= stage.backend_fallback;
      if (stage.variant_used == codegen::Variant::kNaive) {
        response.variant_used = codegen::Variant::kNaive;
      }
      if (stage.backend_used == exec::Backend::kInterpreted) {
        response.backend_used = exec::Backend::kInterpreted;
      }
    }
    response.output = std::move(result.output);
  } catch (const DeadlineExceeded& e) {  // the only kDeadlineExpired here
    response.status = ServeStatus::kDeadlineExpired;
    response.error = e.what();
  } catch (const std::exception& e) {
    response.status = ServeStatus::kError;
    response.error = e.what();
  } catch (...) {
    response.status = ServeStatus::kError;
    response.error = "unknown execution error";
  }
  return attempt;
}

void FleetServer::settle(Item& item, FleetStatus status, ServeResponse serve,
                         std::size_t index, std::string error) {
  const Clock::time_point now = Clock::now();
  FleetResponse resp;
  resp.status = status;
  resp.serve = std::move(serve);
  if (index != kNoShard) resp.device = shards_[index]->device.name;
  resp.tier = item.tier;
  resp.dispatches = item.dispatches;
  resp.browned_out = item.browned_out && status == FleetStatus::kOk;
  resp.total_ms = ms_between(item.submitted_at, now);
  resp.error = !error.empty() ? std::move(error) : resp.serve.error;
  resp.serve.status = serve_status(status);
  resp.serve.error = resp.error;
  // kShed and kRejected are decided at submit, before the queue; every
  // other outcome was enqueued and carries its queue/exec split.
  const bool enqueued =
      status != FleetStatus::kShed && status != FleetStatus::kRejected;
  if (enqueued) {
    const Clock::time_point dequeued = item.dequeued_at.value_or(now);
    resp.serve.queue_ms = ms_between(item.submitted_at, dequeued);
    resp.serve.exec_ms = ms_between(dequeued, now);
    resp.serve.total_ms = resp.total_ms;
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }

  if (status == FleetStatus::kOk) {
    const f64 recent = recent_exec_ms_.load(std::memory_order_relaxed);
    recent_exec_ms_.store(
        recent + (resp.serve.exec_ms - recent) * kRecentExecWeight,
        std::memory_order_relaxed);
  }
  {
    std::lock_guard lock(mu_);
    FleetTierStats& tier = stats_.tiers[item.tier];
    switch (status) {
      case FleetStatus::kOk:
        ++stats_.completed;
        ++tier.completed;
        if (resp.browned_out) ++tier.browned_out;
        tier.latency_ms.record(resp.total_ms);
        stats_.queue_latency_ms.record(resp.serve.queue_ms);
        stats_.exec_latency_ms.record(resp.serve.exec_ms);
        break;
      case FleetStatus::kShed:
        ++stats_.shed;
        ++tier.shed;
        break;
      case FleetStatus::kRejected:
        ++stats_.rejected;
        ++tier.rejected;
        break;
      case FleetStatus::kDeadlineExpired:
        ++stats_.deadline_expired;
        ++tier.deadline_expired;
        break;
      case FleetStatus::kError:
        ++stats_.errors;
        ++tier.errors;
        break;
    }
  }
  const ServeStatus s = resp.serve.status;
  const obs::SloOutcome outcome =
      s == ServeStatus::kOk                ? obs::SloOutcome::kOk
      : s == ServeStatus::kRejected        ? obs::SloOutcome::kRejected
      : s == ServeStatus::kDeadlineExpired ? obs::SloOutcome::kDeadlineMiss
                                           : obs::SloOutcome::kError;
  const u64 now_ms = obs::steady_now_ms();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (index == kNoShard || index == i) {
      shards_[i]->slo.record(outcome, resp.total_ms, now_ms);
    }
  }
  publish_fleet_status(status);
  if (status == FleetStatus::kOk) {
    if (obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
        reg != nullptr) {
      reg->observe("pipeline.server.latency_ms", resp.serve.total_ms);
      reg->observe("pipeline.server.queue_ms", resp.serve.queue_ms);
    }
  }
  if (item.request_id != 0) {
    obs::record_span("pipeline.server.request.root", "pipeline",
                     item.submitted_ns, obs::TraceSession::now_ns(),
                     item.request_id, 0, item.root_span_id);
  }
  if (auto* p = std::get_if<std::promise<FleetResponse>>(&item.promise)) {
    p->set_value(std::move(resp));
  } else {
    std::get<std::promise<ServeResponse>>(item.promise)
        .set_value(std::move(resp.serve));
  }
}

void FleetServer::device_failure(std::size_t index) {
  resilience::CircuitBreaker& breaker = shards_[index]->breaker;
  const u64 trips_before = breaker.snapshot().trips;
  breaker.record_failure();
  if (breaker.snapshot().trips > trips_before) {
    std::lock_guard lock(mu_);
    ++stats_.devices[index].quarantines;
  }
}

void FleetServer::resume() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void FleetServer::pause() {
  std::lock_guard lock(mu_);
  if (!draining_) paused_ = true;
}

void FleetServer::shutdown() {
  {
    std::lock_guard lock(mu_);
    accepting_ = false;
    draining_ = true;
    paused_ = false;  // a paused fleet still drains its queue
  }
  work_cv_.notify_all();
  sweeper_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (sweeper_.joinable()) sweeper_.join();
}

FleetStats FleetServer::stats() const {
  FleetStats out;
  {
    std::lock_guard lock(mu_);
    out = stats_;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    out.devices[i].probes = shards_[i]->breaker.snapshot().probes;
    out.devices[i].inflight =
        shards_[i]->running.load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<resilience::BreakerSnapshot> FleetServer::device_health() const {
  std::vector<resilience::BreakerSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->breaker.snapshot());
  return out;
}

std::vector<std::pair<std::string, obs::SloSnapshot>> FleetServer::device_slo()
    const {
  std::vector<std::pair<std::string, obs::SloSnapshot>> out;
  out.reserve(shards_.size());
  const u64 now_ms = obs::steady_now_ms();
  for (const auto& shard : shards_) {
    out.emplace_back(shard->device.name, shard->slo.snapshot(now_ms));
  }
  return out;
}

resilience::HealthState FleetServer::shard_health(std::size_t index) const {
  const Shard& shard = *shards_[index];
  resilience::HealthState h;
  h.breakers = shard.breakers.snapshot();
  std::lock_guard lock(mu_);
  const FleetDeviceStats& d = stats_.devices[index];
  h.retries = d.retries;
  h.fallbacks_served = d.fallbacks;
  h.watchdog_expired = d.watchdog_expired;
  return h;
}

f64 FleetServer::occupancy() const {
  const f64 slots =
      static_cast<f64>(shards_.size()) *
      (static_cast<f64>(config_.shard.queue_capacity) +
       static_cast<f64>(std::max(config_.shard.workers, 1)));
  return static_cast<f64>(inflight_.load(std::memory_order_relaxed)) /
         std::max(slots, 1.0);
}

}  // namespace ispb::fleet
