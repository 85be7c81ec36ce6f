// Fleet layer: admission ladder table, multi-device placement with
// bit-identity, failover off a killed device, half-open probe recovery
// after a flap, shed/brownout/reject degradation, placement at dequeue,
// failover during the shutdown drain, the warm hand-off to a spinning
// worker, pinned routing, deadline cuts (breaker-neutral, bounded), and
// the caller poll of the handle submit() returns.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dsl/runtime.hpp"
#include "filters/filters.hpp"
#include "fleet/admission.hpp"
#include "fleet/fleet_server.hpp"
#include "image/compare.hpp"
#include "image/generators.hpp"
#include "pipeline/kernel_graph.hpp"
#include "resilience/clock.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb {
namespace {

std::shared_ptr<const pipeline::KernelGraph> make_graph(
    const filters::MultiKernelApp& app) {
  return std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(app));
}

std::shared_ptr<const Image<f32>> make_source(i32 side = 32) {
  return std::make_shared<const Image<f32>>(make_gradient_image({side, side}));
}

fleet::FleetConfig two_device_config() {
  fleet::FleetConfig cfg;
  cfg.devices = {sim::make_gtx680(), sim::make_rtx2080()};
  cfg.shard.workers = 2;
  return cfg;
}

fleet::FleetRequest make_request(
    const std::shared_ptr<const pipeline::KernelGraph>& graph,
    const std::shared_ptr<const Image<f32>>& source, u32 tier = 0) {
  fleet::FleetRequest req;
  req.graph = graph;
  req.source = source;
  req.tier = tier;
  return req;
}

// ---- admission ladder -------------------------------------------------------

TEST(Admission, ShedThresholdsSpacedBetweenShedStartAndRejectStart) {
  const fleet::AdmissionController ctl{fleet::AdmissionConfig{}};
  // Defaults: 3 tiers, shed 0.50, brownout 0.75, reject 0.95.
  EXPECT_TRUE(std::isinf(ctl.shed_threshold(0)));
  EXPECT_DOUBLE_EQ(ctl.shed_threshold(1), 0.725);
  EXPECT_DOUBLE_EQ(ctl.shed_threshold(2), 0.50);
  // Tiers beyond the configured count clamp to the lowest threshold.
  EXPECT_DOUBLE_EQ(ctl.shed_threshold(9), 0.50);
}

TEST(Admission, LadderDecisionsByTierAndOccupancy) {
  using fleet::AdmissionDecision;
  const fleet::AdmissionController ctl{fleet::AdmissionConfig{}};
  struct Case {
    u32 tier;
    f64 occupancy;
    AdmissionDecision want;
  };
  const Case cases[] = {
      {0, 0.0, AdmissionDecision::kAdmit},
      {2, 0.49, AdmissionDecision::kAdmit},
      {2, 0.50, AdmissionDecision::kShed},   // lowest tier sheds first
      {1, 0.50, AdmissionDecision::kAdmit},  // tier 1 survives
      {1, 0.725, AdmissionDecision::kShed},
      {0, 0.74, AdmissionDecision::kAdmit},
      {0, 0.75, AdmissionDecision::kBrownout},  // tier 0 degrades, not sheds
      {0, 0.94, AdmissionDecision::kBrownout},
      {0, 0.95, AdmissionDecision::kReject},  // saturation rejects everyone
      {2, 0.95, AdmissionDecision::kReject},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ctl.decide(c.tier, c.occupancy), c.want)
        << "tier " << c.tier << " occupancy " << c.occupancy;
  }
}

// ---- placement + bit identity ----------------------------------------------

TEST(FleetServer, ServesBitIdenticalAcrossHeterogeneousDevices) {
  const auto app = filters::make_sobel_app();
  const auto graph = make_graph(app);
  const auto src = make_source();
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  fleet::FleetServer server(two_device_config());
  constexpr int kRequests = 8;
  std::vector<fleet::Pending<fleet::FleetResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit(make_request(graph, src)));
  }
  for (auto& f : futures) {
    fleet::FleetResponse resp = f.get();
    ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
    EXPECT_EQ(compare(resp.serve.output, expect).max_abs, 0.0);
    EXPECT_EQ(resp.dispatches, 1u);
    EXPECT_FALSE(resp.device.empty());
  }
  server.shutdown();

  const fleet::FleetStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<u64>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<u64>(kRequests));
  EXPECT_EQ(stats.failovers, 0u);
  ASSERT_EQ(stats.devices.size(), 2u);
  u64 routed = 0;
  for (const auto& d : stats.devices) routed += d.routed;
  EXPECT_EQ(routed, static_cast<u64>(kRequests));
  ASSERT_EQ(stats.tiers.size(), 3u);
  EXPECT_EQ(stats.tiers[0].completed, static_cast<u64>(kRequests));
  EXPECT_EQ(stats.tiers[0].latency_ms.count(), static_cast<u64>(kRequests));
}

// ---- failover off a killed device ------------------------------------------

TEST(FleetServer, FailsOverWhenOneDeviceIsKilled) {
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  // Every launch on the RTX2080 (the router's preferred device) throws.
  resilience::FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back({"device.launch", resilience::FaultKind::kThrow,
                        "RTX2080", 1.0, 0, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);

  fleet::FleetConfig cfg = two_device_config();
  cfg.device_breaker.failure_threshold = 2;
  cfg.device_breaker.open_cooldown_ms = 60'000;  // stays quarantined
  fleet::FleetServer server(cfg);

  constexpr int kRequests = 6;
  std::vector<fleet::Pending<fleet::FleetResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit(make_request(graph, src)));
  }
  for (auto& f : futures) {
    fleet::FleetResponse resp = f.get();
    ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
    EXPECT_EQ(resp.device, "GTX680");  // only survivor
    EXPECT_EQ(compare(resp.serve.output, expect).max_abs, 0.0);
  }
  server.shutdown();

  const fleet::FleetStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<u64>(kRequests));
  EXPECT_GE(stats.failovers, 1u);
  const auto health = server.device_health();
  ASSERT_EQ(health.size(), 2u);
  bool rtx_tripped = false;
  for (const auto& b : health) {
    if (b.kernel.find("RTX2080") != std::string::npos) {
      rtx_tripped = b.trips >= 1;
    }
  }
  EXPECT_TRUE(rtx_tripped) << "killed device never quarantined";
}

// ---- probe-first recovery after a flap -------------------------------------

TEST(FleetServer, HalfOpenProbeRestoresFlappedDevice) {
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);

  // The GTX680 fails its first two launches, then heals (a flap).
  resilience::FaultPlan plan;
  plan.seed = 11;
  plan.rules.push_back({"device.launch", resilience::FaultKind::kThrow,
                        "GTX680", 1.0, /*max_fires=*/2, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);

  resilience::VirtualClock vclock;
  fleet::FleetConfig cfg = two_device_config();
  cfg.shard.clock = &vclock;
  cfg.device_breaker.failure_threshold = 1;
  cfg.device_breaker.open_cooldown_ms = 50;
  // Disable the shard-internal naive fallback so the injected launch fault
  // surfaces as a device error instead of being absorbed per-kernel.
  cfg.shard.breakers_enabled = false;
  cfg.shard.executor.retry.max_attempts = 1;
  fleet::FleetServer server(cfg);

  // Burn the flap by pinning onto the afflicted device; the failure trips
  // its breaker and the request fails over... except pinned requests have
  // nowhere to go, so they settle kError.
  fleet::FleetRequest pinned = make_request(graph, src);
  pinned.pin_device = "GTX680";
  EXPECT_EQ(server.submit(pinned).get().status, fleet::FleetStatus::kError);

  // Quarantined: a pinned request is refused while the cooldown runs.
  pinned = make_request(graph, src);
  pinned.pin_device = "GTX680";
  fleet::FleetResponse refused = server.submit(pinned).get();
  EXPECT_EQ(refused.status, fleet::FleetStatus::kError);
  EXPECT_NE(refused.error.find("quarantined"), std::string::npos)
      << refused.error;

  // After the cooldown the next pinned submit rides in as the half-open
  // probe. The flap still has one fire left, so the first probe fails and
  // re-trips; advance and probe again until the device heals.
  bool healed = false;
  for (int attempt = 0; attempt < 8 && !healed; ++attempt) {
    vclock.advance(60);
    pinned = make_request(graph, src);
    pinned.pin_device = "GTX680";
    fleet::FleetResponse resp = server.submit(pinned).get();
    healed = resp.status == fleet::FleetStatus::kOk;
  }
  EXPECT_TRUE(healed) << "flapped device never recovered via probes";
  server.shutdown();

  const auto health = server.device_health();
  for (const auto& b : health) {
    if (b.kernel.find("GTX680") != std::string::npos) {
      EXPECT_EQ(b.state, resilience::BreakerState::kClosed);
      EXPECT_GE(b.trips, 1u);
    }
  }
  const fleet::FleetStats stats = server.stats();
  bool gtx_completed = false;
  for (const auto& d : stats.devices) {
    if (d.device == "GTX680") gtx_completed = d.completed >= 1;
  }
  EXPECT_TRUE(gtx_completed);
}

// ---- degradation ladder end-to-end -----------------------------------------

TEST(FleetServer, ShedsBrownsOutAndRejectsUnderLoad) {
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  fleet::FleetConfig cfg = two_device_config();
  cfg.shard.workers = 2;
  cfg.shard.queue_capacity = 8;
  cfg.shard.start_paused = true;  // requests pile up deterministically
  // Fleet capacity = 2 shards * (8 queue + 2 workers) = 20 slots.
  cfg.admission.shed_start = 0.30;     // tier 2 sheds at 6 in flight
  cfg.admission.brownout_start = 0.50;  // brownout at 10
  cfg.admission.reject_start = 0.70;    // reject at 14
  fleet::FleetServer server(cfg);

  std::vector<fleet::Pending<fleet::FleetResponse>> admitted;
  for (int i = 0; i < 6; ++i) {
    admitted.push_back(server.submit(make_request(graph, src, 0)));
  }
  // Occupancy 0.30: the lowest tier peels off first; settles immediately.
  auto shed2 = server.submit(make_request(graph, src, 2));
  ASSERT_EQ(shed2.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(shed2.get().status, fleet::FleetStatus::kShed);

  for (int i = 0; i < 4; ++i) {
    admitted.push_back(server.submit(make_request(graph, src, 0)));
  }
  // Occupancy 0.50: tier 1's evenly spaced threshold kicks in.
  auto shed1 = server.submit(make_request(graph, src, 1));
  EXPECT_EQ(shed1.get().status, fleet::FleetStatus::kShed);

  // Tier 0 never sheds — it browns out to kNaive instead.
  std::vector<fleet::Pending<fleet::FleetResponse>> browned;
  for (int i = 0; i < 4; ++i) {
    browned.push_back(server.submit(make_request(graph, src, 0)));
  }
  // Occupancy 0.70: saturation. Even tier 0 is refused now.
  auto rejected = server.submit(make_request(graph, src, 0));
  EXPECT_EQ(rejected.get().status, fleet::FleetStatus::kRejected);

  server.resume();
  for (auto& f : admitted) {
    fleet::FleetResponse resp = f.get();
    ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
    EXPECT_FALSE(resp.browned_out);
    EXPECT_EQ(compare(resp.serve.output, expect).max_abs, 0.0);
  }
  for (auto& f : browned) {
    fleet::FleetResponse resp = f.get();
    ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
    EXPECT_TRUE(resp.browned_out);
    EXPECT_EQ(resp.serve.variant_used, codegen::Variant::kNaive);
    // Brownout degrades the plan, never the pixels.
    EXPECT_EQ(compare(resp.serve.output, expect).max_abs, 0.0);
  }
  server.shutdown();

  const fleet::FleetStats stats = server.stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_GE(stats.rejected, 1u);
  ASSERT_EQ(stats.tiers.size(), 3u);
  EXPECT_EQ(stats.tiers[2].shed, 1u);
  EXPECT_EQ(stats.tiers[1].shed, 1u);
  EXPECT_EQ(stats.tiers[0].browned_out, 4u);
  EXPECT_EQ(stats.tiers[0].completed, 14u);
  for (const auto& d : stats.devices) EXPECT_EQ(d.rejected, 0u) << d.device;
}

// ---- one queue: placement at dequeue ----------------------------------------

TEST(FleetServer, IdleWorkerNeverWaitsBehindABusyShard) {
  // One worker per device. Every launch on the RTX2080 (the router's
  // preferred device) sleeps D of wall time. Two requests submitted back to
  // back must not serialize behind each other: the second is placed when a
  // worker takes it, so it runs at once — beside the first or on the
  // GTX680 — instead of waiting in a busy device's queue for 2·D.
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  fleet::FleetConfig cfg = two_device_config();
  cfg.shard.workers = 1;
  fleet::FleetServer server(cfg);
  // Compile on both devices first, so the timed requests pay only D.
  for (const char* device : {"GTX680", "RTX2080"}) {
    fleet::FleetRequest warm = make_request(graph, src);
    warm.pin_device = device;
    ASSERT_EQ(server.submit(warm).get().status, fleet::FleetStatus::kOk);
  }

  constexpr u64 kDelayMs = 300;
  resilience::FaultPlan plan;
  plan.rules.push_back({"device.launch", resilience::FaultKind::kDelay,
                        "RTX2080", 1.0, 0, kDelayMs});
  resilience::FaultInjector injector(plan);  // SystemClock: real sleep
  resilience::FaultInjector::ScopedInstall install(injector);

  auto first = server.submit(make_request(graph, src));
  auto second = server.submit(make_request(graph, src));
  const fleet::FleetResponse late = second.get();
  ASSERT_EQ(late.status, fleet::FleetStatus::kOk) << late.error;
  EXPECT_LT(late.total_ms, 1.5 * static_cast<f64>(kDelayMs))
      << "the second request waited behind the first on " << late.device;
  EXPECT_EQ(compare(late.serve.output, expect).max_abs, 0.0);
  EXPECT_EQ(first.get().status, fleet::FleetStatus::kOk);
  server.shutdown();
}

TEST(FleetServer, CheapAndCostlyGraphsArePlacedAlike) {
  // Placement scores a device by its load over its capacity: a graph's
  // modeled instruction count is the same on every device, so it would
  // scale every score alike. A 3x3 gaussian and a 13x13 bilateral therefore
  // follow the same device sequence. One worker per device, launches on the
  // RTX2080 delayed as above, and each request sent once the previous one
  // is placed, so every placement sees the same load.
  const auto src = make_source(32);
  const auto gaussian = make_graph(filters::make_gaussian_app());
  const auto bilateral = make_graph(filters::make_bilateral_app());
  fleet::FleetConfig cfg = two_device_config();
  cfg.shard.workers = 1;
  fleet::FleetServer server(cfg);
  for (const auto& graph : {gaussian, bilateral}) {
    for (const char* device : {"GTX680", "RTX2080"}) {
      fleet::FleetRequest warm = make_request(graph, src);
      warm.pin_device = device;
      ASSERT_EQ(server.submit(warm).get().status, fleet::FleetStatus::kOk);
    }
  }

  resilience::FaultPlan plan;
  plan.rules.push_back({"device.launch", resilience::FaultKind::kDelay,
                        "RTX2080", 1.0, 0, /*delay_ms=*/100});
  resilience::FaultInjector injector(plan);  // SystemClock: real sleep
  resilience::FaultInjector::ScopedInstall install(injector);
  // Placements so far: running now, or settled (counted after running).
  const auto placed = [&] {
    u64 n = 0;
    for (const fleet::FleetDeviceStats& d : server.stats().devices) {
      n += d.inflight + d.routed;
    }
    return n;
  };
  const auto sequence = [&](const auto& graph) {
    const u64 before = placed();
    std::vector<fleet::Pending<fleet::FleetResponse>> futures;
    for (u64 i = 1; i <= 4; ++i) {
      futures.push_back(server.submit(make_request(graph, src)));
      const auto give_up = std::chrono::steady_clock::now() +
                           std::chrono::seconds(10);
      while (placed() < before + i &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    std::vector<std::string> devices;
    for (auto& f : futures) {
      const fleet::FleetResponse resp = f.get();
      EXPECT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
      devices.push_back(resp.device);
    }
    return devices;
  };
  const std::vector<std::string> cheap = sequence(gaussian);
  EXPECT_EQ(cheap, sequence(bilateral));
  EXPECT_EQ(cheap.front(), "RTX2080");
  server.shutdown();
}

TEST(FleetServer, ShutdownSettlesFailoversInFlight) {
  // The RTX2080 is dead and the fleet is paused with requests queued; the
  // shutdown drain runs them, and each one that lands on the dead device
  // must still fail over to the GTX680 — not be rejected by a device that
  // already drained.
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  resilience::FaultPlan plan;
  plan.seed = 5;
  plan.rules.push_back({"device.launch", resilience::FaultKind::kThrow,
                        "RTX2080", 1.0, 0, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);

  fleet::FleetConfig cfg = two_device_config();
  cfg.shard.start_paused = true;
  cfg.device_breaker.failure_threshold = 2;
  cfg.device_breaker.open_cooldown_ms = 60'000;  // stays quarantined
  fleet::FleetServer server(cfg);

  constexpr int kRequests = 8;
  std::vector<fleet::Pending<fleet::FleetResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit(make_request(graph, src)));
  }
  server.shutdown();  // never resumed: the drain runs every request

  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "shutdown returned with a request unsettled";
    const fleet::FleetResponse resp = f.get();
    ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
    EXPECT_EQ(resp.device, "GTX680");
    EXPECT_EQ(compare(resp.serve.output, expect).max_abs, 0.0);
  }
  const fleet::FleetStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<u64>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<u64>(kRequests));
  EXPECT_GE(stats.failovers, 1u);
}

// ---- warm hand-off ----------------------------------------------------------
//
// A worker that settles a request and finds the queue empty spins briefly
// before it parks, and admit() skips the wake-up the spinner does not need.
// Each test below starts right after a settle, while that worker spins, and
// checks that no wake-up is lost and that pause, shutdown and the deadline
// sweeper keep their meaning.

using SteadyClock = std::chrono::steady_clock;

f64 ms_since(SteadyClock::time_point t0) {
  return std::chrono::duration<f64, std::milli>(SteadyClock::now() - t0)
      .count();
}

/// Polls `f` until it is ready and returns its response. The caller stays
/// awake, so its next submit follows a settle by its own work, not by the
/// host's latency in waking a parked thread.
fleet::FleetResponse await_awake(fleet::Pending<fleet::FleetResponse>& f) {
  while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
  }
  return f.get();
}

/// Whether two threads of this process run side by side right now: one
/// spins for up to the fleet's spin window waiting for the other, which
/// polls, to answer; true once any of 100 tries is answered in time. While
/// the host lends the process about one core, only one thread runs at a
/// time: no answer arrives, and no fleet request can be picked up warm.
bool threads_run_side_by_side() {
  std::atomic<int> ask{0};
  std::atomic<int> answer{0};
  std::atomic<bool> done{false};
  std::thread responder([&] {
    while (!done) {
      const int a = ask.load();
      if (a != answer.load()) answer.store(a);
    }
  });
  bool answered = false;
  for (int i = 1; i <= 100 && !answered; ++i) {
    ask.store(i);
    const SteadyClock::time_point until =
        SteadyClock::now() + fleet::FleetServer::kSpinWindow;
    while (answer.load() != i && SteadyClock::now() < until) {
    }
    answered = answer.load() == i;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done = true;
  responder.join();
  return answered;
}

/// Closed-loop rounds of 100 requests, one outstanding, from a caller that
/// stays awake, until a round ends with at least one warm pickup beyond
/// those counted before the first round, or 10 s of rounds have run. A
/// warm pickup needs the caller to run while the settling worker spins,
/// which a host that lends the process about one core does not allow
/// (threads_run_side_by_side), so a round can see none.
/// Returns the requests sent; each must settle kOk.
u64 closed_loop_until_warm(fleet::FleetServer& server,
                           const fleet::FleetRequest& request) {
  const SteadyClock::time_point t0 = SteadyClock::now();
  const u64 warm_before = server.stats().warm_pickups;
  u64 sent = 0;
  do {
    for (int i = 0; i < 100; ++i, ++sent) {
      fleet::Pending<fleet::FleetResponse> f = server.submit(request);
      const fleet::FleetResponse resp = await_awake(f);
      EXPECT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
    }
  } while (server.stats().warm_pickups == warm_before &&
           ms_since(t0) < 10'000.0);
  return sent;
}

TEST(FleetHandOff, OneDelayedRequestPerWorkerAllRunAtOnce) {
  // Every launch sleeps D of wall time. Each round submits one request per
  // worker right after the previous round settled. If admit() skipped a
  // wake-up that no spinner answered, a request would wait for a busy
  // worker and its round would take 2·D.
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  fleet::FleetConfig cfg = two_device_config();  // 2 devices x 2 workers
  const std::size_t workers =
      cfg.devices.size() * static_cast<std::size_t>(cfg.shard.workers);
  fleet::FleetServer server(cfg);
  for (const char* device : {"GTX680", "RTX2080"}) {
    fleet::FleetRequest warm = make_request(graph, src);
    warm.pin_device = device;
    ASSERT_EQ(server.submit(warm).get().status, fleet::FleetStatus::kOk);
  }

  constexpr u64 kDelayMs = 200;
  resilience::FaultPlan plan;
  plan.rules.push_back(
      {"device.launch", resilience::FaultKind::kDelay, "", 1.0, 0, kDelayMs});
  resilience::FaultInjector injector(plan);  // SystemClock: real sleep
  resilience::FaultInjector::ScopedInstall install(injector);

  for (int round = 0; round < 5; ++round) {
    const SteadyClock::time_point t0 = SteadyClock::now();
    std::vector<fleet::Pending<fleet::FleetResponse>> futures;
    for (std::size_t i = 0; i < workers; ++i) {
      futures.push_back(server.submit(make_request(graph, src)));
    }
    for (auto& f : futures) {
      const fleet::FleetResponse resp = f.get();
      ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
      EXPECT_EQ(compare(resp.serve.output, expect).max_abs, 0.0);
    }
    EXPECT_LT(ms_since(t0), 1.5 * static_cast<f64>(kDelayMs))
        << "round " << round << ": a request waited behind another";
  }
  server.shutdown();
  const fleet::FleetStats stats = server.stats();
  EXPECT_EQ(stats.completed, 2 + 5 * workers);
  EXPECT_LE(stats.warm_pickups, stats.completed);
}

TEST(FleetHandOff, PausedFleetRunsNothingUntilResume) {
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);
  fleet::FleetConfig cfg = two_device_config();
  cfg.devices = {sim::make_gtx680()};
  cfg.shard.workers = 1;
  fleet::FleetServer server(cfg);

  for (int round = 0; round < 10; ++round) {
    auto settled = server.submit(make_request(graph, src));
    ASSERT_EQ(await_awake(settled).status, fleet::FleetStatus::kOk);
    server.pause();  // the worker that just settled may still spin
    auto queued = server.submit(make_request(graph, src));
    ASSERT_EQ(queued.wait_for(std::chrono::milliseconds(50)),
              std::future_status::timeout)
        << "round " << round << ": a paused fleet ran a request";
    server.resume();
    const fleet::FleetResponse resp = queued.get();
    ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
    EXPECT_GE(resp.serve.queue_ms, 50.0);
  }
  server.shutdown();
}

TEST(FleetHandOff, ShutdownRightAfterASettleReturnsPromptly) {
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  for (const int queued : {0, 8}) {
    fleet::FleetServer server(two_device_config());
    ASSERT_EQ(server.submit(make_request(graph, src)).get().status,
              fleet::FleetStatus::kOk);
    std::vector<fleet::Pending<fleet::FleetResponse>> futures;
    for (int i = 0; i < queued; ++i) {
      futures.push_back(server.submit(make_request(graph, src)));
    }
    const SteadyClock::time_point t0 = SteadyClock::now();
    server.shutdown();
    // Each queued request is a 16x16 kernel; a worker left spinning or
    // parked without a wake-up would hold shutdown far longer than this.
    EXPECT_LT(ms_since(t0), 2000.0) << queued << " queued";
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "shutdown returned with a request unsettled";
      const fleet::FleetResponse resp = f.get();
      ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
      EXPECT_EQ(compare(resp.serve.output, expect).max_abs, 0.0);
    }
    EXPECT_EQ(server.stats().completed, static_cast<u64>(queued + 1));
  }
}

TEST(FleetHandOff, QueuedRequestExpiresThroughTheSweeper) {
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);
  fleet::FleetConfig cfg = two_device_config();
  cfg.devices = {sim::make_gtx680()};
  cfg.shard.workers = 1;
  fleet::FleetServer server(cfg);
  fleet::FleetRequest expiring = make_request(graph, src);
  expiring.deadline_ms = 20.0;

  // Paused right after a settle, the request stays queued while the worker
  // spins and then parks; only the sweeper can settle it.
  ASSERT_EQ(server.submit(make_request(graph, src)).get().status,
            fleet::FleetStatus::kOk);
  server.pause();
  const fleet::FleetResponse expired = server.submit(expiring).get();
  EXPECT_EQ(expired.status, fleet::FleetStatus::kDeadlineExpired);
  EXPECT_EQ(expired.dispatches, 0u);
  EXPECT_NE(expired.error.find("never dequeued"), std::string::npos)
      << expired.error;
  server.resume();

  // The sweeper's erase must store the queue's new length: a count left at
  // 1 would keep the next settling worker from spinning. Each round, a
  // launch delayed 50 ms holds the only worker, a request with a 20 ms
  // deadline expires behind it, and the request sent right after the
  // settle must be picked up warm. Rounds repeat until one is, for at most
  // 10 s (see closed_loop_until_warm for why one round may see none).
  const SteadyClock::time_point t0 = SteadyClock::now();
  u64 rounds = 0;
  u64 warm = 0;
  do {
    ++rounds;
    resilience::FaultPlan plan;
    plan.rules.push_back({"device.launch", resilience::FaultKind::kDelay, "",
                          1.0, /*max_fires=*/1, /*delay_ms=*/50});
    resilience::FaultInjector injector(plan);
    resilience::FaultInjector::ScopedInstall install(injector);
    auto held = server.submit(make_request(graph, src));
    const fleet::FleetResponse behind = server.submit(expiring).get();
    ASSERT_EQ(behind.status, fleet::FleetStatus::kDeadlineExpired);
    ASSERT_NE(behind.error.find("never dequeued"), std::string::npos)
        << behind.error;
    const u64 warm_before = server.stats().warm_pickups;  // held is running
    ASSERT_EQ(await_awake(held).status, fleet::FleetStatus::kOk);
    auto next = server.submit(make_request(graph, src));
    ASSERT_EQ(await_awake(next).status, fleet::FleetStatus::kOk);
    warm = server.stats().warm_pickups - warm_before;
  } while (warm == 0 && ms_since(t0) < 10'000.0);
  server.shutdown();
  const fleet::FleetStats stats = server.stats();
  EXPECT_EQ(stats.deadline_expired, 1 + rounds);
  EXPECT_EQ(stats.completed, 1 + 2 * rounds);
  if (warm == 0 && !threads_run_side_by_side()) {
    GTEST_SKIP() << "the host ran one thread at a time throughout";
  }
  EXPECT_GE(warm, 1u);
}

TEST(FleetHandOff, ClosedLoopRequestsArePickedUpWarm) {
  // One request outstanding at a time: the worker that settled one is still
  // spinning when the next arrives, so at least some need no wake-up.
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);
  fleet::FleetServer server(two_device_config());
  const u64 sent = closed_loop_until_warm(server, make_request(graph, src));
  server.shutdown();
  const fleet::FleetStats stats = server.stats();
  EXPECT_EQ(stats.completed, sent);
  EXPECT_LE(stats.warm_pickups, stats.completed);
  if (stats.warm_pickups == 0 && !threads_run_side_by_side()) {
    GTEST_SKIP() << "the host ran one thread at a time throughout";
  }
  EXPECT_GE(stats.warm_pickups, 1u);
}

/// Drives a one-worker fleet into its spin back-off: each request is sent
/// as soon as the spin after the previous settle has ended unanswered, so
/// each spin is missed, until a settle parks without spinning (no spin
/// shows within 50 ms) or 2 s have run (a quiet host needs ~0.1 s).
/// Returns whether a settle parked; `spins` is then the spin count at that
/// point. Each request must settle kOk.
bool drive_into_back_off(fleet::FleetServer& server,
                         const fleet::FleetRequest& request, u64& spins) {
  const SteadyClock::time_point t0 = SteadyClock::now();
  spins = server.stats().spins;
  while (ms_since(t0) < 2'000.0) {
    fleet::Pending<fleet::FleetResponse> f = server.submit(request);
    const fleet::FleetResponse resp = await_awake(f);
    EXPECT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
    const SteadyClock::time_point settled = SteadyClock::now();
    while (server.stats().spins == spins && ms_since(settled) < 50.0) {
    }
    const u64 now = server.stats().spins;
    if (now == spins) return true;
    spins = now;
  }
  return false;
}

// A request that comes within kSpinWindow of an unanswered spin's end
// missed the spin. After kMissedSpinLimit missed spins in a row a worker
// parks right after a settle; only every kMissedSpinLimit-th settle spins
// again, as a probe.
TEST(FleetHandOff, WorkersStopSpinningAfterMissedSpins) {
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);
  fleet::FleetConfig cfg = two_device_config();
  cfg.devices = {sim::make_gtx680()};
  cfg.shard.workers = 1;
  fleet::FleetServer server(cfg);
  constexpr u32 kLimit = fleet::FleetServer::kMissedSpinLimit;
  u64 spins = 0;
  if (!drive_into_back_off(server, make_request(graph, src), spins)) {
    server.shutdown();
    GTEST_SKIP() << "no " << kLimit
                 << " requests in a row came within the spin window";
  }
  EXPECT_GE(spins, kLimit);  // a fresh fleet backs off only after kLimit
  // That settle was the first of the back-off; the next kLimit - 2 park
  // too, and the one after them spins as a probe.
  for (u32 i = 2; i < kLimit; ++i) {
    ASSERT_EQ(server.submit(make_request(graph, src)).get().status,
              fleet::FleetStatus::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(server.stats().spins, spins) << "settle " << i;
  }
  ASSERT_EQ(server.submit(make_request(graph, src)).get().status,
            fleet::FleetStatus::kOk);
  const SteadyClock::time_point t0 = SteadyClock::now();
  while (server.stats().spins == spins && ms_since(t0) < 2000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().spins, spins + 1) << "the probe did not spin";
  server.shutdown();
}

// Requests that come later than a window after an unanswered spin did not
// miss it: a sparse caller keeps its spins, however many go unanswered.
TEST(FleetHandOff, SparseRequestsKeepTheirSpins) {
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);
  fleet::FleetConfig cfg = two_device_config();
  cfg.devices = {sim::make_gtx680()};
  cfg.shard.workers = 1;
  fleet::FleetServer server(cfg);
  constexpr u32 kRequests = 3 * fleet::FleetServer::kMissedSpinLimit;
  for (u32 i = 0; i < kRequests; ++i) {
    ASSERT_EQ(server.submit(make_request(graph, src)).get().status,
              fleet::FleetStatus::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.shutdown();
  EXPECT_EQ(server.stats().spins, kRequests);
}

// Backed off after missed spins, a closed loop on a quiet host still gets
// warm pickups: a probe spin that a request answers ends the back-off.
TEST(FleetHandOff, ClosedLoopIsPickedUpWarmAfterTheBackOff) {
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);
  fleet::FleetConfig cfg = two_device_config();
  cfg.devices = {sim::make_gtx680()};
  cfg.shard.workers = 1;
  fleet::FleetServer server(cfg);
  u64 spins = 0;
  if (!drive_into_back_off(server, make_request(graph, src), spins)) {
    server.shutdown();
    GTEST_SKIP() << "no " << fleet::FleetServer::kMissedSpinLimit
                 << " requests in a row came within the spin window";
  }
  const u64 warm_before = server.stats().warm_pickups;
  (void)closed_loop_until_warm(server, make_request(graph, src));
  server.shutdown();
  const fleet::FleetStats stats = server.stats();
  if (stats.warm_pickups == warm_before && !threads_run_side_by_side()) {
    GTEST_SKIP() << "the host ran one thread at a time throughout";
  }
  EXPECT_GT(stats.warm_pickups, warm_before);
}

// ---- pinned routing ---------------------------------------------------------

TEST(FleetServer, PinnedRequestsLandOnTheNamedDevice) {
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);

  fleet::FleetServer server(two_device_config());
  fleet::FleetRequest pinned = make_request(graph, src);
  pinned.pin_device = "GTX680";  // the router would prefer the RTX2080
  fleet::FleetResponse resp = server.submit(pinned).get();
  ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
  EXPECT_EQ(resp.device, "GTX680");

  fleet::FleetRequest unknown = make_request(graph, src);
  unknown.pin_device = "TPUv9";
  fleet::FleetResponse bad = server.submit(unknown).get();
  EXPECT_EQ(bad.status, fleet::FleetStatus::kError);
  EXPECT_NE(bad.error.find("unknown pinned device"), std::string::npos)
      << bad.error;
  server.shutdown();
}

// ---- deadline cuts ----------------------------------------------------------

/// A JIT artifact directory for this binary, removed at exit. -O0 keeps the
/// compiles short; the emitted float sequence does not depend on the level.
exec::JitConfig test_jit() {
  static const struct Dir {
    std::filesystem::path path = std::filesystem::temp_directory_path() /
                                 ("ispb-test-fleet-" +
                                  std::to_string(::getpid()));
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } dir;
  return {dir.path.string(), "", "-O0"};
}

fleet::FleetConfig native_config(pipeline::KernelCache& cache) {
  fleet::FleetConfig cfg = two_device_config();
  cfg.shard.executor.cache = &cache;
  cfg.shard.executor.backend = exec::Backend::kNative;
  return cfg;
}

TEST(FleetServer, CutIsBreakerNeutral) {
  // A request cut inside its native launch records no failure on a kernel,
  // "#native" or device breaker and triggers no fallback, so the next
  // request is served by ISP on the native engine, bit-identically.
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(128);
  const Image<f32>* inputs[] = {src.get()};
  const Image<f32> expect = dsl::run_reference(
      graph->stages[0].spec, BorderPattern::kClamp, 0.0f, inputs);
  pipeline::KernelCache cache(16);
  cache.set_jit(test_jit());
  fleet::FleetServer server(native_config(cache));
  fleet::FleetRequest req = make_request(graph, src);
  req.pin_device = "GTX680";
  ASSERT_EQ(server.submit(req).get().status, fleet::FleetStatus::kOk);

  resilience::FaultPlan plan;
  plan.rules.push_back({"device.launch", resilience::FaultKind::kDelay,
                        "GTX680", 1.0, /*max_fires=*/1, /*delay_ms=*/300});
  resilience::FaultInjector injector(plan);  // SystemClock: real sleep
  resilience::FaultInjector::ScopedInstall install(injector);
  fleet::FleetRequest cut_req = req;
  cut_req.deadline_ms = 30.0;
  const fleet::FleetResponse cut = server.submit(cut_req).get();
  ASSERT_EQ(cut.status, fleet::FleetStatus::kDeadlineExpired) << cut.error;
  EXPECT_EQ(cut.dispatches, 1u) << "a cut must not fail over";
  EXPECT_FALSE(cut.serve.served_by_fallback);
  EXPECT_FALSE(cut.serve.backend_fallback);
  EXPECT_EQ(server.stats().devices[0].watchdog_expired, 1u);
  for (std::size_t i = 0; i < server.num_shards(); ++i) {
    for (const resilience::BreakerSnapshot& b :
         server.shard_health(i).breakers) {
      EXPECT_EQ(b.state, resilience::BreakerState::kClosed) << b.kernel;
      EXPECT_EQ(b.consecutive_failures, 0u) << b.kernel;
      EXPECT_EQ(b.trips, 0u) << b.kernel;
    }
  }
  for (const resilience::BreakerSnapshot& b : server.device_health()) {
    EXPECT_EQ(b.consecutive_failures, 0u) << b.kernel;
    EXPECT_EQ(b.trips, 0u) << b.kernel;
  }

  const fleet::FleetResponse next = server.submit(req).get();
  ASSERT_EQ(next.status, fleet::FleetStatus::kOk) << next.error;
  EXPECT_EQ(next.serve.variant_used, codegen::Variant::kIsp);
  EXPECT_EQ(next.serve.backend_used, exec::Backend::kNative);
  EXPECT_FALSE(next.serve.served_by_fallback);
  EXPECT_FALSE(next.serve.backend_fallback);
  EXPECT_EQ(compare(next.serve.output, expect).max_abs, 0.0);
  server.shutdown();
}

TEST(FleetServer, NativeCutSettlesBeforeTheUncutTime) {
  // Overrun bound: a native chain stops at its next strip once the stop
  // passed, so a request given half its uncut time settles before the
  // uncut time is up (warm cache: no compile inside the timings).
  const auto graph = make_graph(filters::make_night_app());
  const auto src = make_source(2048);
  pipeline::KernelCache cache(16);
  cache.set_jit(test_jit());
  fleet::FleetConfig cfg = native_config(cache);
  cfg.devices = {sim::make_gtx680()};
  cfg.shard.workers = 1;
  fleet::FleetServer server(cfg);
  const auto run = [&](f64 deadline_ms) {
    fleet::FleetRequest req = make_request(graph, src);
    req.deadline_ms = deadline_ms;
    return server.submit(std::move(req)).get();
  };
  ASSERT_EQ(run(0.0).status, fleet::FleetStatus::kOk);
  std::vector<f64> uncut;
  for (int i = 0; i < 5; ++i) {
    const fleet::FleetResponse resp = run(0.0);
    ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
    uncut.push_back(resp.total_ms);
  }
  std::sort(uncut.begin(), uncut.end());
  const f64 uncut_ms = uncut[2];  // median
  const fleet::FleetResponse cut = run(uncut_ms / 2.0);
  EXPECT_EQ(cut.status, fleet::FleetStatus::kDeadlineExpired) << cut.error;
  EXPECT_LT(cut.total_ms, uncut_ms)
      << "cut after " << cut.total_ms << " ms; uncut " << uncut_ms << " ms";
  server.shutdown();
}

// ---- caller poll -------------------------------------------------------------
//
// submit() returns a Pending handle whose get() polls for a budget fixed at
// submit before it parks: kSpinWindow for a request that went straight to
// a free worker while recent executions were short, 0 otherwise. Whether
// the settle lands inside the poll, after it or at submit, get() returns
// the response the worker settled.

/// Whether two images hold the same bits in every pixel (compare() reads
/// 0.0f and -0.0f as equal).
bool same_bits(const Image<f32>& a, const Image<f32>& b) {
  if (a.size() != b.size()) return false;
  for (i32 y = 0; y < a.height(); ++y) {
    for (i32 x = 0; x < a.width(); ++x) {
      if (std::bit_cast<u32>(a(x, y)) != std::bit_cast<u32>(b(x, y))) {
        return false;
      }
    }
  }
  return true;
}

/// A served response with every field a one-device kOk settle gives.
void expect_served(const fleet::FleetResponse& resp, const Image<f32>& expect,
                   const std::string& device) {
  ASSERT_EQ(resp.status, fleet::FleetStatus::kOk) << resp.error;
  EXPECT_EQ(resp.serve.status, pipeline::ServeStatus::kOk);
  EXPECT_TRUE(resp.error.empty()) << resp.error;
  EXPECT_EQ(resp.device, device);
  EXPECT_EQ(resp.dispatches, 1u);
  EXPECT_FALSE(resp.browned_out);
  EXPECT_GE(resp.total_ms, resp.serve.exec_ms);
  EXPECT_TRUE(same_bits(resp.serve.output, expect));
}

fleet::FleetConfig one_worker_config() {
  fleet::FleetConfig cfg = two_device_config();
  cfg.devices = {sim::make_gtx680()};
  cfg.shard.workers = 1;
  return cfg;
}

constexpr std::chrono::nanoseconds kPoll = fleet::FleetServer::kSpinWindow;

TEST(FleetHandOff, PendingPollSeesASettleWithinItsBudget) {
  // The handle alone: a budget far longer than the settle's delay, so the
  // settle lands inside the poll, and the value is the one set.
  for (int round = 0; round < 20; ++round) {
    std::promise<fleet::FleetResponse> promise;
    fleet::Pending<fleet::FleetResponse> pending(promise.get_future(),
                                                 std::chrono::seconds(10));
    ASSERT_TRUE(pending.valid());
    ASSERT_EQ(pending.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    std::thread settler([&promise, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
      fleet::FleetResponse resp;
      resp.device = "GTX680";
      resp.dispatches = static_cast<u32>(round);
      resp.serve.output = make_gradient_image({4, 4});
      promise.set_value(std::move(resp));
    });
    const SteadyClock::time_point t0 = SteadyClock::now();
    const fleet::FleetResponse got = pending.get();
    EXPECT_LT(ms_since(t0), 5'000.0) << "the poll ran out before the settle";
    settler.join();
    EXPECT_FALSE(pending.valid());
    EXPECT_EQ(got.device, "GTX680");
    EXPECT_EQ(got.dispatches, static_cast<u32>(round));
    EXPECT_TRUE(same_bits(got.serve.output, make_gradient_image({4, 4})));
  }
}

TEST(FleetHandOff, GetReturnsTheResponseSettledInsideThePoll) {
  // Native 16x16 gaussian, one worker: once the first requests (the JIT
  // compile among them) have left the average of recent executions, each
  // request is granted the poll and its settle usually lands inside it —
  // get() was called before the settle and returned within the budget.
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);
  pipeline::KernelCache cache(16);
  cache.set_jit(test_jit());
  fleet::FleetConfig cfg = native_config(cache);
  cfg.devices = {sim::make_gtx680()};
  cfg.shard.workers = 1;
  fleet::FleetServer server(cfg);

  const f64 poll_ms = std::chrono::duration<f64, std::milli>(kPoll).count();
  const SteadyClock::time_point t0 = SteadyClock::now();
  u64 granted = 0;
  u64 fit = 0;  // granted, and settled within the budget of its submit
  u64 inside = 0;
  while (inside < 3 && ms_since(t0) < 2'000.0) {
    fleet::Pending<fleet::FleetResponse> f =
        server.submit(make_request(graph, src));
    const bool polls = f.poll_budget() == kPoll;
    const bool unsettled =
        f.wait_for(std::chrono::seconds(0)) == std::future_status::timeout;
    const SteadyClock::time_point called = SteadyClock::now();
    const fleet::FleetResponse resp = f.get();
    const auto waited = SteadyClock::now() - called;
    ASSERT_NO_FATAL_FAILURE(expect_served(resp, expect, "GTX680"));
    if (!polls) continue;
    ++granted;
    if (resp.total_ms < poll_ms) ++fit;
    if (unsettled && waited < kPoll) ++inside;
  }
  server.shutdown();
  EXPECT_EQ(server.stats().completed, server.stats().submitted);
  if (inside == 0) {
    // The poll catches only a settle that comes within the window of the
    // submit: not on a build whose requests take longer (a sanitizer
    // build, say), nor on a host that runs one thread at a time, where
    // the worker settles only while the caller is off the CPU.
    if (fit == 0) {
      GTEST_SKIP() << "none of " << granted
                   << " granted requests settled within the poll window";
    }
    if (!threads_run_side_by_side()) {
      GTEST_SKIP() << "the host ran one thread at a time throughout";
    }
  }
  EXPECT_GE(inside, 1u) << fit << " of " << granted
                        << " granted requests settled within the window";
}

TEST(FleetHandOff, GetReturnsTheResponseSettledAfterThePoll) {
  // A fresh fleet has no long execution on record, so its first request is
  // granted the poll; a 50 ms launch delay makes the settle land long
  // after it, and get() parks until then.
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);
  fleet::FleetServer server(one_worker_config());
  resilience::FaultPlan plan;
  plan.rules.push_back({"device.launch", resilience::FaultKind::kDelay, "",
                        1.0, /*max_fires=*/1, /*delay_ms=*/50});
  resilience::FaultInjector injector(plan);  // SystemClock: real sleep
  resilience::FaultInjector::ScopedInstall install(injector);

  fleet::Pending<fleet::FleetResponse> f =
      server.submit(make_request(graph, src));
  EXPECT_EQ(f.poll_budget(), kPoll);
  const SteadyClock::time_point called = SteadyClock::now();
  const fleet::FleetResponse resp = f.get();
  EXPECT_GE(ms_since(called), 40.0) << "get() returned before the settle";
  ASSERT_NO_FATAL_FAILURE(expect_served(resp, expect, "GTX680"));
  EXPECT_GE(resp.serve.exec_ms, 50.0);
  server.shutdown();
}

TEST(FleetHandOff, GetReturnsSettlesDecidedAtSubmit) {
  // Shed, rejected for a full queue, rejected after shutdown: each settles
  // inside submit(), needs no poll, and reads what admission decided.
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);
  fleet::FleetConfig cfg = one_worker_config();
  cfg.shard.queue_capacity = 2;
  cfg.shard.start_paused = true;  // requests pile up deterministically
  // 3 slots (2 queued + 1 worker): tier 2 sheds at 1 in flight.
  cfg.admission.shed_start = 0.30;
  cfg.admission.brownout_start = 2.0;
  cfg.admission.reject_start = 2.0;
  fleet::FleetServer server(cfg);

  const auto expect_refused = [](fleet::Pending<fleet::FleetResponse> f,
                                 fleet::FleetStatus status,
                                 const std::string& why) {
    EXPECT_EQ(f.poll_budget(), std::chrono::nanoseconds::zero());
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const fleet::FleetResponse resp = f.get();
    EXPECT_EQ(resp.status, status) << resp.error;
    EXPECT_EQ(resp.serve.status, pipeline::ServeStatus::kRejected);
    EXPECT_NE(resp.error.find(why), std::string::npos) << resp.error;
    EXPECT_EQ(resp.serve.error, resp.error);
    EXPECT_EQ(resp.dispatches, 0u);
    EXPECT_TRUE(resp.device.empty());
    EXPECT_EQ(resp.serve.output.size(), Size2{});
    EXPECT_EQ(resp.serve.queue_ms, 0.0);
    EXPECT_EQ(resp.serve.exec_ms, 0.0);
  };

  std::vector<fleet::Pending<fleet::FleetResponse>> queued;
  queued.push_back(server.submit(make_request(graph, src, 0)));
  expect_refused(server.submit(make_request(graph, src, 2)),
                 fleet::FleetStatus::kShed, "shed tier 2");
  queued.push_back(server.submit(make_request(graph, src, 0)));
  expect_refused(server.submit(make_request(graph, src, 0)),
                 fleet::FleetStatus::kRejected, "queue full");
  server.shutdown();  // never resumed: the drain runs both
  expect_refused(server.submit(make_request(graph, src, 0)),
                 fleet::FleetStatus::kRejected, "fleet shut down");
  for (auto& f : queued) {
    EXPECT_EQ(f.get().status, fleet::FleetStatus::kOk);
  }
  const fleet::FleetStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.rejected, 2u);
}

TEST(FleetHandOff, NoPollAfterLongExecutions) {
  // One 50 ms execution puts the average of recent executions far above
  // the window: the next request goes straight to the idle worker, yet
  // its caller parks at once.
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);
  fleet::FleetServer server(one_worker_config());
  {
    resilience::FaultPlan plan;
    plan.rules.push_back({"device.launch", resilience::FaultKind::kDelay, "",
                          1.0, /*max_fires=*/1, /*delay_ms=*/50});
    resilience::FaultInjector injector(plan);
    resilience::FaultInjector::ScopedInstall install(injector);
    ASSERT_NO_FATAL_FAILURE(expect_served(
        server.submit(make_request(graph, src)).get(), expect, "GTX680"));
  }
  for (int i = 0; i < 3; ++i) {
    fleet::Pending<fleet::FleetResponse> f =
        server.submit(make_request(graph, src));
    EXPECT_EQ(f.poll_budget(), std::chrono::nanoseconds::zero())
        << "request " << i;
    ASSERT_NO_FATAL_FAILURE(expect_served(f.get(), expect, "GTX680"));
  }
  server.shutdown();
}

TEST(FleetHandOff, NoPollBehindAQueuedRequest) {
  // One worker, every launch delayed 50 ms: the first request of a fresh
  // fleet is granted the poll; those submitted while it runs wait behind
  // it (and behind each other) and are not. A paused fleet grants none.
  const auto app = filters::make_gaussian_app();
  const auto graph = make_graph(app);
  const auto src = make_source(16);
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);
  {
    fleet::FleetServer server(one_worker_config());
    resilience::FaultPlan plan;
    plan.rules.push_back({"device.launch", resilience::FaultKind::kDelay, "",
                          1.0, /*max_fires=*/0, /*delay_ms=*/50});
    resilience::FaultInjector injector(plan);
    resilience::FaultInjector::ScopedInstall install(injector);
    std::vector<fleet::Pending<fleet::FleetResponse>> futures;
    for (int i = 0; i < 3; ++i) {
      futures.push_back(server.submit(make_request(graph, src)));
    }
    EXPECT_EQ(futures[0].poll_budget(), kPoll);
    EXPECT_EQ(futures[1].poll_budget(), std::chrono::nanoseconds::zero());
    EXPECT_EQ(futures[2].poll_budget(), std::chrono::nanoseconds::zero());
    for (auto& f : futures) {
      ASSERT_NO_FATAL_FAILURE(expect_served(f.get(), expect, "GTX680"));
    }
    server.shutdown();
  }
  fleet::FleetConfig cfg = one_worker_config();
  cfg.shard.start_paused = true;
  fleet::FleetServer paused(cfg);
  fleet::Pending<fleet::FleetResponse> f =
      paused.submit(make_request(graph, src));
  EXPECT_EQ(f.poll_budget(), std::chrono::nanoseconds::zero());
  paused.resume();
  ASSERT_NO_FATAL_FAILURE(expect_served(f.get(), expect, "GTX680"));
  paused.shutdown();
}

TEST(FleetHandOff, WaitForZeroOnAnUnsettledHandleTimesOut) {
  const auto graph = make_graph(filters::make_gaussian_app());
  const auto src = make_source(16);
  fleet::FleetConfig cfg = one_worker_config();
  cfg.shard.start_paused = true;
  fleet::FleetServer server(cfg);
  fleet::Pending<fleet::FleetResponse> f =
      server.submit(make_request(graph, src));
  ASSERT_TRUE(f.valid());
  EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  EXPECT_EQ(f.wait_for(std::chrono::milliseconds(5)),
            std::future_status::timeout);
  server.resume();
  f.wait();
  EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ASSERT_TRUE(f.valid());
  EXPECT_EQ(f.get().status, fleet::FleetStatus::kOk);
  EXPECT_FALSE(f.valid());
  server.shutdown();
}

// ---- device chaos plan shape ------------------------------------------------

TEST(DeviceChaosPlan, LeavesOneSurvivorAndIsDeterministic) {
  const std::vector<std::string> devices = {"GTX680", "RTX2080", "RTX2080#2"};
  const auto a = resilience::FaultPlan::device_chaos(42, devices, "mix");
  const auto b = resilience::FaultPlan::device_chaos(42, devices, "mix");
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (std::size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].point, b.rules[i].point);
    EXPECT_EQ(a.rules[i].match, b.rules[i].match);
    EXPECT_EQ(a.rules[i].kind, b.rules[i].kind);
  }
  // Exactly one device carries no rules at all (the survivor).
  int survivors = 0;
  for (const std::string& d : devices) {
    bool afflicted = false;
    for (const auto& r : a.rules) afflicted |= r.match == d;
    survivors += afflicted ? 0 : 1;
  }
  EXPECT_EQ(survivors, 1);
  // A single-device fleet is never afflicted.
  EXPECT_TRUE(
      resilience::FaultPlan::device_chaos(42, {"GTX680"}, "kill").rules.empty());
}

}  // namespace
}  // namespace ispb
