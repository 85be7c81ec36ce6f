// Resilience layer: injectable clocks, retry/backoff determinism, circuit
// breaker state machine, deterministic fault injection, cache corrupt-and-
// detect healing, deadline cuts, and the end-to-end breaker fallback (serve
// naive while ISP fails, restore ISP via half-open probe, also when a probe
// ends without a verdict).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dsl/runtime.hpp"
#include "filters/filters.hpp"
#include "image/compare.hpp"
#include "image/generators.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/kernel_cache.hpp"
#include "pipeline/kernel_graph.hpp"
#include "pipeline/server.hpp"
#include "resilience/circuit_breaker.hpp"
#include "resilience/clock.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/health.hpp"
#include "resilience/retry.hpp"

namespace ispb {
namespace {

using resilience::BreakerState;
using resilience::CircuitBreaker;
using resilience::FaultKind;
using resilience::FaultPlan;
using resilience::FaultRule;
using ExecutorStage = pipeline::ExecutorResult::Stage;

// ---- clock ------------------------------------------------------------------

TEST(VirtualClock, SleepAdvancesTime) {
  resilience::VirtualClock clock(100);
  EXPECT_EQ(clock.now_ms(), 100u);
  clock.sleep_ms(25);
  EXPECT_EQ(clock.now_ms(), 125u);
  clock.advance(5);
  EXPECT_EQ(clock.now_ms(), 130u);
}

TEST(VirtualClock, ClockOrSystemFallsBackToWallClock) {
  resilience::Clock& wall = resilience::clock_or_system(nullptr);
  EXPECT_GT(wall.now_ms(), 0u);
  resilience::VirtualClock virt;
  EXPECT_EQ(&resilience::clock_or_system(&virt), &virt);
}

// ---- retry ------------------------------------------------------------------

TEST(RetryPolicy, BackoffIsDeterministicAndBounded) {
  resilience::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_delay_ms = 2;
  policy.max_delay_ms = 50;
  policy.seed = 7;

  u64 prev = policy.base_delay_ms;
  std::vector<u64> schedule;
  for (u32 attempt = 1; attempt <= 7; ++attempt) {
    const u64 sleep = policy.backoff_ms(attempt, prev);
    EXPECT_GE(sleep, policy.base_delay_ms);
    EXPECT_LE(sleep, policy.max_delay_ms);
    schedule.push_back(sleep);
    prev = sleep;
  }
  // Replaying the identical policy must reproduce the identical schedule.
  prev = policy.base_delay_ms;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(policy.backoff_ms(static_cast<u32>(i) + 1, prev), schedule[i]);
    prev = schedule[i];
  }
}

TEST(RetryCall, SucceedsAfterTransientFailures) {
  resilience::RetryPolicy policy;
  policy.max_attempts = 5;
  resilience::VirtualClock clock;
  resilience::RetryOutcome outcome;
  int calls = 0;
  const int result = resilience::retry_call(
      policy, &clock,
      [&] {
        if (++calls < 3) throw std::runtime_error("transient");
        return 42;
      },
      &outcome);
  EXPECT_EQ(result, 42);
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_TRUE(outcome.succeeded);
  // Backoff was slept on the virtual clock, never the wall clock.
  EXPECT_EQ(clock.elapsed_ms(), outcome.backoff_ms);
  EXPECT_GT(outcome.backoff_ms, 0u);
}

TEST(RetryCall, GivesUpAfterMaxAttempts) {
  resilience::RetryPolicy policy;
  policy.max_attempts = 3;
  resilience::VirtualClock clock;
  resilience::RetryOutcome outcome;
  int calls = 0;
  EXPECT_THROW(resilience::retry_call(
                   policy, &clock,
                   [&]() -> int { ++calls; throw std::runtime_error("hard"); },
                   &outcome),
               std::runtime_error);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_FALSE(outcome.succeeded);
}

TEST(RetryCall, NeverRetriesContractErrors) {
  resilience::RetryPolicy policy;
  policy.max_attempts = 5;
  resilience::VirtualClock clock;
  int calls = 0;
  EXPECT_THROW(resilience::retry_call(policy, &clock,
                                      [&]() -> int {
                                        ++calls;
                                        throw ContractError("logic bug");
                                      }),
               ContractError);
  EXPECT_EQ(calls, 1) << "a logic error must not be retried";
  EXPECT_EQ(clock.elapsed_ms(), 0u);
}

// ---- fault injector ---------------------------------------------------------

TEST(FaultInjector, CertainThrowRuleFiresAndNamesThePoint) {
  FaultPlan plan;
  plan.rules.push_back({"executor.stage", FaultKind::kThrow, "", 1.0, 0, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);
  try {
    resilience::fault_point("executor.stage", "gaussian3");
    FAIL() << "expected InjectedFault";
  } catch (const resilience::InjectedFault& e) {
    EXPECT_EQ(e.point(), "executor.stage");
  }
  // Unrelated points are untouched.
  resilience::fault_point("server.exec", "gaussian");
}

TEST(FaultInjector, MatchRestrictsRuleToDetailSubstring) {
  FaultPlan plan;
  plan.rules.push_back({"compile.lower", FaultKind::kThrow, "/isp", 1.0, 0, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);
  EXPECT_THROW(resilience::fault_point("compile.lower", "gaussian3/isp"),
               resilience::InjectedFault);
  resilience::fault_point("compile.lower", "gaussian3/naive");  // must pass
}

TEST(FaultInjector, MaxFiresModelsATransientFault) {
  FaultPlan plan;
  plan.rules.push_back({"cache.insert", FaultKind::kThrow, "", 1.0, 2, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);
  EXPECT_THROW(resilience::fault_point("cache.insert"),
               resilience::InjectedFault);
  EXPECT_THROW(resilience::fault_point("cache.insert"),
               resilience::InjectedFault);
  resilience::fault_point("cache.insert");  // fault has cleared
  EXPECT_EQ(injector.total_fires(), 2u);
}

TEST(FaultInjector, DelayRuleSleepsOnInjectedClock) {
  FaultPlan plan;
  plan.rules.push_back({"launcher.launch", FaultKind::kDelay, "", 1.0, 0, 15});
  resilience::VirtualClock clock;
  resilience::FaultInjector injector(plan, &clock);
  resilience::FaultInjector::ScopedInstall install(injector);
  resilience::fault_point("launcher.launch", "k");
  EXPECT_EQ(clock.elapsed_ms(), 15u);
  const auto counters = injector.counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].delayed, 1u);
}

TEST(FaultInjector, CorruptRuleAnswersShouldCorrupt) {
  FaultPlan plan;
  plan.rules.push_back({"cache.insert", FaultKind::kCorrupt, "", 1.0, 1, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);
  resilience::fault_point("cache.insert");  // kCorrupt never throws
  EXPECT_TRUE(resilience::fault_corrupt("cache.insert"));
  EXPECT_FALSE(resilience::fault_corrupt("cache.insert")) << "max_fires = 1";
}

TEST(FaultInjector, SameSeedSameFiringSequence) {
  // The acceptance contract: identical plans produce identical firing logs
  // and counters under an identical (single-threaded) drive.
  const FaultPlan plan = FaultPlan::chaos(0xfeedu);
  auto drive = [](resilience::FaultInjector& injector) {
    resilience::FaultInjector::ScopedInstall install(injector);
    for (int i = 0; i < 200; ++i) {
      try {
        resilience::fault_point("compile.lower", "gaussian3/isp");
        resilience::fault_point("cache.insert", "gaussian3");
        resilience::fault_point("executor.stage", "gaussian3");
      } catch (const resilience::InjectedFault&) {
      }
      (void)resilience::fault_corrupt("cache.insert", "gaussian3");
    }
  };
  resilience::VirtualClock clock_a, clock_b;
  resilience::FaultInjector a(plan, &clock_a);
  resilience::FaultInjector b(plan, &clock_b);
  drive(a);
  drive(b);
  EXPECT_GT(a.total_fires(), 0u) << "chaos plan never fired in 200 rounds";
  EXPECT_EQ(a.firing_log(), b.firing_log());
  EXPECT_EQ(clock_a.elapsed_ms(), clock_b.elapsed_ms());
  const auto ca = a.counters();
  const auto cb = b.counters();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].point, cb[i].point);
    EXPECT_EQ(ca[i].evaluated, cb[i].evaluated);
    EXPECT_EQ(ca[i].thrown, cb[i].thrown);
    EXPECT_EQ(ca[i].delayed, cb[i].delayed);
    EXPECT_EQ(ca[i].corrupted, cb[i].corrupted);
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  auto fires_of = [](u64 seed) {
    const FaultPlan plan = FaultPlan::chaos(seed);
    resilience::VirtualClock clock;
    resilience::FaultInjector injector(plan, &clock);
    resilience::FaultInjector::ScopedInstall install(injector);
    for (int i = 0; i < 200; ++i) {
      try {
        resilience::fault_point("executor.stage", "k");
      } catch (const resilience::InjectedFault&) {
      }
    }
    return injector.firing_log();
  };
  EXPECT_NE(fires_of(1), fires_of(2));
}

// ---- circuit breaker --------------------------------------------------------

TEST(CircuitBreaker, TripsAfterThresholdAndShortCircuits) {
  resilience::BreakerConfig config;
  config.failure_threshold = 3;
  config.open_cooldown_ms = 100;
  resilience::VirtualClock clock;
  resilience::CircuitBreaker breaker("gaussian3", config, &clock);

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.snapshot().state, BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow()) << "open breaker must short-circuit";
  EXPECT_EQ(breaker.snapshot().trips, 1u);
  EXPECT_EQ(breaker.snapshot().short_circuits, 1u);
}

TEST(CircuitBreaker, HalfOpenProbeSuccessCloses) {
  resilience::BreakerConfig config;
  config.failure_threshold = 1;
  config.open_cooldown_ms = 50;
  config.half_open_probes = 1;
  resilience::VirtualClock clock;
  resilience::CircuitBreaker breaker("k", config, &clock);

  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();  // trips
  EXPECT_FALSE(breaker.allow());
  clock.advance(60);  // cooldown elapses
  EXPECT_TRUE(breaker.allow()) << "half-open must admit a probe";
  EXPECT_EQ(breaker.snapshot().state, BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.allow()) << "only half_open_probes probes admitted";
  breaker.record_success();
  EXPECT_EQ(breaker.snapshot().state, BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopens) {
  resilience::BreakerConfig config;
  config.failure_threshold = 1;
  config.open_cooldown_ms = 50;
  resilience::VirtualClock clock;
  resilience::CircuitBreaker breaker("k", config, &clock);

  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();
  clock.advance(60);
  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();  // probe fails
  EXPECT_EQ(breaker.snapshot().state, BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow());
  EXPECT_EQ(breaker.snapshot().trips, 2u);
  clock.advance(60);
  EXPECT_TRUE(breaker.allow()) << "another cooldown, another probe";
}

TEST(CircuitBreaker, HalfOpenHammerAdmitsExactlyOneProbePerEpisode) {
  // The fleet's probe-first router leans on half-open admitting *exactly*
  // half_open_probes concurrent callers. Hammer allow() from many threads
  // across repeated quarantine episodes: one winner per episode, and the
  // state machine must come out coherent every time (TSan covers the
  // data-race side of this in CI).
  resilience::BreakerConfig config;
  config.failure_threshold = 1;
  config.open_cooldown_ms = 10;
  config.half_open_probes = 1;
  resilience::VirtualClock clock;
  resilience::CircuitBreaker breaker("device:hammer", config, &clock);

  constexpr int kThreads = 12;
  constexpr int kEpisodes = 50;
  for (int episode = 0; episode < kEpisodes; ++episode) {
    breaker.record_failure();  // trip into quarantine
    ASSERT_EQ(breaker.snapshot().state, BreakerState::kOpen);
    clock.advance(config.open_cooldown_ms + 1);

    std::atomic<bool> go{false};
    std::atomic<int> admitted{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        if (breaker.allow()) admitted.fetch_add(1, std::memory_order_relaxed);
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    ASSERT_EQ(admitted.load(), 1)
        << "episode " << episode << ": half-open admitted the wrong number";
    EXPECT_EQ(breaker.snapshot().state, BreakerState::kHalfOpen);

    // Resolve the probe both ways across episodes; either outcome must
    // leave a state the next episode can trip from.
    if (episode % 2 == 0) {
      breaker.record_success();
      EXPECT_EQ(breaker.snapshot().state, BreakerState::kClosed);
    } else {
      breaker.record_failure();  // probe failed: straight back to open
      EXPECT_EQ(breaker.snapshot().state, BreakerState::kOpen);
      clock.advance(config.open_cooldown_ms + 1);
      EXPECT_TRUE(breaker.allow());
      breaker.record_success();
      EXPECT_EQ(breaker.snapshot().state, BreakerState::kClosed);
    }
  }
  const resilience::BreakerSnapshot snap = breaker.snapshot();
  EXPECT_EQ(snap.state, BreakerState::kClosed);
  EXPECT_GE(snap.trips, static_cast<u64>(kEpisodes));
}

TEST(CircuitBreaker, StateMachineSurvivesChaoticConcurrentCallers) {
  // No scripted episodes: threads race allow()/record_success()/
  // record_failure() while another advances the clock. The breaker makes no
  // fairness promise here — the assertion is purely that the state machine
  // never corrupts: snapshot() always reads a legal state and the breaker
  // still operates normally (trip, quarantine, probe, close) afterwards.
  resilience::BreakerConfig config;
  config.failure_threshold = 2;
  config.open_cooldown_ms = 5;
  config.half_open_probes = 1;
  resilience::VirtualClock clock;
  resilience::CircuitBreaker breaker("device:chaos", config, &clock);

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      u64 rng = 0x9e3779b97f4a7c15ull * static_cast<u64>(t + 1);
      for (int i = 0; i < kItersPerThread; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        if (breaker.allow()) {
          if ((rng & 3) == 0) {
            breaker.record_failure();
          } else {
            breaker.record_success();
          }
        } else if ((rng & 7) == 0) {
          clock.advance(config.open_cooldown_ms + 1);
        }
        const BreakerState s = breaker.snapshot().state;
        ASSERT_TRUE(s == BreakerState::kClosed || s == BreakerState::kOpen ||
                    s == BreakerState::kHalfOpen);
      }
    });
  }
  for (auto& t : threads) t.join();

  // The breaker must still work after the storm.
  clock.advance(config.open_cooldown_ms + 1);
  while (breaker.snapshot().state != BreakerState::kClosed) {
    if (breaker.allow()) breaker.record_success();
    clock.advance(config.open_cooldown_ms + 1);
  }
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.snapshot().state, BreakerState::kOpen);
  clock.advance(config.open_cooldown_ms + 1);
  EXPECT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.snapshot().state, BreakerState::kClosed);
}

TEST(BreakerRegistry, SharesBreakersByKernelName) {
  resilience::VirtualClock clock;
  resilience::BreakerRegistry registry({}, &clock);
  resilience::CircuitBreaker& a = registry.get("gaussian3");
  resilience::CircuitBreaker& b = registry.get("gaussian3");
  EXPECT_EQ(&a, &b);
  (void)registry.get("laplace5");
  const auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].kernel, "gaussian3");  // sorted by kernel name
  EXPECT_EQ(snaps[1].kernel, "laplace5");
}

TEST(HealthState, DegradedWhenAnyBreakerNotClosed) {
  resilience::HealthState h;
  EXPECT_FALSE(h.degraded());
  h.breakers.push_back({"k", BreakerState::kClosed, 0, 0, 0, 0});
  EXPECT_FALSE(h.degraded());
  h.breakers.push_back({"j", BreakerState::kOpen, 3, 1, 0, 0});
  EXPECT_TRUE(h.degraded());
  h.breakers.clear();
  EXPECT_FALSE(h.degraded());
}

// ---- kernel cache: corrupt-and-detect, fill retry ---------------------------

TEST(KernelCacheResilience, PoisonedEntryIsDetectedAndHealed) {
  FaultPlan plan;
  plan.rules.push_back({"cache.insert", FaultKind::kCorrupt, "", 1.0, 1, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);

  pipeline::KernelCache cache(8);
  const auto spec = filters::gaussian_spec(3);
  codegen::CodegenOptions options;
  options.variant = codegen::Variant::kIsp;

  // The filler gets the good kernel even though the stored entry is
  // poisoned behind it.
  const auto first = cache.get_or_compile(spec, options);
  ASSERT_NE(first, nullptr);
  EXPECT_GE(first->regs_per_thread, 0);
  EXPECT_EQ(cache.stats().poisoned, 0u) << "poison detected too early";

  // The next lookup must detect the poison, heal by recompiling, and serve
  // a valid kernel — a corrupt entry can never reach a launch.
  const auto second = cache.get_or_compile(spec, options);
  ASSERT_NE(second, nullptr);
  EXPECT_GE(second->regs_per_thread, 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.poisoned, 1u);
  EXPECT_EQ(stats.misses, 2u) << "healing recompiles";

  // Healed: the third lookup is a plain hit.
  (void)cache.get_or_compile(spec, options);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().poisoned, 1u);
}

TEST(KernelCacheResilience, FillRetriesRecoverInjectedInsertFailures) {
  FaultPlan plan;
  plan.rules.push_back({"cache.insert", FaultKind::kThrow, "", 1.0, 2, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);

  pipeline::KernelCache cache(8);
  resilience::RetryPolicy retry;
  retry.max_attempts = 4;
  resilience::VirtualClock clock;
  cache.set_retry(retry, &clock);

  const auto spec = filters::laplace_spec(5);
  codegen::CodegenOptions options;
  const auto kernel = cache.get_or_compile(spec, options);
  ASSERT_NE(kernel, nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.fill_retries, 2u) << "two injected failures, then success";
  EXPECT_GT(clock.elapsed_ms(), 0u) << "backoff slept on the virtual clock";
}

/// A JIT directory of its own, removed on exit; -O0 keeps the compiles
/// short and does not change the emitted float sequence.
struct PreparedJitDir {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("ispb-test-prepared-" + std::to_string(::getpid()));
  ~PreparedJitDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] exec::JitConfig jit() const {
    return {path.string(), "", "-O0"};
  }
};

// A fill that fails on every attempt reaches its caller and caches
// nothing; the key is forgotten, so once the injector is gone the next
// call compiles. Both kinds: an IR kernel failing at cache.insert and a
// native module failing at backend.compile.
TEST(KernelCacheResilience, UnrecoverableFillFailureReachesEveryCaller) {
  const PreparedJitDir dir;
  pipeline::KernelCache cache(8);
  cache.set_jit(dir.jit());
  const auto spec = filters::gaussian_spec(3);
  const codegen::CodegenOptions options;
  const auto check = [](const char* point, auto lookup, auto size,
                        auto misses) {
    SCOPED_TRACE(point);
    {
      FaultPlan plan;
      plan.rules.push_back({point, FaultKind::kThrow, "", 1.0, 0, 0});
      resilience::FaultInjector injector(plan);
      resilience::FaultInjector::ScopedInstall install(injector);
      EXPECT_THROW((void)lookup(), resilience::InjectedFault);
      EXPECT_EQ(size(), 0u);
    }
    EXPECT_NE(lookup(), nullptr);
    EXPECT_EQ(misses(), 2u);
  };
  check(
      "cache.insert", [&] { return cache.get_or_compile(spec, options); },
      [&] { return cache.size(); }, [&] { return cache.stats().misses; });
  check(
      "backend.compile",
      [&] { return cache.get_or_compile_native(spec, options); },
      [&] { return cache.native_size(); },
      [&] { return cache.stats().native_misses; });
}

// ---- executor + server: breaker fallback, watchdog, health ------------------

std::shared_ptr<const pipeline::KernelGraph> gaussian_graph() {
  return std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
}

TEST(ServerResilience, BreakerServesNaiveWhileIspFailsThenRestores) {
  // The acceptance scenario: compile.lower forced to fail ISP-only. The
  // server must keep answering kOk — first via per-request fallback, then
  // via the tripped breaker — with variant_used == kNaive, and must restore
  // kIsp through a half-open probe once the fault clears.
  FaultPlan plan;
  plan.rules.push_back({"compile.lower", FaultKind::kThrow, "/isp", 1.0,
                        /*max_fires=*/2, 0});
  resilience::VirtualClock clock;
  resilience::FaultInjector injector(plan, &clock);
  resilience::FaultInjector::ScopedInstall install(injector);

  const auto graph = gaussian_graph();
  // 64x64: comfortably wider than the 32x4 block, so the launcher's
  // degenerate-partition fallback stays out of the way and variant_used
  // reflects the breaker's decision alone.
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({64, 64}));
  const Image<f32> expect = filters::run_app_reference(
      filters::make_gaussian_app(), *src, BorderPattern::kClamp);

  pipeline::KernelCache cache(8);  // private cache: no cross-test hits
  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.executor.cache = &cache;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.open_cooldown_ms = 100;
  cfg.clock = &clock;
  pipeline::PipelineServer server(cfg);

  auto serve_one = [&] {
    auto f = server.submit({graph, src, 0.0, std::nullopt});
    pipeline::ServeResponse resp = f.get();
    EXPECT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
    EXPECT_EQ(compare(resp.output, expect).max_abs, 0.0)
        << "fallback output must stay bit-identical to the reference";
    return resp;
  };

  // Requests 1-2: ISP compile fails, per-request fallback serves naive and
  // the second failure trips the breaker.
  for (int i = 0; i < 2; ++i) {
    const auto resp = serve_one();
    EXPECT_EQ(resp.variant_used, codegen::Variant::kNaive);
    EXPECT_TRUE(resp.served_by_fallback);
  }
  // Request 3: breaker is open; naive is served without touching the
  // (cleared, but untrusted) ISP path.
  {
    const auto resp = serve_one();
    EXPECT_EQ(resp.variant_used, codegen::Variant::kNaive);
    EXPECT_TRUE(resp.served_by_fallback);
  }
  resilience::HealthState health = server.health();
  ASSERT_EQ(health.breakers.size(), 1u);
  EXPECT_EQ(health.breakers[0].state, BreakerState::kOpen);
  EXPECT_TRUE(health.degraded());
  EXPECT_EQ(health.fallbacks_served, 3u);

  // Cooldown elapses on the virtual clock; the fault already cleared
  // (max_fires = 2), so the half-open probe succeeds and ISP is restored.
  clock.advance(150);
  {
    const auto resp = serve_one();
    EXPECT_EQ(resp.variant_used, codegen::Variant::kIsp);
    EXPECT_FALSE(resp.served_by_fallback);
  }
  health = server.health();
  EXPECT_EQ(health.breakers[0].state, BreakerState::kClosed);
  EXPECT_FALSE(health.degraded());
  server.shutdown();
}

TEST(ServerResilience, WatchdogCutsOffOverrunningExecution) {
  // A delay rule on the wall clock makes the stage overrun its remaining
  // budget; the request must be cut and settle kDeadlineExpired promptly.
  FaultPlan plan;
  plan.rules.push_back(
      {"executor.stage", FaultKind::kDelay, "", 1.0, 0, /*delay_ms=*/300});
  resilience::FaultInjector injector(plan);  // SystemClock: real sleep
  resilience::FaultInjector::ScopedInstall install(injector);

  const auto graph = gaussian_graph();
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);

  auto f = server.submit({graph, src, /*deadline_ms=*/30.0, std::nullopt});
  const pipeline::ServeResponse resp = f.get();
  EXPECT_EQ(resp.status, pipeline::ServeStatus::kDeadlineExpired);
  EXPECT_LT(resp.total_ms, 290.0)
      << "the worker must be freed before the delayed stage finishes";
  EXPECT_EQ(server.stats().watchdog_expired, 1u);
  server.shutdown();
}

TEST(ServerResilience, CutStopsTheWork) {
  // A cut request stops its own work: cut during stage 1 of three, it never
  // starts stages 2 and 3, so executor.stage is evaluated exactly once.
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_sobel_app()));
  ASSERT_EQ(graph->stages.size(), 3u);
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({64, 64}));
  pipeline::KernelCache cache(16);
  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.executor.cache = &cache;
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);
  // Warm the cache: after its delay, stage 1 is a launch, not a compile.
  ASSERT_EQ(server.submit({graph, src, 0.0, std::nullopt}).get().status,
            pipeline::ServeStatus::kOk);

  FaultPlan plan;
  plan.rules.push_back({"executor.stage", FaultKind::kDelay,
                        graph->stages[0].spec.name, 1.0, 0,
                        /*delay_ms=*/300});
  resilience::FaultInjector injector(plan);  // SystemClock: real sleep
  resilience::FaultInjector::ScopedInstall install(injector);
  const pipeline::ServeResponse resp =
      server.submit({graph, src, /*deadline_ms=*/30.0, std::nullopt}).get();
  EXPECT_EQ(resp.status, pipeline::ServeStatus::kDeadlineExpired);
  EXPECT_LT(resp.total_ms, 150.0) << "the delay must end at the deadline";
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  u64 evaluated = 0;
  for (const resilience::FaultPointCounters& c : injector.counters()) {
    if (c.point == "executor.stage") evaluated = c.evaluated;
  }
  EXPECT_EQ(evaluated, 1u) << "the cut request went on to later stages";
  EXPECT_EQ(server.stats().watchdog_expired, 1u);
  server.shutdown();
}

TEST(ServerResilience, CutIsBreakerNeutral) {
  // A request cut inside its native launch leaves every kernel and
  // "#native" breaker as it was and is served by no fallback; the next
  // request runs ISP on the native engine, bit-identical to the reference.
  const auto graph = gaussian_graph();
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({128, 128}));
  const Image<f32>* inputs[] = {src.get()};
  const Image<f32> expect = dsl::run_reference(
      graph->stages[0].spec, BorderPattern::kClamp, 0.0f, inputs);
  // A JIT directory of its own, removed on exit; -O0 keeps the compile
  // short and does not change the emitted float sequence.
  const std::filesystem::path jit_dir =
      std::filesystem::temp_directory_path() /
      ("ispb-test-resilience-" + std::to_string(::getpid()));
  struct RemoveDir {
    std::filesystem::path path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } remove_dir{jit_dir};
  pipeline::KernelCache cache(8);
  cache.set_jit({jit_dir.string(), "", "-O0"});
  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.executor.cache = &cache;
  cfg.executor.backend = exec::Backend::kNative;
  pipeline::PipelineServer server(cfg);
  const pipeline::ServeRequest req{graph, src, 0.0, std::nullopt};
  ASSERT_EQ(server.submit(req).get().status, pipeline::ServeStatus::kOk);

  FaultPlan plan;
  plan.rules.push_back({"device.launch", FaultKind::kDelay, "", 1.0,
                        /*max_fires=*/1, /*delay_ms=*/300});
  resilience::FaultInjector injector(plan);  // SystemClock: real sleep
  resilience::FaultInjector::ScopedInstall install(injector);
  pipeline::ServeRequest cut_req = req;
  cut_req.deadline_ms = 30.0;
  const pipeline::ServeResponse cut = server.submit(cut_req).get();
  ASSERT_EQ(cut.status, pipeline::ServeStatus::kDeadlineExpired) << cut.error;
  EXPECT_FALSE(cut.served_by_fallback);
  EXPECT_FALSE(cut.backend_fallback);
  const resilience::HealthState health = server.health();
  EXPECT_EQ(health.watchdog_expired, 1u);
  EXPECT_EQ(health.fallbacks_served, 0u);
  EXPECT_FALSE(health.degraded());
  for (const resilience::BreakerSnapshot& b : health.breakers) {
    EXPECT_EQ(b.consecutive_failures, 0u) << b.kernel;
    EXPECT_EQ(b.trips, 0u) << b.kernel;
  }

  const pipeline::ServeResponse next = server.submit(req).get();
  ASSERT_EQ(next.status, pipeline::ServeStatus::kOk) << next.error;
  EXPECT_EQ(next.variant_used, codegen::Variant::kIsp);
  EXPECT_EQ(next.backend_used, exec::Backend::kNative);
  EXPECT_FALSE(next.served_by_fallback);
  EXPECT_FALSE(next.backend_fallback);
  EXPECT_EQ(compare(next.output, expect).max_abs, 0.0);
  server.shutdown();
}

/// Trips a kernel breaker (threshold 1, 100 ms cooldown on a VirtualClock)
/// with one failed attempt at the first stage, lets an executor.stage
/// throw land on that breaker's half-open probe after the cooldown, and
/// returns what the next run after a further cooldown reads. Interpreted,
/// the breaker is sobel_dx's variant breaker; native, it is gaussian3's
/// "#native" breaker.
struct ProbeOutcome {
  pipeline::ExecutorResult result;
  resilience::BreakerSnapshot breaker;
  Image<f32> expect;
};

ProbeOutcome stage_fault_on_half_open_probe(exec::Backend backend) {
  const bool native = backend == exec::Backend::kNative;
  const filters::MultiKernelApp app =
      native ? filters::make_gaussian_app() : filters::make_sobel_app();
  const pipeline::KernelGraph graph = pipeline::build_graph(app);
  const std::string kernel = graph.stages[0].spec.name;
  const Image<f32> src = make_gradient_image({64, 64});

  resilience::VirtualClock clock;
  resilience::BreakerRegistry breakers({/*failure_threshold=*/1,
                                        /*open_cooldown_ms=*/100,
                                        /*half_open_probes=*/1},
                                       &clock);
  // A JIT directory of its own, removed on exit; -O0 keeps the compile
  // short and does not change the emitted float sequence.
  const std::filesystem::path jit_dir =
      std::filesystem::temp_directory_path() /
      ("ispb-test-probe-" + std::to_string(::getpid()));
  struct RemoveDir {
    std::filesystem::path path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } remove_dir{jit_dir};
  pipeline::KernelCache cache(8);
  cache.set_jit({jit_dir.string(), "", "-O0"});
  pipeline::ExecutorConfig cfg;
  cfg.cache = &cache;
  cfg.backend = backend;
  cfg.breakers = &breakers;
  cfg.clock = &clock;
  const pipeline::PipelineExecutor executor(cfg);
  CircuitBreaker& breaker = breakers.get(native ? kernel + "#native" : kernel);

  {
    // The first stage's attempt fails: its breaker trips and the fallback
    // serves.
    FaultPlan plan;
    if (native) {
      plan.rules.push_back({"device.launch", FaultKind::kThrow, "", 1.0,
                            /*max_fires=*/1, 0});
    } else {
      plan.rules.push_back({"compile.lower", FaultKind::kThrow,
                            kernel + "/isp", 1.0, /*max_fires=*/1, 0});
    }
    resilience::FaultInjector injector(plan, &clock);
    resilience::FaultInjector::ScopedInstall install(injector);
    (void)executor.run(graph, src);
  }
  EXPECT_EQ(breaker.snapshot().state, BreakerState::kOpen);
  clock.advance(150);
  {
    // The half-open probe is admitted, then its executor.stage throws.
    FaultPlan plan;
    plan.rules.push_back({"executor.stage", FaultKind::kThrow, kernel, 1.0,
                          /*max_fires=*/1, 0});
    resilience::FaultInjector injector(plan, &clock);
    resilience::FaultInjector::ScopedInstall install(injector);
    EXPECT_THROW((void)executor.run(graph, src), resilience::InjectedFault);
  }
  clock.advance(150);
  ProbeOutcome outcome;
  outcome.result = executor.run(graph, src);
  outcome.breaker = breaker.snapshot();
  outcome.expect =
      filters::run_app_reference(app, src, BorderPattern::kClamp);
  return outcome;
}

// A throw from the executor.stage fault point after allow() admitted the
// half-open probe must free the probe's slot: the next probe restores ISP
// and closes the breaker instead of short-circuiting to naive for good.
TEST(BreakerProbe, StageFaultOnVariantProbeReleasesIt) {
  const ProbeOutcome out =
      stage_fault_on_half_open_probe(exec::Backend::kInterpreted);
  ASSERT_EQ(out.result.stages.size(), 3u);
  EXPECT_EQ(out.result.stages[0].variant_used, codegen::Variant::kIsp);
  EXPECT_FALSE(out.result.stages[0].served_by_fallback);
  EXPECT_EQ(out.breaker.state, BreakerState::kClosed);
  EXPECT_EQ(compare(out.result.output, out.expect).max_abs, 0.0);
}

TEST(BreakerProbe, StageFaultOnNativeProbeReleasesIt) {
  const ProbeOutcome out =
      stage_fault_on_half_open_probe(exec::Backend::kNative);
  ASSERT_EQ(out.result.stages.size(), 1u);
  EXPECT_EQ(out.result.stages[0].variant_used, codegen::Variant::kIsp);
  EXPECT_EQ(out.result.stages[0].backend_used, exec::Backend::kNative);
  EXPECT_FALSE(out.result.stages[0].backend_fallback);
  EXPECT_EQ(out.breaker.state, BreakerState::kClosed);
  EXPECT_EQ(compare(out.result.output, out.expect).max_abs, 0.0);
}

// ---- plans: breakers and the cache read live --------------------------------

// One memoized native plan, reused: a "#native" breaker that trips on one
// run sends the very next run to the interpreter, and once its half-open
// probe closes it again the next run is native once more. The plan stays
// memoized throughout (no run looks the module up again); every output is
// bit-identical.
TEST(PreparedRun, NativeBreakerTripAndCloseTakeEffectOnTheNextReuse) {
  const pipeline::KernelGraph graph =
      pipeline::build_graph(filters::make_gaussian_app());
  const Image<f32> src = make_gradient_image({64, 64});
  const Image<f32> expect = filters::run_app_reference(
      filters::make_gaussian_app(), src, BorderPattern::kClamp);
  const PreparedJitDir dir;
  pipeline::KernelCache cache(8);
  cache.set_jit(dir.jit());
  resilience::VirtualClock clock;
  resilience::BreakerRegistry breakers({/*failure_threshold=*/1,
                                        /*open_cooldown_ms=*/100,
                                        /*half_open_probes=*/1},
                                       &clock);
  pipeline::ExecutorConfig cfg;
  cfg.cache = &cache;
  cfg.backend = exec::Backend::kNative;
  cfg.breakers = &breakers;
  cfg.clock = &clock;
  const pipeline::PipelineExecutor executor(cfg);
  (void)executor.run(graph, src);  // JIT the module
  (void)executor.run(graph, src);  // plans with a hit: memoized
  const u64 native_hits = cache.stats().native_hits;
  const CircuitBreaker& breaker =
      breakers.get(graph.stages[0].spec.name + "#native");

  const auto run = [&] {
    pipeline::ExecutorResult r = executor.run(graph, src);
    EXPECT_EQ(compare(r.output, expect).max_abs, 0.0);
    EXPECT_EQ(r.stages.size(), 1u);
    return r.stages[0];
  };
  EXPECT_EQ(run().backend_used, exec::Backend::kNative);
  {
    FaultPlan plan;  // the primary's launch fails once; the fallback's runs
    plan.rules.push_back(
        {"device.launch", FaultKind::kThrow, "", 1.0, /*max_fires=*/1, 0});
    resilience::FaultInjector injector(plan, &clock);
    resilience::FaultInjector::ScopedInstall install(injector);
    EXPECT_TRUE(run().backend_fallback);
  }
  EXPECT_EQ(breaker.snapshot().state, BreakerState::kOpen);
  const ExecutorStage open = run();  // no fault left: only the breaker
  EXPECT_TRUE(open.backend_fallback);
  EXPECT_EQ(open.backend_used, exec::Backend::kInterpreted);
  EXPECT_EQ(breaker.snapshot().short_circuits, 1u);

  clock.advance(150);
  const ExecutorStage probe = run();  // the half-open probe succeeds
  EXPECT_FALSE(probe.backend_fallback);
  EXPECT_EQ(probe.backend_used, exec::Backend::kNative);
  EXPECT_EQ(breaker.snapshot().state, BreakerState::kClosed);
  EXPECT_EQ(run().backend_used, exec::Backend::kNative);
  EXPECT_EQ(cache.stats().native_hits, native_hits);
  EXPECT_EQ(cache.stats().native_misses, 1u);
}

// The variant breaker, read live through a memoized interpreted plan: an
// ISP compile failure trips it, the next run is served naive without an
// ISP attempt, and after the cooldown the probe restores ISP.
TEST(PreparedRun, VariantBreakerTripAndCloseTakeEffectOnTheNextReuse) {
  const pipeline::KernelGraph graph =
      pipeline::build_graph(filters::make_gaussian_app());
  const Image<f32> src = make_gradient_image({64, 64});
  const Image<f32> expect = filters::run_app_reference(
      filters::make_gaussian_app(), src, BorderPattern::kClamp);
  pipeline::KernelCache cache(8);
  resilience::VirtualClock clock;
  resilience::BreakerRegistry breakers({1, 100, 1}, &clock);
  pipeline::ExecutorConfig cfg;
  cfg.cache = &cache;
  cfg.breakers = &breakers;
  cfg.clock = &clock;
  const pipeline::PipelineExecutor executor(cfg);
  const CircuitBreaker& breaker = breakers.get(graph.stages[0].spec.name);

  const auto run = [&] {
    pipeline::ExecutorResult r = executor.run(graph, src);
    EXPECT_EQ(compare(r.output, expect).max_abs, 0.0);
    return r.stages.at(0);
  };
  {
    FaultPlan plan;
    plan.rules.push_back({"compile.lower", FaultKind::kThrow, "/isp", 1.0,
                          /*max_fires=*/1, 0});
    resilience::FaultInjector injector(plan, &clock);
    resilience::FaultInjector::ScopedInstall install(injector);
    const ExecutorStage failed = run();
    EXPECT_TRUE(failed.served_by_fallback);
    EXPECT_EQ(failed.variant_used, codegen::Variant::kNaive);
  }
  EXPECT_EQ(breaker.snapshot().state, BreakerState::kOpen);
  const ExecutorStage open = run();
  EXPECT_TRUE(open.served_by_fallback);
  EXPECT_EQ(open.variant_used, codegen::Variant::kNaive);
  EXPECT_EQ(breaker.snapshot().short_circuits, 1u);

  clock.advance(150);
  const ExecutorStage probe = run();
  EXPECT_FALSE(probe.served_by_fallback);
  EXPECT_EQ(probe.variant_used, codegen::Variant::kIsp);
  EXPECT_EQ(breaker.snapshot().state, BreakerState::kClosed);
}

// Every cache.insert poisons the stored kernel. Runs of one executor, and
// requests a server serves through its executor's memo, heal the poison on
// each lookup and never launch a poisoned kernel (negative register
// demand): the outputs stay bit-identical, and a heal retires the plan.
TEST(PreparedRun, CorruptCacheInsertNeverReachesALaunch) {
  FaultPlan plan;
  plan.rules.push_back({"cache.insert", FaultKind::kCorrupt, "", 1.0, 0, 0});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);

  const auto graph = gaussian_graph();
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({64, 64}));
  const Image<f32> expect = filters::run_app_reference(
      filters::make_gaussian_app(), *src, BorderPattern::kClamp);
  pipeline::KernelCache cache(8);
  pipeline::ExecutorConfig cfg;
  cfg.cache = &cache;
  const pipeline::PipelineExecutor executor(cfg);
  for (int i = 0; i < 3; ++i) {
    const pipeline::ExecutorResult r = executor.run(*graph, *src);
    EXPECT_EQ(compare(r.output, expect).max_abs, 0.0) << "run " << i;
    EXPECT_GT(r.stages.at(0).regs_per_thread, 0) << "run " << i;
  }
  EXPECT_EQ(cache.stats().poisoned, 2u);

  pipeline::ServerConfig server_cfg;
  server_cfg.workers = 1;
  server_cfg.executor = cfg;
  pipeline::PipelineServer server(server_cfg);
  for (int i = 0; i < 3; ++i) {
    const pipeline::ServeResponse resp =
        server.submit({graph, src, 0.0, std::nullopt}).get();
    ASSERT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
    EXPECT_EQ(compare(resp.output, expect).max_abs, 0.0) << "request " << i;
  }
  EXPECT_EQ(cache.stats().poisoned, 5u);
  server.shutdown();
}

TEST(ServerResilience, RetriesRecoverTransientStageFaults) {
  FaultPlan plan;
  plan.rules.push_back({"executor.stage", FaultKind::kThrow, "", 1.0,
                        /*max_fires=*/1, 0});
  resilience::VirtualClock clock;
  resilience::FaultInjector injector(plan, &clock);
  resilience::FaultInjector::ScopedInstall install(injector);

  const auto graph = gaussian_graph();
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::KernelCache cache(8);
  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.executor.cache = &cache;
  cfg.executor.retry.max_attempts = 3;
  cfg.breakers_enabled = false;  // isolate the retry path
  cfg.clock = &clock;
  pipeline::PipelineServer server(cfg);

  auto f = server.submit({graph, src, 0.0, std::nullopt});
  const pipeline::ServeResponse resp = f.get();
  EXPECT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
  EXPECT_FALSE(resp.served_by_fallback);
  const resilience::HealthState health = server.health();
  EXPECT_EQ(health.retries, 1u) << "one retry recovered the injected fault";
  server.shutdown();
}

}  // namespace
}  // namespace ispb
