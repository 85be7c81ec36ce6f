// Deterministic fault injection for the serving stack.
//
// A FaultPlan is a seed plus a list of rules, each bound to a *named fault
// point* — a call site the stack declares with fault_point():
//
//   compile.lower    dsl::compile_kernel, detail "<kernel>/<variant>"
//   cache.insert     KernelCache publication, detail = cache key
//   executor.stage   PipelineExecutor per-stage entry, detail = kernel name
//   server.exec      serving-core request execution, detail = graph name
//   launcher.launch  dsl::launch_on_sim entry, detail = program name
//   backend.compile  exec::jit_compile entry, detail "<kernel>/<variant>"
//   device.launch    per-launch device entry, detail = device name
//   shard.dispatch   fleet shard dispatch, detail = device name
//   health.probe     fleet half-open device probe, detail = device name
//
// A rule can throw (InjectedFault), delay (via the injectable Clock, so a
// VirtualClock makes delays free and deterministic) or corrupt — the site
// asks should_corrupt() and is expected to *detect* the corruption later
// (the kernel cache poisons an entry and must heal it on the next lookup).
//
// Determinism: whether the n-th evaluation of a rule fires is a pure
// function of (plan seed, rule index, n) via SplitMix64 — no RNG state is
// shared across rules, so concurrent fault points cannot perturb each
// other's sequences. The per-rule occurrence counter is atomic; with a
// single-threaded driver the full firing sequence is reproducible
// bit-for-bit, which the chaos harness and the determinism tests assert.
//
// Null fast path: exactly like obs::MetricsRegistry, an uninstalled
// injector costs one relaxed atomic load per fault point — release serving
// builds pay nothing unless a chaos run installs a plan.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "resilience/clock.hpp"

namespace ispb::resilience {

/// Thrown by a kThrow rule. Carries the fault point so error reports (and
/// the chaos harness's unrecoverable-fault detection) can name it.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(std::string_view point, std::string_view detail)
      : std::runtime_error("injected fault at '" + std::string(point) + "'" +
                           (detail.empty() ? std::string()
                                           : " (" + std::string(detail) + ")")),
        point_(point) {}
  [[nodiscard]] const std::string& point() const { return point_; }

 private:
  std::string point_;
};

enum class FaultKind : u8 {
  kThrow,    ///< fault_point() throws InjectedFault
  kDelay,    ///< fault_point() sleeps delay_ms on the injector's Clock,
             ///< at most until the running request's stop (common/stop.hpp)
  kCorrupt,  ///< should_corrupt() returns true; the site must detect it
};
[[nodiscard]] std::string_view to_string(FaultKind k);

/// One fault rule. `probability` gates each occurrence deterministically
/// (hash of seed/rule/occurrence, not an RNG stream); `match` restricts the
/// rule to details containing the substring (e.g. "isp" hits the ISP and
/// ISP-warp compiles but not the naive ones); `max_fires` caps total fires
/// (0 = unlimited) — a cap of N models a transient fault that clears.
struct FaultRule {
  std::string point;
  FaultKind kind = FaultKind::kThrow;
  std::string match;
  f64 probability = 1.0;
  u32 max_fires = 0;
  u64 delay_ms = 0;
};

/// A seeded schedule of fault rules.
struct FaultPlan {
  u64 seed = 0;
  std::vector<FaultRule> rules;

  /// The chaos harness's randomized plan: for each fault point, throw and
  /// delay rules with seed-derived probabilities (roughly 2-12% per
  /// evaluation) plus a cache-corruption rule. Same seed, same plan.
  [[nodiscard]] static FaultPlan chaos(u64 seed);

  /// Device-level chaos for the fleet harness. Each afflicted device gets a
  /// "device.launch" rule shaped by `mode`:
  ///   kill   every launch fails, forever (device is down);
  ///   flap   the first 1-3 launches fail, then the device heals;
  ///   stall  launches are delayed (free under a VirtualClock);
  ///   mix    per-device seed-hashed choice of the three;
  /// plus capped low-rate "shard.dispatch" / "health.probe" throw rules so
  /// the routing and probe paths see faults too. One seed-chosen device is
  /// always left healthy so the fleet can make progress; with a single
  /// device the plan is empty. Same seed, same plan.
  [[nodiscard]] static FaultPlan device_chaos(
      u64 seed, const std::vector<std::string>& devices,
      std::string_view mode);
};

/// Per-point monotonic counters (all evaluations vs. actual fires).
struct FaultPointCounters {
  std::string point;
  u64 evaluated = 0;
  u64 thrown = 0;
  u64 delayed = 0;
  u64 corrupted = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, Clock* clock = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Evaluates every rule bound to `point` against `detail`. Applies delay
  /// rules (sleeping on the Clock) before throw rules, so a point can be
  /// both slowed and failed by one plan. Throws InjectedFault if a throw
  /// rule fires.
  void hit(std::string_view point, std::string_view detail);

  /// True when a kCorrupt rule fires for (point, detail). Never throws.
  [[nodiscard]] bool should_corrupt(std::string_view point,
                                    std::string_view detail);

  /// Counters per fault point, sorted by point name (stable for tests).
  [[nodiscard]] std::vector<FaultPointCounters> counters() const;
  /// Total fires of any kind across all points.
  [[nodiscard]] u64 total_fires() const;

  /// The firing log: "point#occurrence/kind" per fire, in firing order.
  /// Only meaningful single-threaded; the determinism test replays it.
  [[nodiscard]] std::vector<std::string> firing_log() const;

  [[nodiscard]] static FaultInjector* installed() {
    return g_installed.load(std::memory_order_relaxed);
  }

  /// RAII installation; restores the previous injector on destruction.
  class ScopedInstall {
   public:
    explicit ScopedInstall(FaultInjector& injector)
        : prev_(g_installed.exchange(&injector, std::memory_order_release)) {}
    ~ScopedInstall() { g_installed.store(prev_, std::memory_order_release); }
    ScopedInstall(const ScopedInstall&) = delete;
    ScopedInstall& operator=(const ScopedInstall&) = delete;

   private:
    FaultInjector* prev_;
  };

 private:
  struct RuleState {
    FaultRule rule;
    std::atomic<u64> occurrences{0};
    std::atomic<u64> fires{0};
  };

  /// Deterministic fire decision for the n-th occurrence of rule `index`.
  [[nodiscard]] bool fires(const FaultRule& rule, std::size_t index,
                           u64 occurrence) const;
  void record_fire(std::string_view point, u64 occurrence, FaultKind kind);

  static std::atomic<FaultInjector*> g_installed;

  FaultPlan plan_;
  Clock* clock_;
  std::vector<std::unique_ptr<RuleState>> rules_;

  mutable std::mutex mu_;  ///< guards counters_ and log_ only
  std::vector<FaultPointCounters> counters_;
  std::vector<std::string> log_;
};

/// Declares a fault point. The one-line call sites use this instead of
/// touching the injector directly; when none is installed it is a single
/// relaxed atomic load.
inline void fault_point(std::string_view point, std::string_view detail = {}) {
  if (FaultInjector* fi = FaultInjector::installed()) fi->hit(point, detail);
}

/// Corruption query for corrupt-and-detect sites. False when uninstalled.
[[nodiscard]] inline bool fault_corrupt(std::string_view point,
                                        std::string_view detail = {}) {
  FaultInjector* fi = FaultInjector::installed();
  return fi != nullptr && fi->should_corrupt(point, detail);
}

}  // namespace ispb::resilience
