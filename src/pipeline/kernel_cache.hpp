// Compiled-kernel cache: memoizes dsl::compile_kernel results (IR kernels)
// and exec::jit_compile results (native modules).
//
// Compiling a StencilSpec (trace -> IR -> pass pipeline -> regalloc) costs
// orders of magnitude more than a sampled launch, and the serving workloads
// of the pipeline runtime compile the same handful of kernels over and over.
// The cache keys on the *structure* of the spec (a 64-bit FNV-1a fingerprint
// over name, inputs and every DAG node), the full CodegenOptions (pattern,
// variant, constant, optimization toggles, warp width) and a device label,
// so two structurally identical specs traced independently share one entry.
//
// Both kinds of entry go through one fill. Each kind has its own table (map,
// LRU and counters); the lookup, the single-flight wait, the retried fill
// and the publication are one routine.
//
// Concurrency contract (single-flight): when several threads request the
// same missing key at once, exactly one compiles while the rest block on a
// shared future — a key is never compiled twice. A waiter blocks at most
// until its request's stop (common/stop.hpp), then is cut; the compiling
// thread runs with its stop cleared, so its fill always completes. Ready
// entries are returned without blocking. Eviction is LRU over ready entries
// only; in-flight compiles are never evicted (the map may transiently
// exceed capacity). A failed fill rethrows to every waiter and forgets the
// key, so a later request compiles again.
//
// Observability: each IR compile runs under a ScopedSpan ("pipeline.cache
// .compile"; a native compile's span is jit_compile's "exec.native
// .compile") and hit/miss/eviction counters plus size gauges are published
// to the installed obs::MetricsRegistry (null fast path when none is).
//
// Resilience: the IR publication step is the `cache.insert` fault point. A
// kThrow rule fails the fill exactly like a compiler error (waiters get the
// exception, the key is forgotten so a later request retries); a kCorrupt
// rule poisons the *stored* entry while the filling caller still gets the
// good kernel — every lookup validates the entry it is about to serve and
// heals a poisoned one by recompiling (counted in stats().poisoned), so a
// corrupt entry can never reach a launch. A native fill's fault point is
// jit_compile's `backend.compile`. Fills can be wrapped in a RetryPolicy via
// set_retry(); ContractError/VerifyError are never retried.
//
// Generation: a counter bumped when what the cache serves may change under
// someone who resolved it earlier — clear(), set_jit() (which drops the
// ready native modules: they were built under the old JIT config) and a
// poison heal. A holder of resolved modules (a PipelineExecutor's plan)
// records it before its lookups and rebuilds once it moved. A capacity
// eviction does not move it: an evicted module stays dlopened, and valid,
// while a holder keeps it, and holders bound their own number.
#pragma once

#include <atomic>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "dsl/runtime.hpp"
#include "exec/jit.hpp"
#include "resilience/retry.hpp"

namespace ispb::pipeline {

/// Structural fingerprint of a spec: FNV-1a over the name's bytes, then one
/// 32-bit word each for num_inputs, the output id and every node field
/// (kind, f32 bit pattern, input, offsets, operand ids).
[[nodiscard]] u64 spec_fingerprint(const codegen::StencilSpec& spec);

/// The full cache key: fingerprint + every CodegenOptions field + device.
[[nodiscard]] std::string cache_key(const codegen::StencilSpec& spec,
                                    const codegen::CodegenOptions& options,
                                    std::string_view device);

/// Monotonic cache counters. `coalesced` counts requests that arrived while
/// the same key was compiling and waited for it instead of recompiling.
struct KernelCacheStats {
  u64 hits = 0;
  u64 misses = 0;  ///< actual compiles
  u64 coalesced = 0;
  u64 evictions = 0;
  u64 poisoned = 0;      ///< corrupt entries detected and healed on lookup
  u64 fill_retries = 0;  ///< compile attempts beyond the first (set_retry)
  // Native-module entries (get_or_compile_native) are accounted
  // separately: a serving stack running both backends sees both stories.
  u64 native_hits = 0;
  u64 native_misses = 0;  ///< actual JIT compiles (or disk-artifact loads)
  u64 native_coalesced = 0;
  u64 native_evictions = 0;
  /// Fraction of lookups served without compiling (coalesced waits count as
  /// served). 0 when there were no lookups.
  [[nodiscard]] f64 hit_rate() const {
    const u64 total = hits + coalesced + misses;
    return total == 0 ? 0.0 : static_cast<f64>(hits + coalesced) /
                                  static_cast<f64>(total);
  }
};

/// Thread-safe LRU cache of compiled kernels with single-flight compiles.
class KernelCache {
 public:
  using KernelPtr = std::shared_ptr<const dsl::CompiledKernel>;

  /// Keeps at most `capacity` ready entries (>= 1).
  explicit KernelCache(std::size_t capacity = 256);

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// Returns the cached kernel for (spec, options, device), compiling it on
  /// first use. Blocks only when another thread is already compiling the
  /// same key. Rethrows the compiler's exception to every waiter.
  [[nodiscard]] KernelPtr get_or_compile(const codegen::StencilSpec& spec,
                                         const codegen::CodegenOptions& options,
                                         std::string_view device = {});

  /// Returns the cached native module for (spec, options, device), JIT
  /// compiling it on first use (exec::jit_compile under set_jit()'s config).
  /// Same single-flight contract as get_or_compile. The key canonicalizes
  /// options the C++ lowering ignores (kIspWarp folds to kIsp; warp width,
  /// optimize and row_blocks are IR-pipeline knobs), so variants that lower
  /// identically share one module. Eviction only drops the cache's
  /// reference — a module stays dlopened while any executor still holds it.
  [[nodiscard]] exec::NativeModulePtr get_or_compile_native(
      const codegen::StencilSpec& spec, const codegen::CodegenOptions& options,
      std::string_view device = {});

  /// The ready native module get_or_compile_native would return for the
  /// same key, counted as a native hit, or nullptr: nothing compiles,
  /// waits or counts a miss when the key is absent or still filling.
  [[nodiscard]] exec::NativeModulePtr find_native(
      const codegen::StencilSpec& spec, const codegen::CodegenOptions& options,
      std::string_view device = {});

  /// The generation (see the header comment); starts at 0.
  [[nodiscard]] u64 generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// JIT configuration for native fills (artifact dir, compiler, flags).
  /// Drops the ready native modules, which the old config built; the
  /// counters are kept.
  void set_jit(exec::JitConfig config);

  [[nodiscard]] KernelCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;      ///< ready IR entries
  [[nodiscard]] std::size_t native_size() const;  ///< ready native entries
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drops all ready entries and resets the counters. In-flight compiles
  /// finish and publish into the cleared cache.
  void clear();

  /// Wraps every fill (compile) in `policy` with backoff slept on `clock`
  /// (nullptr = wall clock). Default: one attempt, no retry.
  void set_retry(resilience::RetryPolicy policy,
                 resilience::Clock* clock = nullptr);

  /// Process-wide cache: the executor's default (ExecutorConfig::cache
  /// unset) and the bench harness's, so identical (app, variant) compiles
  /// happen once per process.
  [[nodiscard]] static KernelCache& global();

 private:
  /// One kind of entry: its map, its LRU and the stats_ fields it counts.
  template <typename T>
  struct Table {
    struct Entry {
      std::shared_future<T> future;  ///< settles when the fill does
      T value;                       ///< what a hit serves; valid iff ready
      std::list<std::string>::iterator lru_it;  ///< valid iff ready
      bool ready = false;
    };
    u64& hits;
    u64& misses;
    u64& coalesced;
    u64& evictions;
    std::unordered_map<std::string, Entry> entries = {};
    std::list<std::string> lru = {};  ///< most recently used first; ready only

    /// Drops the ready entries; in-flight fills keep their map slots.
    void drop_ready() {
      for (const std::string& key : lru) entries.erase(key);
      lru.clear();
    }
  };
  /// What a fill runs under, copied on a miss.
  struct FillConfig {
    resilience::RetryPolicy retry;
    resilience::Clock* retry_clock = nullptr;  ///< nullptr = wall clock
    exec::JitConfig jit;
  };

  /// The single-flight routine behind both get_or_compile* calls (see the
  /// header comment): a hit, a coalesced wait, or the fill. `fill(jit)` is
  /// one attempt, run under the retry policy with the stop cleared (and
  /// under a `span` span when one is named); `store(value)` gives what the
  /// entry keeps, run outside the lock after the waiters got `value`.
  template <typename T, typename Fill, typename Store>
  T fill_once(Table<T>& table, const std::string& key, const char* span,
              Fill&& fill, Store&& store);
  /// The ready entry under `key`, counted as a hit and moved to the LRU
  /// head, or nullptr when the key is absent, still filling or poisoned (a
  /// poisoned entry is dropped here).
  template <typename T>
  [[nodiscard]] T hit_locked(Table<T>& table, const std::string& key);
  void publish_counters_locked() const;

  const std::size_t capacity_;
  mutable std::mutex mu_;
  // Guarded by mu_:
  FillConfig fill_;
  KernelCacheStats stats_;
  Table<KernelPtr> kernels_{stats_.hits, stats_.misses, stats_.coalesced,
                            stats_.evictions};
  Table<exec::NativeModulePtr> modules_{
      stats_.native_hits, stats_.native_misses, stats_.native_coalesced,
      stats_.native_evictions};
  std::atomic<u64> generation_{0};  ///< bumped under mu_
};

}  // namespace ispb::pipeline
