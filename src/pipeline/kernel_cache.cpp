#include "pipeline/kernel_cache.hpp"

#include <bit>
#include <optional>
#include <utility>

#include "common/stop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb::pipeline {

namespace {

/// A poisoned entry (cache.insert corruption fault, or the bit rot it
/// models). Negative register demand can never come out of the compiler.
bool is_poisoned(const KernelCache::KernelPtr& k) {
  return k == nullptr || k->regs_per_thread < 0;
}

/// Native modules have no corruption fault: a ready one is always served.
bool is_poisoned(const exec::NativeModulePtr&) { return false; }

/// A coalesced waiter's get(): waits at most until its own stop. The fill
/// leader compiles with its stop cleared, so its cut can neither reach the
/// other waiters as their error nor leave the key unfilled; a cold compile
/// is therefore the one step a cut cannot stop.
template <typename T>
T await_fill(const std::shared_future<T>& future) {
  if (stop_time() != kNoStop &&
      future.wait_until(stop_time()) != std::future_status::ready) {
    throw DeadlineExceeded();
  }
  return future.get();
}

constexpr u64 kFnvOffset = 14695981039346656037ull;
constexpr u64 kFnvPrime = 1099511628211ull;

void fnv_bytes(u64& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

/// FNV-1a step over one whole 32-bit field: a quarter of the multiplies of
/// hashing its bytes, on every node of every cache lookup.
void fnv_word(u64& h, u32 w) {
  h ^= w;
  h *= kFnvPrime;
}

void fnv_word(u64& h, i32 v) { fnv_word(h, std::bit_cast<u32>(v)); }

std::string hex64(u64 v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (i32 i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// The CodegenOptions fields that change the emitted C++ — everything else
/// (warp width, IR pass toggles, row-block schedule) only shapes the
/// interpreted lowering, and kIspWarp lowers to the same host loops as
/// kIsp. kIspTiled stays distinct: its Body loop stages a per-block tile
/// buffer, so it is a different module (and tile_block, part of the cache
/// key, shapes that buffer). Folding the rest means the serving matrix
/// JIT-compiles at most 3 modules per (spec, pattern).
codegen::CodegenOptions canonical_native_options(
    const codegen::CodegenOptions& options) {
  codegen::CodegenOptions canon = options;
  if (canon.variant == codegen::Variant::kIspWarp) {
    canon.variant = codegen::Variant::kIsp;
  }
  canon.warp_width = 32;
  canon.optimize = true;
  canon.row_blocks = true;
  return canon;
}

/// A native module's key, over canonical options.
std::string native_key(const codegen::StencilSpec& spec,
                       const codegen::CodegenOptions& canon,
                       std::string_view device) {
  return cache_key(spec, canon, device) + "/native";
}

}  // namespace

u64 spec_fingerprint(const codegen::StencilSpec& spec) {
  u64 h = kFnvOffset;
  fnv_bytes(h, spec.name.data(), spec.name.size());
  fnv_word(h, spec.num_inputs);
  fnv_word(h, spec.output);
  for (const codegen::Node& n : spec.nodes) {
    fnv_word(h, static_cast<u32>(n.kind));
    // Hash the exact bit pattern so 0.0f and -0.0f constants stay distinct.
    fnv_word(h, std::bit_cast<u32>(n.value));
    fnv_word(h, n.input);
    fnv_word(h, n.dx);
    fnv_word(h, n.dy);
    fnv_word(h, n.lhs);
    fnv_word(h, n.rhs);
  }
  return h;
}

std::string cache_key(const codegen::StencilSpec& spec,
                      const codegen::CodegenOptions& options,
                      std::string_view device) {
  std::string key;
  key.reserve(64 + spec.name.size() + device.size());
  key += spec.name;
  key += '/';
  key += hex64(spec_fingerprint(spec));
  key += '/';
  key += to_string(options.pattern);
  key += '/';
  key += codegen::to_string(options.variant);
  key += "/c";
  key += hex64(std::bit_cast<u32>(options.border_constant));
  key += options.optimize ? "/opt" : "/noopt";
  key += options.row_blocks ? "/rows" : "/flat";
  key += "/w";
  key += std::to_string(options.warp_width);
  if (options.variant == codegen::Variant::kIspTiled) {
    // The staged tile is baked for one block shape.
    key += "/t";
    key += std::to_string(options.tile_block.tx);
    key += 'x';
    key += std::to_string(options.tile_block.ty);
  }
  if (!device.empty()) {
    key += '@';
    key += device;
  }
  return key;
}

KernelCache::KernelCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

template <typename T>
T KernelCache::hit_locked(Table<T>& table, const std::string& key) {
  const auto it = table.entries.find(key);
  if (it == table.entries.end() || !it->second.ready) return nullptr;
  // Validate before serving: a poisoned entry (cache.insert corruption) is
  // dropped here and healed by the caller's recompile — it can never reach
  // a launch.
  if (is_poisoned(it->second.value)) {
    ++stats_.poisoned;
    generation_.fetch_add(1, std::memory_order_release);
    table.lru.erase(it->second.lru_it);
    table.entries.erase(it);
    return nullptr;
  }
  ++table.hits;
  table.lru.splice(table.lru.begin(), table.lru, it->second.lru_it);
  publish_counters_locked();
  return it->second.value;
}

template <typename T, typename Fill, typename Store>
T KernelCache::fill_once(Table<T>& table, const std::string& key,
                         const char* span, Fill&& fill, Store&& store) {
  // Built on the miss path only: a hit allocates neither the promise's
  // shared state nor a copy of the fill config.
  std::optional<std::promise<T>> promise;
  FillConfig config;
  {
    std::unique_lock lock(mu_);
    if (T hit = hit_locked(table, key)) return hit;
    const auto it = table.entries.find(key);
    if (it != table.entries.end()) {  // still filling
      ++table.coalesced;
      publish_counters_locked();
      std::shared_future<T> future = it->second.future;
      lock.unlock();
      return await_fill(future);
    }
    ++table.misses;
    publish_counters_locked();
    config = fill_;
    table.entries[key].future = promise.emplace().get_future().share();
  }

  // Fill outside the lock: concurrent misses on *different* keys compile in
  // parallel; concurrent requests for *this* key wait on the future. The
  // fill's fault points sit inside the retried unit, so an injected
  // failure is recoverable.
  T value;
  resilience::RetryOutcome outcome;
  const auto count_retries_locked = [&] {
    stats_.fill_retries += outcome.attempts > 0 ? outcome.attempts - 1 : 0;
  };
  try {
    const StopScope unstopped(kNoStop);  // see await_fill
    std::optional<obs::ScopedSpan> scoped;
    if (span != nullptr) {
      scoped.emplace(span, "compile");
      scoped->arg("key", key);
    }
    value = resilience::retry_call(
        config.retry, config.retry_clock, [&] { return fill(config.jit); },
        &outcome);
  } catch (...) {
    // Hand the failure to every waiter, then forget the key so a later
    // request can retry.
    promise->set_exception(std::current_exception());
    std::lock_guard lock(mu_);
    count_retries_locked();
    table.entries.erase(key);
    publish_counters_locked();
    throw;
  }
  promise->set_value(value);
  T stored = store(value);

  std::lock_guard lock(mu_);
  count_retries_locked();
  const auto it = table.entries.find(key);
  if (it != table.entries.end() && !it->second.ready) {
    it->second.value = std::move(stored);
    table.lru.push_front(key);
    it->second.lru_it = table.lru.begin();
    it->second.ready = true;
    while (table.lru.size() > capacity_) {
      // Dropping an entry only releases the cache's shared_ptr: a module an
      // executor still runs stays dlopened until that reference dies.
      table.entries.erase(table.lru.back());
      table.lru.pop_back();
      ++table.evictions;
    }
  }
  publish_counters_locked();
  return value;
}

KernelCache::KernelPtr KernelCache::get_or_compile(
    const codegen::StencilSpec& spec, const codegen::CodegenOptions& options,
    std::string_view device) {
  const std::string key = cache_key(spec, options, device);
  return fill_once(
      kernels_, key, "pipeline.cache.compile",
      [&](const exec::JitConfig&) -> KernelPtr {
        auto compiled = std::make_shared<const dsl::CompiledKernel>(
            dsl::compile_kernel(spec, options));
        resilience::fault_point("cache.insert", key);
        return compiled;
      },
      [&](const KernelPtr& kernel) -> KernelPtr {
        // A corruption fault poisons the *stored* entry only: the filling
        // caller and every coalesced waiter still get the good kernel; the
        // next lookup detects the poison and heals it.
        if (!resilience::fault_corrupt("cache.insert", key)) return kernel;
        auto bad = std::make_shared<dsl::CompiledKernel>(*kernel);
        bad->regs_per_thread = -1;
        return bad;
      });
}

exec::NativeModulePtr KernelCache::get_or_compile_native(
    const codegen::StencilSpec& spec, const codegen::CodegenOptions& options,
    std::string_view device) {
  const codegen::CodegenOptions canon = canonical_native_options(options);
  // The backend.compile fault point lives inside jit_compile.
  return fill_once(
      modules_, native_key(spec, canon, device), nullptr,
      [&](const exec::JitConfig& jit) {
        return exec::jit_compile(spec, canon, jit);
      },
      [](const exec::NativeModulePtr& module) { return module; });
}

exec::NativeModulePtr KernelCache::find_native(
    const codegen::StencilSpec& spec, const codegen::CodegenOptions& options,
    std::string_view device) {
  const std::string key =
      native_key(spec, canonical_native_options(options), device);
  std::lock_guard lock(mu_);
  return hit_locked(modules_, key);
}

void KernelCache::set_jit(exec::JitConfig config) {
  std::lock_guard lock(mu_);
  fill_.jit = std::move(config);
  // The native key does not carry the JIT config: a ready module built
  // under the old one must not be served under the new one. An in-flight
  // fill publishes under the config it started with, as after clear().
  modules_.drop_ready();
  generation_.fetch_add(1, std::memory_order_release);
  publish_counters_locked();
}

void KernelCache::set_retry(resilience::RetryPolicy policy,
                            resilience::Clock* clock) {
  std::lock_guard lock(mu_);
  fill_.retry = policy;
  fill_.retry_clock = clock;
}

KernelCacheStats KernelCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t KernelCache::size() const {
  std::lock_guard lock(mu_);
  return kernels_.lru.size();
}

std::size_t KernelCache::native_size() const {
  std::lock_guard lock(mu_);
  return modules_.lru.size();
}

void KernelCache::clear() {
  std::lock_guard lock(mu_);
  // Drop ready entries only; an in-flight compile still owns its map slot
  // (erasing it would let a concurrent miss start a duplicate compile whose
  // publication then collides with the first one's).
  kernels_.drop_ready();
  modules_.drop_ready();
  stats_ = KernelCacheStats{};
  generation_.fetch_add(1, std::memory_order_release);
}

void KernelCache::publish_counters_locked() const {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
  if (reg == nullptr) return;
  reg->set("pipeline.cache.hits", static_cast<f64>(stats_.hits));
  reg->set("pipeline.cache.misses", static_cast<f64>(stats_.misses));
  reg->set("pipeline.cache.coalesced", static_cast<f64>(stats_.coalesced));
  reg->set("pipeline.cache.evictions", static_cast<f64>(stats_.evictions));
  reg->set("pipeline.cache.poisoned", static_cast<f64>(stats_.poisoned));
  reg->set("pipeline.cache.fill_retries",
           static_cast<f64>(stats_.fill_retries));
  reg->set("pipeline.cache.size", static_cast<f64>(kernels_.lru.size()));
  reg->set("pipeline.cache.native_hits",
           static_cast<f64>(stats_.native_hits));
  reg->set("pipeline.cache.native_misses",
           static_cast<f64>(stats_.native_misses));
  reg->set("pipeline.cache.native_coalesced",
           static_cast<f64>(stats_.native_coalesced));
  reg->set("pipeline.cache.native_evictions",
           static_cast<f64>(stats_.native_evictions));
  reg->set("pipeline.cache.native_size",
           static_cast<f64>(modules_.lru.size()));
}

KernelCache& KernelCache::global() {
  static KernelCache cache;
  return cache;
}

}  // namespace ispb::pipeline
