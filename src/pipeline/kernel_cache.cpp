#include "pipeline/kernel_cache.hpp"

#include <bit>
#include <chrono>
#include <filesystem>
#include <optional>
#include <utility>
#include <vector>

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

KernelCache::KernelPtr KernelCache::get_or_compile(
    const codegen::StencilSpec& spec, const codegen::CodegenOptions& options,
    std::string_view device) {
  const std::string key = cache_key(spec, options, device);

  std::promise<KernelPtr> promise;
  resilience::RetryPolicy retry;
  resilience::Clock* retry_clock = nullptr;
  {
    std::unique_lock lock(mu_);
    retry = retry_;
    retry_clock = retry_clock_;
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.ready) {
      // Validate before serving: a poisoned entry (cache.insert corruption)
      // must be detected here and healed by recompiling — it can never
      // reach a launch.
      KernelPtr cached = it->second.future.get();  // ready: no blocking
      if (is_poisoned(cached)) {
        ++stats_.poisoned;
        generation_.fetch_add(1, std::memory_order_release);
        lru_.erase(it->second.lru_it);
        entries_.erase(it);
        it = entries_.end();  // fall through to the miss path
      } else {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        publish_counters_locked();
        return cached;
      }
    }
    if (it != entries_.end()) {
      ++stats_.coalesced;
      publish_counters_locked();
      std::shared_future<KernelPtr> future = it->second.future;
      lock.unlock();
      return await_fill(future);
    }
    ++stats_.misses;
    publish_counters_locked();
    Entry entry;
    entry.future = promise.get_future().share();
    entries_.emplace(key, std::move(entry));
  }

  // Compile outside the lock: concurrent misses on *different* keys compile
  // in parallel; concurrent requests for *this* key wait on the future.
  // The fill is retried per set_retry(); the cache.insert fault point sits
  // inside the retried unit so an injected insert failure is recoverable.
  KernelPtr kernel;
  resilience::RetryOutcome fill;
  try {
    const StopScope unstopped(kNoStop);  // see await_fill
    obs::ScopedSpan span("pipeline.cache.compile", "compile");
    span.arg("key", key);
    kernel = resilience::retry_call(
        retry, retry_clock,
        [&]() -> KernelPtr {
          auto compiled = std::make_shared<const dsl::CompiledKernel>(
              dsl::compile_kernel(spec, options));
          resilience::fault_point("cache.insert", key);
          return compiled;
        },
        &fill);
  } catch (...) {
    // Hand the failure to every waiter, then forget the key so a later
    // request can retry.
    promise.set_exception(std::current_exception());
    {
      std::lock_guard lock(mu_);
      stats_.fill_retries += fill.attempts > 0 ? fill.attempts - 1 : 0;
      entries_.erase(key);
      publish_counters_locked();
    }
    throw;
  }
  promise.set_value(kernel);

  // A corruption fault poisons the *stored* entry only: the filling caller
  // (and every coalesced waiter on the promise above) still gets the good
  // kernel; the next lookup detects the poison and heals it.
  const bool corrupt = resilience::fault_corrupt("cache.insert", key);

  {
    std::lock_guard lock(mu_);
    stats_.fill_retries += fill.attempts > 0 ? fill.attempts - 1 : 0;
    const auto it = entries_.find(key);
    if (it != entries_.end() && !it->second.ready) {
      // clear() may have dropped the entry mid-compile; only then is the
      // key absent and the result simply not cached.
      if (corrupt) {
        auto bad = std::make_shared<dsl::CompiledKernel>(*kernel);
        bad->regs_per_thread = -1;
        std::promise<KernelPtr> poisoned;
        poisoned.set_value(KernelPtr(std::move(bad)));
        it->second.future = poisoned.get_future().share();
      }
      lru_.push_front(key);
      it->second.lru_it = lru_.begin();
      it->second.ready = true;
      while (lru_.size() > capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
      }
    }
    publish_counters_locked();
  }
  return kernel;
}

exec::NativeModulePtr KernelCache::get_or_compile_native(
    const codegen::StencilSpec& spec, const codegen::CodegenOptions& options,
    std::string_view device) {
  const codegen::CodegenOptions canon = canonical_native_options(options);
  const std::string key = native_key(spec, canon, device);

  // Built on the miss path only: a hit allocates neither the promise's
  // shared state nor a copy of the JIT config.
  std::optional<std::promise<exec::NativeModulePtr>> promise;
  resilience::RetryPolicy retry;
  resilience::Clock* retry_clock = nullptr;
  exec::JitConfig jit;
  {
    std::unique_lock lock(mu_);
    if (exec::NativeModulePtr hit = native_hit_locked(key)) return hit;
    const auto it = native_entries_.find(key);
    if (it != native_entries_.end()) {  // still filling
      ++stats_.native_coalesced;
      publish_counters_locked();
      std::shared_future<exec::NativeModulePtr> future = it->second.future;
      lock.unlock();
      return await_fill(future);
    }
    ++stats_.native_misses;
    publish_counters_locked();
    retry = retry_;
    retry_clock = retry_clock_;
    jit = jit_;
    NativeEntry entry;
    entry.future = promise.emplace().get_future().share();
    native_entries_.emplace(key, std::move(entry));
  }

  // Pin the fill's expected artifact stem before touching the toolchain:
  // jit_compile's disk-warm reuse (fs::exists -> dlopen) may pick up an
  // artifact older than the GC grace window that no ready entry references
  // any more (evicted while its device was quarantined) — a concurrent
  // gc_native_artifacts must not delete it mid-fill.
  const std::string stem = exec::artifact_stem(spec, canon, jit);
  {
    std::lock_guard lock(mu_);
    ++native_inflight_stems_[stem];
  }

  // JIT outside the lock; same single-flight / retry shape as the IR path.
  // The backend.compile fault point lives inside jit_compile, i.e. inside
  // the retried unit.
  exec::NativeModulePtr module;
  resilience::RetryOutcome fill;
  try {
    const StopScope unstopped(kNoStop);  // see await_fill
    module = resilience::retry_call(
        retry, retry_clock,
        [&]() -> exec::NativeModulePtr {
          return exec::jit_compile(spec, canon, jit);
        },
        &fill);
  } catch (...) {
    promise->set_exception(std::current_exception());
    {
      std::lock_guard lock(mu_);
      stats_.fill_retries += fill.attempts > 0 ? fill.attempts - 1 : 0;
      native_entries_.erase(key);
      unpin_stem_locked(stem);
      publish_counters_locked();
    }
    throw;
  }
  promise->set_value(module);

  {
    std::lock_guard lock(mu_);
    stats_.fill_retries += fill.attempts > 0 ? fill.attempts - 1 : 0;
    unpin_stem_locked(stem);
    const auto it = native_entries_.find(key);
    if (it != native_entries_.end() && !it->second.ready) {
      native_lru_.push_front(key);
      it->second.lru_it = native_lru_.begin();
      it->second.ready = true;
      while (native_lru_.size() > capacity_) {
        // Dropping the entry only releases the cache's shared_ptr: a module
        // an executor still runs stays dlopened until that reference dies.
        native_entries_.erase(native_lru_.back());
        native_lru_.pop_back();
        ++stats_.native_evictions;
      }
    }
    publish_counters_locked();
  }
  return module;
}

exec::NativeModulePtr KernelCache::find_native(
    const codegen::StencilSpec& spec, const codegen::CodegenOptions& options,
    std::string_view device) {
  const std::string key =
      native_key(spec, canonical_native_options(options), device);
  std::lock_guard lock(mu_);
  return native_hit_locked(key);
}

exec::NativeModulePtr KernelCache::native_hit_locked(const std::string& key) {
  const auto it = native_entries_.find(key);
  if (it == native_entries_.end() || !it->second.ready) return nullptr;
  ++stats_.native_hits;
  native_lru_.splice(native_lru_.begin(), native_lru_, it->second.lru_it);
  publish_counters_locked();
  return it->second.future.get();  // ready: no blocking
}

void KernelCache::set_jit(exec::JitConfig config) {
  std::lock_guard lock(mu_);
  jit_ = std::move(config);
  // The native key does not carry the JIT config: a ready module built
  // under the old one must not be served under the new one. An in-flight
  // fill publishes under the config it started with, as after clear().
  for (const std::string& key : native_lru_) native_entries_.erase(key);
  native_lru_.clear();
  generation_.fetch_add(1, std::memory_order_release);
  publish_counters_locked();
}

exec::JitConfig KernelCache::jit_config() const {
  std::lock_guard lock(mu_);
  return jit_;
}

std::size_t KernelCache::gc_native_artifacts() {
  namespace fs = std::filesystem;
  // Collect the artifact stems of every ready module under the lock, then
  // walk the directory without it (filesystem IO under a hot mutex is rude).
  std::vector<std::string> live_stems;
  std::string dir;
  {
    std::lock_guard lock(mu_);
    dir = exec::resolved_cache_dir(jit_);
    for (const auto& [key, entry] : native_entries_) {
      if (!entry.ready) continue;
      const exec::NativeModulePtr module = entry.future.get();
      if (module == nullptr) continue;
      // "<symbol>.<hash>.so" -> keep every "<symbol>.<hash>.*" sibling
      // (the .cpp kept next to the .so is a debugging aid).
      std::string stem = fs::path(module->artifact_path()).filename().string();
      if (stem.size() > 3 && stem.ends_with(".so")) {
        stem.resize(stem.size() - 3);
      }
      live_stems.push_back(std::move(stem));
    }
    // In-flight fills: their artifact may already exist on disk (disk-warm
    // reuse) with an old mtime; it is live even though no entry is ready.
    for (const auto& kv : native_inflight_stems_) {
      live_stems.push_back(kv.first);
    }
  }

  std::size_t removed = 0;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  constexpr auto kGrace = std::chrono::seconds(60);
  for (const fs::directory_entry& de : fs::directory_iterator(dir, ec)) {
    if (!de.is_regular_file(ec)) continue;
    const std::string name = de.path().filename().string();
    bool live = false;
    for (const std::string& stem : live_stems) {
      if (name.starts_with(stem)) {
        live = true;
        break;
      }
    }
    if (live) continue;
    // Grace window: a file another thread/process just renamed into place
    // (or is about to dlopen) must not vanish under it.
    const fs::file_time_type mtime = fs::last_write_time(de.path(), ec);
    if (ec || now - mtime < kGrace) continue;
    if (fs::remove(de.path(), ec) && !ec) ++removed;
  }
  return removed;
}

void KernelCache::unpin_stem_locked(const std::string& stem) {
  const auto it = native_inflight_stems_.find(stem);
  if (it == native_inflight_stems_.end()) return;
  if (--it->second == 0) native_inflight_stems_.erase(it);
}

void KernelCache::set_retry(resilience::RetryPolicy policy,
                            resilience::Clock* clock) {
  std::lock_guard lock(mu_);
  retry_ = policy;
  retry_clock_ = clock;
}

KernelCacheStats KernelCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t KernelCache::size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

std::size_t KernelCache::native_size() const {
  std::lock_guard lock(mu_);
  return native_lru_.size();
}

void KernelCache::clear() {
  std::lock_guard lock(mu_);
  // Drop ready entries only; an in-flight compile still owns its map slot
  // (erasing it would let a concurrent miss start a duplicate compile whose
  // publication then collides with the first one's).
  for (const std::string& key : lru_) entries_.erase(key);
  lru_.clear();
  for (const std::string& key : native_lru_) native_entries_.erase(key);
  native_lru_.clear();
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
  reg->set("pipeline.cache.size", static_cast<f64>(lru_.size()));
  reg->set("pipeline.cache.native_hits",
           static_cast<f64>(stats_.native_hits));
  reg->set("pipeline.cache.native_misses",
           static_cast<f64>(stats_.native_misses));
  reg->set("pipeline.cache.native_coalesced",
           static_cast<f64>(stats_.native_coalesced));
  reg->set("pipeline.cache.native_evictions",
           static_cast<f64>(stats_.native_evictions));
  reg->set("pipeline.cache.native_size",
           static_cast<f64>(native_lru_.size()));
}

KernelCache& KernelCache::global() {
  static KernelCache cache;
  return cache;
}

}  // namespace ispb::pipeline
