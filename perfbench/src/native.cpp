// Native serving workloads: frame_2k (2048² frames) and serve_128 (128²
// requests on a two-device fleet), both closed loops with one request
// outstanding, timed from fleet::FleetServer::submit to the moment the
// benchmark sees the future settle; plus, in the traced run, the layer
// ladder of direct calls into each layer's public function and the
// dsl/ir/gpusim grid.
//
// Every run builds its stack from cold: a fresh JIT artifact directory
// under the run's work dir (never $ISPB_JIT_DIR or the shared tmp cache), a
// fresh KernelCache and a fresh fleet. Set-up is repeated kSetups times and
// setup_s is the median; the last stack serves the timed load.
#include <algorithm>
#include <array>
#include <filesystem>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "codegen/cpp_printer.hpp"
#include "common/rng.hpp"
#include "exec/backend.hpp"
#include "exec/jit.hpp"
#include "fleet/fleet_server.hpp"
#include "image/generators.hpp"
#include "obs/trace.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/kernel_cache.hpp"
#include "pipeline/kernel_graph.hpp"
#include "pipeline/server.hpp"
#include "sim_grid.hpp"

namespace fs = std::filesystem;

namespace ispb::perfbench {
namespace {

/// Odd geometry for the pre-timing gate: not a multiple of any block or
/// band size, yet large enough for every window (atrous17 radius 8).
constexpr Size2 kOddSize{131, 75};
constexpr u32 kTiers = 3;
/// Cold set-ups per run; setup_s is their median.
constexpr i32 kSetups = 5;
/// Share of responses re-checked against the reference during a run,
/// between requests.
constexpr f64 kCheckShare = 0.125;
/// Slices per run (see LoadStats::Slice).
constexpr std::size_t kSlices = 10;
/// The parallel floor probe (see parallel_floor_ms) copies an image of this
/// size on both workloads, after a request once this long has passed since
/// the previous probe.
constexpr Size2 kFloorSize{2048, 2048};
constexpr f64 kFloorGapMs = 10.0;

struct App {
  std::string name;
  filters::MultiKernelApp app;
  std::shared_ptr<const pipeline::KernelGraph> graph;
};

App load_app(const std::string& name) {
  App a;
  a.name = name;
  a.app = make_app(name);
  a.graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(a.app));
  return a;
}

/// What a workload serves and on which fleet.
struct Workload {
  std::string name;
  std::vector<std::string> mix;  ///< apps the load sends
  std::vector<sim::DeviceSpec> devices;
  i32 workers = 1;  ///< per shard
  BorderPattern pattern = BorderPattern::kClamp;
  i32 size = 2048;
  i32 images = 1;  ///< seeded source images the load draws from
  /// Variants the fleet may serve: kNaive is admission's brownout plan.
  std::vector<codegen::Variant> variants;
};

Workload workload_for(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "serve_128") {
    w.mix = {"gaussian", "sobel"};
    w.devices = {sim::make_gtx680(), sim::make_rtx2080()};
    w.workers = 2;  // 2 shards x 2 workers = 4 worker threads
    w.pattern = BorderPattern::kMirror;
    w.size = 128;
    w.images = 8;
    w.variants = {codegen::Variant::kIsp, codegen::Variant::kNaive};
  } else {  // frame_2k
    w.mix = ladder_apps();
    w.devices = {sim::make_gtx680()};
    w.workers = 1;
    w.pattern = BorderPattern::kClamp;
    w.size = 2048;
    w.images = 1;
    // One request in flight keeps fleet occupancy far below brownout, so
    // the fleet can only serve the ISP plan.
    w.variants = {codegen::Variant::kIsp};
  }
  return w;
}

/// Seeded inputs and lazily computed references (the benchmark's oracle,
/// computed outside every timed interval and outside setup_s).
class Inputs {
 public:
  Inputs(const Workload& w, u64 seed) : pattern_(w.pattern) {
    for (i32 i = 0; i < w.images; ++i) {
      sources_.push_back(std::make_shared<const Image<f32>>(make_noise_image(
          {w.size, w.size}, seed * 1000003ull + static_cast<u64>(i))));
    }
    odd_ = std::make_shared<const Image<f32>>(
        make_noise_image(kOddSize, seed * 1000003ull + 999ull));
  }

  [[nodiscard]] const std::shared_ptr<const Image<f32>>& source(i32 i) const {
    return sources_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const std::shared_ptr<const Image<f32>>& odd() const {
    return odd_;
  }
  /// Reference output of `app` on source `i` (-1 = the odd image).
  const Image<f32>& reference(const App& app, i32 i) {
    const auto key = std::make_pair(app.name, i);
    auto it = refs_.find(key);
    if (it == refs_.end()) {
      const Image<f32>& src = i < 0 ? *odd_ : *source(i);
      it = refs_.emplace(key, filters::run_app_reference(app.app, src, pattern_))
               .first;
    }
    return it->second;
  }

 private:
  BorderPattern pattern_;
  std::vector<std::shared_ptr<const Image<f32>>> sources_;
  std::shared_ptr<const Image<f32>> odd_;
  std::map<std::pair<std::string, i32>, Image<f32>> refs_;
};

fleet::FleetConfig fleet_config(const Workload& w,
                                pipeline::KernelCache* cache) {
  fleet::FleetConfig cfg;
  cfg.devices = w.devices;
  cfg.shard.workers = w.workers;
  cfg.shard.queue_capacity = 128;
  cfg.shard.executor.sim.device = w.devices.front();
  cfg.shard.executor.sim.pattern = w.pattern;
  cfg.shard.executor.sim.variant = codegen::Variant::kIsp;
  cfg.shard.executor.concurrency = 1;
  cfg.shard.executor.cache = cache;
  cfg.shard.executor.backend = exec::Backend::kNative;
  cfg.admission.tiers = kTiers;
  return cfg;
}

fleet::FleetRequest make_request(const App& app,
                                 std::shared_ptr<const Image<f32>> source,
                                 u32 tier) {
  fleet::FleetRequest req;
  req.graph = app.graph;
  req.source = std::move(source);
  req.backend = exec::Backend::kNative;
  req.tier = tier;
  return req;
}

std::string cell_name(const Workload& w, const std::string& app,
                      std::string_view variant, const std::string& device,
                      Size2 size) {
  return w.name + "/" + app + "/" + std::string(to_string(w.pattern)) + "/" +
         std::string(variant) + "/" + device + "/" + std::to_string(size.x) +
         "x" + std::to_string(size.y);
}

/// One cold serving stack. Destruction drains the fleet, drops the modules
/// and removes the artifact directory.
struct NativeStack {
  fs::path jit_dir;
  std::unique_ptr<pipeline::KernelCache> cache;
  std::unique_ptr<fleet::FleetServer> fleet;

  NativeStack() = default;
  NativeStack(const NativeStack&) = delete;
  NativeStack& operator=(const NativeStack&) = delete;
  ~NativeStack() {
    fleet.reset();
    cache.reset();
    std::error_code ec;
    fs::remove_all(jit_dir, ec);
  }
};

/// Settles one gate request and checks it bit-exactly; a failed settle or
/// a differing pixel is a mismatch for the cell.
void gate(Report& report, const Options& opt, fleet::FleetServer& fleet,
          fleet::FleetRequest req, const std::string& cell,
          const Image<f32>& ref) {
  fleet::FleetResponse r = fleet.submit(std::move(req)).get();
  ++report.attempted;
  if (r.status != fleet::FleetStatus::kOk) {
    report.mismatch(cell + " status " + std::string(to_string(r.status)) +
                    " " + r.error);
    return;
  }
  check_output(report, opt, cell, r.serve.output, ref);
}

/// Cold JIT into `dir`, then every (app, variant, device) the fleet can
/// serve, at the workload size and at the odd geometry, checked against
/// the reference; then one unpinned request per app so placement weights
/// are memoized before timing.
std::unique_ptr<NativeStack> set_up(const Options& opt, const Workload& w,
                                    const std::vector<App>& mix,
                                    Inputs& inputs, const fs::path& dir,
                                    Report& report) {
  auto stack = std::make_unique<NativeStack>();
  stack->jit_dir = dir;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  stack->cache = std::make_unique<pipeline::KernelCache>();
  exec::JitConfig jit;
  jit.cache_dir = dir.string();
  stack->cache->set_jit(jit);
  stack->fleet = std::make_unique<fleet::FleetServer>(
      fleet_config(w, stack->cache.get()));

  for (const App& app : mix) {
    for (codegen::Variant variant : w.variants) {
      for (const sim::DeviceSpec& dev : w.devices) {
        for (i32 img : {0, -1}) {
          const auto& src = img < 0 ? inputs.odd() : inputs.source(0);
          fleet::FleetRequest req = make_request(app, src, 0);
          req.pin_device = dev.name;
          req.variant = variant;
          gate(report, opt, *stack->fleet, std::move(req),
               cell_name(w, app.name, codegen::to_string(variant), dev.name,
                         src->size()),
               inputs.reference(app, img));
        }
      }
    }
  }
  for (const App& app : mix) {
    gate(report, opt, *stack->fleet,
         make_request(app, inputs.source(0), 0),
         cell_name(w, app.name, "routed", "fleet", inputs.source(0)->size()),
         inputs.reference(app, 0));
  }
  return stack;
}


/// Everything one load pass observed, from outside the fleet. The timed
/// window is cut into kSlices equal slices by submit time.
struct LoadStats {
  struct Slice {
    u64 sent = 0;
    u64 within_limit = 0;
    f64 ok_megapixels = 0.0;
    f64 cpu_s = 0.0;  ///< process CPU time spent serving the slice
    std::vector<std::vector<f64>> app_latency_ms;  ///< kOk, per mix app
    /// The host's parallel streaming floor, timed between the slice's
    /// requests (see parallel_floor_ms).
    std::vector<f64> floor_ms;
  };

  /// `inner`: also keep the per-request inner timings and generator delay
  /// (traced runs). Untraced runs keep only the latencies, so the
  /// benchmark's own samples, whose number follows the host's speed, add
  /// little to rss_mb.
  LoadStats(std::size_t apps, bool inner) : inner(inner), slices(kSlices) {
    for (Slice& slice : slices) slice.app_latency_ms.resize(apps);
  }

  bool inner = false;
  u64 sent = 0;
  u64 ok = 0;
  u64 shed = 0;
  u64 rejected = 0;
  u64 deadline = 0;
  u64 errors = 0;
  u64 browned_out = 0;
  f64 wall_s = 0.0;
  std::vector<Slice> slices;
  std::vector<f64> queue_ms, exec_ms, route_ms;  ///< kOk inner timings
  /// Previous settle to next submit: the generator's own delay.
  std::vector<f64> late_ms;
  std::array<u64, kTiers> tier_sent{};
  std::array<u64, kTiers> tier_ok{};

  void record(const fleet::FleetResponse& r, std::size_t app, u32 tier,
              f64 latency, f64 limit_ms, std::size_t slice_index) {
    Slice& slice = slices[slice_index];
    ++sent;
    ++slice.sent;
    ++tier_sent[tier];
    switch (r.status) {
      case fleet::FleetStatus::kOk:
        ++ok;
        ++tier_ok[tier];
        slice.ok_megapixels += static_cast<f64>(r.serve.output.width()) *
                               static_cast<f64>(r.serve.output.height()) /
                               1e6;
        slice.app_latency_ms[app].push_back(latency);
        if (latency <= limit_ms) ++slice.within_limit;
        if (r.browned_out) ++browned_out;
        if (inner) {
          queue_ms.push_back(r.serve.queue_ms);
          exec_ms.push_back(r.serve.exec_ms);
          route_ms.push_back(r.total_ms - r.serve.total_ms);
        }
        break;
      case fleet::FleetStatus::kShed:
        ++shed;
        break;
      case fleet::FleetStatus::kRejected:
        ++rejected;
        break;
      case fleet::FleetStatus::kDeadlineExpired:
        ++deadline;
        break;
      case fleet::FleetStatus::kError:
        ++errors;
        break;
    }
  }
};

f64 share(u64 part, u64 whole) {
  return whole > 0 ? static_cast<f64>(part) / static_cast<f64>(whole) : 0.0;
}

std::size_t slice_of(f64 at_s, f64 seconds) {
  return std::min<std::size_t>(
      kSlices - 1, static_cast<std::size_t>(at_s / seconds * kSlices));
}

/// Copies of `source` into `scratch` (kFloorPasses of them), split into
/// equal contiguous shares over as many of the benchmark's own threads as
/// the program's pool has: the host's parallel streaming floor, in ms per
/// pass. It slows with the same neighbours a request's row bands compete
/// with (fewer free vCPUs, shared memory bandwidth), so the ratio of the
/// two cancels the host. The passes stretch the probe to a few ms: a
/// single pass (under 1 ms) overstated contention, and a 128² image mostly
/// timed thread start-up.
f64 parallel_floor_ms(const Image<f32>& source, Image<f32>& scratch) {
  constexpr i32 kFloorPasses = 8;
  const std::span<const f32> in = source.buffer();
  const std::span<f32> out = scratch.buffer();
  const std::size_t n = std::max(1u, std::thread::hardware_concurrency());
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t begin = in.size() * t / n;
      const std::size_t end = in.size() * (t + 1) / n;
      for (i32 p = 0; p < kFloorPasses; ++p) {
        std::copy(in.begin() + begin, in.begin() + end, out.begin() + begin);
        asm volatile("" : : "r"(out.data()) : "memory");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ms_between(t0, Clock::now()) / kFloorPasses;
}

/// One request outstanding from one generator thread: seeded app, source
/// image and tier; latency from submit to settle. Nothing else runs in the
/// process while a request is in flight, so the process CPU time over each
/// submit-to-settle interval is the request's.
/// A seeded share of responses is compared with the reference, and the
/// parallel floor is timed, between requests, outside the timed interval.
LoadStats closed_loop(const Options& opt, const Workload& w,
                      const std::vector<App>& mix, Inputs& inputs,
                      fleet::FleetServer& fleet, f64 seconds,
                      Report& report) {
  LoadStats s(mix.size(), opt.trace);
  const Image<f32> floor_source = make_noise_image(kFloorSize, opt.seed);
  Image<f32> scratch(kFloorSize);
  Rng rng(opt.seed ^ 0x5eedf00dull);
  const Clock::time_point start = Clock::now();
  Clock::time_point ready = start;
  Clock::time_point probed = start;
  u64 n = 0;
  while (seconds_since(start) < seconds) {
    const auto a = static_cast<std::size_t>(
        rng.uniform_i32(0, static_cast<i32>(mix.size()) - 1));
    const i32 image = rng.uniform_i32(0, w.images - 1);
    const bool check = rng.uniform_f64() < kCheckShare;
    const auto tier = static_cast<u32>(n++ % kTiers);
    fleet::FleetRequest req =
        make_request(mix[a], inputs.source(image), tier);
    const f64 cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    if (s.inner) s.late_ms.push_back(ms_between(ready, t0));
    fleet::FleetResponse r = fleet.submit(std::move(req)).get();
    const Clock::time_point settled = Clock::now();
    const std::size_t slice = slice_of(ms_between(start, t0) / 1000.0, seconds);
    s.slices[slice].cpu_s += process_cpu_s() - cpu0;
    s.record(r, a, tier, ms_between(t0, settled), opt.limit_ms, slice);
    if (check && r.status == fleet::FleetStatus::kOk) {
      check_output(report, opt,
                   cell_name(w, mix[a].name, "served", "fleet",
                             inputs.source(image)->size()) +
                       "/image" + std::to_string(image),
                   r.serve.output, inputs.reference(mix[a], image));
    }
    if (ms_between(probed, Clock::now()) >= kFloorGapMs) {
      s.slices[slice].floor_ms.push_back(
          parallel_floor_ms(floor_source, scratch));
      probed = Clock::now();
    }
    ready = Clock::now();
  }
  s.wall_s = seconds_since(start);
  return s;
}

/// Geomean over apps of each app's median latency in `slice`: the seeded
/// mix then weighs nothing, and the figure does not sit on the cliff
/// between a cheap app's latencies and an expensive one's.
f64 typical_ms(const LoadStats::Slice& slice) {
  std::vector<f64> medians;
  for (const std::vector<f64>& lat : slice.app_latency_ms) {
    if (!lat.empty()) medians.push_back(median(lat));
  }
  return geomean(medians);
}

/// End-to-end figures of one load pass. For latency_ms each slice's figure
/// is divided by the parallel floor timed between the slice's requests and
/// multiplied by the frozen floor (Options::floor_ms), so it reads in ms at
/// the probe host's speed, and the median slice is taken: the host's speed
/// drifts for whole runs, and the floor drifts with it. Unscaled medians
/// over slices, CPU time, goodput and the latency limit are reported beside
/// it as per-layer metrics; on this kind of host their run-to-run spread is
/// too wide to gate on (see config.json).
void report_end_to_end(const Options& opt, const Workload& w,
                       const LoadStats& s, f64 setup_s, Report& report) {
  const f64 slice_s = opt.seconds / static_cast<f64>(s.slices.size());
  std::vector<f64> typical, at_floor, floor, cpu_ms_mpx, mpx_s, attained;
  std::vector<std::vector<f64>> app_latency(w.mix.size());
  for (const LoadStats::Slice& slice : s.slices) {
    if (slice.sent == 0 || slice.ok_megapixels <= 0.0) continue;
    typical.push_back(typical_ms(slice));
    if (!slice.floor_ms.empty()) {
      floor.push_back(median(slice.floor_ms));
      at_floor.push_back(typical.back() / floor.back() * opt.floor_ms);
    }
    cpu_ms_mpx.push_back(slice.cpu_s * 1000.0 / slice.ok_megapixels);
    mpx_s.push_back(slice.ok_megapixels / slice_s);
    attained.push_back(share(slice.within_limit, slice.sent));
    for (std::size_t a = 0; a < app_latency.size(); ++a) {
      app_latency[a].insert(app_latency[a].end(),
                            slice.app_latency_ms[a].begin(),
                            slice.app_latency_ms[a].end());
    }
  }
  if (at_floor.empty()) throw std::runtime_error("no request settled kOk");
  report.metric("setup_s", setup_s, "s");
  report.metric("latency_ms", median(at_floor), "ms");
  std::cout << "# parallel floor " << median(floor) << " ms (frozen "
            << opt.floor_ms << " ms); unscaled slice median "
            << median(typical) << " ms\n";
  report.metric("latency.p50_ms", median(typical), "ms");
  report.metric("cpu.ms_per_mpx", median(cpu_ms_mpx), "ms/Mpx");
  report.metric("goodput_mpx_s", median(mpx_s), "Mpx/s");
  report.metric("slo_attainment", median(attained), "share");
  // Per app over the run, the highest of p99 and p90 with at least ten
  // samples beyond it (frame_2k sees a few hundred frames per app), geomean
  // over apps.
  std::vector<f64> tail;
  for (const std::vector<f64>& lat : app_latency) {
    tail.push_back(percentile(lat, lat.size() >= 1000 ? 99.0 : 90.0));
  }
  report.metric("latency.tail_ms", geomean(tail), "ms");
  std::cout << "# sent " << s.sent << " ok " << s.ok << " shed " << s.shed
            << " rejected " << s.rejected << " deadline " << s.deadline
            << " errors " << s.errors << " browned_out " << s.browned_out
            << " wall_s " << s.wall_s << "; slices " << s.slices.size()
            << "\n";
}

/// Per-layer counters of one load pass: inner timings, placement,
/// admission, cache and generator lateness. Fleet and cache counters are
/// deltas over the timed window.
void report_load_layers(const LoadStats& s, const fleet::FleetStats& before,
                        const fleet::FleetStats& after,
                        const pipeline::KernelCacheStats& cache_before,
                        const pipeline::KernelCacheStats& cache_after,
                        Report& report) {
  report.metric("pipeline.server.queue_ms.p50", percentile(s.queue_ms, 50.0),
                "ms");
  report.metric("pipeline.server.queue_ms.p99", percentile(s.queue_ms, 99.0),
                "ms");
  report.metric("pipeline.server.exec_ms.p50", percentile(s.exec_ms, 50.0),
                "ms");
  report.metric("pipeline.server.exec_ms.p99", percentile(s.exec_ms, 99.0),
                "ms");
  report.metric("fleet.route_ms.p50", percentile(s.route_ms, 50.0), "ms");

  const auto routed = [](const fleet::FleetStats& st, const std::string& dev) {
    for (const fleet::FleetDeviceStats& d : st.devices) {
      if (d.device == dev) return d.routed;
    }
    return u64{0};
  };
  u64 routed_total = 0;
  u64 bounces = 0;
  for (std::size_t i = 0; i < after.devices.size(); ++i) {
    routed_total += after.devices[i].routed - before.devices[i].routed;
    bounces += after.devices[i].rejected - before.devices[i].rejected;
  }
  for (const std::string dev : {"GTX680", "RTX2080"}) {
    report.metric("fleet.placement.share." + dev,
                  share(routed(after, dev) - routed(before, dev), routed_total),
                  "share");
  }
  report.metric("fleet.shard_bounces", static_cast<f64>(bounces), "count");
  report.metric("fleet.failovers",
                static_cast<f64>(after.failovers - before.failovers), "count");
  report.metric("fleet.admission.shed_share", share(s.shed, s.sent), "share");
  report.metric("fleet.admission.brownout_share", share(s.browned_out, s.sent),
                "share");
  report.metric("fleet.admission.reject_share", share(s.rejected, s.sent),
                "share");
  for (u32 t = 0; t < kTiers; ++t) {
    report.metric("fleet.tier_ok_share.t" + std::to_string(t),
                  share(s.tier_ok[t], s.tier_sent[t]), "share");
  }
  const u64 hits = (cache_after.native_hits + cache_after.native_coalesced) -
                   (cache_before.native_hits + cache_before.native_coalesced);
  const u64 misses = cache_after.native_misses - cache_before.native_misses;
  report.metric("pipeline.cache.native_misses", static_cast<f64>(misses),
                "count");
  report.metric("pipeline.cache.hit_rate", share(hits, hits + misses), "share");
  report.metric("loadgen.late_ms.p99", percentile(s.late_ms, 99.0), "ms");
}

/// Single-thread read+write pass over the image buffer: the host's
/// streaming floor at this working-set size.
f64 floor_ns_px(const Image<f32>& source, i32 rounds) {
  const std::span<const f32> in = source.buffer();
  std::vector<f32> out(in.size());
  const f64 px = static_cast<f64>(source.width()) * source.height();
  // Enough passes per sample that a cache-resident image still takes ~1 ms.
  const i32 passes = std::max<i32>(1, static_cast<i32>((1 << 20) / px));
  std::vector<f64> samples;
  for (i32 k = 0; k < rounds; ++k) {
    const Clock::time_point t0 = Clock::now();
    for (i32 p = 0; p < passes; ++p) {
      std::copy(in.begin(), in.end(), out.begin());
      asm volatile("" : : "r"(out.data()) : "memory");
    }
    samples.push_back(ms_between(t0, Clock::now()) / passes);
  }
  return median(samples) * 1e6 / px;
}

/// The layer ladder: per app, K rounds of one direct call into each rung's
/// public function (rungs interleaved within a round), median per rung.
/// Each layer's self time is the difference between adjacent rungs.
void report_ladder(const Options& opt, const Workload& w, NativeStack& stack,
                   Inputs& inputs, Report& report) {
  const std::shared_ptr<const Image<f32>>& source_ptr = inputs.source(0);
  const Image<f32>& source = *source_ptr;
  const f64 px = static_cast<f64>(source.width()) * source.height();
  const i32 rounds = w.size >= 1024 ? 7 : 101;
  const sim::DeviceSpec& dev = w.devices.front();
  const BlockSize block{32, 4};

  const pipeline::ExecutorConfig exec_cfg =
      fleet_config(w, stack.cache.get()).shard.executor;
  const pipeline::PipelineExecutor executor(exec_cfg);
  pipeline::ServerConfig server_cfg;
  server_cfg.workers = 1;
  server_cfg.queue_capacity = 128;
  server_cfg.executor = exec_cfg;
  pipeline::PipelineServer server(server_cfg);
  exec::NativeBackend backend(stack.cache.get());

  const f64 floor = floor_ns_px(source, rounds);
  report.metric("floor.ns_px", floor, "ns/px");
  const auto ns_px = [&](const std::vector<f64>& ms) {
    return median(ms) * 1e6 / px;
  };

  std::vector<f64> trace_ratios;
  u32 tier = 0;
  for (const std::string& name : ladder_apps()) {
    const App app = load_app(name);
    const auto& stages = app.graph->stages;
    std::vector<Image<f32>> images;
    images.push_back(source);
    for (std::size_t i = 0; i < stages.size(); ++i) {
      images.emplace_back(source.size());
    }
    codegen::CodegenOptions isp;
    isp.pattern = w.pattern;
    isp.variant = codegen::Variant::kIsp;
    isp.tile_block = block;
    codegen::CodegenOptions naive = isp;
    naive.variant = codegen::Variant::kNaive;

    struct StageCall {
      std::vector<const Image<f32>*> inputs;
      std::vector<const float*> ptrs;
      std::vector<int> pitches;
      exec::NativeModulePtr isp_module, naive_module;
    };
    std::vector<StageCall> calls(stages.size());
    for (std::size_t i = 0; i < stages.size(); ++i) {
      StageCall& c = calls[i];
      for (i32 id : stages[i].input_images) {
        const Image<f32>& img = images[static_cast<std::size_t>(id)];
        c.inputs.push_back(&img);
        c.ptrs.push_back(img.buffer().data());
        c.pitches.push_back(img.pitch());
      }
      c.isp_module = stack.cache->get_or_compile_native(stages[i].spec, isp,
                                                        dev.name);
      c.naive_module = stack.cache->get_or_compile_native(stages[i].spec,
                                                          naive, dev.name);
    }
    const auto call_fn = [&](bool use_isp) {
      for (std::size_t i = 0; i < stages.size(); ++i) {
        const StageCall& c = calls[i];
        Image<f32>& out = images[i + 1];
        (use_isp ? c.isp_module : c.naive_module)
            ->fn()(c.ptrs.data(), c.pitches.data(), out.buffer().data(),
                   out.pitch(), out.width(), out.height(), 0, out.height());
      }
    };
    const auto fleet_call = [&] {
      return stack.fleet
          ->submit(make_request(app, source_ptr, tier++ % kTiers))
          .get();
    };

    enum Rung { kKernel, kDispatch, kBackend, kExecutor, kServer, kFleet,
                kNaiveKernel, kRungs };
    std::array<std::vector<f64>, kRungs> ms;
    const Image<f32>& ref = inputs.reference(app, 0);
    const std::string cell =
        cell_name(w, name, "ladder", dev.name, source.size());
    for (i32 k = 0; k < rounds; ++k) {
      Clock::time_point t0 = Clock::now();
      call_fn(true);
      ms[kKernel].push_back(ms_between(t0, Clock::now()));
      if (k == 0) check_output(report, opt, cell + "/fn", images.back(), ref);

      t0 = Clock::now();
      for (std::size_t i = 0; i < stages.size(); ++i) {
        (void)exec::run_native_module(*calls[i].isp_module, calls[i].inputs,
                                      images[i + 1]);
      }
      ms[kDispatch].push_back(ms_between(t0, Clock::now()));

      t0 = Clock::now();
      for (std::size_t i = 0; i < stages.size(); ++i) {
        (void)backend.run(stages[i].spec, isp, dev, calls[i].inputs,
                          images[i + 1], block, false);
      }
      ms[kBackend].push_back(ms_between(t0, Clock::now()));

      t0 = Clock::now();
      pipeline::ExecutorResult er = executor.run(*app.graph, source);
      ms[kExecutor].push_back(ms_between(t0, Clock::now()));
      if (k == 0) check_output(report, opt, cell + "/executor", er.output, ref);

      t0 = Clock::now();
      pipeline::ServeRequest sr;
      sr.graph = app.graph;
      sr.source = source_ptr;
      pipeline::ServeResponse srv = server.submit(std::move(sr)).get();
      ms[kServer].push_back(ms_between(t0, Clock::now()));
      ++report.attempted;
      if (srv.status != pipeline::ServeStatus::kOk) {
        report.mismatch(cell + "/server status " +
                        std::string(to_string(srv.status)));
      }

      t0 = Clock::now();
      fleet::FleetResponse fr = fleet_call();
      ms[kFleet].push_back(ms_between(t0, Clock::now()));
      ++report.attempted;
      if (fr.status != fleet::FleetStatus::kOk) {
        report.mismatch(cell + "/fleet status " +
                        std::string(to_string(fr.status)));
      } else if (k == 0) {
        check_output(report, opt, cell + "/fleet", fr.serve.output, ref);
      }

      t0 = Clock::now();
      call_fn(false);
      ms[kNaiveKernel].push_back(ms_between(t0, Clock::now()));
      if (k == 0) check_output(report, opt, cell + "/naive", images.back(), ref);
    }

    const f64 kernel = ns_px(ms[kKernel]);
    const f64 dispatch = ns_px(ms[kDispatch]);
    const f64 backend_ns = ns_px(ms[kBackend]);
    const f64 executor_ns = ns_px(ms[kExecutor]);
    const f64 server_ns = ns_px(ms[kServer]);
    const f64 fleet_ns = ns_px(ms[kFleet]);
    report.metric("exec.kernel.ns_px." + name, kernel, "ns/px");
    report.metric("exec.kernel.over_floor." + name, kernel / floor, "x");
    report.metric("exec.kernel.isp_speedup." + name,
                  ns_px(ms[kNaiveKernel]) / kernel, "x");
    report.metric("exec.dispatch.self_ns_px." + name, dispatch - kernel,
                  "ns/px");
    report.metric("exec.backend.self_ns_px." + name, backend_ns - dispatch,
                  "ns/px");
    report.metric("pipeline.executor.self_ns_px." + name,
                  executor_ns - backend_ns, "ns/px");
    report.metric("pipeline.server.self_ns_px." + name, server_ns - executor_ns,
                  "ns/px");
    report.metric("fleet.self_ns_px." + name, fleet_ns - server_ns, "ns/px");

    // Tracing overhead on the top rung: the same calls with an
    // obs::TraceSession recording, against the untraced calls above.
    obs::TraceSession::start();
    std::vector<f64> traced;
    for (i32 k = 0; k < rounds; ++k) {
      const Clock::time_point t0 = Clock::now();
      (void)fleet_call();
      traced.push_back(ms_between(t0, Clock::now()));
    }
    // Let the shard worker finish recording before the session closes.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    (void)obs::TraceSession::stop();
    trace_ratios.push_back(median(traced) / median(ms[kFleet]));
  }
  server.shutdown();
  report.metric("trace.overhead", geomean(trace_ratios) - 1.0, "share");
}

/// codegen::emit_cpp and a cold exec::jit_compile into a fresh directory
/// for the ladder's kernel set (every stage, ISP and naive).
void report_jit_layers(const Options& opt, BorderPattern pattern,
                       Report& report) {
  const fs::path dir = fs::path(opt.work_dir) / "jit-probe";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  exec::JitConfig jit;
  jit.cache_dir = dir.string();
  f64 emit_ms = 0.0;
  f64 compile_s = 0.0;
  u64 cpp_bytes = 0;
  u64 compiles = 0;
  for (const std::string& name : ladder_apps()) {
    for (const filters::MultiKernelApp::Stage& stage : make_app(name).stages) {
      for (codegen::Variant v :
           {codegen::Variant::kIsp, codegen::Variant::kNaive}) {
        codegen::CodegenOptions options;
        options.pattern = pattern;
        options.variant = v;
        std::vector<f64> emit;
        std::string cpp;
        for (i32 k = 0; k < 5; ++k) {
          const Clock::time_point t0 = Clock::now();
          cpp = codegen::emit_cpp(stage.spec, options);
          emit.push_back(ms_between(t0, Clock::now()));
        }
        emit_ms += median(emit);
        cpp_bytes += cpp.size();
        const Clock::time_point t0 = Clock::now();
        (void)exec::jit_compile(stage.spec, options, jit);
        compile_s += seconds_since(t0);
        ++compiles;
      }
    }
  }
  u64 so_bytes = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".so") so_bytes += e.file_size();
  }
  fs::remove_all(dir, ec);
  report.metric("codegen.emit_cpp_ms", emit_ms, "ms");
  report.metric("codegen.cpp_bytes", static_cast<f64>(cpp_bytes), "B");
  report.metric("exec.jit.compile_s", compile_s, "s");
  report.metric("exec.jit.compiles", static_cast<f64>(compiles), "count");
  report.metric("exec.jit.so_bytes", static_cast<f64>(so_bytes), "B");
}

std::vector<App> load_apps(const std::vector<std::string>& names) {
  std::vector<App> apps;
  for (const std::string& name : names) apps.push_back(load_app(name));
  return apps;
}

/// Runs one load pass on `stack` and accounts it in the report: every
/// request sent is an operation; kError and kDeadlineExpired settles fail.
LoadStats timed_load(const Options& opt, const Workload& w,
                     const std::vector<App>& mix, Inputs& inputs,
                     NativeStack& stack, f64 seconds, Report& report) {
  const fleet::FleetStats before = stack.fleet->stats();
  const pipeline::KernelCacheStats cache_before = stack.cache->stats();
  LoadStats s = closed_loop(opt, w, mix, inputs, *stack.fleet, seconds, report);
  report.attempted += s.sent;
  report.failed += s.errors + s.deadline;
  if (opt.trace) {
    report_load_layers(s, before, stack.fleet->stats(), cache_before,
                       stack.cache->stats(), report);
  }
  return s;
}

/// dsl/ir/gpusim on the ladder apps at the workload's pattern, ISP and
/// naive, on the workload's devices. Full launches at the odd geometry are
/// checked bit for bit against the CPU reference first; then three passes
/// of sampled launches at the workload's image size are timed.
void report_sim_grid(const Options& opt, const Workload& w, Inputs& inputs,
                     Report& report) {
  SimGrid grid;
  for (const std::string& name : ladder_apps()) {
    grid.apps.push_back(make_app(name));
  }
  grid.patterns = {w.pattern};
  grid.variants = {codegen::Variant::kIsp, codegen::Variant::kNaive};
  grid.devices = w.devices;

  std::vector<Image<f32>> refs;
  for (const filters::MultiKernelApp& app : grid.apps) {
    refs.push_back(filters::run_app_reference(app, *inputs.odd(), w.pattern));
  }
  for (SimCell& cell : run_sim_grid(grid, *inputs.odd(), /*sampled=*/false)) {
    ++report.attempted;
    check_output(report, opt,
                 w.name + "/gpusim/" + cell.key + "/" +
                     std::string(codegen::to_string(cell.variant)) + "/" +
                     std::to_string(kOddSize.x) + "x" +
                     std::to_string(kOddSize.y),
                 cell.output, refs[cell.app]);
  }

  std::vector<std::vector<SimCell>> passes;
  for (i32 k = 0; k < 3; ++k) {
    passes.push_back(run_sim_grid(grid, *inputs.source(0), /*sampled=*/true));
  }
  report_sim_layers(report, passes);
}

}  // namespace

const std::vector<std::string>& ladder_apps() {
  static const std::vector<std::string> apps = {"gaussian", "laplace", "sobel",
                                                "night"};
  return apps;
}

void run_native_workload(const Options& opt, Report& report) {
  const Workload w = workload_for(opt.workload);
  const std::vector<App> mix = load_apps(w.mix);
  Inputs inputs(w, opt.seed);
  // The oracle is the benchmark's, not the program's set-up: compute it
  // before the first set-up starts.
  for (const App& app : mix) {
    for (i32 i = -1; i < w.images; ++i) (void)inputs.reference(app, i);
  }

  std::vector<f64> setup_s;
  std::unique_ptr<NativeStack> stack;
  for (i32 i = 0; i < kSetups; ++i) {
    stack.reset();  // the previous stack drains and removes its artifacts
    const Clock::time_point t0 = Clock::now();
    stack = set_up(opt, w, mix, inputs,
                   fs::path(opt.work_dir) / ("jit-" + std::to_string(i)),
                   report);
    setup_s.push_back(seconds_since(t0));
  }
  std::cout << "# set-ups (s):";
  for (f64 t : setup_s) std::cout << " " << t;
  std::cout << "\n";
  if (!report.correct()) return;

  {
    const LoadStats s =
        timed_load(opt, w, mix, inputs, *stack, opt.seconds, report);
    report_end_to_end(opt, w, s, median(setup_s), report);
  }
  // Measured after the load's own samples are freed: their number follows
  // the host's speed, not the program.
  report.metric("rss_mb", retained_rss_mib(), "MiB");

  if (opt.trace) {
    report_ladder(opt, w, *stack, inputs, report);
    report_jit_layers(opt, w.pattern, report);
    report_sim_grid(opt, w, inputs, report);
    report.metric("error_rate", share(report.failed, report.attempted),
                  "share");
  }
}

}  // namespace ispb::perfbench
