#include "gpusim/launcher.hpp"

#include <algorithm>
#include <atomic>
#include <queue>

#include "common/error.hpp"
#include "common/stop.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ispb::sim {

namespace {

/// Resolves input-register values for one warp of one block: specials by
/// name (thread identity), then parameters from the map.
class InputResolver {
 public:
  InputResolver(const ir::Program& prog, const ParamMap& params,
                BlockSize block)
      : prog_(prog), block_(block) {
    param_values_.reserve(prog.num_params());
    std::size_t used = 0;
    for (const std::string& pname : prog.param_names) {
      const auto it = params.find(pname);
      if (it == params.end()) {
        throw ContractError("missing kernel parameter: " + pname);
      }
      param_values_.push_back(it->second);
      ++used;
    }
    if (used != params.size()) {
      throw ContractError("launch provides parameters the kernel '" +
                          prog.name + "' does not declare");
    }
    special_kind_.reserve(prog.special_names.size());
    for (const std::string& sname : prog.special_names) {
      if (sname == "tid.x") {
        special_kind_.push_back(Kind::kTidX);
      } else if (sname == "tid.y") {
        special_kind_.push_back(Kind::kTidY);
      } else if (sname == "ctaid.x") {
        special_kind_.push_back(Kind::kCtaidX);
      } else if (sname == "ctaid.y") {
        special_kind_.push_back(Kind::kCtaidY);
      } else {
        throw ContractError("unknown special register: " + sname);
      }
    }
  }

  /// Fills `out` (lane-major, 32 * num_inputs words) for warp `w` of block
  /// (bx, by). Lane l is linear thread w*32+l; tid.x/tid.y derive from the
  /// row-major thread layout inside the block.
  void fill_warp(i32 bx, i32 by, i32 w, i32 warp_size,
                 std::vector<ir::Word>& out) const {
    const u32 num_inputs = prog_.num_inputs();
    out.resize(static_cast<std::size_t>(warp_size) * num_inputs);
    for (i32 lane = 0; lane < warp_size; ++lane) {
      const i32 linear = w * warp_size + lane;
      const i32 lx = linear % block_.tx;
      const i32 ly = linear / block_.tx;
      ir::Word* dst = out.data() + static_cast<std::size_t>(lane) * num_inputs;
      for (std::size_t s = 0; s < special_kind_.size(); ++s) {
        switch (special_kind_[s]) {
          case Kind::kTidX:
            dst[s] = ir::Word::from_i32(lx);
            break;
          case Kind::kTidY:
            dst[s] = ir::Word::from_i32(ly);
            break;
          case Kind::kCtaidX:
            dst[s] = ir::Word::from_i32(bx);
            break;
          case Kind::kCtaidY:
            dst[s] = ir::Word::from_i32(by);
            break;
        }
      }
      for (std::size_t p = 0; p < param_values_.size(); ++p) {
        dst[special_kind_.size() + p] = param_values_[p];
      }
    }
  }

 private:
  enum class Kind : u8 { kTidX, kTidY, kCtaidX, kCtaidY };
  const ir::Program& prog_;
  BlockSize block_;
  std::vector<ir::Word> param_values_;
  std::vector<Kind> special_kind_;
};

WarpResult run_block_impl(const DeviceSpec& dev, const ir::Program& prog,
                          const InputResolver& resolver, BlockSize block,
                          std::span<const ir::BufferBinding> buffers, i32 bx,
                          i32 by) {
  const i32 warps = ceil_div(block.threads(), dev.warp_size);
  std::vector<ir::Word> lane_inputs;
  std::vector<ir::Word> warp_inputs;
  SegmentCache block_cache;  // per-SM L1 shared by the block's warps
  // All warps of the block execute together (barrier-synchronized phases
  // over one shared smem array); for barrier-free kernels this is the same
  // sequential warp order as before.
  for (i32 w = 0; w < warps; ++w) {
    resolver.fill_warp(bx, by, w, dev.warp_size, warp_inputs);
    lane_inputs.insert(lane_inputs.end(), warp_inputs.begin(),
                       warp_inputs.end());
  }
  std::vector<WarpResult> results(static_cast<std::size_t>(warps));
  run_block_warps(prog, dev, lane_inputs, static_cast<u32>(block.threads()),
                  buffers, results, 50'000'000, &block_cache);
  WarpResult total;
  for (const WarpResult& r : results) total += r;
  return total;
}

}  // namespace

f64 model_time_ms(const DeviceSpec& dev, const Occupancy& occ,
                  std::span<const f64> block_cycles) {
  // An SM issues from all resident blocks through one front end, so its
  // completion rate is its issue throughput — degraded below the
  // latency-hiding occupancy — not the resident-block count. Blocks are
  // greedily assigned to the earliest-finishing SM; the makespan at the
  // occupancy-derated issue rate is the launch time.
  const f64 eta = throughput_factor(dev, occ);

  std::priority_queue<f64, std::vector<f64>, std::greater<>> finish;
  for (i32 s = 0; s < dev.num_sms; ++s) finish.push(0.0);
  f64 makespan = 0.0;
  for (f64 cycles : block_cycles) {
    const f64 start = finish.top();
    finish.pop();
    const f64 end = start + cycles;
    finish.push(end);
    makespan = std::max(makespan, end);
  }
  const f64 seconds = makespan / eta / (dev.clock_ghz * 1e9);
  return seconds * 1e3 + dev.launch_overhead_us * 1e-3;
}

namespace {

/// Publishes one launch's counters into the installed metrics registry (the
/// null check is the whole fast path: nothing happens without a registry).
void publish_launch_metrics(const ir::Program& prog, std::string_view mode,
                            const LaunchStats& stats) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
  if (reg == nullptr) return;
  const obs::Labels labels{{"kernel", prog.name}, {"mode", std::string(mode)}};
  reg->add("sim.launches", 1.0, labels);
  reg->add("sim.blocks_executed", static_cast<f64>(stats.blocks_executed),
           labels);
  reg->add("sim.issue_slots", static_cast<f64>(stats.warps.issue_slots),
           labels);
  reg->add("sim.divergent_branches",
           static_cast<f64>(stats.warps.divergent_branches), labels);
  reg->add("sim.mem_transactions",
           static_cast<f64>(stats.warps.mem_transactions), labels);
  reg->add("sim.mem_transactions_wide",
           static_cast<f64>(stats.warps.mem_transactions_wide), labels);
  reg->add("sim.mem_cache_misses",
           static_cast<f64>(stats.warps.mem_cache_misses), labels);
  reg->add("sim.smem_transactions",
           static_cast<f64>(stats.warps.smem_transactions), labels);
  reg->add("sim.smem_bank_conflicts",
           static_cast<f64>(stats.warps.smem_bank_conflicts), labels);
  reg->observe("sim.launch_time_ms", stats.time_ms, labels);
}

LaunchStats launch_grid_impl(const DeviceSpec& dev, const ir::Program& prog,
                             const LaunchConfig& cfg, const ParamMap& params,
                             std::span<const ir::BufferBinding> buffers,
                             i32 nbx, i32 nby,
                             const BlockClassFn& classify = {}) {
  const InputResolver resolver(prog, params, cfg.block);
  const i64 total = i64{nbx} * i64{nby};

  std::vector<f64> block_cycles(static_cast<std::size_t>(total), 0.0);
  std::vector<WarpResult> block_stats(static_cast<std::size_t>(total));

  // A cut (common/stop.hpp) skips the remaining blocks; the pool threads
  // compare against the caller's stop time and raise the flag.
  const StopClock::time_point stop = stop_time();
  std::atomic<bool> cut{false};
  parallel_for(0, total, [&](i64 b) {
    if (cut.load(std::memory_order_relaxed) || stop_reached(stop)) {
      cut.store(true, std::memory_order_relaxed);
      return;
    }
    // Per-block span: records into the worker thread's own sink, so the
    // pool loop traces without contention; a no-op when tracing is off.
    obs::ScopedSpan block_span("sim.block", "sim");
    const i32 bx = static_cast<i32>(b % nbx);
    const i32 by = static_cast<i32>(b / nbx);
    WarpResult r =
        run_block_impl(dev, prog, resolver, cfg.block, buffers, bx, by);
    block_cycles[static_cast<std::size_t>(b)] = warp_cycles(dev, r);
    block_stats[static_cast<std::size_t>(b)] = r;
  });
  if (cut.load(std::memory_order_relaxed)) throw DeadlineExceeded();

  LaunchStats stats;
  for (const WarpResult& r : block_stats) stats.warps += r;
  for (f64 c : block_cycles) stats.total_warp_cycles += c;
  stats.blocks_executed = total;
  stats.blocks_total = total;
  stats.smem_bytes_per_block = cfg.smem_bytes_per_block;
  stats.occupancy = compute_occupancy(dev, cfg.block, cfg.regs_per_thread,
                                      cfg.smem_bytes_per_block);
  stats.time_ms = model_time_ms(dev, stats.occupancy, block_cycles);
  if (classify) {
    for (i64 b = 0; b < total; ++b) {
      const i32 bx = static_cast<i32>(b % nbx);
      const i32 by = static_cast<i32>(b / nbx);
      RegionCounters& rc = stats.per_region[classify(bx, by)];
      rc.warps += block_stats[static_cast<std::size_t>(b)];
      rc.cycles += block_cycles[static_cast<std::size_t>(b)];
      ++rc.blocks;
    }
  }
  return stats;
}

}  // namespace

LaunchStats launch_full(const DeviceSpec& dev, const ir::Program& prog,
                        const LaunchConfig& cfg, const ParamMap& params,
                        std::span<const ir::BufferBinding> buffers,
                        const BlockClassFn& classify) {
  obs::ScopedSpan span("sim.launch_full", "sim");
  const GridDims grid = make_grid(cfg.image, cfg.block);
  LaunchStats stats = launch_grid_impl(dev, prog, cfg, params, buffers,
                                       grid.nbx, grid.nby, classify);
  if (span.recording()) {
    span.arg("kernel", prog.name);
    span.arg("blocks", stats.blocks_total);
    span.arg("time_ms", stats.time_ms);
  }
  publish_launch_metrics(prog, "full", stats);
  return stats;
}

LaunchStats launch_subgrid(const DeviceSpec& dev, const ir::Program& prog,
                           const LaunchConfig& cfg, const ParamMap& params,
                           std::span<const ir::BufferBinding> buffers,
                           i32 nbx, i32 nby) {
  ISPB_EXPECTS(nbx > 0 && nby > 0);
  obs::ScopedSpan span("sim.launch_subgrid", "sim");
  LaunchStats stats =
      launch_grid_impl(dev, prog, cfg, params, buffers, nbx, nby);
  if (span.recording()) {
    span.arg("kernel", prog.name);
    span.arg("blocks", stats.blocks_total);
    span.arg("time_ms", stats.time_ms);
  }
  publish_launch_metrics(prog, "subgrid", stats);
  return stats;
}

LaunchStats launch_sampled(const DeviceSpec& dev, const ir::Program& prog,
                           const LaunchConfig& cfg, const ParamMap& params,
                           std::span<const ir::BufferBinding> buffers,
                           const BlockClassFn& classify,
                           i32 samples_per_class) {
  ISPB_EXPECTS(samples_per_class >= 1);
  obs::ScopedSpan span("sim.launch_sampled", "sim");
  const GridDims grid = make_grid(cfg.image, cfg.block);
  const InputResolver resolver(prog, params, cfg.block);

  // Group block coordinates by class; keep evenly spaced representatives.
  struct ClassInfo {
    i64 count = 0;
    std::vector<std::pair<i32, i32>> members;  // reservoir of representatives
  };
  std::map<u32, ClassInfo> classes;
  for (i32 by = 0; by < grid.nby; ++by) {
    for (i32 bx = 0; bx < grid.nbx; ++bx) {
      ClassInfo& info = classes[classify(bx, by)];
      ++info.count;
      info.members.emplace_back(bx, by);
    }
  }

  LaunchStats stats;
  stats.blocks_total = grid.total();
  stats.smem_bytes_per_block = cfg.smem_bytes_per_block;
  stats.occupancy = compute_occupancy(dev, cfg.block, cfg.regs_per_thread,
                                      cfg.smem_bytes_per_block);

  std::vector<f64> scaled_cycles;  // one synthetic entry per real block
  scaled_cycles.reserve(static_cast<std::size_t>(grid.total()));

  for (const auto& [key, info_ref] : classes) {
    const ClassInfo* info = &info_ref;
    const i64 n = static_cast<i64>(info->members.size());
    const i32 samples = static_cast<i32>(
        std::min<i64>(samples_per_class, n));
    WarpResult class_total;
    f64 class_cycles = 0.0;
    for (i32 s = 0; s < samples; ++s) {
      // Evenly spaced picks: first, spread through the middle, last.
      const i64 pick = samples == 1 ? 0 : (n - 1) * s / (samples - 1);
      const auto [bx, by] = info->members[static_cast<std::size_t>(pick)];
      const WarpResult r =
          run_block_impl(dev, prog, resolver, cfg.block, buffers, bx, by);
      class_cycles += warp_cycles(dev, r);
      class_total += r;
      ++stats.blocks_executed;
    }
    const f64 mean_cycles = class_cycles / samples;

    // Scale counts: each unsampled block contributes the class mean.
    const f64 scale = static_cast<f64>(info->count) / samples;
    WarpResult scaled = class_total;
    scaled.issued = class_total.issued.scaled(scale);
    auto scale_u64 = [&](u64 v) {
      return static_cast<u64>(static_cast<f64>(v) * scale + 0.5);
    };
    scaled.issue_slots = scale_u64(class_total.issue_slots);
    scaled.lane_instructions = scale_u64(class_total.lane_instructions);
    scaled.mem_transactions = scale_u64(class_total.mem_transactions);
    scaled.mem_transactions_wide = scale_u64(class_total.mem_transactions_wide);
    scaled.mem_cache_misses = scale_u64(class_total.mem_cache_misses);
    scaled.divergent_branches = scale_u64(class_total.divergent_branches);
    scaled.smem_transactions = scale_u64(class_total.smem_transactions);
    scaled.smem_bank_conflicts = scale_u64(class_total.smem_bank_conflicts);
    for (auto& v : scaled.issued_per_pipe) v = scale_u64(v);
    stats.warps += scaled;
    stats.total_warp_cycles += mean_cycles * static_cast<f64>(info->count);
    for (i64 i = 0; i < info->count; ++i) scaled_cycles.push_back(mean_cycles);

    // Per-class attribution reuses the exact scaled object added to the
    // aggregate, so region totals match the whole-grid counters bit for bit.
    RegionCounters& rc = stats.per_region[key];
    rc.warps += scaled;
    rc.cycles += mean_cycles * static_cast<f64>(info->count);
    rc.blocks += info->count;
  }

  stats.time_ms = model_time_ms(dev, stats.occupancy, scaled_cycles);
  if (span.recording()) {
    span.arg("kernel", prog.name);
    span.arg("blocks", stats.blocks_total);
    span.arg("sampled", stats.blocks_executed);
    span.arg("time_ms", stats.time_ms);
  }
  publish_launch_metrics(prog, "sampled", stats);
  return stats;
}

WarpResult run_block(const DeviceSpec& dev, const ir::Program& prog,
                     const LaunchConfig& cfg, const ParamMap& params,
                     std::span<const ir::BufferBinding> buffers, i32 bx,
                     i32 by) {
  const GridDims grid = make_grid(cfg.image, cfg.block);
  ISPB_EXPECTS(bx >= 0 && bx < grid.nbx && by >= 0 && by < grid.nby);
  const InputResolver resolver(prog, params, cfg.block);
  return run_block_impl(dev, prog, resolver, cfg.block, buffers, bx, by);
}

}  // namespace ispb::sim
