// Grid launch: executes an IR kernel over a threadblock grid, collects the
// statistics the evaluation needs, and models wall-clock time via occupancy
// and wave scheduling.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "gpusim/warp.hpp"

namespace ispb::sim {

/// Kernel-parameter values by name. Every name in Program::param_names must
/// be present; extras are an error (they indicate a codegen/launch mismatch).
using ParamMap = std::map<std::string, ir::Word, std::less<>>;

/// A complete launch description.
struct LaunchConfig {
  Size2 image{};       ///< iteration space extent
  BlockSize block{};   ///< threadblock size (tx * ty <= 1024)
  i32 regs_per_thread = 0;  ///< register demand (from ir::allocate_registers)
  /// Per-block dynamic shared memory, bytes (Program::smem_words * 4);
  /// bounds resident blocks in the occupancy calculation.
  i32 smem_bytes_per_block = 0;
};

/// Per-class attribution of one launch: the aggregate warp counters, issue
/// cycles and block count of the blocks a BlockClassFn mapped to one key.
/// For the canonical use — classify_block side masks — this is the paper's
/// per-region breakdown (Table I / Fig. 3) produced by the launcher itself.
struct RegionCounters {
  WarpResult warps;
  f64 cycles = 0.0;  ///< summed per-block warp-issue cycles
  i64 blocks = 0;
};

/// Statistics of one kernel launch.
struct LaunchStats {
  WarpResult warps;              ///< aggregate over all executed warps
  f64 total_warp_cycles = 0.0;   ///< sum of per-warp issue cycles
  i64 blocks_executed = 0;       ///< blocks actually simulated
  i64 blocks_total = 0;          ///< blocks in the grid
  /// Per-block dynamic shared memory of this launch, bytes (echoed from
  /// LaunchConfig so profiling reports carry the footprint).
  i32 smem_bytes_per_block = 0;
  Occupancy occupancy;           ///< theoretical occupancy used for timing
  f64 time_ms = 0.0;             ///< modeled execution time
  /// Per-class breakdown, keyed by the classifier's value; empty when the
  /// launch ran without a classifier. Counters sum exactly to `warps` /
  /// `total_warp_cycles` / `blocks_total` (extrapolated for sampled
  /// launches, where per-class rounding matches the aggregate's).
  std::map<u32, RegionCounters> per_region;
};

/// Classifies a block for sampled execution and per-region attribution;
/// blocks mapping to the same key are assumed cost-homogeneous.
using BlockClassFn = std::function<u32(i32 bx, i32 by)>;

/// Executes every block of the grid (functional mode). Output buffers hold
/// the complete kernel result afterwards. Blocks run in parallel on the host
/// thread pool; they are independent by construction. A non-empty `classify`
/// additionally fills LaunchStats::per_region (attribution only; the
/// aggregate statistics are bit-identical with and without it). Each block
/// first checks the caller's stop time (common/stop.hpp); once it passed
/// the remaining blocks are skipped and DeadlineExceeded is thrown.
LaunchStats launch_full(const DeviceSpec& dev, const ir::Program& prog,
                        const LaunchConfig& cfg, const ParamMap& params,
                        std::span<const ir::BufferBinding> buffers,
                        const BlockClassFn& classify = {});

/// Executes only `samples_per_class` representative blocks per class and
/// extrapolates cycles and counts to the full grid (timing mode for large
/// images). Output buffers are only partially written. Fills
/// LaunchStats::per_region with the extrapolated per-class counters.
LaunchStats launch_sampled(const DeviceSpec& dev, const ir::Program& prog,
                           const LaunchConfig& cfg, const ParamMap& params,
                           std::span<const ir::BufferBinding> buffers,
                           const BlockClassFn& classify,
                           i32 samples_per_class = 3);

/// Executes a sub-grid of `nbx x nby` blocks (local block ids 0..nbx-1 /
/// 0..nby-1; the kernel translates them via its boff_x/boff_y parameters).
/// Backs the separate-kernels-per-region execution mode; each call models
/// one kernel launch (its own launch overhead included in time_ms).
LaunchStats launch_subgrid(const DeviceSpec& dev, const ir::Program& prog,
                           const LaunchConfig& cfg, const ParamMap& params,
                           std::span<const ir::BufferBinding> buffers,
                           i32 nbx, i32 nby);

/// Executes a single block (bx, by) and returns its aggregate warp stats.
/// Used by the Table I bench to attribute instruction counts to regions.
WarpResult run_block(const DeviceSpec& dev, const ir::Program& prog,
                     const LaunchConfig& cfg, const ParamMap& params,
                     std::span<const ir::BufferBinding> buffers, i32 bx,
                     i32 by);

/// Models the launch wall-clock time: block issue cycles are spread over
/// num_sms * active_blocks_per_sm concurrent slots (greedy earliest-finish
/// scheduling), divided by the clock, plus the host launch overhead.
[[nodiscard]] f64 model_time_ms(const DeviceSpec& dev, const Occupancy& occ,
                                std::span<const f64> block_cycles);

}  // namespace ispb::sim
