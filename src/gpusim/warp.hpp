// SIMT warp execution.
//
// Executes one warp (32 lanes) of an IR program in lock-step using min-PC
// reconvergence: at every step the warp's program counter is the minimum pc
// over unretired lanes, and exactly the lanes parked at that pc execute.
// For structured, forward-laid-out code this reconverges at the immediate
// post-dominator, and it handles loops naturally (lanes still inside have
// smaller pcs and run until they exit). Divergence therefore costs real
// issue slots — which is exactly the overhead the ISP transformation removes
// from border regions, and what the warp-grained refinement (Listing 5)
// reduces further.
//
// Kernels that declare shared memory (Program::smem_words > 0) additionally
// need block-level execution: run_block_warps runs every warp of one
// threadblock in barrier-synchronized phases over one shared smem array, so
// a kBar publishes all lanes' staged stores before any warp reads them.
#pragma once

#include <array>
#include <span>
#include <unordered_set>
#include <vector>

#include "gpusim/device.hpp"
#include "ir/interp.hpp"
#include "ir/program.hpp"

namespace ispb::sim {

inline constexpr std::size_t kPipeCount = 7;

/// Per-warp execution statistics.
struct WarpResult {
  ir::Inventory issued;  ///< one count per issue slot (not per active lane)
  std::array<u64, kPipeCount> issued_per_pipe{};
  u64 issue_slots = 0;
  u64 lane_instructions = 0;   ///< per-lane executed instruction total
  u64 mem_transactions = 0;    ///< 32-byte segments touched by ld/st
  /// 128-byte segments touched by ld/st (the wide-transaction granularity
  /// coalescing analyses reason about; 4x transaction_elems per segment).
  u64 mem_transactions_wide = 0;
  /// First-touch transactions over the warp's lifetime: the stencil working
  /// set is tiny and heavily reused, so an L1-resident segment costs only
  /// its issue slot after the first access. Misses carry the transaction
  /// cost in warp_cycles.
  u64 mem_cache_misses = 0;
  u64 divergent_branches = 0;  ///< conditional branches splitting the warp
  /// Shared-memory access passes: one per conflict-free warp access plus one
  /// per serialized bank-replay pass.
  u64 smem_transactions = 0;
  /// Replay passes beyond the first — a warp access touching k distinct
  /// addresses in the worst bank serializes into k passes (k-1 conflicts).
  u64 smem_bank_conflicts = 0;

  /// Transactions served from the (modeled) L1: issued minus first-touch.
  [[nodiscard]] u64 l1_hits() const {
    return mem_transactions - mem_cache_misses;
  }

  WarpResult& operator+=(const WarpResult& o);
};

/// Issue-cost cycles of a warp execution on `dev` (instruction issue plus
/// memory transaction cost plus smem bank-conflict replays).
[[nodiscard]] f64 warp_cycles(const DeviceSpec& dev, const WarpResult& r);

/// Cache state shared by the warps of one threadblock (models the per-SM L1
/// for co-resident warps of a block; stencil windows of adjacent warp rows
/// overlap heavily, so sharing matters for the memory cost).
using SegmentCache = std::unordered_set<i64>;

/// Runs one warp. `lane_inputs` holds the input-register values lane-major:
/// lane_inputs[lane * prog.num_inputs() + i] is input register i of `lane`.
/// All `dev.warp_size` lanes run (guard code inside the kernel handles
/// out-of-image threads). `shared_cache`, when given, accumulates fetched
/// segments across calls (block-level L1); otherwise the warp uses a private
/// cache. Kernels with smem execute against a private zero-initialized smem
/// array; a kBar is trivially satisfied once all lanes of this warp arrive.
/// Throws on out-of-bounds memory access or when `max_steps` issue slots are
/// exceeded.
WarpResult run_warp(const ir::Program& prog, const DeviceSpec& dev,
                    std::span<const ir::Word> lane_inputs,
                    std::span<const ir::BufferBinding> buffers,
                    u64 max_steps = 50'000'000,
                    SegmentCache* shared_cache = nullptr);

/// Runs all warps of one threadblock of `num_threads` threads, i.e.
/// ceil(num_threads / warp_size) warps. `lane_inputs` is warp-major,
/// lane-major within a warp (warp w's lane l inputs start at
/// (w * warp_size + l) * num_inputs()) and covers whole warps; lanes past
/// `num_threads` in the last warp are idle and never execute. Warps
/// execute sequentially in warp order until each retires or arrives at a
/// kBar; when every live warp is parked at the barrier, all are released
/// into the next phase. One smem
/// array (zero-initialized, Program::smem_words words) and one SegmentCache
/// are shared by all warps. For barrier-free programs this degenerates to
/// running each warp to completion in warp order — identical statistics to
/// the sequential run_warp loop. Per-warp statistics accumulate into
/// `results[w]`. Throws ContractError on a divergent barrier (some lane of
/// a warp retired or branched around a kBar its siblings arrived at).
void run_block_warps(const ir::Program& prog, const DeviceSpec& dev,
                     std::span<const ir::Word> lane_inputs, u32 num_threads,
                     std::span<const ir::BufferBinding> buffers,
                     std::span<WarpResult> results, u64 max_steps = 50'000'000,
                     SegmentCache* shared_cache = nullptr);

}  // namespace ispb::sim
