#include "gpusim/warp.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "common/error.hpp"

namespace ispb::sim {

WarpResult& WarpResult::operator+=(const WarpResult& o) {
  issued += o.issued;
  for (std::size_t i = 0; i < kPipeCount; ++i) {
    issued_per_pipe[i] += o.issued_per_pipe[i];
  }
  issue_slots += o.issue_slots;
  lane_instructions += o.lane_instructions;
  mem_transactions += o.mem_transactions;
  mem_transactions_wide += o.mem_transactions_wide;
  mem_cache_misses += o.mem_cache_misses;
  divergent_branches += o.divergent_branches;
  smem_transactions += o.smem_transactions;
  smem_bank_conflicts += o.smem_bank_conflicts;
  return *this;
}

f64 warp_cycles(const DeviceSpec& dev, const WarpResult& r) {
  const f64 pipe_cost[kPipeCount] = {dev.cost_int_alu, dev.cost_int_mul,
                                     dev.cost_float,   dev.cost_sfu,
                                     dev.cost_control, dev.cost_mem_issue,
                                     dev.cost_smem};
  f64 cycles = 0.0;
  for (std::size_t i = 0; i < kPipeCount; ++i) {
    cycles += static_cast<f64>(r.issued_per_pipe[i]) * pipe_cost[i];
  }
  // Only cache misses pay the transaction cost; L1 hits are covered by the
  // instruction's issue cost (stencils reuse each pixel many times).
  cycles += static_cast<f64>(r.mem_cache_misses) * dev.cost_mem_transaction;
  // Conflict-free smem accesses are covered by the kSmem issue cost; each
  // serialized bank-replay pass costs extra.
  cycles +=
      static_cast<f64>(r.smem_bank_conflicts) * dev.cost_smem_conflict;
  return cycles;
}

namespace {

constexpr u32 kRetired = static_cast<u32>(-1);

ir::Word read_operand(const ir::Operand& o, const ir::Word* regs) {
  if (o.is_imm()) return o.imm;
  return regs[o.reg];
}

/// Resumable execution of one warp: runs min-PC lock-step until all lanes
/// retire or the warp consumes a kBar (so a block-level driver can release
/// warps phase by phase around barriers).
class WarpExec {
 public:
  enum class Stop { kDone, kBarrier };

  /// Lanes at or past `live_lanes` do not exist (the tail of a block's
  /// last warp when its thread count is not a warp multiple): they start
  /// retired and never execute.
  WarpExec(const ir::Program& prog, const DeviceSpec& dev,
           std::span<const ir::Word> lane_inputs,
           std::span<const ir::BufferBinding> buffers, SegmentCache& cache,
           std::span<f32> smem, WarpResult& result, u64 max_steps,
           u32 live_lanes)
      : prog_(prog),
        dev_(dev),
        buffers_(buffers),
        cache_(cache),
        smem_(smem),
        result_(result),
        max_steps_(max_steps),
        lanes_(static_cast<u32>(dev.warp_size)),
        pc_(lanes_, 0),
        alive_(std::min(live_lanes, lanes_)) {
    const u32 num_inputs = prog.num_inputs();
    ISPB_EXPECTS(alive_ > 0);
    ISPB_EXPECTS(lane_inputs.size() ==
                 static_cast<std::size_t>(lanes_) * num_inputs);
    ISPB_EXPECTS(buffers.size() >= prog.num_buffers);
    std::fill(pc_.begin() + alive_, pc_.end(), kRetired);
    regs_.resize(static_cast<std::size_t>(lanes_) * prog.num_regs);
    for (u32 lane = 0; lane < lanes_; ++lane) {
      ir::Word* lane_regs =
          regs_.data() + static_cast<std::size_t>(lane) * prog.num_regs;
      for (u32 i = 0; i < num_inputs; ++i) {
        lane_regs[i] =
            lane_inputs[static_cast<std::size_t>(lane) * num_inputs + i];
      }
    }
  }

  [[nodiscard]] bool done() const { return alive_ == 0; }

  Stop run() {
    while (alive_ > 0) {
      if (result_.issue_slots >= max_steps_) {
        throw ContractError("warp exceeded max issue slots in '" + prog_.name +
                            "'");
      }
      // Min-PC scheduling.
      u32 warp_pc = kRetired;
      for (u32 lane = 0; lane < lanes_; ++lane) {
        warp_pc = std::min(warp_pc, pc_[lane]);
      }
      ISPB_ASSERT(warp_pc < prog_.code.size());

      const ir::Instr& ins = prog_.code[warp_pc];
      ++result_.issue_slots;
      result_.issued.add(ins.op);
      ++result_.issued_per_pipe[static_cast<std::size_t>(
          pipe_class(ins.op, ins.type))];

      if (ins.op == ir::Op::kBar) {
        // Every unretired lane must have arrived: a retired or diverged lane
        // would deadlock the block on real hardware.
        for (u32 lane = 0; lane < lanes_; ++lane) {
          if (pc_[lane] != warp_pc) {
            throw ContractError("divergent barrier in '" + prog_.name +
                                "': lane " + std::to_string(lane) +
                                " did not arrive at bar.sync (pc " +
                                std::to_string(warp_pc) + ")");
          }
        }
        result_.lane_instructions += alive_;
        for (u32 lane = 0; lane < lanes_; ++lane) ++pc_[lane];
        return Stop::kBarrier;
      }

      step(warp_pc, ins);
    }
    return Stop::kDone;
  }

 private:
  void step(u32 warp_pc, const ir::Instr& ins) {
    u32 seg_count = 0;
    u32 wide_count = 0;
    u32 addr_count = 0;
    u32 taken = 0;
    u32 active = 0;
    const auto note_segment = [&](u8 buffer, i32 idx) {
      const i64 base = static_cast<i64>(buffer) * (1ll << 40);
      const i64 seg = base + idx / dev_.transaction_elems;
      bool seen = false;
      for (u32 s = 0; s < seg_count; ++s) seen = seen || segments_[s] == seg;
      if (!seen) segments_[seg_count++] = seg;
      const i64 wseg = base + idx / (4 * dev_.transaction_elems);
      seen = false;
      for (u32 s = 0; s < wide_count; ++s) {
        seen = seen || segments_wide_[s] == wseg;
      }
      if (!seen) segments_wide_[wide_count++] = wseg;
    };
    const auto note_smem_addr = [&](i32 idx) {
      bool seen = false;
      for (u32 s = 0; s < addr_count; ++s) {
        seen = seen || smem_addrs_[s] == idx;
      }
      if (!seen) smem_addrs_[addr_count++] = idx;
    };
    const auto check_smem = [&](i32 idx) {
      if (idx < 0 || static_cast<std::size_t>(idx) >= smem_.size()) {
        throw ContractError("warp smem access out of bounds in '" +
                            prog_.name + "': index " + std::to_string(idx) +
                            " words " + std::to_string(smem_.size()));
      }
    };

    for (u32 lane = 0; lane < lanes_; ++lane) {
      if (pc_[lane] != warp_pc) continue;
      ++active;
      ++result_.lane_instructions;
      ir::Word* lane_regs =
          regs_.data() + static_cast<std::size_t>(lane) * prog_.num_regs;

      switch (ins.op) {
        case ir::Op::kRet:
          pc_[lane] = kRetired;
          --alive_;
          continue;
        case ir::Op::kBra: {
          const bool go = !ins.c.is_reg() || lane_regs[ins.c.reg].as_pred();
          if (go) {
            pc_[lane] = ins.target;
            ++taken;
          } else {
            ++pc_[lane];
          }
          continue;
        }
        case ir::Op::kLd: {
          const ir::BufferBinding& buf = buffers_[ins.buffer];
          const i32 idx = lane_regs[ins.a.reg].as_i32();
          if (idx < 0 || static_cast<std::size_t>(idx) >= buf.size) {
            throw ContractError("warp ld out of bounds in '" + prog_.name +
                                "': index " + std::to_string(idx));
          }
          lane_regs[ins.dst] = ir::Word::from_f32(buf.data[idx]);
          note_segment(ins.buffer, idx);
          break;
        }
        case ir::Op::kSt: {
          const ir::BufferBinding& buf = buffers_[ins.buffer];
          if (!buf.writable) {
            throw ContractError("warp st to read-only buffer in '" +
                                prog_.name + "'");
          }
          const i32 idx = lane_regs[ins.a.reg].as_i32();
          if (idx < 0 || static_cast<std::size_t>(idx) >= buf.size) {
            throw ContractError("warp st out of bounds in '" + prog_.name +
                                "': index " + std::to_string(idx));
          }
          buf.data[idx] = read_operand(ins.b, lane_regs).as_f32();
          note_segment(ins.buffer, idx);
          break;
        }
        case ir::Op::kSmemLd: {
          const i32 idx = lane_regs[ins.a.reg].as_i32();
          check_smem(idx);
          lane_regs[ins.dst] =
              ir::Word::from_f32(smem_[static_cast<std::size_t>(idx)]);
          note_smem_addr(idx);
          break;
        }
        case ir::Op::kSmemSt: {
          const i32 idx = lane_regs[ins.a.reg].as_i32();
          check_smem(idx);
          smem_[static_cast<std::size_t>(idx)] =
              read_operand(ins.b, lane_regs).as_f32();
          note_smem_addr(idx);
          break;
        }
        default: {
          const i32 arity = ir::op_arity(ins.op);
          const ir::Word a =
              arity >= 1 ? read_operand(ins.a, lane_regs) : ir::Word{};
          const ir::Word b =
              arity >= 2 ? read_operand(ins.b, lane_regs) : ir::Word{};
          const ir::Word c =
              arity >= 3 ? read_operand(ins.c, lane_regs) : ir::Word{};
          lane_regs[ins.dst] = ir::eval_pure(ins, a, b, c);
          break;
        }
      }
      ++pc_[lane];
    }

    result_.mem_transactions += seg_count;
    result_.mem_transactions_wide += wide_count;
    for (u32 sidx = 0; sidx < seg_count; ++sidx) {
      if (cache_.insert(segments_[sidx]).second) {
        ++result_.mem_cache_misses;
      }
    }
    if (addr_count > 0) {
      // Bank-conflict model: distinct word addresses mapping to one bank
      // serialize; same-address lanes broadcast (loads) / coalesce (stores)
      // in one pass. Passes = worst bank's distinct-address count.
      std::array<u32, 32> bank_load{};
      const u32 banks =
          std::min<u32>(32, static_cast<u32>(std::max(1, dev_.smem_banks)));
      u32 passes = 1;
      for (u32 s = 0; s < addr_count; ++s) {
        const u32 bank = static_cast<u32>(smem_addrs_[s]) % banks;
        passes = std::max(passes, ++bank_load[bank]);
      }
      result_.smem_transactions += passes;
      result_.smem_bank_conflicts += passes - 1;
    }
    if (ins.is_conditional_branch() && taken != 0 && taken != active) {
      ++result_.divergent_branches;
    }
  }

  const ir::Program& prog_;
  const DeviceSpec& dev_;
  std::span<const ir::BufferBinding> buffers_;
  SegmentCache& cache_;
  std::span<f32> smem_;
  WarpResult& result_;
  const u64 max_steps_;
  const u32 lanes_;
  std::vector<ir::Word> regs_;
  std::vector<u32> pc_;
  u32 alive_;
  // Scratch for memory-transaction dedup (addresses of active lanes).
  std::array<i64, 32> segments_{};
  std::array<i64, 32> segments_wide_{};
  std::array<i32, 32> smem_addrs_{};
};

}  // namespace

WarpResult run_warp(const ir::Program& prog, const DeviceSpec& dev,
                    std::span<const ir::Word> lane_inputs,
                    std::span<const ir::BufferBinding> buffers, u64 max_steps,
                    SegmentCache* shared_cache) {
  WarpResult result;
  SegmentCache local_cache;
  SegmentCache& cache = shared_cache != nullptr ? *shared_cache : local_cache;
  std::vector<f32> smem(prog.smem_words, 0.0f);
  WarpExec exec(prog, dev, lane_inputs, buffers, cache, smem, result,
                max_steps, static_cast<u32>(dev.warp_size));
  // A lone warp satisfies each barrier as soon as its own lanes arrive.
  while (exec.run() != WarpExec::Stop::kDone) {
  }
  return result;
}

void run_block_warps(const ir::Program& prog, const DeviceSpec& dev,
                     std::span<const ir::Word> lane_inputs, u32 num_threads,
                     std::span<const ir::BufferBinding> buffers,
                     std::span<WarpResult> results, u64 max_steps,
                     SegmentCache* shared_cache) {
  ISPB_EXPECTS(num_threads > 0);
  const u32 warp_size = static_cast<u32>(dev.warp_size);
  const u32 num_warps = (num_threads + warp_size - 1) / warp_size;
  ISPB_EXPECTS(results.size() >= num_warps);
  const std::size_t per_warp =
      static_cast<std::size_t>(dev.warp_size) * prog.num_inputs();
  ISPB_EXPECTS(lane_inputs.size() == per_warp * num_warps);

  SegmentCache local_cache;
  SegmentCache& cache = shared_cache != nullptr ? *shared_cache : local_cache;
  std::vector<f32> smem(prog.smem_words, 0.0f);

  std::vector<WarpExec> execs;
  execs.reserve(num_warps);
  for (u32 w = 0; w < num_warps; ++w) {
    execs.emplace_back(prog, dev, lane_inputs.subspan(per_warp * w, per_warp),
                       buffers, cache, smem, results[w], max_steps,
                       num_threads - w * warp_size);
  }

  // Phase loop: run every live warp until it retires or arrives at the
  // barrier; once all have arrived (or retired), release the next phase.
  // Barrier-free programs finish in the first phase, warp by warp in order.
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (WarpExec& exec : execs) {
      if (exec.done()) continue;
      if (exec.run() == WarpExec::Stop::kBarrier) all_done = false;
    }
  }
}

}  // namespace ispb::sim
