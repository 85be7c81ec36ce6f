// Tests for the GPU simulator: device models, occupancy math, SIMT warp
// execution (min-PC reconvergence, divergence accounting, coalescing) and
// the grid launcher (full and sampled modes).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "core/partition.hpp"
#include "gpusim/launcher.hpp"
#include "ir/builder.hpp"

namespace ispb::sim {
namespace {

using ir::Cmp;
using ir::Op;
using ir::Operand;
using ir::RegId;
using ir::Type;

// Silences unused-value warnings for registers only defined for their
// side-band effects in a test program.
inline void benchmark_use(RegId) {}

TEST(Device, SpecsMatchArchitectures) {
  const DeviceSpec kepler = make_gtx680();
  EXPECT_EQ(kepler.num_sms, 8);
  EXPECT_EQ(kepler.max_warps_per_sm, 64);
  EXPECT_EQ(kepler.max_registers_per_thread, 63);

  const DeviceSpec turing = make_rtx2080();
  EXPECT_EQ(turing.num_sms, 46);
  EXPECT_EQ(turing.max_warps_per_sm, 32);
  EXPECT_EQ(turing.max_registers_per_thread, 255);
  EXPECT_GT(turing.clock_ghz, kepler.clock_ghz);
}

TEST(Device, InstrCostFollowsPipes) {
  const DeviceSpec dev = make_gtx680();
  EXPECT_DOUBLE_EQ(instr_cost(dev, Op::kAdd, Type::kI32), dev.cost_int_alu);
  EXPECT_DOUBLE_EQ(instr_cost(dev, Op::kMad, Type::kI32), dev.cost_int_mul);
  EXPECT_DOUBLE_EQ(instr_cost(dev, Op::kMul, Type::kF32), dev.cost_float);
  EXPECT_DOUBLE_EQ(instr_cost(dev, Op::kEx2, Type::kF32), dev.cost_sfu);
  EXPECT_DOUBLE_EQ(instr_cost(dev, Op::kLd, Type::kF32), dev.cost_mem_issue);
  EXPECT_DOUBLE_EQ(instr_cost(dev, Op::kBra, Type::kI32), dev.cost_control);
}

TEST(Device, PipeClassification) {
  EXPECT_EQ(pipe_class(Op::kAdd, Type::kI32), Pipe::kIntAlu);
  EXPECT_EQ(pipe_class(Op::kAdd, Type::kF32), Pipe::kFloat);
  EXPECT_EQ(pipe_class(Op::kMad, Type::kI32), Pipe::kIntMul);
  EXPECT_EQ(pipe_class(Op::kEx2, Type::kF32), Pipe::kSfu);
  EXPECT_EQ(pipe_class(Op::kLd, Type::kF32), Pipe::kMem);
  EXPECT_EQ(pipe_class(Op::kBra, Type::kI32), Pipe::kControl);
  EXPECT_EQ(pipe_class(Op::kSetp, Type::kI32), Pipe::kIntAlu);
}

// ---- occupancy --------------------------------------------------------------

TEST(Occupancy, FullAtLowRegisterUse) {
  const DeviceSpec dev = make_gtx680();
  // 32x4 = 128 threads = 4 warps; 64/4 = 16 blocks by warps; 16 by blocks.
  // At 26+6=32 regs/thread: 32*32=1024 regs/warp, 65536/1024 = 64 warps.
  const Occupancy occ = compute_occupancy(dev, {32, 4}, 26);
  EXPECT_EQ(occ.active_blocks_per_sm, 16);
  EXPECT_EQ(occ.active_warps_per_sm, 64);
  EXPECT_DOUBLE_EQ(occ.fraction, 1.0);
}

TEST(Occupancy, RegisterPressureReducesOccupancyOnKepler) {
  // The paper's Table II scenario: ISP raises registers and occupancy drops.
  const DeviceSpec dev = make_gtx680();
  const Occupancy naive = compute_occupancy(dev, {32, 4}, 26);  // ~32 total
  const Occupancy isp = compute_occupancy(dev, {32, 4}, 36);    // ~42 total
  EXPECT_GT(naive.fraction, isp.fraction);
  EXPECT_EQ(isp.limiter, Occupancy::Limiter::kRegisters);
}

TEST(Occupancy, TuringToleratesTheSameRegisterCount) {
  // Section VI-A2: Turing's bigger per-thread budget (32 max warps/SM means
  // 64 regs/thread before the register file binds) hides the ISP increase.
  const DeviceSpec dev = make_rtx2080();
  const Occupancy naive = compute_occupancy(dev, {32, 4}, 26);
  const Occupancy isp = compute_occupancy(dev, {32, 4}, 36);
  EXPECT_DOUBLE_EQ(naive.fraction, 1.0);
  EXPECT_DOUBLE_EQ(isp.fraction, 1.0);
}

TEST(Occupancy, WarpLimitBinds) {
  const DeviceSpec dev = make_gtx680();
  // 1024-thread blocks = 32 warps; only 2 blocks fit 64 warps.
  const Occupancy occ = compute_occupancy(dev, {32, 32}, 20);
  EXPECT_EQ(occ.active_blocks_per_sm, 2);
  EXPECT_EQ(occ.limiter, Occupancy::Limiter::kWarps);
}

TEST(Occupancy, RegistersClampAtDeviceMax) {
  const DeviceSpec dev = make_gtx680();
  // Demand beyond 63 regs/thread clamps (hardware would spill).
  const Occupancy a = compute_occupancy(dev, {32, 4}, 100);
  const Occupancy b = compute_occupancy(dev, {32, 4}, 57);  // 57+6 == 63
  EXPECT_EQ(a.active_blocks_per_sm, b.active_blocks_per_sm);
}

TEST(Occupancy, MonotoneInRegisters) {
  const DeviceSpec dev = make_gtx680();
  f64 prev = 2.0;
  for (i32 regs = 8; regs <= 60; regs += 4) {
    const f64 o = compute_occupancy(dev, {32, 4}, regs).fraction;
    EXPECT_LE(o, prev);
    prev = o;
  }
}

TEST(Occupancy, SharedMemoryLimitBinds) {
  const DeviceSpec dev = make_gtx680();
  // 12 KiB/block: 49152/12288 = 4 resident blocks by smem, while warps and
  // registers would both allow 16. The tiled variant pays exactly here.
  const Occupancy occ = compute_occupancy(dev, {32, 4}, 20, 12288);
  EXPECT_EQ(occ.active_blocks_per_sm, 4);
  EXPECT_EQ(occ.active_warps_per_sm, 16);
  EXPECT_EQ(occ.limiter, Occupancy::Limiter::kSharedMem);
  EXPECT_DOUBLE_EQ(occ.fraction, 16.0 / 64.0);
}

TEST(Occupancy, SharedMemoryRoundsUpToAllocationGranularity) {
  const DeviceSpec dev = make_gtx680();
  // 9800 B rounds up to 39*256 = 9984 B: 4 blocks fit, not the naive
  // 49152/9800 = 5.
  const Occupancy occ = compute_occupancy(dev, {32, 4}, 20, 9800);
  EXPECT_EQ(occ.active_blocks_per_sm, 4);
  EXPECT_EQ(occ.limiter, Occupancy::Limiter::kSharedMem);
}

TEST(Occupancy, ZeroOrSmallSharedMemoryDoesNotBind) {
  const DeviceSpec dev = make_gtx680();
  const Occupancy base = compute_occupancy(dev, {32, 4}, 26);
  const Occupancy zero = compute_occupancy(dev, {32, 4}, 26, 0);
  const Occupancy small = compute_occupancy(dev, {32, 4}, 26, 256);
  EXPECT_EQ(zero.active_blocks_per_sm, base.active_blocks_per_sm);
  EXPECT_EQ(zero.limiter, base.limiter);
  // 49152/256 = 192 candidate blocks: some other resource binds first.
  EXPECT_EQ(small.active_blocks_per_sm, base.active_blocks_per_sm);
  EXPECT_NE(small.limiter, Occupancy::Limiter::kSharedMem);
}

// ---- warp execution ---------------------------------------------------------

// out[tid.x] = tid.x * 2 (straight line, no divergence).
ir::Program straight_line_kernel() {
  ir::Builder b("straight");
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId v =
      b.emit(Op::kMul, Type::kI32, Operand::r(tid), Operand::imm_i32(2));
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(v));
  b.emit_st(out, tid, Operand::r(f));
  b.ret();
  return b.finish();
}

std::vector<ir::Word> make_lane_inputs(const ir::Program& prog, i32 lanes,
                                       std::vector<ir::Word> per_lane_base) {
  // Fills input 0 with the lane index; remaining inputs from the base vector.
  std::vector<ir::Word> inputs(
      static_cast<std::size_t>(lanes) * prog.num_inputs());
  for (i32 l = 0; l < lanes; ++l) {
    inputs[static_cast<std::size_t>(l) * prog.num_inputs()] =
        ir::Word::from_i32(l);
    for (u32 i = 1; i < prog.num_inputs(); ++i) {
      inputs[static_cast<std::size_t>(l) * prog.num_inputs() + i] =
          per_lane_base[i - 1];
    }
  }
  return inputs;
}

TEST(Warp, LockstepExecutesAllLanes) {
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = straight_line_kernel();
  std::vector<f32> out(32, -1.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  const auto inputs = make_lane_inputs(prog, 32, {});
  const WarpResult r = run_warp(prog, dev, inputs, {&buf, 1});

  for (i32 l = 0; l < 32; ++l) {
    EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(l)], static_cast<f32>(2 * l));
  }
  // Lock-step: one issue slot per instruction, 32 lane-instructions each.
  EXPECT_EQ(r.issue_slots, prog.code.size());
  EXPECT_EQ(r.lane_instructions, 32 * prog.code.size());
  EXPECT_EQ(r.divergent_branches, 0u);
}

TEST(Warp, CoalescedStoreIsOneTransaction) {
  // A warp's 32 consecutive pixels coalesce into a single transaction
  // (pixels are charged at the 8-bit rate: 32 per 32-byte segment).
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = straight_line_kernel();
  std::vector<f32> out(32, 0.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  const auto inputs = make_lane_inputs(prog, 32, {});
  const WarpResult r = run_warp(prog, dev, inputs, {&buf, 1});
  EXPECT_EQ(r.mem_transactions, 1u);
}

TEST(Warp, StridedStoreSplinters) {
  // tid*2 addressing touches two segments instead of one.
  ir::Builder b("strided");
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId addr = b.emit(Op::kMul, Type::kI32, Operand::r(tid),
                            Operand::imm_i32(2));
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(tid));
  b.emit_st(out, addr, Operand::r(f));
  b.ret();
  const ir::Program prog = b.finish();
  const DeviceSpec dev = make_gtx680();
  std::vector<f32> out_data(64, 0.0f);
  const ir::BufferBinding buf{out_data.data(), out_data.size(), true};
  const auto inputs = make_lane_inputs(prog, 32, {});
  const WarpResult r = run_warp(prog, dev, inputs, {&buf, 1});
  EXPECT_EQ(r.mem_transactions, 2u);
}

// out[tid.x] = tid.x < cut ? a : b, via branches (not selp) to create
// real divergence.
ir::Program divergent_kernel() {
  ir::Builder b("divergent");
  const RegId tid = b.add_special("tid.x");
  const RegId cut = b.add_param("cut");
  const u8 out = b.add_buffer();
  const RegId p =
      b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(tid), Operand::r(cut));
  const auto low = b.make_label();
  const auto done = b.make_label();
  b.br_if(p, low);
  const RegId hi_val = b.emit(Op::kMov, Type::kF32, Operand::imm_f32(9.0f));
  b.emit_st(out, tid, Operand::r(hi_val));
  b.br(done);
  b.bind(low);
  const RegId lo_val = b.emit(Op::kMov, Type::kF32, Operand::imm_f32(1.0f));
  b.emit_st(out, tid, Operand::r(lo_val));
  b.bind(done);
  b.ret();
  return b.finish();
}

TEST(Warp, DivergenceSerializesBothPaths) {
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = divergent_kernel();
  std::vector<f32> out(32, 0.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};

  const auto inputs = make_lane_inputs(prog, 32, {ir::Word::from_i32(10)});
  const WarpResult r = run_warp(prog, dev, inputs, {&buf, 1});

  for (i32 l = 0; l < 32; ++l) {
    EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(l)], l < 10 ? 1.0f : 9.0f);
  }
  EXPECT_EQ(r.divergent_branches, 1u);
  // Both sides execute: two movs and two stores issued.
  EXPECT_EQ(r.issued.of(Op::kMov), 2);
  EXPECT_EQ(r.issued.of(Op::kSt), 2);
}

TEST(Warp, UniformBranchDoesNotDiverge) {
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = divergent_kernel();
  std::vector<f32> out(32, 0.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};

  // cut = 32: every lane takes the same side.
  const auto inputs = make_lane_inputs(prog, 32, {ir::Word::from_i32(32)});
  const WarpResult r = run_warp(prog, dev, inputs, {&buf, 1});
  EXPECT_EQ(r.divergent_branches, 0u);
  // Only one side issued: one mov, one store.
  EXPECT_EQ(r.issued.of(Op::kMov), 1);
  EXPECT_EQ(r.issued.of(Op::kSt), 1);
}

TEST(Warp, ReconvergesAfterDivergence) {
  // After a diamond, lanes must reunite: the tail executes in one slot.
  ir::Builder b("reconverge");
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId p = b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(tid),
                              Operand::imm_i32(16));
  const auto low = b.make_label();
  const auto done = b.make_label();
  b.br_if(p, low);
  const RegId a = b.emit(Op::kMov, Type::kI32, Operand::imm_i32(100));
  b.br(done);
  b.bind(low);
  const RegId c = b.emit(Op::kMov, Type::kI32, Operand::imm_i32(200));
  b.bind(done);
  // Join: both a and c are path-local; store a path-independent value.
  (void)a;
  (void)c;
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(tid));
  b.emit_st(out, tid, Operand::r(f));
  b.ret();
  const ir::Program prog = b.finish();

  const DeviceSpec dev = make_gtx680();
  std::vector<f32> out_data(32, 0.0f);
  const ir::BufferBinding buf{out_data.data(), out_data.size(), true};
  const auto inputs = make_lane_inputs(prog, 32, {});
  const WarpResult r = run_warp(prog, dev, inputs, {&buf, 1});
  // cvt/st/ret issued exactly once each -> reconverged.
  EXPECT_EQ(r.issued.of(Op::kCvt), 1);
  EXPECT_EQ(r.issued.of(Op::kSt), 1);
  EXPECT_EQ(r.issued.of(Op::kRet), 1);
}

TEST(Warp, LoopTripCountsMayDivergePerLane) {
  // i = tid; while (i >= 4) i -= 4;  (Repeat-style loop, lane-dependent)
  ir::Builder b("lane_loop");
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId i = b.emit(Op::kMov, Type::kI32, Operand::r(tid));
  const auto head = b.make_label();
  const auto done = b.make_label();
  b.bind(head);
  const RegId ge =
      b.emit_setp(Cmp::kGe, Type::kI32, Operand::r(i), Operand::imm_i32(4));
  b.br_unless(ge, done);
  b.emit_to(i, Op::kSub, Type::kI32, Operand::r(i), Operand::imm_i32(4));
  b.br(head);
  b.bind(done);
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(i));
  b.emit_st(out, tid, Operand::r(f));
  b.ret();
  const ir::Program prog = b.finish();

  const DeviceSpec dev = make_gtx680();
  std::vector<f32> out_data(32, -1.0f);
  const ir::BufferBinding buf{out_data.data(), out_data.size(), true};
  const auto inputs = make_lane_inputs(prog, 32, {});
  (void)run_warp(prog, dev, inputs, {&buf, 1});
  for (i32 l = 0; l < 32; ++l) {
    EXPECT_FLOAT_EQ(out_data[static_cast<std::size_t>(l)],
                    static_cast<f32>(l % 4));
  }
}

TEST(Warp, CyclesChargeCacheMisses) {
  // Only first-touch transactions carry the transaction cost; cache hits
  // are covered by the instruction issue cost.
  const DeviceSpec dev = make_gtx680();
  WarpResult r;
  r.issued_per_pipe[static_cast<std::size_t>(Pipe::kIntAlu)] = 10;
  r.mem_transactions = 9;
  r.mem_cache_misses = 4;
  EXPECT_DOUBLE_EQ(warp_cycles(dev, r),
                   10.0 * dev.cost_int_alu + 4.0 * dev.cost_mem_transaction);
}

TEST(Warp, RepeatedLoadsHitTheWarpCache) {
  // Two loads from the same segment: 2 transactions, 1 miss.
  ir::Builder b("reload");
  const ir::RegId tid = b.add_special("tid.x");
  const u8 in = b.add_buffer();
  const ir::RegId v1 = b.emit_ld(in, tid);
  const ir::RegId sum = b.emit(Op::kAdd, Type::kF32, Operand::r(v1),
                               Operand::imm_f32(1.0f));
  benchmark_use(sum);
  const ir::RegId v2 = b.emit_ld(in, tid);
  benchmark_use(v2);
  b.ret();
  const ir::Program prog = b.finish();
  const DeviceSpec dev = make_gtx680();
  std::vector<f32> data(32, 0.0f);
  const ir::BufferBinding buf{data.data(), data.size(), false};
  const auto inputs = make_lane_inputs(prog, 32, {});
  const WarpResult r = run_warp(prog, dev, inputs, {&buf, 1});
  EXPECT_EQ(r.mem_transactions, 2u);  // 1 segment x 2 loads
  EXPECT_EQ(r.mem_cache_misses, 1u);  // fetched once
}

TEST(Warp, SharedCachePersistsAcrossWarps) {
  // Two warps of a block touching the same segment: the second one hits.
  const DeviceSpec dev = make_gtx680();
  ir::Builder b("shared");
  const RegId tid = b.add_special("tid.x");
  const u8 in = b.add_buffer();
  const RegId v = b.emit_ld(in, tid);
  benchmark_use(v);
  b.ret();
  const ir::Program prog = b.finish();
  std::vector<f32> data(32, 0.0f);
  const ir::BufferBinding buf{data.data(), data.size(), false};
  const auto inputs = make_lane_inputs(prog, 32, {});
  SegmentCache cache;
  const WarpResult first =
      run_warp(prog, dev, inputs, {&buf, 1}, 50'000'000, &cache);
  const WarpResult second =
      run_warp(prog, dev, inputs, {&buf, 1}, 50'000'000, &cache);
  EXPECT_EQ(first.mem_cache_misses, 1u);
  EXPECT_EQ(second.mem_cache_misses, 0u);
}

// ---- shared memory and barriers --------------------------------------------

// Each lane stores f32(tid) to smem[tid*stride], barriers, loads it back and
// writes it out. stride controls the bank pattern: 1 is conflict-free, 32
// lands every lane in bank 0.
ir::Program smem_stride_kernel(i32 stride) {
  ir::Builder b("smem_stride");
  b.declare_smem(static_cast<u32>(32 * stride));
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId addr = b.emit(Op::kMul, Type::kI32, Operand::r(tid),
                            Operand::imm_i32(stride));
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(tid));
  b.emit_smem_st(addr, Operand::r(f));
  b.emit_bar();
  const RegId v = b.emit_smem_ld(addr);
  b.emit_st(out, tid, Operand::r(v));
  b.ret();
  return b.finish();
}

TEST(Warp, SmemUnitStrideIsConflictFree) {
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = smem_stride_kernel(1);
  std::vector<f32> out(32, -1.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  const auto inputs = make_lane_inputs(prog, 32, {});
  const WarpResult r = run_warp(prog, dev, inputs, {&buf, 1});
  for (i32 l = 0; l < 32; ++l) {
    EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(l)], static_cast<f32>(l));
  }
  // One pass per warp access (store + load), no replays.
  EXPECT_EQ(r.smem_transactions, 2u);
  EXPECT_EQ(r.smem_bank_conflicts, 0u);
}

TEST(Warp, SmemStride32SerializesIntoBankReplays) {
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = smem_stride_kernel(32);
  std::vector<f32> out(32, -1.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  const auto inputs = make_lane_inputs(prog, 32, {});
  const WarpResult r = run_warp(prog, dev, inputs, {&buf, 1});
  for (i32 l = 0; l < 32; ++l) {
    EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(l)], static_cast<f32>(l));
  }
  // 32 distinct addresses all in bank 0: 32 passes per access, 31 replays.
  EXPECT_EQ(r.smem_transactions, 64u);
  EXPECT_EQ(r.smem_bank_conflicts, 62u);
}

TEST(Warp, SmemBroadcastReadIsOnePass) {
  // All 32 lanes reading one address dedup to a single conflict-free pass.
  const DeviceSpec dev = make_gtx680();
  ir::Builder b("smem_bcast");
  b.declare_smem(32);
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(tid));
  b.emit_smem_st(tid, Operand::r(f));
  b.emit_bar();
  const RegId zero = b.emit(Op::kMov, Type::kI32, Operand::imm_i32(0));
  const RegId v = b.emit_smem_ld(zero);
  b.emit_st(out, tid, Operand::r(v));
  b.ret();
  const ir::Program prog = b.finish();

  std::vector<f32> out_data(32, -1.0f);
  const ir::BufferBinding buf{out_data.data(), out_data.size(), true};
  const auto inputs = make_lane_inputs(prog, 32, {});
  const WarpResult r = run_warp(prog, dev, inputs, {&buf, 1});
  for (i32 l = 0; l < 32; ++l) {
    EXPECT_FLOAT_EQ(out_data[static_cast<std::size_t>(l)], 0.0f);
  }
  EXPECT_EQ(r.smem_transactions, 2u);
  EXPECT_EQ(r.smem_bank_conflicts, 0u);
}

TEST(Warp, DivergentBarrierThrows) {
  // Half the warp branches around the bar.sync: real hardware deadlocks, the
  // simulator refuses with a ContractError naming the offending lane.
  ir::Builder b("divbar");
  b.declare_smem(32);
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(tid));
  b.emit_smem_st(tid, Operand::r(f));
  const RegId p = b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(tid),
                              Operand::imm_i32(16));
  const auto skip = b.make_label();
  b.br_if(p, skip);
  b.emit_bar();
  b.bind(skip);
  b.emit_st(out, tid, Operand::r(f));
  b.ret();
  const ir::Program prog = b.finish();

  const DeviceSpec dev = make_gtx680();
  std::vector<f32> out_data(32, 0.0f);
  const ir::BufferBinding buf{out_data.data(), out_data.size(), true};
  const auto inputs = make_lane_inputs(prog, 32, {});
  EXPECT_THROW((void)run_warp(prog, dev, inputs, {&buf, 1}), ContractError);
}

TEST(Block, BarrierPublishesStoresAcrossWarps) {
  // 64 lanes in 2 warps: lane t stages f32(t), then reads slot 63-t — which
  // for most lanes was written by the *other* warp. Correct output requires
  // the block driver to release warps phase-by-phase around the barrier.
  ir::Builder b("smem_swap");
  b.declare_smem(64);
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(tid));
  b.emit_smem_st(tid, Operand::r(f));
  b.emit_bar();
  const RegId rev = b.emit(Op::kSub, Type::kI32, Operand::imm_i32(63),
                           Operand::r(tid));
  const RegId v = b.emit_smem_ld(rev);
  b.emit_st(out, tid, Operand::r(v));
  b.ret();
  const ir::Program prog = b.finish();

  const DeviceSpec dev = make_gtx680();
  std::vector<f32> out_data(64, -1.0f);
  const ir::BufferBinding buf{out_data.data(), out_data.size(), true};
  const auto inputs = make_lane_inputs(prog, 64, {});
  std::vector<WarpResult> results(2);
  run_block_warps(prog, dev, inputs, 64, {&buf, 1}, results);  // 2 warps
  for (i32 l = 0; l < 64; ++l) {
    EXPECT_FLOAT_EQ(out_data[static_cast<std::size_t>(l)],
                    static_cast<f32>(63 - l));
  }
  // Each warp: one store pass + one load pass, reversal stays conflict-free.
  for (const WarpResult& r : results) {
    EXPECT_EQ(r.smem_transactions, 2u);
    EXPECT_EQ(r.smem_bank_conflicts, 0u);
  }
}

TEST(Block, BarrierFreeProgramMatchesSequentialWarpRuns) {
  // Without a kBar, run_block_warps degenerates to the plain warp loop:
  // statistics must be bit-identical to back-to-back run_warp calls sharing
  // one segment cache.
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = straight_line_kernel();
  const u32 warps = 2;
  std::vector<f32> out_a(64, 0.0f);
  std::vector<f32> out_b(64, 0.0f);
  const auto inputs = make_lane_inputs(prog, 64, {});

  const ir::BufferBinding buf_a{out_a.data(), out_a.size(), true};
  SegmentCache cache_a;
  std::vector<WarpResult> seq(warps);
  for (u32 w = 0; w < warps; ++w) {
    const std::size_t base = static_cast<std::size_t>(w) * 32 *
                             prog.num_inputs();
    seq[w] = run_warp(prog, dev,
                      std::span<const ir::Word>(inputs).subspan(
                          base, 32 * prog.num_inputs()),
                      {&buf_a, 1}, 50'000'000, &cache_a);
  }

  const ir::BufferBinding buf_b{out_b.data(), out_b.size(), true};
  SegmentCache cache_b;
  std::vector<WarpResult> blk(warps);
  run_block_warps(prog, dev, inputs, warps * 32, {&buf_b, 1}, blk,
                  50'000'000, &cache_b);

  for (u32 w = 0; w < warps; ++w) {
    EXPECT_EQ(seq[w].issue_slots, blk[w].issue_slots);
    EXPECT_EQ(seq[w].lane_instructions, blk[w].lane_instructions);
    EXPECT_EQ(seq[w].mem_transactions, blk[w].mem_transactions);
    EXPECT_EQ(seq[w].mem_cache_misses, blk[w].mem_cache_misses);
    EXPECT_EQ(seq[w].smem_transactions, blk[w].smem_transactions);
  }
  EXPECT_EQ(out_a, out_b);
}

TEST(Block, LanesPastTheThreadCountNeverRun) {
  // A 40-thread block fills one warp and 8 lanes of a second; lanes 40..63
  // do not exist and must neither execute nor store.
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = straight_line_kernel();
  std::vector<f32> out(64, -1.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  const auto inputs = make_lane_inputs(prog, 64, {});
  std::vector<WarpResult> results(2);
  run_block_warps(prog, dev, inputs, 40, {&buf, 1}, results);
  for (i32 l = 0; l < 64; ++l) {
    EXPECT_EQ(out[static_cast<std::size_t>(l)],
              l < 40 ? static_cast<f32>(2 * l) : -1.0f)
        << "lane " << l;
  }
  EXPECT_EQ(results[1].lane_instructions,
            results[0].lane_instructions / 32 * 8);
}

// ---- launcher ---------------------------------------------------------------

// out[gy * pitch + gx] = gx + gy, guarded to the image extent.
ir::Program grid_kernel() {
  ir::Builder b("grid");
  const RegId tidx = b.add_special("tid.x");
  const RegId tidy = b.add_special("tid.y");
  const RegId bx = b.add_special("ctaid.x");
  const RegId by = b.add_special("ctaid.y");
  const RegId sx = b.add_param("sx");
  const RegId sy = b.add_param("sy");
  const RegId pitch = b.add_param("pitch");
  const RegId ntidx = b.add_param("ntid.x");
  const RegId ntidy = b.add_param("ntid.y");
  const u8 out = b.add_buffer();

  const RegId gx = b.emit(Op::kMad, Type::kI32, Operand::r(bx),
                          Operand::r(ntidx), Operand::r(tidx));
  const RegId gy = b.emit(Op::kMad, Type::kI32, Operand::r(by),
                          Operand::r(ntidy), Operand::r(tidy));
  const auto exit = b.make_label();
  const RegId in_x =
      b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(gx), Operand::r(sx));
  b.br_unless(in_x, exit);
  const RegId in_y =
      b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(gy), Operand::r(sy));
  b.br_unless(in_y, exit);
  const RegId addr = b.emit(Op::kMad, Type::kI32, Operand::r(gy),
                            Operand::r(pitch), Operand::r(gx));
  const RegId sum = b.emit(Op::kAdd, Type::kI32, Operand::r(gx),
                           Operand::r(gy));
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(sum));
  b.emit_st(out, addr, Operand::r(f));
  b.bind(exit);
  b.ret();
  return b.finish();
}

ParamMap grid_params(Size2 image, i32 pitch, BlockSize block) {
  return ParamMap{{"sx", ir::Word::from_i32(image.x)},
                  {"sy", ir::Word::from_i32(image.y)},
                  {"pitch", ir::Word::from_i32(pitch)},
                  {"ntid.x", ir::Word::from_i32(block.tx)},
                  {"ntid.y", ir::Word::from_i32(block.ty)}};
}

TEST(Launcher, FullLaunchWritesEveryPixel) {
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = grid_kernel();
  const Size2 image{70, 35};  // not divisible by the block: guards matter
  const BlockSize block{32, 4};
  const i32 pitch = 96;
  std::vector<f32> out(static_cast<std::size_t>(pitch) * image.y, -1.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};

  const LaunchConfig cfg{image, block, 12};
  const LaunchStats stats =
      launch_full(dev, prog, cfg, grid_params(image, pitch, block), {&buf, 1});

  for (i32 y = 0; y < image.y; ++y) {
    for (i32 x = 0; x < image.x; ++x) {
      ASSERT_FLOAT_EQ(out[static_cast<std::size_t>(y) * pitch + x],
                      static_cast<f32>(x + y));
    }
  }
  // Padding untouched.
  EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(0) * pitch + image.x], -1.0f);
  EXPECT_EQ(stats.blocks_total, static_cast<i64>(3) * 9);
  EXPECT_EQ(stats.blocks_executed, stats.blocks_total);
  EXPECT_GT(stats.time_ms, 0.0);
  EXPECT_GT(stats.warps.issue_slots, 0u);
}

TEST(Launcher, MissingParameterRejected) {
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = grid_kernel();
  const Size2 image{32, 8};
  std::vector<f32> out(1024, 0.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  ParamMap params = grid_params(image, 32, {32, 4});
  params.erase("pitch");
  const LaunchConfig cfg{image, {32, 4}, 12};
  EXPECT_THROW((void)launch_full(dev, prog, cfg, params, {&buf, 1}),
               ContractError);
}

TEST(Launcher, ExtraParameterRejected) {
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = grid_kernel();
  const Size2 image{32, 8};
  std::vector<f32> out(1024, 0.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  ParamMap params = grid_params(image, 32, {32, 4});
  params["bogus"] = ir::Word::from_i32(1);
  const LaunchConfig cfg{image, {32, 4}, 12};
  EXPECT_THROW((void)launch_full(dev, prog, cfg, params, {&buf, 1}),
               ContractError);
}

TEST(Launcher, SampledMatchesFullOnUniformGrid) {
  // With a single class, sampling must extrapolate to the exact full counts
  // (all blocks of this kernel cost the same when the image divides evenly).
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = grid_kernel();
  const Size2 image{128, 32};
  const BlockSize block{32, 4};
  const i32 pitch = 128;
  std::vector<f32> out(static_cast<std::size_t>(pitch) * image.y, 0.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  const ParamMap params = grid_params(image, pitch, block);
  const LaunchConfig cfg{image, block, 12};

  const LaunchStats full = launch_full(dev, prog, cfg, params, {&buf, 1});
  const LaunchStats sampled = launch_sampled(
      dev, prog, cfg, params, {&buf, 1}, [](i32, i32) { return 0u; }, 3);

  EXPECT_EQ(sampled.blocks_total, full.blocks_total);
  EXPECT_LT(sampled.blocks_executed, full.blocks_executed);
  EXPECT_EQ(sampled.warps.issue_slots, full.warps.issue_slots);
  EXPECT_NEAR(sampled.total_warp_cycles, full.total_warp_cycles, 1e-6);
  EXPECT_NEAR(sampled.time_ms, full.time_ms, full.time_ms * 0.01);
}

TEST(Launcher, PerRegionCountersSumToWholeGridStats) {
  // A 9-region classified full launch: the per-region breakdown must
  // partition the aggregate counters exactly — same warp counters, same
  // cycles, same block count — with all nine canonical regions present.
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = grid_kernel();
  const Size2 image{96, 36};  // grid 3x9 with 32x4 blocks
  const BlockSize block{32, 4};
  const i32 pitch = 96;
  std::vector<f32> out(static_cast<std::size_t>(pitch) * image.y, 0.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  const LaunchConfig cfg{image, block, 12};

  const BlockBounds bounds = compute_block_bounds(image, block, {5, 5});
  const BlockClassFn classify = [bounds](i32 bx, i32 by) {
    return static_cast<u32>(classify_block(bounds, bx, by));
  };
  const LaunchStats stats = launch_full(
      dev, prog, cfg, grid_params(image, pitch, block), {&buf, 1}, classify);

  ASSERT_EQ(stats.per_region.size(), kAllRegions.size());
  for (Region r : kAllRegions) {
    EXPECT_TRUE(stats.per_region.contains(
        static_cast<u32>(region_sides(r))))
        << "missing region " << to_string(r);
  }

  WarpResult warp_sum;
  f64 cycle_sum = 0.0;
  i64 block_sum = 0;
  for (const auto& [key, rc] : stats.per_region) {
    (void)key;
    EXPECT_GT(rc.blocks, 0);
    warp_sum += rc.warps;
    cycle_sum += rc.cycles;
    block_sum += rc.blocks;
  }
  EXPECT_EQ(warp_sum.issue_slots, stats.warps.issue_slots);
  EXPECT_EQ(warp_sum.lane_instructions, stats.warps.lane_instructions);
  EXPECT_EQ(warp_sum.mem_transactions, stats.warps.mem_transactions);
  EXPECT_EQ(warp_sum.mem_cache_misses, stats.warps.mem_cache_misses);
  EXPECT_EQ(warp_sum.divergent_branches, stats.warps.divergent_branches);
  EXPECT_DOUBLE_EQ(cycle_sum, stats.total_warp_cycles);
  EXPECT_EQ(block_sum, stats.blocks_total);
}

TEST(Launcher, ClassifierDoesNotChangeAggregates) {
  // The classifier is attribution only: aggregate LaunchStats must be
  // bit-identical with and without it.
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = grid_kernel();
  const Size2 image{70, 35};
  const BlockSize block{32, 4};
  const i32 pitch = 96;
  std::vector<f32> out(static_cast<std::size_t>(pitch) * image.y, 0.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  const LaunchConfig cfg{image, block, 12};
  const ParamMap params = grid_params(image, pitch, block);

  const LaunchStats plain = launch_full(dev, prog, cfg, params, {&buf, 1});
  const LaunchStats classified = launch_full(
      dev, prog, cfg, params, {&buf, 1},
      [](i32 bx, i32 by) { return static_cast<u32>(bx * 31 + by); });

  EXPECT_TRUE(plain.per_region.empty());
  EXPECT_FALSE(classified.per_region.empty());
  EXPECT_EQ(plain.warps.issue_slots, classified.warps.issue_slots);
  EXPECT_EQ(plain.warps.lane_instructions,
            classified.warps.lane_instructions);
  EXPECT_EQ(plain.warps.mem_transactions, classified.warps.mem_transactions);
  EXPECT_EQ(plain.warps.divergent_branches,
            classified.warps.divergent_branches);
  EXPECT_EQ(plain.total_warp_cycles, classified.total_warp_cycles);
  EXPECT_EQ(plain.time_ms, classified.time_ms);
}

TEST(Launcher, SampledPerRegionSumsToAggregate) {
  // Sampled launches extrapolate per class; the per-class rows reuse the
  // scaled counters added to the aggregate, so the partition is exact even
  // with rounding.
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = grid_kernel();
  const Size2 image{96, 36};
  const BlockSize block{32, 4};
  const i32 pitch = 96;
  std::vector<f32> out(static_cast<std::size_t>(pitch) * image.y, 0.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  const LaunchConfig cfg{image, block, 12};

  const BlockBounds bounds = compute_block_bounds(image, block, {5, 5});
  const LaunchStats stats = launch_sampled(
      dev, prog, cfg, grid_params(image, pitch, block), {&buf, 1},
      [bounds](i32 bx, i32 by) {
        return static_cast<u32>(classify_block(bounds, bx, by));
      },
      2);

  ASSERT_EQ(stats.per_region.size(), kAllRegions.size());
  WarpResult warp_sum;
  f64 cycle_sum = 0.0;
  i64 block_sum = 0;
  for (const auto& [key, rc] : stats.per_region) {
    (void)key;
    warp_sum += rc.warps;
    cycle_sum += rc.cycles;
    block_sum += rc.blocks;
  }
  EXPECT_EQ(warp_sum.issue_slots, stats.warps.issue_slots);
  EXPECT_EQ(warp_sum.mem_transactions, stats.warps.mem_transactions);
  EXPECT_NEAR(cycle_sum, stats.total_warp_cycles, 1e-9);
  EXPECT_EQ(block_sum, stats.blocks_total);
}

TEST(Launcher, RunBlockIsolatesOneBlock) {
  const DeviceSpec dev = make_gtx680();
  const ir::Program prog = grid_kernel();
  const Size2 image{64, 8};
  const BlockSize block{32, 4};
  const i32 pitch = 64;
  std::vector<f32> out(static_cast<std::size_t>(pitch) * image.y, -1.0f);
  const ir::BufferBinding buf{out.data(), out.size(), true};
  const LaunchConfig cfg{image, block, 12};

  const WarpResult r = run_block(dev, prog, cfg,
                                 grid_params(image, pitch, block), {&buf, 1},
                                 1, 1);
  EXPECT_GT(r.issue_slots, 0u);
  // Only block (1,1)'s pixels written.
  EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(4) * pitch + 32],
                  static_cast<f32>(32 + 4));
  EXPECT_FLOAT_EQ(out[0], -1.0f);
  EXPECT_THROW(
      (void)run_block(dev, prog, cfg, grid_params(image, pitch, block),
                      {&buf, 1}, 5, 0),
      ContractError);
}

TEST(ModelTime, OccupancyActsThroughThroughputFactor) {
  const DeviceSpec dev = make_gtx680();  // latency_hiding_warps = 56
  const std::vector<f64> cycles(1024, 1000.0);
  Occupancy full;
  full.active_blocks_per_sm = 16;
  full.active_warps_per_sm = 64;
  Occupancy reduced;
  reduced.active_blocks_per_sm = 12;
  reduced.active_warps_per_sm = 48;
  const f64 t_full = model_time_ms(dev, full, cycles);
  const f64 t_reduced = model_time_ms(dev, reduced, cycles);
  EXPECT_GT(t_reduced, t_full);
  // 48 of 56 latency-hiding warps: ~17% slower, far from the 33% a linear
  // occupancy model would charge.
  const f64 busy_full = t_full - dev.launch_overhead_us * 1e-3;
  const f64 busy_reduced = t_reduced - dev.launch_overhead_us * 1e-3;
  EXPECT_NEAR(busy_reduced / busy_full, 56.0 / 48.0, 0.01);
}

TEST(ModelTime, SaturatedOccupancyIsFree) {
  // Above the latency-hiding point, less-than-max occupancy costs nothing.
  const DeviceSpec dev = make_rtx2080();  // latency_hiding_warps = 16
  const std::vector<f64> cycles(256, 500.0);
  Occupancy full;
  full.active_blocks_per_sm = 8;
  full.active_warps_per_sm = 32;
  Occupancy reduced;
  reduced.active_blocks_per_sm = 5;
  reduced.active_warps_per_sm = 20;
  EXPECT_DOUBLE_EQ(model_time_ms(dev, full, cycles),
                   model_time_ms(dev, reduced, cycles));
}

TEST(ThroughputFactor, LinearBelowSaturation) {
  const DeviceSpec dev = make_gtx680();
  Occupancy occ;
  occ.active_warps_per_sm = 28;
  EXPECT_DOUBLE_EQ(throughput_factor(dev, occ), 28.0 / 56.0);
  occ.active_warps_per_sm = 64;
  EXPECT_DOUBLE_EQ(throughput_factor(dev, occ), 1.0);
}

TEST(ModelTime, EmptyGridCostsOnlyLaunchOverhead) {
  const DeviceSpec dev = make_gtx680();
  Occupancy occ;
  occ.active_blocks_per_sm = 16;
  EXPECT_DOUBLE_EQ(model_time_ms(dev, occ, {}),
                   dev.launch_overhead_us * 1e-3);
}

}  // namespace
}  // namespace ispb::sim
