// Optimizer-pass tests: targeted examples plus randomized-program
// differential testing (interpreter equivalence before vs after passes).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "ir/passes.hpp"

namespace ispb::ir {
namespace {

// ---- targeted examples -----------------------------------------------------

TEST(ConstantFold, FoldsAllImmediateOps) {
  Builder b("fold");
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId k =
      b.emit(Op::kAdd, Type::kI32, Operand::imm_i32(3), Operand::imm_i32(4));
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(k));
  b.emit_st(out, tid, Operand::r(f));
  b.ret();
  Program prog = b.finish();

  const PassStats stats = constant_fold(prog);
  EXPECT_GE(stats.folded, 1);
  // The add became a mov of 7.
  EXPECT_EQ(prog.static_inventory().of(Op::kAdd), 0);
  EXPECT_GE(prog.static_inventory().of(Op::kMov), 1);
}

TEST(ConstantFold, IdentityOperations) {
  Builder b("ident");
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId a =
      b.emit(Op::kAdd, Type::kI32, Operand::r(tid), Operand::imm_i32(0));
  const RegId m =
      b.emit(Op::kMul, Type::kI32, Operand::r(a), Operand::imm_i32(1));
  const RegId z =
      b.emit(Op::kMul, Type::kI32, Operand::r(m), Operand::imm_i32(0));
  const RegId s =
      b.emit(Op::kAdd, Type::kI32, Operand::r(m), Operand::r(z));
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(s));
  b.emit_st(out, tid, Operand::r(f));
  b.ret();
  Program prog = b.finish();
  const PassStats stats = constant_fold(prog);
  EXPECT_GE(stats.folded, 3);  // add-0, mul-1, mul-0
}

TEST(ConstantFold, DoesNotFoldFloatMulByZero) {
  // 0.0f * x must NOT fold (x could be inf/NaN).
  Builder b("fzero");
  const RegId tid = b.add_special("tid.x");
  const u8 in = b.add_buffer();
  const u8 out = b.add_buffer();
  const RegId v = b.emit_ld(in, tid);
  const RegId z =
      b.emit(Op::kMul, Type::kF32, Operand::r(v), Operand::imm_f32(0.0f));
  b.emit_st(out, tid, Operand::r(z));
  b.ret();
  Program prog = b.finish();
  (void)constant_fold(prog);
  EXPECT_EQ(prog.static_inventory().of(Op::kMul), 1);
}

TEST(CopyPropagate, EliminatesMovChains) {
  Builder b("chain");
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId a = b.emit(Op::kMov, Type::kI32, Operand::r(tid));
  const RegId c = b.emit(Op::kMov, Type::kI32, Operand::r(a));
  const RegId d =
      b.emit(Op::kAdd, Type::kI32, Operand::r(c), Operand::imm_i32(1));
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(d));
  b.emit_st(out, tid, Operand::r(f));
  b.ret();
  Program prog = b.finish();

  (void)copy_propagate(prog);
  (void)dead_code_elim(prog);
  // Both movs gone; the add reads tid directly.
  EXPECT_EQ(prog.static_inventory().of(Op::kMov), 0);
  bool add_reads_tid = false;
  for (const Instr& ins : prog.code) {
    if (ins.op == Op::kAdd && ins.a.is_reg() && ins.a.reg == tid) {
      add_reads_tid = true;
    }
  }
  EXPECT_TRUE(add_reads_tid);
}

TEST(LocalCse, DeduplicatesRepeatedExpressions) {
  // The naive border kernel recomputes the same clamp math per tap; CSE must
  // collapse byte-identical subexpressions (the "NVCC effect" of Table I).
  Builder b("cse");
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId a =
      b.emit(Op::kMax, Type::kI32, Operand::r(tid), Operand::imm_i32(0));
  const RegId bb =
      b.emit(Op::kMax, Type::kI32, Operand::r(tid), Operand::imm_i32(0));
  const RegId sum = b.emit(Op::kAdd, Type::kI32, Operand::r(a), Operand::r(bb));
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(sum));
  b.emit_st(out, tid, Operand::r(f));
  b.ret();
  Program prog = b.finish();

  const PassStats stats = local_cse(prog);
  EXPECT_EQ(stats.cse_hits, 1);
  (void)copy_propagate(prog);
  (void)dead_code_elim(prog);
  EXPECT_EQ(prog.static_inventory().of(Op::kMax), 1);
}

TEST(LocalCse, CommutativeCanonicalization) {
  Builder b("commut");
  const RegId tid = b.add_special("tid.x");
  const RegId sx = b.add_param("sx");
  const u8 out = b.add_buffer();
  const RegId a = b.emit(Op::kAdd, Type::kI32, Operand::r(tid), Operand::r(sx));
  const RegId bb = b.emit(Op::kAdd, Type::kI32, Operand::r(sx), Operand::r(tid));
  const RegId sum = b.emit(Op::kAdd, Type::kI32, Operand::r(a), Operand::r(bb));
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(sum));
  b.emit_st(out, tid, Operand::r(f));
  b.ret();
  Program prog = b.finish();
  EXPECT_EQ(local_cse(prog).cse_hits, 1);
}

// f32 max(a, b) and max(b, a) differ when a and b are +0 and -0 (equal
// operands return the second), so CSE keeps both; i32 max still merges.
TEST(LocalCse, FloatMinMaxKeepOperandOrder) {
  Builder b("fmax_order");
  const RegId tid = b.add_special("tid.x");
  const u8 in = b.add_buffer();
  const u8 out = b.add_buffer();
  const RegId x = b.emit_ld(in, tid);
  const RegId y = b.emit(Op::kNeg, Type::kF32, Operand::r(x));
  const RegId m1 = b.emit(Op::kMax, Type::kF32, Operand::r(x), Operand::r(y));
  const RegId m2 = b.emit(Op::kMax, Type::kF32, Operand::r(y), Operand::r(x));
  const RegId n1 = b.emit(Op::kMin, Type::kF32, Operand::r(x), Operand::r(y));
  const RegId n2 = b.emit(Op::kMin, Type::kF32, Operand::r(y), Operand::r(x));
  const RegId s1 =
      b.emit(Op::kSub, Type::kF32, Operand::r(m1), Operand::r(m2));
  const RegId s2 =
      b.emit(Op::kSub, Type::kF32, Operand::r(n1), Operand::r(n2));
  const RegId f =
      b.emit(Op::kAdd, Type::kF32, Operand::r(s1), Operand::r(s2));
  const RegId i1 =
      b.emit(Op::kMax, Type::kI32, Operand::r(tid), Operand::imm_i32(3));
  const RegId i2 =
      b.emit(Op::kMax, Type::kI32, Operand::imm_i32(3), Operand::r(tid));
  const RegId i = b.emit(Op::kAdd, Type::kI32, Operand::r(i1), Operand::r(i2));
  b.emit_st(out, i, Operand::r(f));
  b.ret();
  Program prog = b.finish();
  EXPECT_EQ(local_cse(prog).cse_hits, 1);  // the i32 pair only
}

TEST(LocalCse, LoadsInvalidatedByStores) {
  Builder b("ld_inval");
  const RegId tid = b.add_special("tid.x");
  const u8 buf = b.add_buffer();
  const RegId v1 = b.emit_ld(buf, tid);
  const RegId inc =
      b.emit(Op::kAdd, Type::kF32, Operand::r(v1), Operand::imm_f32(1.0f));
  b.emit_st(buf, tid, Operand::r(inc));
  const RegId v2 = b.emit_ld(buf, tid);  // must NOT be CSE'd with v1
  const RegId sum =
      b.emit(Op::kAdd, Type::kF32, Operand::r(v1), Operand::r(v2));
  b.emit_st(buf, tid, Operand::r(sum));
  b.ret();
  Program prog = b.finish();
  EXPECT_EQ(local_cse(prog).cse_hits, 0);
  EXPECT_EQ(prog.static_inventory().of(Op::kLd), 2);
}

TEST(LocalCse, RepeatedLoadsWithoutStoresMerge) {
  Builder b("ld_merge");
  const RegId tid = b.add_special("tid.x");
  const u8 in = b.add_buffer();
  const u8 out = b.add_buffer();
  const RegId v1 = b.emit_ld(in, tid);
  const RegId v2 = b.emit_ld(in, tid);
  const RegId sum =
      b.emit(Op::kAdd, Type::kF32, Operand::r(v1), Operand::r(v2));
  b.emit_st(out, tid, Operand::r(sum));
  b.ret();
  Program prog = b.finish();
  EXPECT_EQ(local_cse(prog).cse_hits, 1);
}

TEST(LocalCse, StopsAtBlockBoundaries) {
  Builder b("blocks");
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  const RegId a =
      b.emit(Op::kAdd, Type::kI32, Operand::r(tid), Operand::imm_i32(5));
  const RegId p = b.emit_setp(Cmp::kGt, Type::kI32, Operand::r(a),
                              Operand::imm_i32(0));
  const auto skip = b.make_label();
  b.br_if(p, skip);
  b.bind(skip);
  // Same expression, but in a new block: conservatively not merged.
  const RegId c =
      b.emit(Op::kAdd, Type::kI32, Operand::r(tid), Operand::imm_i32(5));
  const RegId f = b.emit_cvt(Type::kF32, Type::kI32, Operand::r(c));
  b.emit_st(out, tid, Operand::r(f));
  b.ret();
  Program prog = b.finish();
  EXPECT_EQ(local_cse(prog).cse_hits, 0);
}

TEST(DeadCode, RemovesUnusedChainsAndRemapsBranches) {
  Builder b("dce");
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  // Dead chain.
  const RegId d1 =
      b.emit(Op::kMul, Type::kI32, Operand::r(tid), Operand::imm_i32(3));
  const RegId d2 =
      b.emit(Op::kAdd, Type::kI32, Operand::r(d1), Operand::imm_i32(9));
  (void)d2;
  // Live path with a branch whose target must survive remapping.
  const RegId p = b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(tid),
                              Operand::imm_i32(4));
  const auto small = b.make_label();
  const auto done = b.make_label();
  b.br_if(p, small);
  const RegId big = b.emit_cvt(Type::kF32, Type::kI32, Operand::imm_i32(100));
  b.emit_st(out, tid, Operand::r(big));
  b.br(done);
  b.bind(small);
  const RegId lil = b.emit_cvt(Type::kF32, Type::kI32, Operand::imm_i32(1));
  b.emit_st(out, tid, Operand::r(lil));
  b.bind(done);
  b.ret();
  Program prog = b.finish();
  const std::size_t before = prog.code.size();

  const PassStats stats = dead_code_elim(prog);
  EXPECT_EQ(stats.removed, 2);
  EXPECT_EQ(prog.code.size(), before - 2);
  EXPECT_NO_THROW(verify(prog));

  // Still behaves correctly for both branch directions.
  std::vector<f32> data(8, 0.0f);
  const BufferBinding buf{data.data(), data.size(), true};
  for (i32 t : {2, 6}) {
    const std::vector<Word> inputs{Word::from_i32(t)};
    (void)interpret(prog, inputs, {&buf, 1});
  }
  EXPECT_FLOAT_EQ(data[2], 1.0f);
  EXPECT_FLOAT_EQ(data[6], 100.0f);
}

TEST(DeadCode, KeepsSideEffects) {
  Builder b("effects");
  const RegId tid = b.add_special("tid.x");
  const u8 out = b.add_buffer();
  b.emit_st(out, tid, Operand::imm_f32(5.0f));
  b.ret();
  Program prog = b.finish();
  EXPECT_EQ(dead_code_elim(prog).removed, 0);
  EXPECT_EQ(prog.code.size(), 2u);
}

// ---- randomized differential testing ---------------------------------------

/// Generates a random well-formed program: straight-line pure arithmetic over
/// live registers, selp diamonds, guarded store segments (registers defined
/// inside a skipped segment are never used outside it) and bounded loops.
Program random_program(Rng& rng) {
  Builder b("fuzz");
  const RegId tid = b.add_special("tid.x");
  const RegId p0 = b.add_param("p0");
  const RegId p1 = b.add_param("p1");
  const u8 in = b.add_buffer();
  const u8 out = b.add_buffer();

  std::vector<std::pair<RegId, Type>> live = {
      {tid, Type::kI32}, {p0, Type::kI32}, {p1, Type::kI32}};
  std::vector<RegId> preds;

  const auto pick_live = [&](Type t) -> Operand {
    std::vector<RegId> candidates;
    for (const auto& [r, rt] : live) {
      if (rt == t) candidates.push_back(r);
    }
    if (candidates.empty() || rng.bernoulli(0.3f)) {
      return t == Type::kF32
                 ? Operand::imm_f32(rng.uniform_f32(-4.0f, 4.0f))
                 : Operand::imm_i32(rng.uniform_i32(-7, 7));
    }
    return Operand::r(
        candidates[static_cast<std::size_t>(rng.uniform_i32(
            0, static_cast<i32>(candidates.size()) - 1))]);
  };

  const int steps = rng.uniform_i32(10, 60);
  int store_slot = 0;
  for (int s = 0; s < steps; ++s) {
    const int kind = rng.uniform_i32(0, 9);
    if (kind <= 4) {
      // Pure binary arithmetic (avoid div/rem on random values: they are
      // covered by targeted tests and make float comparison brittle).
      static constexpr Op kOps[] = {Op::kAdd, Op::kSub, Op::kMul,
                                    Op::kMin, Op::kMax};
      const Op op = kOps[rng.uniform_i32(0, 4)];
      const Type t = rng.bernoulli(0.5f) ? Type::kI32 : Type::kF32;
      const RegId r = b.emit(op, t, pick_live(t), pick_live(t));
      live.emplace_back(r, t);
    } else if (kind == 5) {
      const Type t = rng.bernoulli(0.5f) ? Type::kI32 : Type::kF32;
      const RegId p = b.emit_setp(static_cast<Cmp>(rng.uniform_i32(0, 5)), t,
                                  pick_live(t), pick_live(t));
      preds.push_back(p);
    } else if (kind == 6 && !preds.empty()) {
      const Type t = rng.bernoulli(0.5f) ? Type::kI32 : Type::kF32;
      const RegId p =
          preds[static_cast<std::size_t>(rng.uniform_i32(
              0, static_cast<i32>(preds.size()) - 1))];
      const RegId r = b.emit_selp(t, pick_live(t), pick_live(t), p);
      live.emplace_back(r, t);
    } else if (kind == 7) {
      // Load from the input buffer at a safely clamped index.
      const RegId base =
          b.emit(Op::kAnd, Type::kI32, pick_live(Type::kI32),
                 Operand::imm_i32(7));
      const RegId pos = b.emit(Op::kAbs, Type::kI32, Operand::r(base));
      const RegId v = b.emit_ld(in, pos);
      live.emplace_back(v, Type::kF32);
    } else if (kind == 8 && !preds.empty()) {
      // Guarded store segment: skipped-register discipline respected.
      const RegId p =
          preds[static_cast<std::size_t>(rng.uniform_i32(
              0, static_cast<i32>(preds.size()) - 1))];
      const auto skip = b.make_label();
      b.br_if(p, skip);
      const RegId tmp = b.emit(Op::kAdd, Type::kF32, pick_live(Type::kF32),
                               Operand::imm_f32(0.5f));
      const RegId slot =
          b.emit(Op::kMov, Type::kI32, Operand::imm_i32(store_slot++ % 16));
      b.emit_st(out, slot, Operand::r(tmp));
      b.bind(skip);
    } else {
      // Bounded loop: accumulate into a fresh register.
      const RegId acc = b.emit(Op::kMov, Type::kI32, Operand::imm_i32(0));
      const RegId i = b.emit(Op::kMov, Type::kI32,
                             Operand::imm_i32(rng.uniform_i32(1, 5)));
      const auto head = b.make_label();
      b.bind(head);
      b.emit_to(acc, Op::kAdd, Type::kI32, Operand::r(acc),
                pick_live(Type::kI32));
      b.emit_to(i, Op::kSub, Type::kI32, Operand::r(i), Operand::imm_i32(1));
      const RegId more = b.emit_setp(Cmp::kGt, Type::kI32, Operand::r(i),
                                     Operand::imm_i32(0));
      b.br_if(more, head);
      live.emplace_back(acc, Type::kI32);
    }
  }

  // Store a handful of live values so results are observable.
  for (int s = 0; s < 8; ++s) {
    const RegId slot =
        b.emit(Op::kMov, Type::kI32, Operand::imm_i32(16 + s));
    const auto [r, t] = live[static_cast<std::size_t>(rng.uniform_i32(
        0, static_cast<i32>(live.size()) - 1))];
    const Operand val =
        t == Type::kF32
            ? Operand::r(r)
            : Operand::r(b.emit_cvt(Type::kF32, Type::kI32, Operand::r(r)));
    b.emit_st(out, slot, val);
  }
  b.ret();
  return b.finish();
}

std::vector<f32> run(const Program& prog, i32 tid, i32 a0, i32 a1) {
  std::vector<f32> in(8);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<f32>(i) * 1.25f - 3.0f;
  }
  std::vector<f32> out(24, 0.0f);
  const BufferBinding bufs[2] = {{in.data(), in.size(), false},
                                 {out.data(), out.size(), true}};
  const std::vector<Word> inputs{Word::from_i32(tid), Word::from_i32(a0),
                                 Word::from_i32(a1)};
  (void)interpret(prog, inputs, {bufs, 2});
  return out;
}

TEST(RandomizedPrograms, OptimizePreservesSemantics) {
  Rng rng(20260708);
  for (int trial = 0; trial < 60; ++trial) {
    const Program original = random_program(rng);
    Program optimized = original;
    const PassStats stats = optimize(optimized);
    (void)stats;
    ASSERT_LE(optimized.code.size(), original.code.size());

    for (int probe = 0; probe < 5; ++probe) {
      const i32 tid = rng.uniform_i32(-4, 12);
      const i32 a0 = rng.uniform_i32(-9, 9);
      const i32 a1 = rng.uniform_i32(-9, 9);
      const auto before = run(original, tid, a0, a1);
      const auto after = run(optimized, tid, a0, a1);
      ASSERT_EQ(before.size(), after.size());
      for (std::size_t i = 0; i < before.size(); ++i) {
        // Bit-exact equality: passes must not alter float behavior at all.
        ASSERT_EQ(std::bit_cast<u32>(before[i]), std::bit_cast<u32>(after[i]))
            << "trial " << trial << " slot " << i;
      }
    }
  }
}

TEST(RandomizedPrograms, PassesAreIdempotentAtFixpoint) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Program prog = random_program(rng);
    (void)optimize(prog);
    Program again = prog;
    const PassStats second = optimize(again);
    EXPECT_EQ(second.total(), 0) << "trial " << trial;
    EXPECT_EQ(again.code.size(), prog.code.size());
  }
}

}  // namespace
}  // namespace ispb::ir
