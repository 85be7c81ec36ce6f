#include "ir/passes.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ispb::ir {

namespace {

/// Number of in-code definitions per register (inputs are defined by the
/// launcher and count as one definition each).
std::vector<u32> def_counts(const Program& prog) {
  std::vector<u32> counts(prog.num_regs, 0);
  for (u32 r = 0; r < prog.num_inputs(); ++r) counts[r] = 1;
  for (const Instr& ins : prog.code) {
    if (op_has_dst(ins.op)) ++counts[ins.dst];
  }
  return counts;
}

bool single_def(const std::vector<u32>& counts, const Operand& o) {
  return !o.is_reg() || counts[o.reg] == 1;
}

/// Basic-block leader flags: pc 0, branch targets, and fallthrough points
/// after branches/rets start new blocks.
std::vector<bool> block_leaders(const Program& prog) {
  std::vector<bool> leader(prog.code.size(), false);
  if (!leader.empty()) leader[0] = true;
  for (u32 pc = 0; pc < prog.code.size(); ++pc) {
    const Instr& ins = prog.code[pc];
    if (ins.op == Op::kBra) {
      if (ins.target < leader.size()) leader[ins.target] = true;
      if (pc + 1 < leader.size()) leader[pc + 1] = true;
    } else if (ins.op == Op::kRet && pc + 1 < leader.size()) {
      leader[pc + 1] = true;
    }
  }
  return leader;
}

/// f32 min/max are not: equal operands (+0 against -0) return the second
/// one (codegen/min_max.hpp), so swapping them can flip a zero's sign.
bool is_commutative(const Instr& ins) {
  switch (ins.op) {
    case Op::kMin:
    case Op::kMax:
      return ins.type != Type::kF32;
    case Op::kAdd:
    case Op::kMul:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
      return true;
    default:
      return false;
  }
}

bool is_pure_value_op(Op op) {
  switch (op) {
    case Op::kSt:
    case Op::kBra:
    case Op::kRet:
    case Op::kLd:
    case Op::kSmemLd:
    case Op::kSmemSt:
    case Op::kBar:
      return false;
    default:
      return true;
  }
}

Instr make_mov(RegId dst, Type type, Operand src) {
  Instr mov;
  mov.op = Op::kMov;
  mov.type = type;
  mov.dst = dst;
  mov.a = src;
  return mov;
}

}  // namespace

PassStats constant_fold(Program& prog) {
  PassStats stats;
  for (Instr& ins : prog.code) {
    if (!is_pure_value_op(ins.op) || ins.op == Op::kMov) continue;
    const i32 arity = op_arity(ins.op);

    const bool all_imm = (arity < 1 || ins.a.is_imm()) &&
                         (arity < 2 || ins.b.is_imm()) &&
                         (arity < 3 || ins.c.is_imm());
    if (all_imm) {
      const Word folded = eval_pure(ins, ins.a.imm, ins.b.imm, ins.c.imm);
      const Type result_type =
          ins.op == Op::kSetp ? Type::kPred : ins.type;
      ins = make_mov(ins.dst, result_type,
                     Operand{Operand::Kind::kImm, kNoReg, folded});
      ++stats.folded;
      continue;
    }

    // Exactly value-preserving algebraic identities.
    const bool i32_type = ins.type == Type::kI32;
    const auto imm_is = [](const Operand& o, i32 v) {
      return o.is_imm() && o.imm.as_i32() == v;
    };
    const auto fimm_is = [](const Operand& o, f32 v) {
      return o.is_imm() && o.imm.as_f32() == v;
    };
    switch (ins.op) {
      case Op::kAdd:
        if (i32_type && imm_is(ins.b, 0)) {
          ins = make_mov(ins.dst, ins.type, ins.a);
          ++stats.folded;
        } else if (i32_type && imm_is(ins.a, 0)) {
          ins = make_mov(ins.dst, ins.type, ins.b);
          ++stats.folded;
        }
        break;
      case Op::kSub:
        if (i32_type && imm_is(ins.b, 0)) {
          ins = make_mov(ins.dst, ins.type, ins.a);
          ++stats.folded;
        }
        break;
      case Op::kMul:
        if ((i32_type && imm_is(ins.b, 1)) ||
            (!i32_type && fimm_is(ins.b, 1.0f))) {
          ins = make_mov(ins.dst, ins.type, ins.a);
          ++stats.folded;
        } else if ((i32_type && imm_is(ins.a, 1)) ||
                   (!i32_type && fimm_is(ins.a, 1.0f))) {
          ins = make_mov(ins.dst, ins.type, ins.b);
          ++stats.folded;
        } else if (i32_type && (imm_is(ins.a, 0) || imm_is(ins.b, 0))) {
          // Integer only: 0.0f * x is not 0 for NaN/inf inputs.
          ins = make_mov(ins.dst, ins.type, Operand::imm_i32(0));
          ++stats.folded;
        }
        break;
      case Op::kMad:
        // a*b + c with b == 1 -> add a, c (shape-preserving strength cut).
        if (i32_type && imm_is(ins.a, 0)) {
          Instr add = ins;
          add.op = Op::kMov;
          add.a = ins.c;
          add.b = Operand::none();
          add.c = Operand::none();
          ins = add;
          ++stats.folded;
        }
        break;
      case Op::kShl:
      case Op::kShr:
        if (imm_is(ins.b, 0)) {
          ins = make_mov(ins.dst, ins.type, ins.a);
          ++stats.folded;
        }
        break;
      case Op::kSelp:
        if (ins.a == ins.b) {
          ins = make_mov(ins.dst, ins.type, ins.a);
          ++stats.folded;
        }
        break;
      default:
        break;
    }
  }
  return stats;
}

PassStats copy_propagate(Program& prog) {
  PassStats stats;
  const std::vector<u32> defs = def_counts(prog);

  // Map: register -> replacement operand, for single-def movs whose source
  // is an immediate or a single-def register.
  std::vector<Operand> replacement(prog.num_regs, Operand::none());
  for (const Instr& ins : prog.code) {
    if (ins.op != Op::kMov || defs[ins.dst] != 1) continue;
    if (ins.a.is_imm() || single_def(defs, ins.a)) {
      replacement[ins.dst] = ins.a;
    }
  }
  // Resolve chains (mov b<-a; mov c<-b).
  for (u32 r = 0; r < prog.num_regs; ++r) {
    Operand o = replacement[r];
    int depth = 0;
    while (o.is_reg() && !replacement[o.reg].is_none() && depth++ < 64) {
      o = replacement[o.reg];
    }
    replacement[r] = o;
  }

  const auto rewrite = [&](Operand& o) {
    if (o.is_reg() && !replacement[o.reg].is_none()) {
      o = replacement[o.reg];
      ++stats.propagated;
    }
  };
  for (Instr& ins : prog.code) {
    const i32 arity = op_arity(ins.op);
    // Memory addresses must stay registers; skip rewriting `a` of ld/st to
    // an immediate (cannot happen for well-formed programs, but stay safe).
    const bool is_mem = ins.op == Op::kLd || ins.op == Op::kSt ||
                        ins.op == Op::kSmemLd || ins.op == Op::kSmemSt;
    if (arity >= 1 && !is_mem) {
      rewrite(ins.a);
    } else if (is_mem && ins.a.is_reg() && replacement[ins.a.reg].is_reg()) {
      ins.a = replacement[ins.a.reg];
      ++stats.propagated;
    }
    if (arity >= 2) rewrite(ins.b);
    if (arity >= 3 && ins.op != Op::kSelp) rewrite(ins.c);
    if (ins.op == Op::kSelp && ins.c.is_reg() &&
        replacement[ins.c.reg].is_reg()) {
      ins.c = replacement[ins.c.reg];  // predicates must remain registers
      ++stats.propagated;
    }
    if (ins.op == Op::kBra && ins.c.is_reg() &&
        replacement[ins.c.reg].is_reg()) {
      ins.c = replacement[ins.c.reg];
      ++stats.propagated;
    }
  }
  return stats;
}

PassStats local_cse(Program& prog) {
  PassStats stats;
  const std::vector<u32> defs = def_counts(prog);
  const std::vector<bool> leaders = block_leaders(prog);

  // Value-number key: opcode + types + cmp + buffer + canonical operands +
  // load epoch (loads are invalidated by stores to the same buffer).
  using OperandKey = std::tuple<u8, u32, u32>;
  using Key = std::tuple<u8, u8, u8, u8, u8, u32, OperandKey, OperandKey,
                         OperandKey>;
  const auto okey = [](const Operand& o) {
    return OperandKey{static_cast<u8>(o.kind), o.reg, o.imm.bits};
  };

  std::map<Key, RegId> table;
  std::vector<u32> store_epoch(prog.num_buffers, 0);
  u32 smem_epoch = 0;

  for (u32 pc = 0; pc < prog.code.size(); ++pc) {
    if (leaders[pc]) {
      table.clear();
      std::fill(store_epoch.begin(), store_epoch.end(), 0u);
      smem_epoch = 0;
    }
    Instr& ins = prog.code[pc];
    if (ins.op == Op::kSt) {
      ++store_epoch[ins.buffer];
      continue;
    }
    // Smem stores and barriers invalidate prior smem loads (a barrier
    // publishes other lanes' stores, so loads across it are not equivalent).
    if (ins.op == Op::kSmemSt || ins.op == Op::kBar) {
      ++smem_epoch;
      continue;
    }
    const bool cse_candidate = (is_pure_value_op(ins.op) && ins.op != Op::kMov) ||
                               ins.op == Op::kLd || ins.op == Op::kSmemLd;
    if (!cse_candidate) continue;
    if (defs[ins.dst] != 1) continue;
    const i32 arity = op_arity(ins.op);
    if (arity >= 1 && !single_def(defs, ins.a)) continue;
    if (arity >= 2 && !single_def(defs, ins.b)) continue;
    if (arity >= 3 && !single_def(defs, ins.c)) continue;

    Operand a = ins.a;
    Operand b = ins.b;
    if (is_commutative(ins) && arity == 2) {
      // Canonical order: immediates last, then by register id / bits.
      const auto rank = [&](const Operand& o) {
        return std::tuple{o.is_imm() ? 1 : 0, o.reg, o.imm.bits};
      };
      if (rank(b) < rank(a)) std::swap(a, b);
    }
    const u32 epoch = ins.op == Op::kLd     ? store_epoch[ins.buffer]
                      : ins.op == Op::kSmemLd ? smem_epoch
                                              : 0u;
    const Key key{static_cast<u8>(ins.op),  static_cast<u8>(ins.type),
                  static_cast<u8>(ins.src_type), static_cast<u8>(ins.cmp),
                  ins.buffer,                epoch,
                  okey(a),                   okey(b),
                  okey(ins.c)};
    const auto [it, inserted] = table.emplace(key, ins.dst);
    if (!inserted) {
      const Type result_type =
          ins.op == Op::kSetp ? Type::kPred : ins.type;
      ins = make_mov(ins.dst, result_type, Operand::r(it->second));
      ++stats.cse_hits;
    }
  }
  return stats;
}

PassStats dead_code_elim(Program& prog) {
  PassStats stats;
  for (;;) {
    // Use counts over all operands (including branch predicates).
    std::vector<u32> uses(prog.num_regs, 0);
    for (const Instr& ins : prog.code) {
      const auto count = [&](const Operand& o) {
        if (o.is_reg()) ++uses[o.reg];
      };
      count(ins.a);
      count(ins.b);
      count(ins.c);
    }

    std::vector<bool> dead(prog.code.size(), false);
    i64 removed = 0;
    for (u32 pc = 0; pc < prog.code.size(); ++pc) {
      const Instr& ins = prog.code[pc];
      if (ins.has_side_effects()) continue;
      if (!op_has_dst(ins.op)) continue;
      if (uses[ins.dst] == 0) {
        dead[pc] = true;
        ++removed;
      }
    }
    if (removed == 0) break;
    stats.removed += removed;

    // Compact, remapping branch targets and markers to the next surviving
    // instruction at or after the old position.
    std::vector<u32> new_index(prog.code.size() + 1, 0);
    u32 next = 0;
    for (u32 pc = 0; pc < prog.code.size(); ++pc) {
      new_index[pc] = next;
      if (!dead[pc]) ++next;
    }
    new_index[prog.code.size()] = next;

    std::vector<Instr> compacted;
    compacted.reserve(static_cast<std::size_t>(next));
    for (u32 pc = 0; pc < prog.code.size(); ++pc) {
      if (dead[pc]) continue;
      Instr ins = prog.code[pc];
      if (ins.op == Op::kBra) ins.target = new_index[ins.target];
      compacted.push_back(ins);
    }
    for (auto& [mname, mpc] : prog.markers) {
      (void)mname;
      mpc = new_index[mpc];
    }
    prog.code = std::move(compacted);
  }
  return stats;
}

PassStats optimize(Program& prog) {
  obs::ScopedSpan opt_span("ir.optimize", "compile");
  // Runs one pass under its own span, recording the instruction-count delta
  // it produced (the span is free when tracing is off).
  const auto traced = [&prog](const char* name, PassStats (*pass)(Program&)) {
    obs::ScopedSpan span(name, "compile.pass");
    const std::size_t before = prog.code.size();
    const PassStats stats = pass(prog);
    if (span.recording()) {
      span.arg("instrs_before", static_cast<i64>(before));
      span.arg("instrs_after", static_cast<i64>(prog.code.size()));
      span.arg("changed", static_cast<i64>(stats.total()));
    }
    return stats;
  };
  PassStats total;
  int rounds = 0;
  for (int round = 0; round < 4; ++round) {
    ++rounds;
    PassStats round_stats;
    round_stats += traced("ir.constant_fold", constant_fold);
    round_stats += traced("ir.copy_propagate", copy_propagate);
    round_stats += traced("ir.local_cse", local_cse);
    round_stats += traced("ir.copy_propagate", copy_propagate);
    round_stats += traced("ir.dead_code_elim", dead_code_elim);
    total += round_stats;
    if (round_stats.total() == 0) break;
  }
  verify(prog);
  if (opt_span.recording()) {
    opt_span.arg("kernel", prog.name);
    opt_span.arg("rounds", static_cast<i64>(rounds));
    opt_span.arg("instrs", static_cast<i64>(prog.code.size()));
  }
  return total;
}

}  // namespace ispb::ir
