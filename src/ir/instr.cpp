#include "ir/instr.hpp"

#include <cmath>

#include "codegen/min_max.hpp"
#include "common/error.hpp"

namespace ispb::ir {

std::string_view op_keyword(Op op) {
  switch (op) {
    case Op::kAdd:
      return "add";
    case Op::kSub:
      return "sub";
    case Op::kMul:
      return "mul";
    case Op::kDiv:
      return "div";
    case Op::kRem:
      return "rem";
    case Op::kMin:
      return "min";
    case Op::kMax:
      return "max";
    case Op::kAnd:
      return "and";
    case Op::kOr:
      return "or";
    case Op::kXor:
      return "xor";
    case Op::kShl:
      return "shl";
    case Op::kShr:
      return "shr";
    case Op::kMad:
      return "mad";
    case Op::kSelp:
      return "selp";
    case Op::kNeg:
      return "neg";
    case Op::kAbs:
      return "abs";
    case Op::kMov:
      return "mov";
    case Op::kCvt:
      return "cvt";
    case Op::kEx2:
      return "ex2";
    case Op::kLg2:
      return "lg2";
    case Op::kRcp:
      return "rcp";
    case Op::kSqrt:
      return "sqrt";
    case Op::kSetp:
      return "setp";
    case Op::kLd:
      return "ld";
    case Op::kSt:
      return "st";
    case Op::kSmemLd:
      return "ld.shared";
    case Op::kSmemSt:
      return "st.shared";
    case Op::kBar:
      return "bar.sync";
    case Op::kBra:
      return "bra";
    case Op::kRet:
      return "ret";
  }
  return "?";
}

std::string_view type_suffix(Type t) {
  switch (t) {
    case Type::kI32:
      return ".s32";
    case Type::kF32:
      return ".f32";
    case Type::kPred:
      return ".pred";
  }
  return ".?";
}

std::string_view cmp_name(Cmp c) {
  switch (c) {
    case Cmp::kLt:
      return "lt";
    case Cmp::kLe:
      return "le";
    case Cmp::kGt:
      return "gt";
    case Cmp::kGe:
      return "ge";
    case Cmp::kEq:
      return "eq";
    case Cmp::kNe:
      return "ne";
  }
  return "?";
}

i32 op_arity(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kRem:
    case Op::kMin:
    case Op::kMax:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kShr:
    case Op::kSetp:
    case Op::kSt:
    case Op::kSmemSt:
      return 2;
    case Op::kMad:
    case Op::kSelp:
      return 3;
    case Op::kNeg:
    case Op::kAbs:
    case Op::kMov:
    case Op::kCvt:
    case Op::kEx2:
    case Op::kLg2:
    case Op::kRcp:
    case Op::kSqrt:
    case Op::kLd:
    case Op::kSmemLd:
      return 1;
    case Op::kBar:
    case Op::kBra:
    case Op::kRet:
      return 0;
  }
  return 0;
}

bool op_has_dst(Op op) {
  switch (op) {
    case Op::kSt:
    case Op::kSmemSt:
    case Op::kBar:
    case Op::kBra:
    case Op::kRet:
      return false;
    default:
      return true;
  }
}

namespace {

// Wrapping signed arithmetic via unsigned (signed overflow is UB in C++,
// defined modular behavior on the device).
i32 wrap_add(i32 a, i32 b) {
  return std::bit_cast<i32>(std::bit_cast<u32>(a) + std::bit_cast<u32>(b));
}
i32 wrap_sub(i32 a, i32 b) {
  return std::bit_cast<i32>(std::bit_cast<u32>(a) - std::bit_cast<u32>(b));
}
i32 wrap_mul(i32 a, i32 b) {
  return std::bit_cast<i32>(std::bit_cast<u32>(a) * std::bit_cast<u32>(b));
}

bool eval_cmp_i32(Cmp c, i32 a, i32 b) {
  switch (c) {
    case Cmp::kLt:
      return a < b;
    case Cmp::kLe:
      return a <= b;
    case Cmp::kGt:
      return a > b;
    case Cmp::kGe:
      return a >= b;
    case Cmp::kEq:
      return a == b;
    case Cmp::kNe:
      return a != b;
  }
  return false;
}

bool eval_cmp_f32(Cmp c, f32 a, f32 b) {
  switch (c) {
    case Cmp::kLt:
      return a < b;
    case Cmp::kLe:
      return a <= b;
    case Cmp::kGt:
      return a > b;
    case Cmp::kGe:
      return a >= b;
    case Cmp::kEq:
      return a == b;
    case Cmp::kNe:
      return a != b;
  }
  return false;
}

}  // namespace

Word eval_pure(const Instr& ins, Word a, Word b, Word c) {
  const bool is_f32 = ins.type == Type::kF32;
  switch (ins.op) {
    case Op::kAdd:
      return is_f32 ? Word::from_f32(a.as_f32() + b.as_f32())
                    : Word::from_i32(wrap_add(a.as_i32(), b.as_i32()));
    case Op::kSub:
      return is_f32 ? Word::from_f32(a.as_f32() - b.as_f32())
                    : Word::from_i32(wrap_sub(a.as_i32(), b.as_i32()));
    case Op::kMul:
      return is_f32 ? Word::from_f32(a.as_f32() * b.as_f32())
                    : Word::from_i32(wrap_mul(a.as_i32(), b.as_i32()));
    case Op::kDiv: {
      if (is_f32) return Word::from_f32(a.as_f32() / b.as_f32());
      const i32 d = b.as_i32();
      if (d == 0) return Word::from_i32(0);
      if (d == -1 && a.as_i32() == INT32_MIN) return Word::from_i32(INT32_MIN);
      return Word::from_i32(a.as_i32() / d);
    }
    case Op::kRem: {
      ISPB_ASSERT(!is_f32);
      const i32 d = b.as_i32();
      if (d == 0) return Word::from_i32(0);
      if (d == -1 && a.as_i32() == INT32_MIN) return Word::from_i32(0);
      return Word::from_i32(a.as_i32() % d);
    }
    case Op::kMin:
      return is_f32
                 ? Word::from_f32(codegen::fmin_f32(a.as_f32(), b.as_f32()))
                 : Word::from_i32(std::min(a.as_i32(), b.as_i32()));
    case Op::kMax:
      return is_f32
                 ? Word::from_f32(codegen::fmax_f32(a.as_f32(), b.as_f32()))
                 : Word::from_i32(std::max(a.as_i32(), b.as_i32()));
    case Op::kAnd:
      return Word{a.bits & b.bits};
    case Op::kOr:
      return Word{a.bits | b.bits};
    case Op::kXor:
      return Word{a.bits ^ b.bits};
    case Op::kShl:
      return Word{a.bits << (b.bits & 31u)};
    case Op::kShr:  // arithmetic shift for s32
      return Word::from_i32(a.as_i32() >> static_cast<i32>(b.bits & 31u));
    case Op::kMad:
      // f32 mad is a true fused multiply-add (single rounding) so results do
      // not depend on the host compiler's contraction choices. The code
      // generator only emits integer mads for addresses; float convolutions
      // use separate mul/add to match the two-rounding CPU reference.
      return is_f32
                 ? Word::from_f32(std::fma(a.as_f32(), b.as_f32(), c.as_f32()))
                 : Word::from_i32(
                       wrap_add(wrap_mul(a.as_i32(), b.as_i32()), c.as_i32()));
    case Op::kSelp:
      return c.as_pred() ? a : b;
    case Op::kNeg:
      return is_f32 ? Word::from_f32(-a.as_f32())
                    : Word::from_i32(wrap_sub(0, a.as_i32()));
    case Op::kAbs:
      return is_f32 ? Word::from_f32(std::fabs(a.as_f32()))
                    : Word::from_i32(a.as_i32() < 0 ? wrap_sub(0, a.as_i32())
                                                    : a.as_i32());
    case Op::kMov:
      return a;
    case Op::kCvt: {
      if (ins.src_type == ins.type) return a;
      if (ins.src_type == Type::kI32 && ins.type == Type::kF32) {
        return Word::from_f32(static_cast<f32>(a.as_i32()));
      }
      if (ins.src_type == Type::kF32 && ins.type == Type::kI32) {
        // cvt.rzi: round toward zero, saturating at the i32 range.
        const f32 v = a.as_f32();
        if (std::isnan(v)) return Word::from_i32(0);
        if (v >= 2147483648.0f) return Word::from_i32(INT32_MAX);
        if (v <= -2147483904.0f) return Word::from_i32(INT32_MIN);
        return Word::from_i32(static_cast<i32>(v));
      }
      ISPB_ASSERT(false);
      return a;
    }
    case Op::kEx2:
      return Word::from_f32(std::exp2(a.as_f32()));
    case Op::kLg2:
      return Word::from_f32(std::log2(a.as_f32()));
    case Op::kRcp:
      return Word::from_f32(1.0f / a.as_f32());
    case Op::kSqrt:
      return Word::from_f32(std::sqrt(a.as_f32()));
    case Op::kSetp:
      return Word::from_pred(ins.type == Type::kF32
                                 ? eval_cmp_f32(ins.cmp, a.as_f32(), b.as_f32())
                                 : eval_cmp_i32(ins.cmp, a.as_i32(),
                                                b.as_i32()));
    case Op::kLd:
    case Op::kSt:
    case Op::kSmemLd:
    case Op::kSmemSt:
    case Op::kBar:
    case Op::kBra:
    case Op::kRet:
      break;
  }
  throw ContractError("eval_pure called on non-pure instruction");
}

}  // namespace ispb::ir
