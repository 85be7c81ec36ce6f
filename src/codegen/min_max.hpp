// The one definition of f32 min/max shared by every engine.
//
// StencilSpec::evaluate (the CPU reference), the IR interpreter behind the
// simulator and the C++ printer's emitted expression all compute min/max as
// these selects, so the reference no longer depends on the host's libm and
// the native Body can lower them to vector compares and blends instead of
// a call per pixel. The answers match fmaxf/fminf of glibc 2.36 on x86-64
// bit for bit:
//   - a NaN operand loses to the other operand (a if both are NaN);
//   - equal operands, +0 against -0 included, return b.
// (GCC treats fmax/fmin as commutative and may swap a call's operands when
// optimizing, so an optimized caller can observe the first operand.)
#pragma once

#include "common/types.hpp"

namespace ispb::codegen {

[[nodiscard]] inline f32 fmax_f32(f32 a, f32 b) {
  return ((b != b) | (a > b)) ? a : b;
}

[[nodiscard]] inline f32 fmin_f32(f32 a, f32 b) {
  return ((b != b) | (a < b)) ? a : b;
}

}  // namespace ispb::codegen
