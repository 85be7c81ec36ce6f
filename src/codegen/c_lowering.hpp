// The one text lowering of a StencilSpec, shared by the C++ printer (the
// native JIT's translation unit) and the CUDA printer.
//
// emit_dag writes the DAG as one single-operation `float tN = ...;`
// statement per node, in node order: StencilSpec::evaluate's exact
// operation sequence. Min/max are the selects of codegen/min_max.hpp, float
// constants are C99 hex literals (they round-trip every f32 bit), and each
// read carries the Listing 1 border function of every side the section
// checks. The centered (0, 0) read is in bounds by construction and never
// checked. The spelling is valid C++ and valid CUDA alike; the only part
// that differs between the two is the unary math calls (CDialect).
#pragma once

#include <sstream>
#include <string>
#include <string_view>

#include "codegen/kernel_gen.hpp"
#include "codegen/stencil_spec.hpp"

namespace ispb::codegen {

/// Spelling of the unary float math calls.
struct CDialect {
  /// `fn(arg)` for fn one of fabsf, exp2f, log2f, sqrtf.
  std::string (*unary_call)(std::string_view fn, const std::string& arg);
};

/// The header-free host TU of the native JIT: the __builtin_ forms, which
/// need no declaration, with exp2f/log2f arguments hidden from constant
/// folding (see c_lowering.cpp).
extern const CDialect kHostDialect;
/// CUDA device code, where the plain names are declared.
extern const CDialect kCudaDialect;

/// `text` with every character outside [A-Za-z0-9_] replaced by '_'.
[[nodiscard]] std::string sanitize_ident(std::string_view text);

/// Staged-tile dimensions of the kIspTiled Body loop (words per row and per
/// input slab); reads then index the local `tile` buffer via lx/ly.
struct TileDims {
  i32 tw = 0;
  i32 slab = 0;
};

/// Where the coordinate and remap statements of `axis` ('x' or 'y') go,
/// each line prefixed by `pad`: a loop nest whose outer loop fixes that
/// coordinate prints them once per outer iteration. Constant guards stay.
struct Hoist {
  char axis = 'y';
  std::ostringstream* os = nullptr;
  std::string pad;
};

/// Appends the statements computing `spec` at pixel (gx, gy) to `body`,
/// each line prefixed by `pad`, and returns the name holding the output
/// value. Reads of input k index `in<k>[y * pitch_in<k> + x]` and apply the
/// `sides` checks of opt.pattern; with `tile` set (the kIspTiled Body) they
/// read the staged local buffer instead, whose values are exact copies, so
/// the computed bits are unchanged. With `hoist` set, that axis's
/// coordinate statements go to its stream instead of `body`.
std::string emit_dag(std::ostringstream& body, const StencilSpec& spec,
                     const CodegenOptions& opt, const CDialect& dialect,
                     Side sides, const std::string& pad,
                     const TileDims* tile = nullptr,
                     const Hoist* hoist = nullptr);

}  // namespace ispb::codegen
