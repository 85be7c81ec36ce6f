// C++ printer: lowers a StencilSpec to a standalone host translation unit
// the native execution backend (src/exec) compiles to a shared object.
//
// The statements come from the shared C lowering (codegen/c_lowering.hpp)
// that the CUDA printer uses too, in its host dialect: the unary math calls
// are spelled __builtin_fabsf/exp2f/log2f/sqrtf, so the TU needs no
// #include. The compiled code is bit-identical to the CPU reference and the
// simulator provided the TU is built with FP contraction off (the JIT
// passes -ffp-contract=off).
//
// Every pointer parameter and local is __restrict__: the host never lets
// the output alias an input, and without the promise the compiler cannot
// vectorize the guard-free Body loop.
//
// Region/guard structure: on a CPU only the guard-free Body pays for the
// paper's partition (it is the loop that vectorizes), so an ISP TU holds
// three DAG copies over a pixel-granular partition computed from the TU's
// compile-time radii: the Body [rx, sx-rx) x [ry, sy-ry), no checks
// (kIspTiled stages it through a local tile); the Rows, the top and bottom
// strips over the Body's columns, y checks (once per row but for Repeat);
// the Rim, the left and right columns, all checks. An image under twice
// the radius gets an empty Body, and the Rows and Rim cover it. kIspWarp
// lowers as kIsp; kNaive is one all-checks loop. The CUDA printer keeps
// all nine regions.
//
// ABI of the emitted entry point (see cpp_kernel_symbol):
//
//   extern "C" void <sym>(const float* const* __restrict__ in,
//                         const int* __restrict__ pitch_in,
//                         float* __restrict__ out, int pitch_out,
//                         int sx, int sy, int y_begin, int y_end);
//
// `in`/`pitch_in` hold num_inputs image base pointers and element pitches;
// the function writes output rows [y_begin, y_end) only, so the host can
// split an image into row bands and run them on a thread pool.
#pragma once

#include <string>

#include "codegen/kernel_gen.hpp"
#include "codegen/stencil_spec.hpp"

namespace ispb::codegen {

/// Emits the full translation unit: one extern "C" function, no includes.
[[nodiscard]] std::string emit_cpp(const StencilSpec& spec,
                                   const CodegenOptions& options);

/// The entry-point symbol `emit_cpp` declares. Canonical in the variant:
/// kIsp and kIspWarp share one symbol (and one module) since they lower to
/// identical code.
[[nodiscard]] std::string cpp_kernel_symbol(const StencilSpec& spec,
                                            const CodegenOptions& options);

}  // namespace ispb::codegen
