// CUDA source emission.
//
// Hipacc is a source-to-source compiler: its end product is CUDA C++ the
// user can read and compile with NVCC. This module renders the same fat
// kernels the IR generator builds — region labels, goto-based switching
// (Listings 3 and 5), per-pattern border handling (Listing 1) — as CUDA
// source text. The region sections' statements come from the C lowering
// the native C++ printer compiles (codegen/c_lowering.hpp), in its CUDA
// dialect, so the text shows exactly the checks and float operations the
// host runs. The text is a faithful, human-readable artifact; the
// simulator executes the IR form, and tests check the two stay structurally
// consistent (same regions, same parameters) and that every kernel is
// well-formed source.
#pragma once

#include <string>

#include "codegen/kernel_gen.hpp"

namespace ispb::codegen {

/// Renders a __global__ CUDA kernel for the spec/pattern/variant.
[[nodiscard]] std::string emit_cuda(const StencilSpec& spec,
                                    const CodegenOptions& options);

/// Renders the host-side launch snippet (grid math of Eq. (7), index bounds
/// of Eq. (2), warp bounds, kernel call).
[[nodiscard]] std::string emit_cuda_host(const StencilSpec& spec,
                                         const CodegenOptions& options);

}  // namespace ispb::codegen
