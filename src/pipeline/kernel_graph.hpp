// KernelGraph: a MultiKernelApp as an explicit DAG of stages.
//
// filters::MultiKernelApp orders stages linearly and encodes data flow in
// input_bindings (image 0 is the source, image k > 0 the output of stage
// k-1). The graph makes the dependencies first-class: each stage lists the
// stage indices it reads from, which fusion, chains and the buffer plan
// read. Sobel's dx and dy derivative kernels both read the source; Night's
// Atrous chain derives as a pure sequence; Gaussian/Laplace/Bilateral are
// single nodes.
//
// Stage indices are a topological order by construction (a stage may only
// read images produced by earlier stages), which validate() re-checks.
#pragma once

#include <string>
#include <vector>

#include "filters/filters.hpp"

namespace ispb::pipeline {

/// A stage DAG over one source image. Image ids follow the MultiKernelApp
/// convention: 0 is the source, stage i writes image i + 1.
struct KernelGraph {
  struct Stage {
    codegen::StencilSpec spec;
    std::vector<i32> input_images;  ///< image ids read, in accessor order
    std::vector<i32> deps;          ///< producing stage indices, deduplicated
  };

  std::string name;
  std::vector<Stage> stages;

  /// Source + one output per stage.
  [[nodiscard]] i32 image_count() const {
    return static_cast<i32>(stages.size()) + 1;
  }

  /// Which output buffer each stage writes, for stages run one after
  /// another in stage order. Stage i may take a buffer when the buffer's
  /// latest holder j and every stage reading j's output come before i: j's
  /// output has then been read for the last time before i starts. A stage
  /// that reads j does not come before itself, so no stage writes a buffer
  /// it reads.
  struct BufferPlan {
    i32 buffers = 0;                ///< distinct buffers to allocate
    std::vector<i32> stage_buffer;  ///< stage i writes stage_buffer[i]
  };
  [[nodiscard]] BufferPlan buffer_plan() const;

  /// Stages [first, last] that run band by band as one unit
  /// (exec::run_native_chain): only `last`'s output is a full image, the
  /// others live in band-local scratch.
  struct Chain {
    i32 first = 0;
    i32 last = 0;
    friend bool operator==(const Chain&, const Chain&) = default;
  };

  /// The stages cut into chains, in stage order; each stage is in exactly
  /// one. Stage c joins stage c - 1's chain when c reads only c - 1's output
  /// (one binding), c is its only reader, and `pattern` keeps every band's
  /// remapped rows inside the band: clamp and mirror remap a row past an
  /// edge to a row within the radius of that edge, and constant reads
  /// nothing, so they always chain; repeat wraps to the opposite edge, so
  /// under repeat stages chain only when `bands` is 1 (one band covers the
  /// image). One pass over the bindings, no spec copied.
  [[nodiscard]] std::vector<Chain> chains(BorderPattern pattern,
                                          i64 bands) const;

  /// buffer_plan() over chains: the same reuse rule with each chain as one
  /// unit. A chain's last stage writes its buffer; the other stages get -1
  /// (their rows live in band-local scratch). Night's one chain needs one
  /// buffer.
  [[nodiscard]] BufferPlan buffer_plan(const std::vector<Chain>& chains) const;

  /// The graph with every pointwise consumer inlined into its producer,
  /// repeated until nothing more fuses. Producer P fuses into consumer C
  /// when C is the only stage reading P's output and reads it only at
  /// offset (0, 0). The fused spec is P's nodes (reads remapped onto C's
  /// input list, deduplicated by image id) followed by C's nodes, with C's
  /// reads of P replaced by P's output node: each pixel runs the same float
  /// operations as the two stages did, and the window, hence the ISP
  /// partition, is P's. The fused stage is named "<P>+<C>". Sobel becomes
  /// one 3x3 stage on the source; night's tonemap becomes atrous17's
  /// epilogue.
  [[nodiscard]] KernelGraph fused() const;

  /// Structural checks: nonempty, every input image id in [0, stage image),
  /// deps consistent with input_images. Throws ContractError on violation.
  void validate() const;
};

/// Derives the DAG from the linear app form.
[[nodiscard]] KernelGraph build_graph(const filters::MultiKernelApp& app);

}  // namespace ispb::pipeline
