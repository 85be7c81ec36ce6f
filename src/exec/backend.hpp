// The two execution engines a compiled stencil runs on.
//
//   run_interpreted — dsl::compile_kernel lowers the spec to IR,
//   dsl::launch_on_sim interprets it per warp lane on the GPU simulator.
//   Keeps modeled time, occupancy and the per-region counters the cost
//   model validates against. The throughput ceiling.
//
//   NativeBackend — lowers the same spec through codegen::emit_cpp,
//   compiles it to a shared object (src/exec/jit) and runs the dlopened
//   function through run_native_chain: inline on the calling thread for a
//   small image, over row bands on the host thread pool sized by
//   row_bands() above it, several modules band by band as one chain.
//   Outputs are bit-identical to the interpreted path and the CPU
//   reference (the printer emits StencilSpec::evaluate's exact float
//   sequence; the JIT disables FP contraction); modeled GPU counters are
//   *not* produced — stats carry wall time only.
//
// Both resolve compiled artifacts through pipeline::KernelCache when one is
// supplied (single-flight, LRU, shared fingerprint keys) and compile
// directly when not. PipelineExecutor selects the engine per run
// (ExecutorConfig::backend, overridable per ServeRequest), prepares every
// native stage with NativeBackend::prepare and runs it as part of a chain;
// native failures circuit-break to interpreted via the executor's
// resilience path.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "dsl/runtime.hpp"
#include "exec/jit.hpp"

namespace ispb::pipeline {
class KernelCache;  // exec sits below pipeline in the build graph
}  // namespace ispb::pipeline

namespace ispb::exec {

enum class Backend : u8 {
  kInterpreted,  ///< gpusim IR interpreter (counters + modeled time)
  kNative,       ///< JIT-compiled shared object (wall-speed serving)
};

[[nodiscard]] std::string_view to_string(Backend b);

/// Parses "interp" / "native"; nullopt for anything else.
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name);

/// Outcome of one backend execution; the fields ExecutorResult::Stage
/// consumes.
struct BackendRun {
  sim::LaunchStats stats;  ///< native: wall time_ms only, no counters
  codegen::Variant variant_used = codegen::Variant::kNaive;
  Backend backend = Backend::kInterpreted;
  i32 regs_per_thread = 0;  ///< 0 for native (no register model)
};

/// The interpreted engine: compiles `spec` (through `cache` when non-null)
/// and launches it on the simulator. Defines every in-bounds output pixel,
/// whatever `output` held before, so callers may pass an Image(Size2,
/// Uninitialized): a `sampled` launch runs only a sample of the blocks, so
/// the output is zero-filled first and unsampled pixels read 0. Inputs must
/// match the output size; throws ContractError on geometry violations
/// (never retried or circuit-broken by the executor).
BackendRun run_interpreted(const codegen::StencilSpec& spec,
                           const codegen::CodegenOptions& options,
                           const sim::DeviceSpec& device,
                           std::span<const Image<f32>* const> inputs,
                           Image<f32>& output, BlockSize block, bool sampled,
                           pipeline::KernelCache* cache);

/// A native stage resolved but not yet run: the module and what
/// NativeBackend::run reports for the stage, bar the wall time.
struct NativeLaunch {
  NativeModulePtr module;
  BackendRun run;  ///< stats.time_ms is 0 until the module runs
};

/// The launch of a resolved `module` for `spec` under `options` over an
/// image of `size`: the variant it reports is kNaive where the partition
/// degenerates (an image narrower than twice the window's radius), as the
/// interpreted engine's is.
[[nodiscard]] NativeLaunch native_launch(NativeModulePtr module,
                                         const codegen::StencilSpec& spec,
                                         const codegen::CodegenOptions& options,
                                         Size2 size);

/// JIT path: resolves a NativeModule (through `cache` when non-null, else
/// jit_compile directly).
class NativeBackend {
 public:
  explicit NativeBackend(pipeline::KernelCache* cache = nullptr,
                         JitConfig jit = {})
      : cache_(cache), jit_(std::move(jit)) {}

  /// Resolves the module and runs it alone through run_native_module:
  /// inline below the band floor, over row bands on the host pool above
  /// it. Defines every in-bounds output pixel; `block` and `sampled` are
  /// ignored — native runs always produce the full output. The executor
  /// does not call this (it prepares and runs chains); benches time it as
  /// the rung between the bare module and the executor.
  BackendRun run(const codegen::StencilSpec& spec,
                 const codegen::CodegenOptions& options,
                 const sim::DeviceSpec& device,
                 std::span<const Image<f32>* const> inputs,
                 Image<f32>& output, BlockSize block, bool sampled);

  /// run() without running: checks the window against an image of `size`
  /// as run() does (ContractError) and resolves the module. The executor
  /// prepares every native stage this way, a lone stage as a chain of one,
  /// then runs a chain's modules together through run_native_chain.
  [[nodiscard]] NativeLaunch prepare(const codegen::StencilSpec& spec,
                                     const codegen::CodegenOptions& options,
                                     const sim::DeviceSpec& device,
                                     Size2 size);

 private:
  pipeline::KernelCache* cache_;
  JitConfig jit_;
};

/// Least pixels a row band of a native stage gets: below it, handing the
/// band to the host pool costs more than the band's share of the kernel.
/// Measured by an interleaved sweep of inline, 16-band and candidate-floor
/// runs over 64²..1024² images (DESIGN.md §16, EXPERIMENTS.md "Row bands vs
/// image size").
inline constexpr i64 kRowBandFloorPx = 24 * 1024;

/// Number of row bands a native stage over `size` runs as on `workers`
/// pool threads: min(rows, 4 x workers, pixels / floor_px), at least 1, then
/// trimmed so that bands of ceil(rows / bands) rows are all non-empty. 1
/// means the stage runs inline on the calling thread.
[[nodiscard]] i64 row_bands(Size2 size, i64 workers,
                            i64 floor_px = kRowBandFloorPx);

/// Pixels a chain stage computes per call inside a band (rows of this many
/// pixels, at least one row): small enough that a consumer finds the rows
/// its producer just wrote in cache.
inline constexpr i64 kChainStripPx = 32 * 1024;

/// Executes a chain of loaded modules band by band and returns wall
/// milliseconds. modules[0] reads `inputs`; each later module reads only
/// its predecessor's output, as its one input; the last writes `output`.
/// The rows are cut into row_bands(output.size(), pool size) bands: one
/// band runs on the calling thread, more run on the host pool. For each
/// band, stage k computes the band's rows widened by the y radii of the
/// later stages (clipped to the image) into band-local scratch, so no
/// intermediate is ever full size (DESIGN.md §16).
///
/// Each call gets a virtual image: its input's base pointer at the first
/// row the stage may read, the virtual height of the rows the producer
/// wrote, and the rows to write. A virtual edge is the true edge wherever
/// the widened band was clipped and at least the stage's radius away from
/// the rows it writes elsewhere, so interior rows run the module's own
/// Body code and only a band at a true edge runs that edge's strips. The
/// remapped rows of clamp, mirror and constant stay inside the band;
/// repeat wraps to the opposite edge, so a chain of two or more stages
/// under repeat must run as one band (pipeline::KernelGraph::chains).
///
/// Every band checks the calling thread's stop time (common/stop.hpp)
/// before each strip and throws DeadlineExceeded once it passed.
f64 run_native_chain(std::span<const NativeModule* const> modules,
                     std::span<const Image<f32>* const> inputs,
                     Image<f32>& output);

/// As above with an explicit band count (>= 1; bands of ceil(rows / bands)
/// rows, empty tail bands skipped), for sweeps that compare band rules.
f64 run_native_chain(std::span<const NativeModule* const> modules,
                     std::span<const Image<f32>* const> inputs,
                     Image<f32>& output, i64 bands);

/// The one-stage chain: executes a loaded module over the image in
/// row_bands(output.size(), pool size) bands and returns wall milliseconds.
/// Exposed for benches that time the kernel without backend/cache plumbing
/// around it.
f64 run_native_module(const NativeModule& module,
                      std::span<const Image<f32>* const> inputs,
                      Image<f32>& output);

/// As above with an explicit band count.
f64 run_native_module(const NativeModule& module,
                      std::span<const Image<f32>* const> inputs,
                      Image<f32>& output, i64 bands);

}  // namespace ispb::exec
