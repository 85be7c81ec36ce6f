// ExecutionBackend: the second execution engine behind one interface.
//
// The serving stack runs a compiled stencil in one of two ways:
//
//   InterpretedBackend — the existing path: dsl::compile_kernel lowers the
//   spec to IR, dsl::launch_on_sim interprets it per warp lane on the GPU
//   simulator. Keeps modeled time, occupancy and the per-region counters
//   the cost model validates against. The throughput ceiling.
//
//   NativeBackend — lowers the same spec through codegen::emit_cpp,
//   compiles it to a shared object (src/exec/jit), and executes the
//   dlopened function over row bands on the host thread pool. Outputs are
//   bit-identical to the interpreted path and the CPU reference (the
//   printer emits StencilSpec::evaluate's exact float sequence; the JIT
//   disables FP contraction); modeled GPU counters are *not* produced —
//   stats carry wall time only.
//
// Both backends resolve compiled artifacts through pipeline::KernelCache
// when one is supplied (single-flight, LRU, shared fingerprint keys) and
// compile directly when not. PipelineExecutor selects the backend per run
// (ExecutorConfig::backend, overridable per ServeRequest); native failures
// circuit-break to interpreted via the executor's resilience path.
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
  bool degenerate_fallback = false;
  Backend backend = Backend::kInterpreted;
  i32 regs_per_thread = 0;  ///< 0 for native (no register model)
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;
  [[nodiscard]] virtual Backend kind() const = 0;
  /// Executes `spec` over `output.size()` and defines every in-bounds
  /// output pixel, whatever `output` held before: callers may pass an
  /// Image(Size2, Uninitialized). Inputs must match the output size; throws
  /// ContractError on geometry violations (never retried or
  /// circuit-broken by the executor).
  virtual BackendRun run(const codegen::StencilSpec& spec,
                         const codegen::CodegenOptions& options,
                         const sim::DeviceSpec& device,
                         std::span<const Image<f32>* const> inputs,
                         Image<f32>& output, BlockSize block,
                         bool sampled) = 0;
};

/// Wraps dsl::compile_kernel + dsl::launch_on_sim; compiles through
/// `cache` when non-null. A `sampled` launch runs only a sample of the
/// blocks, so the output is zero-filled first and unsampled pixels read 0.
class InterpretedBackend final : public ExecutionBackend {
 public:
  explicit InterpretedBackend(pipeline::KernelCache* cache = nullptr)
      : cache_(cache) {}
  [[nodiscard]] Backend kind() const override { return Backend::kInterpreted; }
  BackendRun run(const codegen::StencilSpec& spec,
                 const codegen::CodegenOptions& options,
                 const sim::DeviceSpec& device,
                 std::span<const Image<f32>* const> inputs,
                 Image<f32>& output, BlockSize block, bool sampled) override;

 private:
  pipeline::KernelCache* cache_;
};

/// JIT path: resolves a NativeModule (through `cache` when non-null, else
/// jit_compile directly) and runs it over row bands on the host pool.
/// `sampled` is ignored — native runs always produce the full output.
class NativeBackend final : public ExecutionBackend {
 public:
  explicit NativeBackend(pipeline::KernelCache* cache = nullptr,
                         JitConfig jit = {})
      : cache_(cache), jit_(std::move(jit)) {}
  [[nodiscard]] Backend kind() const override { return Backend::kNative; }
  BackendRun run(const codegen::StencilSpec& spec,
                 const codegen::CodegenOptions& options,
                 const sim::DeviceSpec& device,
                 std::span<const Image<f32>* const> inputs,
                 Image<f32>& output, BlockSize block, bool sampled) override;

 private:
  pipeline::KernelCache* cache_;
  JitConfig jit_;
};

/// Executes a loaded module over the image, parallelized over row bands;
/// returns wall milliseconds. Exposed for benches that time the kernel
/// without backend/cache plumbing around it.
f64 run_native_module(const NativeModule& module,
                      std::span<const Image<f32>* const> inputs,
                      Image<f32>& output);

}  // namespace ispb::exec
