// JIT-to-shared-object plumbing for the native execution backend.
//
// jit_compile() lowers a (spec, options) pair through codegen::emit_cpp,
// shells out to the system C++ compiler to build a shared object, dlopens
// it and returns a refcounted NativeModule. On-disk artifacts live in a
// content-addressed cache directory (source hash in the file name), so a
// rebuilt process — or a KernelCache miss after eviction — reuses the .so
// without invoking the toolchain again.
//
// Crash/fault safety: the object is compiled to a unique temporary path and
// atomically renamed into place, so a failing (or fault-injected) compile
// never leaves a partial artifact behind — the `backend.compile` fault
// point fires before anything touches the disk, and real toolchain
// failures unlink their temporaries before throwing IoError.
//
// Bit-exactness: the TU is compiled with -ffp-contract=off (no FMA
// fusing) and no fast-math, so the emitted single-operation statements
// execute exactly the float sequence of StencilSpec::evaluate — in vector
// lanes too: the ISA level (-march=x86-64-v3 where cpuid reports it), the
// dynamic vectorizer cost model, scalar epilogues, -fno-math-errno and
// -fno-trapping-math change which instructions run, never which values
// they produce.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "codegen/kernel_gen.hpp"
#include "codegen/stencil_spec.hpp"
#include "common/types.hpp"

namespace ispb::exec {

/// Where and how jit_compile builds.
struct JitConfig {
  /// Artifact directory; "" = $ISPB_JIT_DIR or <system tmp>/ispb-jit-cache.
  /// An artifact already there is reused; tests that must observe real
  /// compiles point this at a fresh directory.
  std::string cache_dir;
  /// Compiler driver; "" = $ISPB_NATIVE_CXX, else $CXX, else "c++".
  std::string compiler;
  /// Flags appended after the fixed set (-O2 -march=<jit_isa_level()>
  /// -fvect-cost-model=dynamic --param vect-epilogues-nomask=0
  /// -fno-math-errno -fno-trapping-math -fPIC -shared -ffp-contract=off),
  /// so they win where they conflict. Tests pass "-O0" to keep big TUs'
  /// compile time down, or "-march=x86-64" to run at the baseline level;
  /// production passes nothing. Part of the artifact stem. Anything added
  /// here must keep value bits: never -ffast-math or -ffp-contract=fast.
  std::string extra_flags;
};

/// The x86-64 level the JIT targets, chosen once per process from cpuid:
/// "x86-64-v3" (AVX2, FMA) when the CPU supports it, else baseline
/// "x86-64". The fixed flag set spells it as -march=<level>, never
/// -march=native, so the artifact stem hashes it and a host without AVX2
/// never loads a v3 object from a shared cache. "" when the library is not
/// built for x86-64: the JIT then adds no -march.
[[nodiscard]] std::string_view jit_isa_level();

/// The compiler driver `config` resolves to (see JitConfig::compiler).
[[nodiscard]] std::string resolved_compiler(const JitConfig& config);

/// The artifact stem ("<symbol>.<hash>", no directory or extension)
/// jit_compile would use for (spec, options, config) — computed without
/// compiling or touching the disk. The hash covers the emitted source, the
/// compiler driver, the first line of its `--version` (run once per driver
/// path per process) and the flag set.
[[nodiscard]] std::string artifact_stem(const codegen::StencilSpec& spec,
                                        const codegen::CodegenOptions& options,
                                        const JitConfig& config = {});

/// A dlopened kernel module. Refcount via shared_ptr: the handle is
/// dlclosed when the last reference drops, so KernelCache eviction is safe
/// while an executor still runs the function.
class NativeModule {
 public:
  /// Emitted entry point: compute output rows [y_begin, y_end).
  using KernelFn = void (*)(const float* const* in, const int* pitch_in,
                            float* out, int pitch_out, i32 sx, i32 sy,
                            i32 y_begin, i32 y_end);

  NativeModule(void* handle, KernelFn entry, std::string artifact,
               std::string symbol, Window window);
  ~NativeModule();

  NativeModule(const NativeModule&) = delete;
  NativeModule& operator=(const NativeModule&) = delete;

  [[nodiscard]] KernelFn fn() const { return fn_; }
  [[nodiscard]] const std::string& artifact_path() const { return artifact_; }
  [[nodiscard]] const std::string& symbol() const { return symbol_; }
  /// The compiled spec's window: an output row reads input rows at most
  /// window().radius_y() above and below it (exec::run_native_chain sizes
  /// each band's halo from this).
  [[nodiscard]] Window window() const { return window_; }

  /// Live dlopened modules in the process (eviction-safety tests).
  [[nodiscard]] static i64 open_count();

 private:
  void* handle_ = nullptr;
  KernelFn fn_ = nullptr;
  std::string artifact_;
  std::string symbol_;
  Window window_;
};

using NativeModulePtr = std::shared_ptr<const NativeModule>;

/// Lowers, compiles, links and loads one kernel. Throws IoError on
/// toolchain or loader failure; fires the `backend.compile` fault point
/// (detail "<kernel>/<variant>") before touching the filesystem.
[[nodiscard]] NativeModulePtr jit_compile(const codegen::StencilSpec& spec,
                                          const codegen::CodegenOptions& options,
                                          const JitConfig& config = {});

}  // namespace ispb::exec
