#include "exec/jit.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "codegen/cpp_printer.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb::exec {

namespace fs = std::filesystem;

namespace {

/// Flags every JIT TU gets; none of them changes a value bit (DESIGN.md
/// §16). -march=<jit_isa_level()> picks the widest vector ISA this CPU
/// runs: lanes execute the same IEEE single-precision ops as scalar code,
/// and the FMA it enables stays unused because -ffp-contract=off keeps the
/// emitted one-operation-per-statement sequence bit-identical to
/// StencilSpec::evaluate (no FMA fusing). -fvect-cost-model=dynamic lets
/// -O2 vectorize the guard-free Body loop, which -O2's default very-cheap
/// model rejects. --param vect-epilogues-nomask=0 runs a loop's leftover
/// iterations in scalar code instead of a second, narrower vector loop:
/// the same per-pixel ops, and AVX2 then costs no extra compile time.
/// -fno-math-errno only drops the errno store, so sqrtf inlines to the
/// correctly rounded instruction and vectorizes. -fno-trapping-math only
/// stops the compiler assuming FP exceptions trap, so it may if-convert the
/// min/max selects into vector compares and blends; the selects' values are
/// unchanged. Never -ffast-math, and never -march=native or -mtune: the
/// stem hashes this string, so it must name what it targets.
const std::string& fixed_flags() {
  static const std::string flags = [] {
    const std::string level(jit_isa_level());
    return "-O2 " + (level.empty() ? "" : "-march=" + level + " ") +
           "-fvect-cost-model=dynamic --param vect-epilogues-nomask=0 "
           "-fno-math-errno -fno-trapping-math -fPIC -shared "
           "-ffp-contract=off";
  }();
  return flags;
}

std::atomic<i64> g_open_modules{0};
std::atomic<u64> g_tmp_counter{0};

u64 fnv64(std::string_view text, u64 h = 14695981039346656037ull) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(u64 v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (i32 i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out.push_back(c);
    }
  }
  out += "'";
  return out;
}

std::string env_or(const char* name, std::string fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::string(v) : std::move(fallback);
}

/// The file the shell runs for `driver`: a name without '/' is looked up on
/// $PATH; anything else (or a name found nowhere) is returned as given.
std::string driver_path(const std::string& driver) {
  if (driver.find('/') != std::string::npos) return driver;
  const char* path = std::getenv("PATH");
  std::string_view dirs = path != nullptr ? path : "";
  while (!dirs.empty()) {
    const std::size_t colon = dirs.find(':');
    const std::string_view dir = dirs.substr(0, colon);
    dirs = colon == std::string_view::npos ? "" : dirs.substr(colon + 1);
    const fs::path candidate = fs::path(dir.empty() ? "." : dir) / driver;
    std::error_code ec;
    if (fs::is_regular_file(candidate, ec) &&
        ::access(candidate.c_str(), X_OK) == 0) {
      return candidate.string();
    }
  }
  return driver;
}

/// First line of `<driver> --version` ("" when it prints nothing), run once
/// per driver path per process: a toolchain upgrade changes the artifact
/// stem, so a shared cache dir never dlopens an object built by another
/// compiler.
std::string compiler_version(const std::string& compiler) {
  static std::mutex mu;
  static std::map<std::string, std::string> memo;
  const std::string path = driver_path(compiler);
  std::lock_guard lock(mu);
  if (const auto it = memo.find(path); it != memo.end()) return it->second;
  std::string line;
  const std::string cmd = shell_quote(path) + " --version 2>/dev/null";
  if (FILE* pipe = ::popen(cmd.c_str(), "r"); pipe != nullptr) {
    char buf[256];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) line = buf;
    ::pclose(pipe);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return memo.emplace(path, std::move(line)).first->second;
}

std::string jit_flags(const JitConfig& config) {
  return fixed_flags() +
         (config.extra_flags.empty() ? "" : " " + config.extra_flags);
}

/// The level `flags` compile at: the last -march= wins, as in the driver.
std::string march_of(std::string_view flags) {
  constexpr std::string_view kMarch = "-march=";
  const std::size_t at = flags.rfind(kMarch);
  if (at == std::string_view::npos) return "";
  const std::string_view rest = flags.substr(at + kMarch.size());
  return std::string(rest.substr(0, rest.find(' ')));
}

void write_file_or_throw(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open '" + path.string() + "' for writing");
  out << text;
  out.flush();
  if (!out) throw IoError("write to '" + path.string() + "' failed");
}

NativeModulePtr load_module(const fs::path& so_path, const std::string& symbol,
                            Window window) {
  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = dlerror();
    throw IoError("dlopen('" + so_path.string() +
                  "') failed: " + (err != nullptr ? err : "unknown error"));
  }
  void* sym = dlsym(handle, symbol.c_str());
  if (sym == nullptr) {
    const char* err = dlerror();
    dlclose(handle);
    throw IoError("dlsym('" + symbol +
                  "') failed: " + (err != nullptr ? err : "unknown error"));
  }
  auto module = std::make_shared<NativeModule>(
      handle, reinterpret_cast<NativeModule::KernelFn>(sym), so_path.string(),
      symbol, window);
  return module;
}

/// The directory `config` resolves to (creating nothing).
std::string resolved_cache_dir(const JitConfig& config) {
  if (!config.cache_dir.empty()) return config.cache_dir;
  const char* env = std::getenv("ISPB_JIT_DIR");
  if (env != nullptr && *env != '\0') return env;
  return (fs::temp_directory_path() / "ispb-jit-cache").string();
}

/// Shared naming between jit_compile and artifact_stem: the stem is a pure
/// function of the emitted source, the compiler driver, its version and the
/// flag set.
std::string compute_stem(const std::string& source, const std::string& symbol,
                         const JitConfig& config) {
  const std::string compiler = resolved_compiler(config);
  const u64 hash =
      fnv64(jit_flags(config),
            fnv64(compiler_version(compiler), fnv64(compiler, fnv64(source))));
  return symbol + "." + hex64(hash);
}

}  // namespace

std::string_view jit_isa_level() {
#if defined(__x86_64__)
  static const std::string_view level = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("x86-64-v3") ? "x86-64-v3" : "x86-64";
  }();
  return level;
#else
  return "";
#endif
}

std::string artifact_stem(const codegen::StencilSpec& spec,
                          const codegen::CodegenOptions& options,
                          const JitConfig& config) {
  return compute_stem(emit_cpp(spec, options),
                      cpp_kernel_symbol(spec, options), config);
}

std::string resolved_compiler(const JitConfig& config) {
  if (!config.compiler.empty()) return config.compiler;
  return env_or("ISPB_NATIVE_CXX", env_or("CXX", "c++"));
}

NativeModule::NativeModule(void* handle, KernelFn entry, std::string artifact,
                           std::string symbol, Window window)
    : handle_(handle),
      fn_(entry),
      artifact_(std::move(artifact)),
      symbol_(std::move(symbol)),
      window_(window) {
  ISPB_EXPECTS(handle_ != nullptr && fn_ != nullptr);
  g_open_modules.fetch_add(1, std::memory_order_relaxed);
}

NativeModule::~NativeModule() {
  dlclose(handle_);
  g_open_modules.fetch_sub(1, std::memory_order_relaxed);
}

i64 NativeModule::open_count() {
  return g_open_modules.load(std::memory_order_relaxed);
}

NativeModulePtr jit_compile(const codegen::StencilSpec& spec,
                            const codegen::CodegenOptions& options,
                            const JitConfig& config) {
  obs::ScopedSpan span("exec.native.compile", "compile");
  span.arg("kernel", spec.name);
  if (span.recording()) span.arg("isa", march_of(jit_flags(config)));

  // The fault point fires before any filesystem work, so an injected
  // toolchain failure is clean by construction; real failures below clean
  // up their temporaries explicitly.
  resilience::fault_point(
      "backend.compile",
      spec.name + "/" + std::string(codegen::to_string(options.variant)));

  const std::string source = emit_cpp(spec, options);
  const std::string symbol = cpp_kernel_symbol(spec, options);
  const fs::path dir = resolved_cache_dir(config);
  const std::string base = compute_stem(source, symbol, config);
  const fs::path so_path = dir / (base + ".so");

  obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
  std::error_code ec;
  if (fs::exists(so_path, ec)) {
    if (reg != nullptr) {
      reg->add("exec.native.disk_hits", 1.0, {{"kernel", spec.name}});
    }
    return load_module(so_path, symbol, spec.window());
  }

  fs::create_directories(dir, ec);
  if (ec) {
    throw IoError("cannot create JIT cache dir '" + dir.string() +
                  "': " + ec.message());
  }

  // Unique temp names per (process, call): concurrent compiles of the same
  // content race only on the final atomic rename, which either order wins.
  const std::string tag =
      std::to_string(::getpid()) + "." +
      std::to_string(g_tmp_counter.fetch_add(1, std::memory_order_relaxed));
  const fs::path cpp_tmp = dir / (base + ".cpp.tmp." + tag);
  const fs::path cpp_path = dir / (base + ".cpp");
  const fs::path so_tmp = dir / (base + ".so.tmp." + tag);
  const fs::path err_path = dir / (base + ".err." + tag);

  try {
    write_file_or_throw(cpp_tmp, source);
    fs::rename(cpp_tmp, cpp_path);

    const std::string cmd = shell_quote(resolved_compiler(config)) + " " +
                            jit_flags(config) + " -o " +
                            shell_quote(so_tmp.string()) + " " +
                            shell_quote(cpp_path.string()) + " 2> " +
                            shell_quote(err_path.string());
    const int status = std::system(cmd.c_str());
    if (status != 0) {
      std::string diag;
      {
        std::ifstream err(err_path);
        std::ostringstream buf;
        buf << err.rdbuf();
        diag = buf.str();
        if (diag.size() > 2000) diag.resize(2000);
      }
      throw IoError("native toolchain failed (status " +
                    std::to_string(status) + ") for '" + spec.name +
                    "': " + diag);
    }
    fs::rename(so_tmp, so_path);  // atomic: readers see whole artifacts only
    fs::remove(err_path, ec);
  } catch (...) {
    fs::remove(cpp_tmp, ec);
    fs::remove(so_tmp, ec);
    fs::remove(err_path, ec);
    throw;
  }

  if (reg != nullptr) {
    reg->add("exec.native.compiles", 1.0, {{"kernel", spec.name}});
  }
  return load_module(so_path, symbol, spec.window());
}

}  // namespace ispb::exec
