// Emitter sweep over the CUDA printer: for every app stage x pattern x
// variant the kernel is structurally complete (region labels, parameters),
// well-formed source (the host compiler parses it behind a small CUDA
// shim), and spells every float constant as a literal that parses back to
// the same f32 bits. This guards the source-to-source surface that users
// actually read.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "codegen/cuda_printer.hpp"
#include "exec/jit.hpp"
#include "filters/filters.hpp"

namespace ispb::codegen {
namespace {

namespace fs = std::filesystem;

constexpr Variant kCudaVariants[] = {Variant::kNaive, Variant::kIsp,
                                     Variant::kIspWarp};

std::vector<StencilSpec> sweep_specs() {
  return {filters::gaussian_spec(3), filters::laplace_spec(5),
          filters::bilateral_spec(13), filters::sobel_dx_spec(),
          filters::sobel_magnitude_spec(), filters::atrous_spec(9),
          filters::tonemap_spec()};
}

/// Every stage of every paper app: gaussian3, laplace5, bilateral13,
/// sobel_dx/dy/magnitude, atrous3/5/9/17 and tonemap.
std::vector<StencilSpec> stage_specs() {
  std::vector<StencilSpec> specs;
  for (const filters::MultiKernelApp& app : filters::all_apps()) {
    for (const auto& stage : app.stages) specs.push_back(stage.spec);
  }
  return specs;
}

struct Kernel {
  std::string label;
  StencilSpec spec;
  CodegenOptions options;
  std::string source;
};

/// Every stage x pattern x CUDA variant, with a border constant whose
/// integer value a "%g"-style printer would spell as the invalid `7f`.
std::vector<Kernel> stage_kernels() {
  std::vector<Kernel> kernels;
  for (const StencilSpec& spec : stage_specs()) {
    for (BorderPattern pattern : kAllBorderPatterns) {
      for (Variant variant : kCudaVariants) {
        Kernel k{spec.name + "/" + std::string(to_string(pattern)) + "/" +
                     std::string(to_string(variant)),
                 spec,
                 {},
                 ""};
        k.options.pattern = pattern;
        k.options.variant = variant;
        k.options.border_constant = 7.0f;
        k.source = emit_cuda(spec, k.options);
        kernels.push_back(std::move(k));
      }
    }
  }
  return kernels;
}

TEST(PrinterSweep, CudaKernelsCarryTheirStructure) {
  for (const StencilSpec& spec : sweep_specs()) {
    for (BorderPattern pattern : kAllBorderPatterns) {
      for (Variant variant : kCudaVariants) {
        CodegenOptions opt;
        opt.pattern = pattern;
        opt.variant = variant;
        opt.border_constant = 1.5f;
        const std::string cuda = emit_cuda(spec, opt);
        ASSERT_FALSE(cuda.empty());
        // Declares every input and the output.
        for (i32 i = 0; i < spec.num_inputs; ++i) {
          const std::string in_name = "in" + std::to_string(i);
          ASSERT_NE(cuda.find(in_name), std::string::npos) << spec.name;
        }
        // ISP variants carry the full region structure.
        if (variant != Variant::kNaive) {
          for (Region r : kAllRegions) {
            const std::string label = std::string(to_string(r)) + ": {";
            ASSERT_NE(cuda.find(label), std::string::npos)
                << spec.name << "/" << to_string(pattern);
          }
        }
        if (variant == Variant::kIspWarp) {
          ASSERT_NE(cuda.find("w_l"), std::string::npos);
        }
      }
    }
  }
}

TEST(PrinterSweep, GeneratedIrMatchesEmittedRegionCount) {
  // The IR program and the emitted source must agree on which sections
  // exist (markers vs labels).
  for (const StencilSpec& spec : sweep_specs()) {
    CodegenOptions opt;
    opt.variant = Variant::kIsp;
    const ir::Program prog = generate_kernel(spec, opt);
    const std::string cuda = emit_cuda(spec, opt);
    for (Region r : kAllRegions) {
      EXPECT_NO_THROW((void)prog.marker_pc(to_string(r))) << spec.name;
      EXPECT_NE(cuda.find(std::string(to_string(r)) + ": {"),
                std::string::npos)
          << spec.name;
    }
  }
}

/// Just enough CUDA for a host C++ front end to parse a kernel: the
/// __global__ qualifier, the thread-identity built-ins and the device math
/// functions the C lowering calls.
constexpr const char* kCudaShim =
    "#define __global__\n"
    "struct ispb_uint3 { unsigned x, y, z; };\n"
    "extern const ispb_uint3 blockIdx, blockDim, threadIdx;\n"
    "extern \"C\" float fabsf(float);\n"
    "extern \"C\" float exp2f(float);\n"
    "extern \"C\" float log2f(float);\n"
    "extern \"C\" float sqrtf(float);\n";

// The JIT's host compiler parses every kernel (shim prepended) without an
// error: identifiers are identifiers and literals are literals.
TEST(PrinterSweep, CudaKernelsAreWellFormedSource) {
  const std::vector<Kernel> kernels = stage_kernels();
  const fs::path dir = fs::temp_directory_path() /
                       ("ispb-cuda-syntax-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string compiler = exec::resolved_compiler({});

  std::vector<std::string> errors(kernels.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < kernels.size();
           i = next.fetch_add(1)) {
        const fs::path src = dir / ("k" + std::to_string(i) + ".cpp");
        const fs::path log = dir / ("k" + std::to_string(i) + ".log");
        std::ofstream(src) << kCudaShim << kernels[i].source;
        const std::string cmd = "'" + compiler + "' -fsyntax-only -x c++ '" +
                                src.string() + "' > '" + log.string() +
                                "' 2>&1";
        if (std::system(cmd.c_str()) != 0) {
          // Read through rdbuf(): GCC 12 at -O2 reports a false
          // -Wnull-dereference inside istreambuf_iterator.
          std::ostringstream text;
          text << std::ifstream(log).rdbuf();
          errors[i] = text.str();
          if (errors[i].empty()) errors[i] = "compiler failed";
        }
      }
    });
  }
  for (std::thread& th : workers) th.join();
  std::error_code ec;
  fs::remove_all(dir, ec);

  std::size_t ok = 0;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    if (errors[i].empty()) {
      ++ok;
    } else {
      ADD_FAILURE() << kernels[i].label << ":\n" << errors[i];
    }
  }
  EXPECT_EQ(ok, kernels.size());
}

// Every kConst value, and the border constant wherever a guarded read
// substitutes it, appears as a literal that parses back to its exact bits
// (a 6-significant-digit rendering loses most of bilateral13's constants).
TEST(PrinterSweep, CudaConstantsRoundTripExactly) {
  const std::regex hex_float(R"(-?0x[0-9a-f]+(\.[0-9a-f]*)?p[-+][0-9]+f)");
  for (const Kernel& k : stage_kernels()) {
    std::set<u32> literals;
    for (auto it = std::sregex_iterator(k.source.begin(), k.source.end(),
                                        hex_float);
         it != std::sregex_iterator(); ++it) {
      literals.insert(std::bit_cast<u32>(std::strtof(it->str().c_str(),
                                                     nullptr)));
    }
    for (const Node& n : k.spec.nodes) {
      if (n.kind != NodeKind::kConst) continue;
      EXPECT_EQ(literals.count(std::bit_cast<u32>(n.value)), 1u)
          << k.label << ": constant " << n.value;
    }
    const bool guarded_reads = k.spec.window() != Window{1, 1};
    if (k.options.pattern == BorderPattern::kConstant && guarded_reads) {
      EXPECT_EQ(literals.count(std::bit_cast<u32>(k.options.border_constant)),
                1u)
          << k.label;
    }
  }
}

}  // namespace
}  // namespace ispb::codegen
