// Tests for the stencil compiler: spec construction, kernel generation
// (structure of naive / ISP / ISP-warp programs), cost measurement, and the
// CUDA source printer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "codegen/cuda_printer.hpp"
#include "codegen/kernel_gen.hpp"
#include "codegen/min_max.hpp"
#include "common/error.hpp"
#include "ir/regalloc.hpp"

namespace ispb::codegen {
namespace {

/// 3x3 box blur spec built by hand.
StencilSpec box3_spec() {
  SpecBuilder b("box3");
  const i32 coeff = b.constant(1.0f / 9.0f);
  i32 acc = -1;
  for (i32 dy = -1; dy <= 1; ++dy) {
    for (i32 dx = -1; dx <= 1; ++dx) {
      const i32 v = b.binary(NodeKind::kMul, b.read(0, dx, dy), coeff);
      acc = acc < 0 ? v : b.binary(NodeKind::kAdd, acc, v);
    }
  }
  return b.finish(acc);
}

TEST(StencilSpec, WindowDerivedFromReads) {
  const StencilSpec spec = box3_spec();
  EXPECT_EQ(spec.window(), (Window{3, 3}));
  EXPECT_EQ(spec.read_count(), 9);
}

TEST(StencilSpec, PointOpHasUnitWindow) {
  SpecBuilder b("point");
  const i32 v = b.read(0, 0, 0);
  const i32 two = b.constant(2.0f);
  const StencilSpec spec = b.finish(b.binary(NodeKind::kMul, v, two));
  EXPECT_EQ(spec.window(), (Window{1, 1}));
}

TEST(StencilSpec, ValidateRejectsBadGraphs) {
  StencilSpec s;
  s.name = "bad";
  EXPECT_THROW(s.validate(), ContractError);  // empty

  SpecBuilder b("bad2");
  const i32 v = b.read(0, 0, 0);
  (void)v;
  StencilSpec forward;
  forward.name = "forward";
  forward.num_inputs = 1;
  Node n;
  n.kind = NodeKind::kNeg;
  n.lhs = 1;  // operand after itself
  forward.nodes = {n};
  forward.output = 0;
  EXPECT_THROW(forward.validate(), ContractError);
}

TEST(StencilSpec, EvaluateMatchesHandComputation) {
  const StencilSpec spec = box3_spec();
  const f32 v = spec.evaluate([](i32, i32 dx, i32 dy) {
    return static_cast<f32>(dx + 3 * dy + 5);
  });
  // Sum over the window of (dx + 3dy + 5)/9 == 5 exactly in this symmetric
  // case up to float association; compute the same way instead.
  f32 expect = 0.0f;
  for (i32 dy = -1; dy <= 1; ++dy) {
    for (i32 dx = -1; dx <= 1; ++dx) {
      expect += static_cast<f32>(dx + 3 * dy + 5) * (1.0f / 9.0f);
    }
  }
  EXPECT_FLOAT_EQ(v, expect);
}

// The one min/max definition answers exactly as the host's libm does on
// every pair of special operands: signed zeros, infinities, NaN and the
// smallest subnormal. libm is called through volatile pointers: GCC treats
// fmax/fmin as commutative and may swap the operands of a direct call
// when optimizing, which flips the answer for +0 against -0.
TEST(MinMax, MatchesHostLibmOnSpecialValues) {
  using limits = std::numeric_limits<f32>;
  using LibmFn = f32 (*)(f32, f32);
  const LibmFn volatile libm_fmax = ::fmaxf;
  const LibmFn volatile libm_fmin = ::fminf;
  const f32 values[] = {0.0f,  -0.0f, 1.0f, -1.0f, limits::infinity(),
                        -limits::infinity(), limits::quiet_NaN(),
                        limits::denorm_min()};
  for (f32 a : values) {
    for (f32 b : values) {
      EXPECT_EQ(std::bit_cast<u32>(fmax_f32(a, b)),
                std::bit_cast<u32>(libm_fmax(a, b)))
          << "fmax(" << a << ", " << b << ")";
      EXPECT_EQ(std::bit_cast<u32>(fmin_f32(a, b)),
                std::bit_cast<u32>(libm_fmin(a, b)))
          << "fmin(" << a << ", " << b << ")";
    }
  }
}

TEST(SpecBuilder, RejectsOutOfRangeOperands) {
  SpecBuilder b("guard");
  EXPECT_THROW((void)b.read(1, 0, 0), ContractError);  // only 1 input
  EXPECT_THROW((void)b.unary(NodeKind::kNeg, 5), ContractError);
}

// ---- generation structure ----------------------------------------------------

TEST(KernelGen, NaiveHasSingleSection) {
  CodegenOptions opt;
  opt.variant = Variant::kNaive;
  const ir::Program prog = generate_kernel(box3_spec(), opt);
  EXPECT_NO_THROW((void)prog.marker_pc("Naive"));
  EXPECT_THROW((void)prog.marker_pc("Body"), ContractError);
  // Params: no partition bounds.
  EXPECT_THROW((void)prog.param_reg("bh_l"), ContractError);
  EXPECT_NO_THROW((void)prog.param_reg("sx"));
  EXPECT_EQ(prog.num_buffers, 2u);
}

TEST(KernelGen, IspHasNineMarkedSections) {
  CodegenOptions opt;
  opt.variant = Variant::kIsp;
  const ir::Program prog = generate_kernel(box3_spec(), opt);
  for (Region r : kAllRegions) {
    EXPECT_NO_THROW((void)prog.marker_pc(to_string(r))) << to_string(r);
  }
  EXPECT_NO_THROW((void)prog.param_reg("bh_l"));
  EXPECT_NO_THROW((void)prog.param_reg("bh_b"));
  EXPECT_THROW((void)prog.param_reg("w_l"), ContractError);
}

TEST(KernelGen, IspWarpDeclaresWarpBounds) {
  CodegenOptions opt;
  opt.variant = Variant::kIspWarp;
  const ir::Program prog = generate_kernel(box3_spec(), opt);
  EXPECT_NO_THROW((void)prog.param_reg("w_l"));
  EXPECT_NO_THROW((void)prog.param_reg("w_r"));
  // Warp index derivation uses a shift.
  EXPECT_GT(prog.static_inventory().of(ir::Op::kShr), 0);
}

TEST(KernelGen, BodySectionHasNoChecks) {
  // The whole point of ISP: the Body section must contain no min/max/setp
  // border clamping (Clamp pattern lowers checks to min/max).
  CodegenOptions opt;
  opt.variant = Variant::kIsp;
  opt.pattern = BorderPattern::kClamp;
  const ir::Program prog = generate_kernel(box3_spec(), opt);
  const u32 body = prog.marker_pc("Body");
  u32 end = static_cast<u32>(prog.code.size());
  for (const auto& [name, pc] : prog.markers) {
    (void)name;
    if (pc > body && pc < end) end = pc;
  }
  const ir::Inventory inv = prog.static_inventory(body, end);
  EXPECT_EQ(inv.of(ir::Op::kMin), 0);
  EXPECT_EQ(inv.of(ir::Op::kMax), 0);
  EXPECT_EQ(inv.of(ir::Op::kSetp), 0);
}

TEST(KernelGen, CornerSectionsCheckTwoSides) {
  CodegenOptions opt;
  opt.variant = Variant::kIsp;
  opt.pattern = BorderPattern::kClamp;
  const ir::Program prog = generate_kernel(box3_spec(), opt);
  const auto section_inv = [&prog](std::string_view name) {
    const u32 begin = prog.marker_pc(name);
    u32 end = static_cast<u32>(prog.code.size());
    for (const auto& [mname, pc] : prog.markers) {
      (void)mname;
      if (pc > begin && pc < end) end = pc;
    }
    return prog.static_inventory(begin, end);
  };
  const i64 tl_checks = section_inv("TL").of(ir::Op::kMax) +
                        section_inv("TL").of(ir::Op::kMin);
  const i64 l_checks = section_inv("L").of(ir::Op::kMax) +
                       section_inv("L").of(ir::Op::kMin);
  EXPECT_GT(tl_checks, l_checks);
  EXPECT_GT(l_checks, 0);
}

TEST(KernelGen, RepeatEmitsLoops) {
  CodegenOptions opt;
  opt.variant = Variant::kNaive;
  opt.pattern = BorderPattern::kRepeat;
  const ir::Program prog = generate_kernel(box3_spec(), opt);
  // Backward branches exist (the while loops of Listing 1).
  bool has_backedge = false;
  for (u32 pc = 0; pc < prog.code.size(); ++pc) {
    if (prog.code[pc].op == ir::Op::kBra && prog.code[pc].target <= pc) {
      has_backedge = true;
    }
  }
  EXPECT_TRUE(has_backedge);
}

TEST(KernelGen, ConstantBakesImmediate) {
  CodegenOptions opt;
  opt.variant = Variant::kNaive;
  opt.pattern = BorderPattern::kConstant;
  opt.border_constant = 42.5f;
  const ir::Program prog = generate_kernel(box3_spec(), opt);
  bool found = false;
  for (const ir::Instr& ins : prog.code) {
    if (ins.op == ir::Op::kMov && ins.a.is_imm() &&
        ins.a.imm.as_f32() == 42.5f) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(KernelGen, OptimizationShrinksNaiveKernel) {
  // The NVCC-CSE effect (Table I discussion): optimizing the naive kernel
  // must remove a substantial share of its redundant check arithmetic.
  CodegenOptions raw;
  raw.variant = Variant::kNaive;
  raw.optimize = false;
  CodegenOptions opt = raw;
  opt.optimize = true;
  const ir::Program unopt = generate_kernel(box3_spec(), raw);
  const ir::Program optimized = generate_kernel(box3_spec(), opt);
  EXPECT_LT(optimized.code.size(), unopt.code.size());
}

TEST(KernelGen, IspUsesMoreRegistersThanNaive) {
  // Table II's cost driver: the fat kernel keeps bounds + coordinates live
  // across the region switch.
  for (BorderPattern pattern : kAllBorderPatterns) {
    CodegenOptions naive_opt;
    naive_opt.variant = Variant::kNaive;
    naive_opt.pattern = pattern;
    CodegenOptions isp_opt = naive_opt;
    isp_opt.variant = Variant::kIsp;
    const i32 regs_naive =
        ir::allocate_registers(generate_kernel(box3_spec(), naive_opt))
            .registers;
    const i32 regs_isp =
        ir::allocate_registers(generate_kernel(box3_spec(), isp_opt))
            .registers;
    EXPECT_GE(regs_isp, regs_naive) << to_string(pattern);
  }
}

TEST(MeasureCosts, SaneRelations) {
  const StencilSpec spec = box3_spec();
  for (BorderPattern pattern : kAllBorderPatterns) {
    const MeasuredCosts costs = measure_costs(spec, pattern);
    EXPECT_GT(costs.kernel_per_tap, 0.0) << to_string(pattern);
    EXPECT_GT(costs.check_per_side, 0.0) << to_string(pattern);
    EXPECT_GT(costs.switch_per_test, 0.0) << to_string(pattern);
  }
  // Repeat checks are the most expensive (loops), Clamp the cheapest.
  const f64 repeat_cost =
      measure_costs(spec, BorderPattern::kRepeat).check_per_side;
  const f64 clamp_cost =
      measure_costs(spec, BorderPattern::kClamp).check_per_side;
  EXPECT_GT(repeat_cost, clamp_cost);
}

// ---- CUDA printer -------------------------------------------------------------

TEST(CudaPrinter, NaiveKernelStructure) {
  CodegenOptions opt;
  opt.variant = Variant::kNaive;
  const std::string cuda = emit_cuda(box3_spec(), opt);
  EXPECT_NE(cuda.find("__global__"), std::string::npos);
  EXPECT_NE(cuda.find("blockIdx.x * blockDim.x + threadIdx.x"),
            std::string::npos);
  EXPECT_NE(cuda.find("if (gx >= sx || gy >= sy) return;"), std::string::npos);
  EXPECT_EQ(cuda.find("goto TL"), std::string::npos);  // no region switch
}

TEST(CudaPrinter, IspKernelHasListing3Switch) {
  CodegenOptions opt;
  opt.variant = Variant::kIsp;
  const std::string cuda = emit_cuda(box3_spec(), opt);
  EXPECT_NE(cuda.find("if (blockIdx.x < bh_l && blockIdx.y < bh_t) goto TL;"),
            std::string::npos);
  EXPECT_NE(cuda.find("goto Body;"), std::string::npos);
  for (Region r : kAllRegions) {
    EXPECT_NE(cuda.find(std::string(to_string(r)) + ": {"), std::string::npos)
        << to_string(r);
  }
}

TEST(CudaPrinter, WarpVariantHasListing5Refinement) {
  CodegenOptions opt;
  opt.variant = Variant::kIspWarp;
  const std::string cuda = emit_cuda(box3_spec(), opt);
  EXPECT_NE(cuda.find("const int wx = threadIdx.x / 32;"), std::string::npos);
  EXPECT_NE(cuda.find("if (wx >= w_l) goto T;"), std::string::npos);
  EXPECT_NE(cuda.find("if (wx < w_r) goto Body;"), std::string::npos);
}

TEST(CudaPrinter, PatternsRenderTheirChecks) {
  CodegenOptions opt;
  opt.variant = Variant::kNaive;

  // The shared C lowering's spellings (codegen/c_lowering.hpp): an if-form
  // clamp and a hex-float border constant.
  opt.pattern = BorderPattern::kClamp;
  EXPECT_NE(emit_cuda(box3_spec(), opt).find("if (x0 < 0) x0 = 0;"),
            std::string::npos);

  opt.pattern = BorderPattern::kRepeat;
  EXPECT_NE(emit_cuda(box3_spec(), opt).find("while ("), std::string::npos);

  opt.pattern = BorderPattern::kMirror;
  EXPECT_NE(emit_cuda(box3_spec(), opt).find("2 * sx - "), std::string::npos);

  opt.pattern = BorderPattern::kConstant;
  opt.border_constant = 7.0f;
  const std::string cuda = emit_cuda(box3_spec(), opt);
  EXPECT_NE(cuda.find("float v0 = 0x1.cp+2f;"), std::string::npos);
}

TEST(CudaPrinter, HostSnippetHasEq2Bounds) {
  CodegenOptions opt;
  opt.variant = Variant::kIsp;
  const std::string host = emit_cuda_host(box3_spec(), opt);
  EXPECT_NE(host.find("bh_l = (rx + block.x - 1) / block.x"),
            std::string::npos);
  EXPECT_NE(host.find("grid((sx + block.x - 1) / block.x"), std::string::npos);
}

}  // namespace
}  // namespace ispb::codegen
