#include "codegen/kernel_gen.hpp"

#include <map>
#include <tuple>

#include "common/error.hpp"
#include "ir/analysis/checkers.hpp"
#include "ir/builder.hpp"
#include "ir/passes.hpp"
#include "obs/trace.hpp"

namespace ispb::codegen {

using ir::Builder;
using ir::Cmp;
using ir::Op;
using ir::Operand;
using ir::RegId;
using ir::Type;

std::string_view to_string(Variant v) {
  switch (v) {
    case Variant::kNaive:
      return "naive";
    case Variant::kIsp:
      return "isp";
    case Variant::kIspWarp:
      return "isp-warp";
    case Variant::kIspTiled:
      return "isp-tiled";
  }
  return "?";
}

namespace {

/// Register handles shared by every section of one kernel.
struct KernelCtx {
  RegId tidx{}, tidy{}, bx{}, by{};
  RegId sx{}, sy{};
  std::vector<RegId> pitch_in;
  RegId pitch_out{};
  RegId ntidx{}, ntidy{};
  RegId bh_l{}, bh_r{}, bh_t{}, bh_b{};
  RegId w_l{}, w_r{};
  RegId gx{}, gy{};
  std::vector<u8> in_buffers;
  u8 out_buffer = 0;
};

/// Shared-memory tile context of the kIspTiled Body section: when present,
/// emit_read resolves taps into the staged tile instead of global memory.
struct TileCtx {
  i32 rx = 0;      ///< halo radius x
  i32 ry = 0;      ///< halo radius y
  i32 tw = 0;      ///< tile width: tile_block.tx + 2*rx
  i32 elems = 0;   ///< words per staged input (tw * th)
  RegId t_base{};  ///< tid.y * tw + tid.x, hoisted before the compute phase
};

/// Emits the border-mapped coordinate for `base + d` along one axis for the
/// remapping patterns (everything except Constant). `check_low`/`check_high`
/// say whether this section must guard the respective side for this tap.
RegId emit_mapped_axis(Builder& b, BorderPattern pattern, RegId base, i32 d,
                       RegId size, bool check_low, bool check_high) {
  if (d == 0 && !check_low && !check_high) return base;
  RegId ix = d == 0 ? base
                    : b.emit(Op::kAdd, Type::kI32, Operand::r(base),
                             Operand::imm_i32(d));
  if (!check_low && !check_high) return ix;

  switch (pattern) {
    case BorderPattern::kClamp: {
      if (check_low) {
        ix = b.emit(Op::kMax, Type::kI32, Operand::r(ix), Operand::imm_i32(0));
      }
      if (check_high) {
        const RegId limit =
            b.emit(Op::kSub, Type::kI32, Operand::r(size), Operand::imm_i32(1));
        ix = b.emit(Op::kMin, Type::kI32, Operand::r(ix), Operand::r(limit));
      }
      return ix;
    }
    case BorderPattern::kMirror: {
      if (check_low) {
        // Edge-inclusive reflection: x < 0 -> -x-1 == ~x (one xor).
        const RegId p = b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(ix),
                                    Operand::imm_i32(0));
        const RegId reflected =
            b.emit(Op::kXor, Type::kI32, Operand::r(ix), Operand::imm_i32(-1));
        ix = b.emit_selp(Type::kI32, Operand::r(reflected), Operand::r(ix), p);
      }
      if (check_high) {
        // x >= s -> 2s - 1 - x.
        const RegId p = b.emit_setp(Cmp::kGe, Type::kI32, Operand::r(ix),
                                    Operand::r(size));
        const RegId twice =
            b.emit(Op::kAdd, Type::kI32, Operand::r(size), Operand::r(size));
        const RegId limit = b.emit(Op::kSub, Type::kI32, Operand::r(twice),
                                   Operand::imm_i32(1));
        const RegId reflected =
            b.emit(Op::kSub, Type::kI32, Operand::r(limit), Operand::r(ix));
        ix = b.emit_selp(Type::kI32, Operand::r(reflected), Operand::r(ix), p);
      }
      return ix;
    }
    case BorderPattern::kRepeat: {
      // Listing 1's data-dependent while loops.
      if (check_low) {
        const auto head = b.make_label();
        const auto done = b.make_label();
        b.bind(head);
        const RegId p = b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(ix),
                                    Operand::imm_i32(0));
        b.br_unless(p, done);
        b.emit_to(ix, Op::kAdd, Type::kI32, Operand::r(ix), Operand::r(size));
        b.br(head);
        b.bind(done);
      }
      if (check_high) {
        const auto head = b.make_label();
        const auto done = b.make_label();
        b.bind(head);
        const RegId p = b.emit_setp(Cmp::kGe, Type::kI32, Operand::r(ix),
                                    Operand::r(size));
        b.br_unless(p, done);
        b.emit_to(ix, Op::kSub, Type::kI32, Operand::r(ix), Operand::r(size));
        b.br(head);
        b.bind(done);
      }
      return ix;
    }
    case BorderPattern::kConstant:
      break;  // handled by emit_read's guarded-load path
  }
  throw ContractError("emit_mapped_axis called for the Constant pattern");
}

/// Emits one border-handled read and returns the value register. With a
/// TileCtx (the kIspTiled Body section) the tap reads the staged smem tile
/// at a per-lane constant offset instead of global memory.
RegId emit_read(Builder& b, const KernelCtx& ctx, const CodegenOptions& opt,
                Side sides, i32 input, i32 dx, i32 dy,
                const TileCtx* tile = nullptr) {
  if (tile != nullptr) {
    // smem[(tid.y + ry + dy) * tw + (tid.x + rx + dx) + input * elems]:
    // everything but t_base folds into one immediate.
    const i32 off = (tile->ry + dy) * tile->tw + (tile->rx + dx) +
                    input * tile->elems;
    const RegId addr =
        off == 0 ? tile->t_base
                 : b.emit(Op::kAdd, Type::kI32, Operand::r(tile->t_base),
                          Operand::imm_i32(off));
    return b.emit_smem_ld(addr);
  }
  // Checks are sign-AGNOSTIC, like the generic border functions of
  // Listing 1: a section flagged for a side applies that side's remap to
  // every access with a window offset. NVCC cannot drop such checks (image
  // extents are runtime values), and on in-bounds coordinates the remaps are
  // the identity, so correctness is unaffected; CSE later merges the checks
  // of taps sharing a coordinate — exactly the paper's Table I observation.
  // Sign specialization would let the naive kernel shed nearly all checks at
  // compile time, which real source-level border handling cannot do. The
  // exception is the centered (0,0) read: it is the guard-proven thread
  // coordinate itself, and point accessors carry no boundary condition at
  // all in Hipacc, so it is never checked.
  const bool center = dx == 0 && dy == 0;
  const bool check_l = !center && has_side(sides, Side::kLeft);
  const bool check_r = !center && has_side(sides, Side::kRight);
  const bool check_t = !center && has_side(sides, Side::kTop);
  const bool check_b = !center && has_side(sides, Side::kBottom);
  const u8 buffer = ctx.in_buffers[static_cast<std::size_t>(input)];
  const RegId pitch = ctx.pitch_in[static_cast<std::size_t>(input)];

  if (opt.pattern != BorderPattern::kConstant) {
    const RegId ix = emit_mapped_axis(b, opt.pattern, ctx.gx, dx, ctx.sx,
                                      check_l, check_r);
    const RegId iy = emit_mapped_axis(b, opt.pattern, ctx.gy, dy, ctx.sy,
                                      check_t, check_b);
    const RegId addr = b.emit(Op::kMad, Type::kI32, Operand::r(iy),
                              Operand::r(pitch), Operand::r(ix));
    return b.emit_ld(buffer, addr);
  }

  // Constant pattern: no remapping; the load is skipped out of bounds and
  // the user constant substituted (Listing 1's check-then-read form).
  const RegId ix = dx == 0 ? ctx.gx
                           : b.emit(Op::kAdd, Type::kI32, Operand::r(ctx.gx),
                                    Operand::imm_i32(dx));
  const RegId iy = dy == 0 ? ctx.gy
                           : b.emit(Op::kAdd, Type::kI32, Operand::r(ctx.gy),
                                    Operand::imm_i32(dy));
  RegId oob = ir::kNoReg;
  const auto accumulate = [&](RegId p) {
    oob = oob == ir::kNoReg
              ? p
              : b.emit(Op::kOr, Type::kPred, Operand::r(oob), Operand::r(p));
  };
  if (check_l) {
    accumulate(
        b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(ix), Operand::imm_i32(0)));
  }
  if (check_r) {
    accumulate(
        b.emit_setp(Cmp::kGe, Type::kI32, Operand::r(ix), Operand::r(ctx.sx)));
  }
  if (check_t) {
    accumulate(
        b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(iy), Operand::imm_i32(0)));
  }
  if (check_b) {
    accumulate(
        b.emit_setp(Cmp::kGe, Type::kI32, Operand::r(iy), Operand::r(ctx.sy)));
  }

  if (oob == ir::kNoReg) {
    const RegId addr = b.emit(Op::kMad, Type::kI32, Operand::r(iy),
                              Operand::r(pitch), Operand::r(ix));
    return b.emit_ld(buffer, addr);
  }

  // val = constant; if (!oob) val = load;  (val is multi-def by design)
  const RegId val =
      b.emit(Op::kMov, Type::kF32, Operand::imm_f32(opt.border_constant));
  const auto skip = b.make_label();
  b.br_if(oob, skip);
  const RegId addr = b.emit(Op::kMad, Type::kI32, Operand::r(iy),
                            Operand::r(pitch), Operand::r(ix));
  const RegId loaded = b.emit_ld(buffer, addr);
  b.emit_to(val, Op::kMov, Type::kF32, Operand::r(loaded));
  b.bind(skip);
  return val;
}

/// Emits the full stencil computation specialized for `sides` and jumps to
/// `exit` afterwards.
void emit_section(Builder& b, const StencilSpec& spec, const KernelCtx& ctx,
                  const CodegenOptions& opt, Side sides, Builder::Label exit,
                  const TileCtx* tile = nullptr) {
  std::map<std::tuple<i32, i32, i32>, RegId> read_cache;
  std::vector<RegId> node_reg(spec.nodes.size(), ir::kNoReg);

  // Rolled-loop modeling: one basic block per window row (see
  // CodegenOptions::row_blocks). The boundary is an unconditional branch to
  // the next instruction — the analogue of the loop's backedge.
  bool have_row = false;
  i32 current_row = 0;
  const auto row_boundary = [&](i32 dy) {
    if (!opt.row_blocks) return;
    if (have_row && dy == current_row) return;
    if (have_row) {
      const auto next = b.make_label();
      b.br(next);
      b.bind(next);
    }
    have_row = true;
    current_row = dy;
  };

  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    const Node& n = spec.nodes[i];
    if (n.kind == NodeKind::kRead) row_boundary(n.dy);
    const Operand a =
        n.lhs >= 0 ? Operand::r(node_reg[static_cast<std::size_t>(n.lhs)])
                   : Operand::none();
    const Operand rhs =
        n.rhs >= 0 ? Operand::r(node_reg[static_cast<std::size_t>(n.rhs)])
                   : Operand::none();
    switch (n.kind) {
      case NodeKind::kRead: {
        const auto key = std::tuple{n.input, n.dx, n.dy};
        const auto it = read_cache.find(key);
        if (it != read_cache.end()) {
          node_reg[i] = it->second;
        } else {
          node_reg[i] =
              emit_read(b, ctx, opt, sides, n.input, n.dx, n.dy, tile);
          read_cache.emplace(key, node_reg[i]);
        }
        break;
      }
      case NodeKind::kConst:
        node_reg[i] =
            b.emit(Op::kMov, Type::kF32, Operand::imm_f32(n.value));
        break;
      case NodeKind::kAdd:
        node_reg[i] = b.emit(Op::kAdd, Type::kF32, a, rhs);
        break;
      case NodeKind::kSub:
        node_reg[i] = b.emit(Op::kSub, Type::kF32, a, rhs);
        break;
      case NodeKind::kMul:
        node_reg[i] = b.emit(Op::kMul, Type::kF32, a, rhs);
        break;
      case NodeKind::kDiv:
        node_reg[i] = b.emit(Op::kDiv, Type::kF32, a, rhs);
        break;
      case NodeKind::kMin:
        node_reg[i] = b.emit(Op::kMin, Type::kF32, a, rhs);
        break;
      case NodeKind::kMax:
        node_reg[i] = b.emit(Op::kMax, Type::kF32, a, rhs);
        break;
      case NodeKind::kNeg:
        node_reg[i] = b.emit(Op::kNeg, Type::kF32, a);
        break;
      case NodeKind::kAbs:
        node_reg[i] = b.emit(Op::kAbs, Type::kF32, a);
        break;
      case NodeKind::kExp2:
        node_reg[i] = b.emit(Op::kEx2, Type::kF32, a);
        break;
      case NodeKind::kLog2:
        node_reg[i] = b.emit(Op::kLg2, Type::kF32, a);
        break;
      case NodeKind::kSqrt:
        node_reg[i] = b.emit(Op::kSqrt, Type::kF32, a);
        break;
      case NodeKind::kRcp:
        node_reg[i] = b.emit(Op::kRcp, Type::kF32, a);
        break;
    }
  }

  const RegId addr = b.emit(Op::kMad, Type::kI32, Operand::r(ctx.gy),
                            Operand::r(ctx.pitch_out), Operand::r(ctx.gx));
  b.emit_st(ctx.out_buffer, addr,
            Operand::r(node_reg[static_cast<std::size_t>(spec.output)]));
  b.br(exit);
}

/// Stages the halo-extended input tile of a Body block into shared memory
/// and ends with the block-wide barrier (kIspTiled). The 2D strided loop is
/// fully unrolled over compile-time trip counts; a stride that overhangs the
/// tile clamps to the last row/column instead of branching, so overhanging
/// lanes re-stage an edge element they already wrote (same address, same
/// value — benign) and the section stays guard-free with piecewise-affine
/// addresses. Body blocks have the whole halo footprint in bounds by
/// Eq. (2), so no border remapping is needed either.
TileCtx emit_tile_staging(Builder& b, const StencilSpec& spec,
                          const KernelCtx& ctx, const CodegenOptions& opt,
                          i32 rx, i32 ry) {
  const i32 btx = opt.tile_block.tx;
  const i32 bty = opt.tile_block.ty;
  const i32 tw = btx + 2 * rx;
  const i32 th = bty + 2 * ry;
  TileCtx tile;
  tile.rx = rx;
  tile.ry = ry;
  tile.tw = tw;
  tile.elems = tw * th;

  // Tile origin in the image: the block's first pixel minus the halo.
  RegId ox = b.emit(Op::kMul, Type::kI32, Operand::r(ctx.bx),
                    Operand::r(ctx.ntidx));
  if (rx != 0) {
    ox = b.emit(Op::kSub, Type::kI32, Operand::r(ox), Operand::imm_i32(rx));
  }
  RegId oy = b.emit(Op::kMul, Type::kI32, Operand::r(ctx.by),
                    Operand::r(ctx.ntidy));
  if (ry != 0) {
    oy = b.emit(Op::kSub, Type::kI32, Operand::r(oy), Operand::imm_i32(ry));
  }

  for (i32 jj = 0; jj * bty < th; ++jj) {
    RegId j = jj == 0 ? ctx.tidy
                      : b.emit(Op::kAdd, Type::kI32, Operand::r(ctx.tidy),
                               Operand::imm_i32(jj * bty));
    if ((jj + 1) * bty > th) {
      j = b.emit(Op::kMin, Type::kI32, Operand::r(j), Operand::imm_i32(th - 1));
    }
    const RegId gys = b.emit(Op::kAdd, Type::kI32, Operand::r(oy),
                             Operand::r(j));
    for (i32 ii = 0; ii * btx < tw; ++ii) {
      RegId i = ii == 0 ? ctx.tidx
                        : b.emit(Op::kAdd, Type::kI32, Operand::r(ctx.tidx),
                                 Operand::imm_i32(ii * btx));
      if ((ii + 1) * btx > tw) {
        i = b.emit(Op::kMin, Type::kI32, Operand::r(i),
                   Operand::imm_i32(tw - 1));
      }
      const RegId idx = b.emit(Op::kMad, Type::kI32, Operand::r(j),
                               Operand::imm_i32(tw), Operand::r(i));
      const RegId gxs = b.emit(Op::kAdd, Type::kI32, Operand::r(ox),
                               Operand::r(i));
      for (i32 input = 0; input < spec.num_inputs; ++input) {
        const RegId gaddr =
            b.emit(Op::kMad, Type::kI32, Operand::r(gys),
                   Operand::r(ctx.pitch_in[static_cast<std::size_t>(input)]),
                   Operand::r(gxs));
        const RegId v = b.emit_ld(
            ctx.in_buffers[static_cast<std::size_t>(input)], gaddr);
        const RegId saddr =
            input == 0 ? idx
                       : b.emit(Op::kAdd, Type::kI32, Operand::r(idx),
                                Operand::imm_i32(input * tile.elems));
        b.emit_smem_st(saddr, Operand::r(v));
      }
    }
  }
  b.emit_bar();
  tile.t_base = b.emit(Op::kMad, Type::kI32, Operand::r(ctx.tidy),
                       Operand::imm_i32(tw), Operand::r(ctx.tidx));
  return tile;
}

}  // namespace

ir::Program generate_kernel(const StencilSpec& spec,
                            const CodegenOptions& opt) {
  spec.validate();
  obs::ScopedSpan span("codegen.generate_kernel", "compile");
  Builder b(spec.name + "_" + std::string(to_string(opt.variant)) + "_" +
            std::string(to_string(opt.pattern)));

  KernelCtx ctx;
  ctx.tidx = b.add_special("tid.x");
  ctx.tidy = b.add_special("tid.y");
  ctx.bx = b.add_special("ctaid.x");
  ctx.by = b.add_special("ctaid.y");

  ctx.sx = b.add_param("sx");
  ctx.sy = b.add_param("sy");
  for (i32 i = 0; i < spec.num_inputs; ++i) {
    ctx.pitch_in.push_back(b.add_param("pitch_in" + std::to_string(i)));
  }
  ctx.pitch_out = b.add_param("pitch_out");
  ctx.ntidx = b.add_param("ntid.x");
  ctx.ntidy = b.add_param("ntid.y");
  const bool isp = opt.variant != Variant::kNaive;
  if (isp) {
    ctx.bh_l = b.add_param("bh_l");
    ctx.bh_r = b.add_param("bh_r");
    ctx.bh_t = b.add_param("bh_t");
    ctx.bh_b = b.add_param("bh_b");
  }
  if (opt.variant == Variant::kIspWarp) {
    ctx.w_l = b.add_param("w_l");
    ctx.w_r = b.add_param("w_r");
  }
  for (i32 i = 0; i < spec.num_inputs; ++i) {
    ctx.in_buffers.push_back(b.add_buffer());
  }
  ctx.out_buffer = b.add_buffer();

  // kIspTiled: reserve the halo-extended tile, one slab per input. Staging
  // needs a nonzero radius on both axes; otherwise the generated code
  // matches kIsp exactly (no smem, no barrier). A zero-radius window has no
  // halo to stage, and along a zero-radius axis Eq. (2) puts the partial
  // last block column (row) in the Body, whose lanes past the image edge
  // exit in the prologue and could never reach the staging barrier.
  const Window win = spec.window();
  const bool staged = opt.variant == Variant::kIspTiled &&
                      win.radius_x() > 0 && win.radius_y() > 0;
  if (staged) {
    ISPB_EXPECTS(opt.tile_block.tx > 0 && opt.tile_block.ty > 0);
    const i32 tw = opt.tile_block.tx + 2 * win.radius_x();
    const i32 th = opt.tile_block.ty + 2 * win.radius_y();
    b.declare_smem(static_cast<u32>(tw) * static_cast<u32>(th) *
                   static_cast<u32>(spec.num_inputs));
  }

  // Prologue: global coordinates + iteration-space guard.
  const auto exit = b.make_label();
  ctx.gx = b.emit(Op::kMad, Type::kI32, Operand::r(ctx.bx),
                  Operand::r(ctx.ntidx), Operand::r(ctx.tidx));
  ctx.gy = b.emit(Op::kMad, Type::kI32, Operand::r(ctx.by),
                  Operand::r(ctx.ntidy), Operand::r(ctx.tidy));
  const RegId in_x =
      b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(ctx.gx), Operand::r(ctx.sx));
  b.br_unless(in_x, exit);
  const RegId in_y =
      b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(ctx.gy), Operand::r(ctx.sy));
  b.br_unless(in_y, exit);

  if (!isp) {
    b.marker("Naive");
    emit_section(b, spec, ctx, opt, kAllSides, exit);
  } else {
    // Region switch (Listing 3 / Listing 5).
    std::map<Region, Builder::Label> section;
    for (Region r : kAllRegions) section[r] = b.make_label();

    RegId pl = b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(ctx.bx),
                           Operand::r(ctx.bh_l));
    const RegId pt = b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(ctx.by),
                                 Operand::r(ctx.bh_t));
    RegId pr = b.emit_setp(Cmp::kGe, Type::kI32, Operand::r(ctx.bx),
                           Operand::r(ctx.bh_r));
    const RegId pb = b.emit_setp(Cmp::kGe, Type::kI32, Operand::r(ctx.by),
                                 Operand::r(ctx.bh_b));

    if (opt.variant == Variant::kIspWarp) {
      // Listing 5, folded into the block predicates: a warp whose lanes are
      // provably inside the horizontal bounds behaves like a Body-column
      // warp, so the standard Listing 3 chain routes it to the cheaper
      // region automatically (TL -> T, L -> Body, ...).
      ISPB_EXPECTS(opt.warp_width > 0 &&
                   (opt.warp_width & (opt.warp_width - 1)) == 0);
      i32 shift = 0;
      while ((1 << shift) < opt.warp_width) ++shift;
      const RegId wx = b.emit(Op::kShr, Type::kI32, Operand::r(ctx.tidx),
                              Operand::imm_i32(shift));
      const RegId unsafe_l = b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(wx),
                                         Operand::r(ctx.w_l));
      const RegId unsafe_r = b.emit_setp(Cmp::kGe, Type::kI32, Operand::r(wx),
                                         Operand::r(ctx.w_r));
      pl = b.emit(Op::kAnd, Type::kPred, Operand::r(pl), Operand::r(unsafe_l));
      pr = b.emit(Op::kAnd, Type::kPred, Operand::r(pr), Operand::r(unsafe_r));
    }

    const RegId p_tl =
        b.emit(Op::kAnd, Type::kPred, Operand::r(pl), Operand::r(pt));
    b.br_if(p_tl, section[Region::kTL]);
    const RegId p_tr =
        b.emit(Op::kAnd, Type::kPred, Operand::r(pr), Operand::r(pt));
    b.br_if(p_tr, section[Region::kTR]);
    b.br_if(pt, section[Region::kT]);
    const RegId p_bl =
        b.emit(Op::kAnd, Type::kPred, Operand::r(pb), Operand::r(pl));
    b.br_if(p_bl, section[Region::kBL]);
    const RegId p_br =
        b.emit(Op::kAnd, Type::kPred, Operand::r(pb), Operand::r(pr));
    b.br_if(p_br, section[Region::kBR]);
    b.br_if(pb, section[Region::kB]);
    b.br_if(pr, section[Region::kR]);
    b.br_if(pl, section[Region::kL]);
    b.br(section[Region::kBody]);

    for (Region r : kAllRegions) {
      b.bind(section[r]);
      if (r == Region::kBody && staged) {
        // The staging loop is its own marked section: its trip-count
        // clamps and loop branches are loop control, not border handling,
        // so the "Body" section keeps the paper's zero-residual-guard
        // property for the compute phase.
        b.marker("BodyStage");
        const TileCtx tile = emit_tile_staging(b, spec, ctx, opt,
                                               win.radius_x(), win.radius_y());
        b.marker(std::string(to_string(r)));
        emit_section(b, spec, ctx, opt, region_sides(r), exit, &tile);
      } else {
        b.marker(std::string(to_string(r)));
        emit_section(b, spec, ctx, opt, region_sides(r), exit);
      }
    }
  }

  b.marker("Exit");
  b.bind(exit);
  b.ret();

  ir::Program prog = b.finish();
  prog.annotations.emplace_back("app", spec.name);
  prog.annotations.emplace_back("variant", std::string(to_string(opt.variant)));
  prog.annotations.emplace_back("pattern", std::string(to_string(opt.pattern)));
  if (opt.variant == Variant::kIspWarp) {
    prog.annotations.emplace_back("warp_width", std::to_string(opt.warp_width));
  }
  if (opt.variant == Variant::kIspTiled) {
    prog.annotations.emplace_back("tile_block",
                                  std::to_string(opt.tile_block.tx) + "x" +
                                      std::to_string(opt.tile_block.ty));
  }
  if (opt.optimize) {
    (void)ir::optimize(prog);
#ifndef NDEBUG
    analysis::assert_optimized_clean(prog);
#endif
  }
  if (span.recording()) {
    span.arg("kernel", prog.name);
    span.arg("instrs", static_cast<i64>(prog.code.size()));
  }
  return prog;
}

ir::Program generate_region_kernel(const StencilSpec& spec,
                                   const CodegenOptions& opt, Region region) {
  spec.validate();
  obs::ScopedSpan span("codegen.generate_region_kernel", "compile");
  Builder b(spec.name + "_region_" + std::string(to_string(region)) + "_" +
            std::string(to_string(opt.pattern)));

  KernelCtx ctx;
  ctx.tidx = b.add_special("tid.x");
  ctx.tidy = b.add_special("tid.y");
  ctx.bx = b.add_special("ctaid.x");
  ctx.by = b.add_special("ctaid.y");

  ctx.sx = b.add_param("sx");
  ctx.sy = b.add_param("sy");
  for (i32 i = 0; i < spec.num_inputs; ++i) {
    ctx.pitch_in.push_back(b.add_param("pitch_in" + std::to_string(i)));
  }
  ctx.pitch_out = b.add_param("pitch_out");
  ctx.ntidx = b.add_param("ntid.x");
  ctx.ntidy = b.add_param("ntid.y");
  const RegId boff_x = b.add_param("boff_x");
  const RegId boff_y = b.add_param("boff_y");
  for (i32 i = 0; i < spec.num_inputs; ++i) {
    ctx.in_buffers.push_back(b.add_buffer());
  }
  ctx.out_buffer = b.add_buffer();

  const auto exit = b.make_label();
  const RegId gbx = b.emit(Op::kAdd, Type::kI32, Operand::r(ctx.bx),
                           Operand::r(boff_x));
  const RegId gby = b.emit(Op::kAdd, Type::kI32, Operand::r(ctx.by),
                           Operand::r(boff_y));
  ctx.gx = b.emit(Op::kMad, Type::kI32, Operand::r(gbx),
                  Operand::r(ctx.ntidx), Operand::r(ctx.tidx));
  ctx.gy = b.emit(Op::kMad, Type::kI32, Operand::r(gby),
                  Operand::r(ctx.ntidy), Operand::r(ctx.tidy));
  const RegId in_x =
      b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(ctx.gx), Operand::r(ctx.sx));
  b.br_unless(in_x, exit);
  const RegId in_y =
      b.emit_setp(Cmp::kLt, Type::kI32, Operand::r(ctx.gy), Operand::r(ctx.sy));
  b.br_unless(in_y, exit);

  b.marker(std::string(to_string(region)));
  emit_section(b, spec, ctx, opt, region_sides(region), exit);
  b.marker("Exit");
  b.bind(exit);
  b.ret();

  ir::Program prog = b.finish();
  prog.annotations.emplace_back("app", spec.name);
  prog.annotations.emplace_back("region", std::string(to_string(region)));
  prog.annotations.emplace_back("pattern", std::string(to_string(opt.pattern)));
  if (opt.optimize) {
    (void)ir::optimize(prog);
#ifndef NDEBUG
    analysis::assert_optimized_clean(prog);
#endif
  }
  if (span.recording()) {
    span.arg("kernel", prog.name);
    span.arg("instrs", static_cast<i64>(prog.code.size()));
  }
  return prog;
}

MeasuredCosts measure_costs(const StencilSpec& spec, BorderPattern pattern) {
  CodegenOptions naive_opt;
  naive_opt.pattern = pattern;
  naive_opt.variant = Variant::kNaive;
  const ir::Program naive = generate_kernel(spec, naive_opt);

  CodegenOptions isp_opt = naive_opt;
  isp_opt.variant = Variant::kIsp;
  const ir::Program prog = generate_kernel(spec, isp_opt);

  const Window w = spec.window();
  const f64 taps = static_cast<f64>(w.m) * static_cast<f64>(w.n);

  const auto section_size = [&prog](Region r) {
    const u32 begin = prog.marker_pc(to_string(r));
    // Section end = smallest marker pc greater than begin.
    u32 end = static_cast<u32>(prog.code.size());
    for (const auto& [name, pc] : prog.markers) {
      (void)name;
      if (pc > begin && pc < end) end = pc;
    }
    return static_cast<f64>(end - begin);
  };

  MeasuredCosts costs;
  const f64 body = section_size(Region::kBody);
  costs.kernel_per_tap = body / taps;

  f64 side_sum = 0.0;
  for (Region r : {Region::kL, Region::kR, Region::kT, Region::kB}) {
    side_sum += std::max(0.0, section_size(r) - body);
  }
  costs.check_per_side = side_sum / 4.0 / taps;

  // Dispatch cost: ISP code before its first section minus the naive
  // prologue, spread over the 9 tests of Listing 3.
  f64 first_section = static_cast<f64>(prog.code.size());
  for (Region r : kAllRegions) {
    first_section =
        std::min(first_section, static_cast<f64>(prog.marker_pc(to_string(r))));
  }
  const f64 prologue = static_cast<f64>(naive.marker_pc("Naive"));
  costs.switch_per_test = std::max(0.5, (first_section - prologue) / 9.0);
  return costs;
}

}  // namespace ispb::codegen
