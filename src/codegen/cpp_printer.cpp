#include "codegen/cpp_printer.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "core/region.hpp"

namespace ispb::codegen {

namespace {

/// C99 hex-float literal: round-trips the exact f32 bit pattern (the f32 ->
/// double promotion is exact, %a prints the double exactly, and the `f`
/// suffix converts back without rounding).
std::string float_lit(f32 v) {
  ISPB_EXPECTS(std::isfinite(v));
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%af", static_cast<double>(v));
  return std::string(buf);
}

std::string sanitize_ident(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Staged-tile dimensions of the kIspTiled Body loop (words per row and per
/// input slab); reads then index the local `tile` buffer via lx/ly.
struct TileDims {
  i32 tw = 0;
  i32 slab = 0;
};

/// Same per-side remap structure as cuda_printer::emit_read_expr, in plain
/// host C. The centered (0, 0) read is in bounds by construction (gx, gy
/// iterate the image) and is never checked. With `tile` set (the kIspTiled
/// Body), the tap reads the staged local buffer instead — the staged values
/// are exact copies, so the computed bits are unchanged.
std::string emit_read_expr(std::ostringstream& body, const CodegenOptions& opt,
                           Side sides, i32 input, i32 dx, i32 dy, int* temp,
                           const std::string& pad,
                           const TileDims* tile = nullptr) {
  if (tile != nullptr) {
    // (ly + dy) * tw + (lx + dx) + input * slab, constants folded.
    const i32 off = dy * tile->tw + dx + input * tile->slab;
    std::ostringstream e;
    e << "tile[ly * " << tile->tw << " + lx";
    if (off > 0) e << " + " << off;
    if (off < 0) e << " - " << -off;
    e << "]";
    return e.str();
  }
  const bool center = dx == 0 && dy == 0;
  const bool check_l = !center && has_side(sides, Side::kLeft);
  const bool check_r = !center && has_side(sides, Side::kRight);
  const bool check_t = !center && has_side(sides, Side::kTop);
  const bool check_b = !center && has_side(sides, Side::kBottom);

  const auto offset = [](const char* base, i32 d) {
    std::ostringstream os;
    os << base;
    if (d > 0) os << " + " << d;
    if (d < 0) os << " - " << -d;
    return os.str();
  };

  const std::string id = std::to_string((*temp)++);
  const std::string xi = "x" + id;
  const std::string yi = "y" + id;
  body << pad << "int " << xi << " = " << offset("gx", dx) << ";\n";
  body << pad << "int " << yi << " = " << offset("gy", dy) << ";\n";

  switch (opt.pattern) {
    case BorderPattern::kClamp:
      if (check_l) body << pad << "if (" << xi << " < 0) " << xi << " = 0;\n";
      if (check_r) {
        body << pad << "if (" << xi << " > sx - 1) " << xi << " = sx - 1;\n";
      }
      if (check_t) body << pad << "if (" << yi << " < 0) " << yi << " = 0;\n";
      if (check_b) {
        body << pad << "if (" << yi << " > sy - 1) " << yi << " = sy - 1;\n";
      }
      break;
    case BorderPattern::kMirror:
      // Single reflection (edge included); valid because launch validation
      // rejects radii larger than the image extent.
      if (check_l) {
        body << pad << "if (" << xi << " < 0) " << xi << " = -" << xi
             << " - 1;\n";
      }
      if (check_r) {
        body << pad << "if (" << xi << " >= sx) " << xi << " = 2 * sx - "
             << xi << " - 1;\n";
      }
      if (check_t) {
        body << pad << "if (" << yi << " < 0) " << yi << " = -" << yi
             << " - 1;\n";
      }
      if (check_b) {
        body << pad << "if (" << yi << " >= sy) " << yi << " = 2 * sy - "
             << yi << " - 1;\n";
      }
      break;
    case BorderPattern::kRepeat:
      if (check_l) {
        body << pad << "while (" << xi << " < 0) " << xi << " += sx;\n";
      }
      if (check_r) {
        body << pad << "while (" << xi << " >= sx) " << xi << " -= sx;\n";
      }
      if (check_t) {
        body << pad << "while (" << yi << " < 0) " << yi << " += sy;\n";
      }
      if (check_b) {
        body << pad << "while (" << yi << " >= sy) " << yi << " -= sy;\n";
      }
      break;
    case BorderPattern::kConstant: {
      if (check_l || check_r || check_t || check_b) {
        const std::string vi = "v" + id;
        body << pad << "float " << vi << " = "
             << float_lit(opt.border_constant) << ";\n";
        body << pad << "if (1";
        if (check_l) body << " && " << xi << " >= 0";
        if (check_r) body << " && " << xi << " < sx";
        if (check_t) body << " && " << yi << " >= 0";
        if (check_b) body << " && " << yi << " < sy";
        body << ") " << vi << " = in" << input << "[" << yi << " * pitch_in"
             << input << " + " << xi << "];\n";
        return vi;
      }
      break;
    }
  }
  return "in" + std::to_string(input) + "[" + yi + " * pitch_in" +
         std::to_string(input) + " + " + xi + "]";
}

/// One `float tN = <single op>;` statement per node, in node order —
/// StencilSpec::evaluate's exact operation sequence.
std::string emit_dag(std::ostringstream& body, const StencilSpec& spec,
                     const CodegenOptions& opt, Side sides,
                     const std::string& pad, const TileDims* tile = nullptr) {
  int temp = 0;
  std::vector<std::string> names(spec.nodes.size());
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    const Node& n = spec.nodes[i];
    const std::string lhs =
        n.lhs >= 0 ? names[static_cast<std::size_t>(n.lhs)] : "";
    const std::string rhs =
        n.rhs >= 0 ? names[static_cast<std::size_t>(n.rhs)] : "";
    std::string expr;
    switch (n.kind) {
      case NodeKind::kRead:
        expr = emit_read_expr(body, opt, sides, n.input, n.dx, n.dy, &temp,
                              pad, tile);
        break;
      case NodeKind::kConst:
        expr = float_lit(n.value);
        break;
      case NodeKind::kAdd:
        expr = lhs + " + " + rhs;
        break;
      case NodeKind::kSub:
        expr = lhs + " - " + rhs;
        break;
      case NodeKind::kMul:
        expr = lhs + " * " + rhs;
        break;
      case NodeKind::kDiv:
        expr = lhs + " / " + rhs;
        break;
      case NodeKind::kMin:
        expr = "((" + rhs + " != " + rhs + ") | (" + lhs + " < " + rhs +
               ")) ? " + lhs + " : " + rhs;
        break;
      case NodeKind::kMax:
        expr = "((" + rhs + " != " + rhs + ") | (" + lhs + " > " + rhs +
               ")) ? " + lhs + " : " + rhs;
        break;
      case NodeKind::kNeg:
        expr = "-" + lhs;
        break;
      case NodeKind::kAbs:
        expr = "__builtin_fabsf(" + lhs + ")";
        break;
      case NodeKind::kExp2:
        expr = "__builtin_exp2f(" + lhs + ")";
        break;
      case NodeKind::kLog2:
        expr = "__builtin_log2f(" + lhs + ")";
        break;
      case NodeKind::kSqrt:
        expr = "__builtin_sqrtf(" + lhs + ")";
        break;
      case NodeKind::kRcp:
        expr = "1.0f / " + lhs;
        break;
    }
    const std::string name = "t" + std::to_string(i);
    body << pad << "float " << name << " = " << expr << ";\n";
    names[i] = name;
  }
  return names[static_cast<std::size_t>(spec.output)];
}

/// A doubly-nested pixel loop over x in [x_lo, x_hi), y in [y_lo, y_hi)
/// clipped to the caller's [y_begin, y_end) row band, with `sides` checks.
void emit_loop(std::ostringstream& os, const StencilSpec& spec,
               const CodegenOptions& opt, Side sides, std::string_view label,
               const std::string& x_lo, const std::string& x_hi,
               const std::string& y_lo, const std::string& y_hi) {
  os << "  { // " << label << "\n";
  os << "    int ys = " << y_lo << " > y_begin ? " << y_lo
     << " : y_begin;\n";
  os << "    int ye = " << y_hi << " < y_end ? " << y_hi << " : y_end;\n";
  os << "    for (int gy = ys; gy < ye; ++gy) {\n";
  os << "      for (int gx = " << x_lo << "; gx < " << x_hi << "; ++gx) {\n";
  std::ostringstream body;
  const std::string result = emit_dag(body, spec, opt, sides, "        ");
  os << body.str();
  os << "        out[gy * pitch_out + gx] = " << result << ";\n";
  os << "      }\n";
  os << "    }\n";
  os << "  }\n";
}

/// The kIspTiled Body: walk the pixel-granular Body rectangle in tiles of
/// tile_block extent, stage each tile's halo-extended input patch into a
/// local buffer (the CPU stand-in for the per-block smem tile — one copy per
/// word, same load/compute phase split), then compute every tile pixel from
/// the buffer. Body windows are in bounds by construction, so staging needs
/// no border handling, and staged values are exact copies, so outputs are
/// bit-identical to the untiled Body loop.
void emit_tiled_body(std::ostringstream& os, const StencilSpec& spec,
                     const CodegenOptions& opt, i32 rx, i32 ry) {
  const i32 tbx = opt.tile_block.tx;
  const i32 tby = opt.tile_block.ty;
  const TileDims dims{tbx + 2 * rx, (tbx + 2 * rx) * (tby + 2 * ry)};
  os << "  { // Body (tiled): stage the halo tile, compute from the tile\n";
  os << "    int ys = by0 > y_begin ? by0 : y_begin;\n";
  os << "    int ye = by1 < y_end ? by1 : y_end;\n";
  os << "    float tile[" << dims.slab * spec.num_inputs << "];\n";
  os << "    for (int ty0 = ys; ty0 < ye; ty0 += " << tby << ") {\n";
  os << "      int ty1 = ty0 + " << tby << " < ye ? ty0 + " << tby
     << " : ye;\n";
  os << "      for (int tx0 = bx0; tx0 < bx1; tx0 += " << tbx << ") {\n";
  os << "        int tx1 = tx0 + " << tbx << " < bx1 ? tx0 + " << tbx
     << " : bx1;\n";
  os << "        int sh = (ty1 - ty0) + " << 2 * ry << ";\n";
  os << "        int sw = (tx1 - tx0) + " << 2 * rx << ";\n";
  os << "        for (int j = 0; j < sh; ++j) {\n";
  os << "          for (int i = 0; i < sw; ++i) {\n";
  for (i32 k = 0; k < spec.num_inputs; ++k) {
    os << "            tile[" << k * dims.slab << " + j * " << dims.tw
       << " + i] = in" << k << "[(ty0 - " << ry << " + j) * pitch_in" << k
       << " + (tx0 - " << rx << " + i)];\n";
  }
  os << "          }\n";
  os << "        }\n";
  os << "        for (int gy = ty0; gy < ty1; ++gy) {\n";
  os << "          int ly = gy - ty0 + " << ry << ";\n";
  os << "          for (int gx = tx0; gx < tx1; ++gx) {\n";
  os << "            int lx = gx - tx0 + " << rx << ";\n";
  std::ostringstream body;
  const std::string result =
      emit_dag(body, spec, opt, Side::kNone, "            ", &dims);
  os << body.str();
  os << "            out[gy * pitch_out + gx] = " << result << ";\n";
  os << "          }\n";
  os << "        }\n";
  os << "      }\n";
  os << "    }\n";
  os << "  }\n";
}

}  // namespace

std::string cpp_kernel_symbol(const StencilSpec& spec,
                              const CodegenOptions& options) {
  const char* token = options.variant == Variant::kNaive     ? "naive"
                      : options.variant == Variant::kIspTiled ? "isptiled"
                                                              : "isp";
  return "ispb_" + sanitize_ident(spec.name) + "_" + token + "_" +
         sanitize_ident(to_string(options.pattern));
}

std::string emit_cpp(const StencilSpec& spec, const CodegenOptions& opt) {
  spec.validate();
  const Window w = spec.window();
  const bool isp = opt.variant != Variant::kNaive;

  std::ostringstream os;
  os << "// generated by ispborder native backend: " << spec.name << " ("
     << (isp ? "isp" : "naive") << ", " << to_string(opt.pattern)
     << " border handling, window " << w.m << "x" << w.n << ")\n\n";
  os << "extern \"C\" void " << cpp_kernel_symbol(spec, opt) << "(\n";
  os << "    const float* const* __restrict__ in,\n";
  os << "    const int* __restrict__ pitch_in_v,\n";
  os << "    float* __restrict__ out, int pitch_out, int sx, int sy,\n";
  os << "    int y_begin, int y_end)\n{\n";
  for (i32 i = 0; i < spec.num_inputs; ++i) {
    os << "  const float* __restrict__ in" << i << " = in[" << i << "];\n";
    os << "  const int pitch_in" << i << " = pitch_in_v[" << i << "];\n";
  }

  if (!isp) {
    emit_loop(os, spec, opt, kAllSides, "naive: all checks everywhere", "0",
              "sx", "0", "sy");
    os << "}\n";
    return os.str();
  }

  os << "  const int rx = " << w.radius_x() << ", ry = " << w.radius_y()
     << ";\n";
  os << "  if (sx < 2 * rx || sy < 2 * ry) {\n";
  // Degenerate partition (opposing sides would overlap): serve the
  // all-checks loop, as launch_on_sim's naive fallback does.
  {
    std::ostringstream inner;
    emit_loop(inner, spec, opt, kAllSides, "degenerate: all checks", "0",
              "sx", "0", "sy");
    std::istringstream lines(inner.str());
    std::string line;
    while (std::getline(lines, line)) os << "  " << line << "\n";
  }
  os << "    return;\n";
  os << "  }\n";
  os << "  // pixel-granular ISP bounds (paper Eq. (1), CPU flavor)\n";
  os << "  const int bx0 = rx < sx ? rx : sx;\n";
  os << "  const int bx1 = sx - rx > bx0 ? sx - rx : bx0;\n";
  os << "  const int by0 = ry < sy ? ry : sy;\n";
  os << "  const int by1 = sy - ry > by0 ? sy - ry : by0;\n";

  // Region -> (x interval, y interval), intervals indexed 0:[0,b_0),
  // 1:[b_0,b_1), 2:[b_1,s).
  const auto interval = [](int which, const char* axis) {
    const std::string b0 = std::string("b") + axis + "0";
    const std::string b1 = std::string("b") + axis + "1";
    const std::string s = std::string("s") + axis;
    switch (which) {
      case 0:
        return std::pair<std::string, std::string>{"0", b0};
      case 1:
        return std::pair<std::string, std::string>{b0, b1};
      default:
        return std::pair<std::string, std::string>{b1, s};
    }
  };
  const auto slot = [](Region r) -> std::pair<int, int> {  // (x, y)
    switch (r) {
      case Region::kTL:
        return {0, 0};
      case Region::kT:
        return {1, 0};
      case Region::kTR:
        return {2, 0};
      case Region::kL:
        return {0, 1};
      case Region::kBody:
        return {1, 1};
      case Region::kR:
        return {2, 1};
      case Region::kBL:
        return {0, 2};
      case Region::kB:
        return {1, 2};
      case Region::kBR:
        return {2, 2};
    }
    return {1, 1};
  };
  const bool staged = opt.variant == Variant::kIspTiled &&
                      (w.radius_x() > 0 || w.radius_y() > 0);
  for (Region r : kAllRegions) {
    if (r == Region::kBody && staged) {
      emit_tiled_body(os, spec, opt, w.radius_x(), w.radius_y());
      continue;
    }
    const auto [xs, ys] = slot(r);
    const auto [x_lo, x_hi] = interval(xs, "x");
    const auto [y_lo, y_hi] = interval(ys, "y");
    emit_loop(os, spec, opt, region_sides(r), to_string(r), x_lo, x_hi, y_lo,
              y_hi);
  }
  os << "}\n";
  return os.str();
}

}  // namespace ispb::codegen
