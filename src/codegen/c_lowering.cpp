#include "codegen/c_lowering.hpp"

#include <cmath>
#include <cstdio>

#include "common/error.hpp"

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

/// The read of input `input` at offset (dx, dy) with this section's checks,
/// as an expression; may append statement lines to `body` (the remapped
/// coordinates, Repeat loops, Constant guards).
std::string emit_read_expr(std::ostringstream& body, const CodegenOptions& opt,
                           Side sides, i32 input, i32 dx, i32 dy, int* temp,
                           const std::string& pad, const TileDims* tile,
                           const Hoist* hoist) {
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

  // A hoisted axis's statements go to the hoist stream, in the order the
  // body alone would hold them: both coordinates, then x's remaps, then y's.
  const bool hoist_x = hoist != nullptr && hoist->axis == 'x';
  const bool hoist_y = hoist != nullptr && hoist->axis == 'y';
  std::ostringstream& xs = hoist_x ? *hoist->os : body;
  std::ostringstream& ys = hoist_y ? *hoist->os : body;
  const std::string& xpad = hoist_x ? hoist->pad : pad;
  const std::string& ypad = hoist_y ? hoist->pad : pad;
  const std::string id = std::to_string((*temp)++);
  const std::string xi = "x" + id;
  const std::string yi = "y" + id;
  xs << xpad << "int " << xi << " = " << offset("gx", dx) << ";\n";
  ys << ypad << "int " << yi << " = " << offset("gy", dy) << ";\n";

  // Listing 1's border function of `v` against [0, s) per side checked
  // (Constant guards the read below instead). Mirror reflects once: launch
  // validation rejects radii larger than the image extent.
  const auto remap = [&](std::ostringstream& os, const std::string& p,
                         const std::string& v, bool lo, bool hi,
                         const std::string& s) {
    switch (opt.pattern) {
      case BorderPattern::kClamp:
        if (lo) os << p << "if (" << v << " < 0) " << v << " = 0;\n";
        if (hi) {
          os << p << "if (" << v << " > " << s << " - 1) " << v << " = " << s
             << " - 1;\n";
        }
        break;
      case BorderPattern::kMirror:
        if (lo) {
          os << p << "if (" << v << " < 0) " << v << " = -" << v << " - 1;\n";
        }
        if (hi) {
          os << p << "if (" << v << " >= " << s << ") " << v << " = 2 * " << s
             << " - " << v << " - 1;\n";
        }
        break;
      case BorderPattern::kRepeat:
        if (lo) {
          os << p << "while (" << v << " < 0) " << v << " += " << s << ";\n";
        }
        if (hi) {
          os << p << "while (" << v << " >= " << s << ") " << v << " -= " << s
             << ";\n";
        }
        break;
      case BorderPattern::kConstant:
        break;
    }
  };
  remap(xs, xpad, xi, check_l, check_r, "sx");
  remap(ys, ypad, yi, check_t, check_b, "sy");

  if (opt.pattern == BorderPattern::kConstant &&
      (check_l || check_r || check_t || check_b)) {
    const std::string vi = "v" + id;
    body << pad << "float " << vi << " = " << float_lit(opt.border_constant)
         << ";\n";
    body << pad << "if (1";
    if (check_l) body << " && " << xi << " >= 0";
    if (check_r) body << " && " << xi << " < sx";
    if (check_t) body << " && " << yi << " >= 0";
    if (check_b) body << " && " << yi << " < sy";
    body << ") " << vi << " = in" << input << "[" << yi << " * pitch_in"
         << input << " + " << xi << "];\n";
    return vi;
  }
  return "in" + std::to_string(input) + "[" + yi + " * pitch_in" +
         std::to_string(input) + " + " + xi + "]";
}

std::string host_unary_call(std::string_view fn, const std::string& arg) {
  std::string call = "__builtin_" + std::string(fn) + "(";
  if (fn == "exp2f" || fn == "log2f") {
    // The empty asm hides the argument's value. GCC folds exp2f/log2f of a
    // known argument to MPFR's correctly rounded result, which can be one
    // ulp off the glibc exp2f/log2f that StencilSpec::evaluate calls at run
    // time; the argument is known when it is a constant node, or a
    // Constant-pattern tap that is out of bounds in every iteration of a
    // one-column loop.
    return call + "({ float a_ = " + arg +
           "; __asm__(\"\" : \"+r\"(a_)); a_; }))";
  }
  return call + arg + ")";
}

std::string cuda_unary_call(std::string_view fn, const std::string& arg) {
  return std::string(fn) + "(" + arg + ")";
}

}  // namespace

const CDialect kHostDialect{host_unary_call};
const CDialect kCudaDialect{cuda_unary_call};

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

std::string emit_dag(std::ostringstream& body, const StencilSpec& spec,
                     const CodegenOptions& opt, const CDialect& dialect,
                     Side sides, const std::string& pad,
                     const TileDims* tile, const Hoist* hoist) {
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
                              pad, tile, hoist);
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
        expr = dialect.unary_call("fabsf", lhs);
        break;
      case NodeKind::kExp2:
        expr = dialect.unary_call("exp2f", lhs);
        break;
      case NodeKind::kLog2:
        expr = dialect.unary_call("log2f", lhs);
        break;
      case NodeKind::kSqrt:
        expr = dialect.unary_call("sqrtf", lhs);
        break;
      case NodeKind::kRcp:
        expr = "1.0f / " + lhs;
        break;
    }
    // Appended, not `"t" + std::to_string(i)`: GCC 12 reports a false
    // -Wrestrict on that operator+ (GCC bug 105651), fatal under
    // ISPB_WERROR.
    std::string name = "t";
    name += std::to_string(i);
    body << pad << "float " << name << " = " << expr << ";\n";
    names[i] = name;
  }
  return names[static_cast<std::size_t>(spec.output)];
}

}  // namespace ispb::codegen
