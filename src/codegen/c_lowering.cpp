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
                     const TileDims* tile) {
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
