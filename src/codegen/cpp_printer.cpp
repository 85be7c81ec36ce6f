#include "codegen/cpp_printer.hpp"

#include <sstream>
#include <vector>

#include "codegen/c_lowering.hpp"

namespace ispb::codegen {

namespace {

/// One pixel rectangle [x_lo, x_hi) x [y_lo, y_hi), as C expressions.
struct Rect {
  std::string x_lo, x_hi, y_lo, y_hi;
};

/// The pixel loops over `rects` (a table when several), each clipped to the
/// caller's [y_begin, y_end), around one copy of the DAG with `sides`
/// checks. `hoist` 'y' walks rows and computes the y statements once per
/// row, 'x' walks columns with the x statements once per column (see
/// Hoist), and 0 walks rows with every statement per pixel.
void emit_loop(std::ostringstream& os, const StencilSpec& spec,
               const CodegenOptions& opt, Side sides, std::string_view label,
               const std::vector<Rect>& rects, char hoist = 0) {
  const bool table = rects.size() > 1;
  // The bounds the loops read: the rectangle, or the table's row r.
  const Rect bounds = table ? Rect{"rect[r][0]", "rect[r][1]", "rect[r][2]",
                                   "rect[r][3]"}
                            : rects[0];
  const std::string pad = table ? "      " : "    ";
  os << "  { // " << label << "\n";
  if (table) {
    os << "    const int rect[" << rects.size()
       << "][4] = { // {x_lo, x_hi, y_lo, y_hi}\n";
    for (const Rect& each : rects) {
      os << "      {" << each.x_lo << ", " << each.x_hi << ", " << each.y_lo
         << ", " << each.y_hi << "},\n";
    }
    os << "    };\n";
    os << "    for (int r = 0; r < " << rects.size() << "; ++r) {\n";
  }
  os << pad << "int ys = " << bounds.y_lo << " > y_begin ? " << bounds.y_lo
     << " : y_begin;\n";
  os << pad << "int ye = " << bounds.y_hi << " < y_end ? " << bounds.y_hi
     << " : y_end;\n";
  const std::string rows = "for (int gy = ys; gy < ye; ++gy) {\n";
  const std::string columns = "for (int gx = " + bounds.x_lo + "; gx < " +
                              bounds.x_hi + "; ++gx) {\n";
  const bool by_column = hoist == 'x';
  std::ostringstream outer;
  std::ostringstream body;
  const Hoist hoisted{hoist, &outer, pad + "  "};
  const std::string result =
      emit_dag(body, spec, opt, kHostDialect, sides, pad + "    ", nullptr,
               hoist == 0 ? nullptr : &hoisted);
  os << pad << (by_column ? columns : rows);
  os << outer.str();
  os << pad << "  " << (by_column ? rows : columns);
  os << body.str();
  os << pad << "    out[gy * pitch_out + gx] = " << result << ";\n";
  os << pad << "  }\n";
  os << pad << "}\n";
  if (table) os << "    }\n";
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
      emit_dag(body, spec, opt, kHostDialect, Side::kNone, "            ",
               &dims);
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
    emit_loop(os, spec, opt, kAllSides, "naive: all checks everywhere",
              {{"0", "sx", "0", "sy"}});
    os << "}\n";
    return os.str();
  }

  os << "  const int rx = " << w.radius_x() << ", ry = " << w.radius_y()
     << ";\n";
  os << "  // pixel-granular ISP bounds (paper Eq. (1), CPU flavor); under\n";
  os << "  // twice the radius the Body is empty and Rows and Rim cover all\n";
  os << "  const int bx0 = rx < sx ? rx : sx;\n";
  os << "  const int bx1 = sx - rx > bx0 ? sx - rx : bx0;\n";
  os << "  const int by0 = ry < sy ? ry : sy;\n";
  os << "  const int by1 = sy - ry > by0 ? sy - ry : by0;\n";
  if (opt.variant == Variant::kIspTiled &&
      (w.radius_x() > 0 || w.radius_y() > 0)) {
    emit_tiled_body(os, spec, opt, w.radius_x(), w.radius_y());
  } else {
    emit_loop(os, spec, opt, Side::kNone, "Body: no checks",
              {{"bx0", "bx1", "by0", "by1"}});
  }
  // The Rows vectorize along x once their y checks leave the x loop. Repeat
  // keeps its remaps per pixel: they are while loops, and hoisted they made
  // GCC take 44 s instead of 17.5 s over bilateral13's TU.
  const bool hoist = opt.pattern != BorderPattern::kRepeat;
  emit_loop(os, spec, opt, Side::kTop | Side::kBottom,
            "Rows: top and bottom strips, y checks only",
            {{"bx0", "bx1", "0", "by0"}, {"bx0", "bx1", "by1", "sy"}},
            hoist ? 'y' : 0);
  emit_loop(os, spec, opt, kAllSides,
            "Rim: left and right columns, all checks",
            {{"0", "bx0", "0", "sy"}, {"bx1", "sx", "0", "sy"}},
            hoist ? 'x' : 0);
  os << "}\n";
  return os.str();
}

}  // namespace ispb::codegen
