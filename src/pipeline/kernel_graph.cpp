#include "pipeline/kernel_graph.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.hpp"

namespace ispb::pipeline {

namespace {

/// Producing stage indices of a binding list, deduplicated, in binding
/// order (image 0, the source, has no producer).
std::vector<i32> deps_of(const std::vector<i32>& input_images) {
  std::vector<i32> deps;
  for (i32 img : input_images) {
    if (img <= 0) continue;
    if (std::find(deps.begin(), deps.end(), img - 1) == deps.end()) {
      deps.push_back(img - 1);
    }
  }
  return deps;
}

/// Whether stage p's output is read by stage c alone, and only at (0, 0).
bool fusible(const KernelGraph& g, std::size_t p, std::size_t c) {
  const i32 image = static_cast<i32>(p) + 1;
  for (std::size_t s = 0; s < g.stages.size(); ++s) {
    const std::vector<i32>& in = g.stages[s].input_images;
    if (s != c && std::find(in.begin(), in.end(), image) != in.end()) {
      return false;
    }
  }
  const KernelGraph::Stage& consumer = g.stages[c];
  return std::none_of(
      consumer.spec.nodes.begin(), consumer.spec.nodes.end(),
      [&](const codegen::Node& n) {
        return n.kind == codegen::NodeKind::kRead &&
               consumer.input_images[static_cast<std::size_t>(n.input)] ==
                   image &&
               (n.dx != 0 || n.dy != 0);
      });
}

/// Consumer c with producer p (writing `p_image`) inlined; deps are left
/// for the caller to derive.
KernelGraph::Stage fuse(const KernelGraph::Stage& p, i32 p_image,
                        const KernelGraph::Stage& c) {
  KernelGraph::Stage out;
  const auto slot_of = [&](i32 img) {
    const auto it =
        std::find(out.input_images.begin(), out.input_images.end(), img);
    if (it != out.input_images.end()) {
      return static_cast<i32>(it - out.input_images.begin());
    }
    out.input_images.push_back(img);
    return static_cast<i32>(out.input_images.size()) - 1;
  };
  // C's bindings with P's image replaced by P's own bindings.
  std::vector<i32> p_slot(p.input_images.size());
  std::vector<i32> c_slot(c.input_images.size(), -1);
  for (std::size_t k = 0; k < c.input_images.size(); ++k) {
    if (c.input_images[k] != p_image) {
      c_slot[k] = slot_of(c.input_images[k]);
      continue;
    }
    for (std::size_t j = 0; j < p.input_images.size(); ++j) {
      p_slot[j] = slot_of(p.input_images[j]);
    }
  }

  codegen::StencilSpec& spec = out.spec;
  spec.name = p.spec.name + "+" + c.spec.name;
  spec.num_inputs = static_cast<i32>(out.input_images.size());
  spec.nodes = p.spec.nodes;
  for (codegen::Node& n : spec.nodes) {
    if (n.kind == codegen::NodeKind::kRead) {
      n.input = p_slot[static_cast<std::size_t>(n.input)];
    }
  }
  // id[i]: C's node i in the fused numbering.
  std::vector<i32> id(c.spec.nodes.size());
  for (std::size_t i = 0; i < c.spec.nodes.size(); ++i) {
    codegen::Node n = c.spec.nodes[i];
    if (n.kind == codegen::NodeKind::kRead) {
      const i32 slot = c_slot[static_cast<std::size_t>(n.input)];
      if (slot < 0) {  // a read of P's output is P's output node
        id[i] = p.spec.output;
        continue;
      }
      n.input = slot;
    }
    if (n.lhs >= 0) n.lhs = id[static_cast<std::size_t>(n.lhs)];
    if (n.rhs >= 0) n.rhs = id[static_cast<std::size_t>(n.rhs)];
    id[i] = static_cast<i32>(spec.nodes.size());
    spec.nodes.push_back(n);
  }
  spec.output = id[static_cast<std::size_t>(c.spec.output)];
  return out;
}

/// The next (producer, consumer) pair to fuse: the first consumer in stage
/// order, trying its last producer first, so fused names list their parts
/// in stage order ("sobel_dx+sobel_dy+sobel_magnitude").
std::optional<std::pair<std::size_t, std::size_t>> next_fusion(
    const KernelGraph& g) {
  for (std::size_t c = 0; c < g.stages.size(); ++c) {
    const std::vector<i32>& deps = g.stages[c].deps;
    for (auto it = deps.rbegin(); it != deps.rend(); ++it) {
      const auto p = static_cast<std::size_t>(*it);
      if (fusible(g, p, c)) return std::pair{p, c};
    }
  }
  return std::nullopt;
}

}  // namespace

KernelGraph::BufferPlan KernelGraph::buffer_plan() const {
  std::vector<Chain> each(stages.size());
  for (std::size_t i = 0; i < each.size(); ++i) {
    each[i] = {static_cast<i32>(i), static_cast<i32>(i)};
  }
  return buffer_plan(each);
}

std::vector<KernelGraph::Chain> KernelGraph::chains(BorderPattern pattern,
                                                    i64 bands) const {
  // bindings[img]: how many input bindings read image img.
  std::vector<i32> bindings(stages.size() + 1, 0);
  for (const Stage& stage : stages) {
    for (i32 img : stage.input_images) ++bindings[static_cast<std::size_t>(img)];
  }
  const bool wraps = pattern == BorderPattern::kRepeat && bands > 1;
  std::vector<Chain> out;
  for (std::size_t c = 0; c < stages.size(); ++c) {
    const std::vector<i32>& in = stages[c].input_images;
    // Stage c - 1 writes image c.
    const auto producer = static_cast<i32>(c);
    if (!wraps && c > 0 && in.size() == 1 && in[0] == producer &&
        bindings[c] == 1) {
      out.back().last = producer;
    } else {
      out.push_back({producer, producer});
    }
  }
  return out;
}

KernelGraph::BufferPlan KernelGraph::buffer_plan(
    const std::vector<Chain>& chains) const {
  const std::size_t n = chains.size();
  std::vector<i32> unit_of(stages.size());
  for (std::size_t u = 0; u < n; ++u) {
    for (i32 i = chains[u].first; i <= chains[u].last; ++i) {
      unit_of[static_cast<std::size_t>(i)] = static_cast<i32>(u);
    }
  }
  // last_reader[v]: the latest chain reading chain v's output, -1 for none.
  // A chain reads only what its first stage reads.
  std::vector<i32> last_reader(n, -1);
  for (std::size_t u = 0; u < n; ++u) {
    for (i32 dep : stages[static_cast<std::size_t>(chains[u].first)].deps) {
      last_reader[static_cast<std::size_t>(
          unit_of[static_cast<std::size_t>(dep)])] = static_cast<i32>(u);
    }
  }

  BufferPlan plan;
  plan.stage_buffer.assign(stages.size(), -1);
  std::vector<i32> holder;  // holder[b]: latest chain assigned buffer b
  for (std::size_t u = 0; u < n; ++u) {
    // The holder comes before u; so must its last reader (not u itself).
    const auto free_for_u = [&](i32 h) {
      return last_reader[static_cast<std::size_t>(h)] < static_cast<i32>(u);
    };
    const auto reuse = std::find_if(holder.begin(), holder.end(), free_for_u);
    i32& buffer =
        plan.stage_buffer[static_cast<std::size_t>(chains[u].last)];
    if (reuse == holder.end()) {
      buffer = static_cast<i32>(holder.size());
      holder.push_back(static_cast<i32>(u));
    } else {
      buffer = static_cast<i32>(reuse - holder.begin());
      *reuse = static_cast<i32>(u);
    }
  }
  plan.buffers = static_cast<i32>(holder.size());
  return plan;
}

KernelGraph KernelGraph::fused() const {
  KernelGraph g = *this;
  while (const auto pair = next_fusion(g)) {
    const auto [p, c] = *pair;
    const i32 p_image = static_cast<i32>(p) + 1;
    g.stages[c] = fuse(g.stages[p], p_image, g.stages[c]);
    g.stages.erase(g.stages.begin() + static_cast<std::ptrdiff_t>(p));
    // Images after P's shift down by one; P's image has no readers left.
    for (Stage& stage : g.stages) {
      for (i32& img : stage.input_images) {
        if (img > p_image) --img;
      }
      stage.deps = deps_of(stage.input_images);
    }
  }
  return g;
}

void KernelGraph::validate() const {
  if (stages.empty()) throw ContractError("KernelGraph '" + name + "' is empty");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage& stage = stages[i];
    stage.spec.validate();
    if (static_cast<i32>(stage.input_images.size()) != stage.spec.num_inputs) {
      throw ContractError("stage '" + stage.spec.name + "' binds " +
                          std::to_string(stage.input_images.size()) +
                          " images but the spec reads " +
                          std::to_string(stage.spec.num_inputs));
    }
    for (i32 img : stage.input_images) {
      // A stage may only read the source or an earlier stage's output —
      // this is what makes stage order a topological order.
      if (img < 0 || img > static_cast<i32>(i)) {
        throw ContractError("stage '" + stage.spec.name +
                            "' reads image " + std::to_string(img) +
                            " which no earlier stage produces");
      }
    }
    for (i32 dep : stage.deps) {
      const bool bound = std::any_of(
          stage.input_images.begin(), stage.input_images.end(),
          [dep](i32 img) { return img == dep + 1; });
      if (dep < 0 || dep >= static_cast<i32>(i) || !bound) {
        throw ContractError("stage '" + stage.spec.name +
                            "' lists dep " + std::to_string(dep) +
                            " that does not match its input bindings");
      }
    }
  }
}

KernelGraph build_graph(const filters::MultiKernelApp& app) {
  ISPB_EXPECTS(!app.stages.empty());
  KernelGraph graph;
  graph.name = app.name;
  graph.stages.reserve(app.stages.size());
  for (const auto& stage : app.stages) {
    KernelGraph::Stage node;
    node.spec = stage.spec;
    node.input_images = stage.input_bindings;
    node.deps = deps_of(stage.input_bindings);
    graph.stages.push_back(std::move(node));
  }
  graph.validate();
  return graph;
}

}  // namespace ispb::pipeline
