#include "pipeline/kernel_graph.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ispb::pipeline {

std::vector<i32> KernelGraph::roots() const {
  std::vector<i32> out;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (stages[i].deps.empty()) out.push_back(static_cast<i32>(i));
  }
  return out;
}

i32 KernelGraph::depth() const {
  std::vector<i32> level(stages.size(), 1);
  i32 max_level = stages.empty() ? 0 : 1;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    for (i32 dep : stages[i].deps) {
      level[i] = std::max(level[i], level[static_cast<std::size_t>(dep)] + 1);
    }
    max_level = std::max(max_level, level[i]);
  }
  return max_level;
}

KernelGraph::BufferPlan KernelGraph::buffer_plan() const {
  const std::size_t n = stages.size();
  // ancestor[i][j]: stage j (transitively) produces an input of stage i.
  // Deps point to earlier stages, so one pass in index order closes it.
  std::vector<std::vector<bool>> ancestor(n, std::vector<bool>(n, false));
  std::vector<std::vector<i32>> readers(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (i32 dep : stages[i].deps) {
      const auto d = static_cast<std::size_t>(dep);
      readers[d].push_back(static_cast<i32>(i));
      ancestor[i][d] = true;
      for (std::size_t k = 0; k < d; ++k) {
        if (ancestor[d][k]) ancestor[i][k] = true;
      }
    }
  }

  BufferPlan plan;
  plan.stage_buffer.resize(n);
  std::vector<i32> holder;  // holder[b]: latest stage assigned buffer b
  for (std::size_t i = 0; i < n; ++i) {
    const auto is_ancestor = [&](i32 s) {
      return ancestor[i][static_cast<std::size_t>(s)];
    };
    const auto free_for_i = [&](i32 h) {
      const std::vector<i32>& r = readers[static_cast<std::size_t>(h)];
      return is_ancestor(h) && std::all_of(r.begin(), r.end(), is_ancestor);
    };
    const auto reuse = std::find_if(holder.begin(), holder.end(), free_for_i);
    if (reuse == holder.end()) {
      plan.stage_buffer[i] = static_cast<i32>(holder.size());
      holder.push_back(static_cast<i32>(i));
    } else {
      plan.stage_buffer[i] = static_cast<i32>(reuse - holder.begin());
      *reuse = static_cast<i32>(i);
    }
  }
  plan.buffers = static_cast<i32>(holder.size());
  return plan;
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
    for (i32 img : stage.input_bindings) {
      if (img <= 0) continue;  // the source has no producing stage
      const i32 dep = img - 1;
      if (std::find(node.deps.begin(), node.deps.end(), dep) ==
          node.deps.end()) {
        node.deps.push_back(dep);
      }
    }
    graph.stages.push_back(std::move(node));
  }
  graph.validate();
  return graph;
}

}  // namespace ispb::pipeline
