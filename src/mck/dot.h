// Graphviz export of a model's reachable state graph — handy for inspecting
// small screening models (e.g. the Figure 6 RRC transitions) and for
// documenting counterexample neighbourhoods. A rendering pass over the
// engine's reachable graph: nodes by discovery rank, edges in expansion
// order.
#pragma once

#include <functional>
#include <string>

#include "mck/parallel_explorer.h"

namespace cnv::mck {

template <typename State>
struct DotOptions {
  // State cap, truncated by the engine's rule (0 = unlimited). Unlimited by
  // default so an export is the whole graph unless the caller bounds it.
  std::size_t max_states = 0;
  // Node label; defaults to the node's discovery index.
  std::function<std::string(const State&)> label;
  // Nodes for which this returns true are drawn filled red (e.g. property
  // violations).
  std::function<bool(const State&)> highlight;
};

namespace internal {

inline std::string DotEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace internal

template <CheckableModel M>
std::string ExportDot(const M& model,
                      const DotOptions<typename M::State>& options = {}) {
  const ReachableGraph<M> g = BuildReachableGraph(model, options.max_states);
  std::string out = "digraph model {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::size_t i = 0; i < g.states.size(); ++i) {
    out += "  n" + std::to_string(i) + " [label=\"";
    out += options.label ? internal::DotEscape(options.label(g.states[i]))
                         : ("s" + std::to_string(i));
    out += "\"";
    if (i == 0) out += ", style=bold";
    if (options.highlight && options.highlight(g.states[i])) {
      out += ", style=filled, fillcolor=lightcoral";
    }
    out += "];\n";
  }
  for (const auto& e : g.edges) {
    out += "  n" + std::to_string(e.from) + " -> n" + std::to_string(e.to) +
           " [label=\"" + internal::DotEscape(model.describe(e.action)) +
           "\"];\n";
  }
  if (g.stats.truncated) out += "  // truncated at max_states\n";
  out += "}\n";
  return out;
}

}  // namespace cnv::mck
