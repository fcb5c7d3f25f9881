// Recoverability checking: a possibility-flavoured complement to the
// invariant properties. `CheckRecoverable(m, pending, goal)` verifies that
// from EVERY reachable state satisfying `pending` there exists SOME path to
// a state satisfying `goal` — i.e. the obligation can always still be
// discharged. A violation is a reachable state from which the goal is
// unreachable: the device is *permanently* stuck, not just transiently.
//
// This separates the paper's two flavours of badness: S3's stuck-in-3G
// state is recoverable (ending the data session frees the device; the harm
// is the delay, caught by the MM_OK invariant), while e.g. exhausting the
// attach retries with no recovery procedure is a genuine dead end.
//
// A pass over the engine's unreduced reachable graph: a reduced graph would
// drop the paths the backward closure needs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "mck/parallel_explorer.h"

namespace cnv::mck {

template <typename M>
struct RecoverabilityResult {
  bool holds = true;
  // When violated: a trace from the initial state to a pending state from
  // which no goal state is reachable.
  std::vector<typename M::Action> trace;
  typename M::State state{};  // the unrecoverable state
  ExploreStats stats;
};

template <CheckableModel M>
RecoverabilityResult<M> CheckRecoverable(
    const M& model,
    const std::function<bool(const typename M::State&)>& pending,
    const std::function<bool(const typename M::State&)>& goal) {
  const ReachableGraph<M> g =
      BuildReachableGraph(model, ExploreOptions{}.max_states);
  const std::size_t n = g.states.size();
  RecoverabilityResult<M> result;
  result.stats = g.stats;

  std::vector<std::vector<std::uint64_t>> preds(n);
  for (const auto& e : g.edges) preds[e.to].push_back(e.from);

  // Backward closure from the goal states.
  std::vector<char> can_reach_goal(n, 0);
  std::vector<std::uint64_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    if (goal(g.states[i])) {
      can_reach_goal[i] = 1;
      stack.push_back(i);
    }
  }
  while (!stack.empty()) {
    const std::uint64_t i = stack.back();
    stack.pop_back();
    for (const std::uint64_t pred : preds[i]) {
      if (!can_reach_goal[pred]) {
        can_reach_goal[pred] = 1;
        stack.push_back(pred);
      }
    }
  }

  // Any pending state outside the closure is unrecoverable.
  for (std::size_t i = 0; i < n; ++i) {
    if (!pending(g.states[i]) || can_reach_goal[i]) continue;
    result.holds = false;
    result.state = g.states[i];
    // A state's parent is its first incoming edge, the one that
    // discovered it.
    for (std::uint64_t at = i; at != 0;) {
      const auto e =
          std::find_if(g.edges.begin(), g.edges.end(),
                       [at](const auto& edge) { return edge.to == at; });
      result.trace.push_back(e->action);
      at = e->from;
    }
    std::reverse(result.trace.begin(), result.trace.end());
    break;
  }
  return result;
}

}  // namespace cnv::mck
