// The exploration engine: breadth-first search in depth-synchronized waves
// (wave semantics in mck/explorer.h) over one visited table. Every entry
// point runs the one loop, `internal::Search`, which reports each counted
// transition to an edge sink given as a template parameter. `Explore` and
// `ParallelExplore` (the same search under another options type) check
// properties and pass a no-op sink. `BuildReachableGraph` records the
// edges, with no properties and no reduction; the recoverability check
// (mck/reachability.h) and the Graphviz export (mck/dot.h) are passes over
// that graph.
//
// Storage: discovered states and their (parent, action) back-pointers live
// in segmented arenas indexed by discovery rank, and a cached-hash intern
// table maps each state to its rank. A state's id *is* its rank.
//
// There is no multi-worker wave path. The screening slices hold 6–29 states
// per cell and the combined model 16,785 states at its largest supported
// size, where one loop ran about twice as fast as four workers. Four
// workers first gained at sizes the model does not support, and then by
// less than 1.5× for twice the memory (EXPERIMENTS.md "Explorer N sweep"),
// so parallelism stays at the cell level (campaign, conformance, DiffSweep,
// city engine) where the work per unit pays for it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mck/explorer.h"
#include "mck/intern_table.h"
#include "mck/por.h"
#include "mck/segmented_arena.h"

namespace cnv::dist {
class Executor;
}  // namespace cnv::dist

namespace cnv::mck {

struct ParallelExploreOptions {
  // Search bounds, property handling and reduction switches.
  ExploreOptions base;
  // No longer affects exploration; perfbench/bench.cc still sets it.
  int jobs = 0;
};

namespace internal {

// Parent rank of the root state.
inline constexpr std::uint64_t kNoParentRank = ~0ull;

// Back-pointer of a discovered state: its parent's rank (kNoParentRank for
// the root) and the action that discovered it.
template <typename Action>
struct NodeMeta {
  std::uint64_t parent = kNoParentRank;
  Action via{};
};

// Exhaustive BFS from the model's initial state. Calls
// `on_edge(from, to, action, target)` for every transition it counts that
// ends in an interned state, in expansion order: `from` and `to` are
// discovery ranks (the root is 0) and `target` is the state of rank `to`.
// A state's first reported edge is the one that discovered it, reported
// right after the state is interned. Transitions into a state dropped at
// the max_states cap are counted but not reported.
template <CheckableModel M, typename EdgeSink>
ExploreResult<M> Search(const M& model,
                        const PropertySet<typename M::State>& properties,
                        const ExploreOptions& options, EdgeSink&& on_edge) {
  using State = typename M::State;
  using Action = typename M::Action;
  using NodeMeta = NodeMeta<Action>;

  const auto wall_start = std::chrono::steady_clock::now();
  const ReductionEngine<M> red(model, options.reduction, !properties.empty());

  const std::size_t hint = ReserveHint(options.max_states);
  SegmentedArena<State> states(hint);
  SegmentedArena<NodeMeta> meta(hint);
  InternTable table(hint);

  // Rank of the state equal to `s` (hashing to `hash`), or -1.
  const auto find = [&](std::uint64_t hash, const State& s) {
    return table.Find(hash, [&](std::int64_t i) {
      return states[static_cast<std::size_t>(i)] == s;
    });
  };
  // Appends a state and records it in the table; returns its rank.
  const auto intern = [&](State s, std::uint64_t hash, std::uint64_t parent,
                          const Action& via) {
    const std::uint64_t rank = states.size();
    states.push_back(std::move(s));
    meta.push_back({parent, via});
    table.Insert(hash, static_cast<std::int64_t>(rank));
    return rank;
  };
  // The counterexample ending at `rank`: the discovering actions from the
  // root. Under symmetry those act on orbit representatives, so the path is
  // replayed from the concrete initial state instead: each step takes the
  // first enabled action whose canonical successor is the next state on the
  // path, and the violating state is the concrete end state. The symmetry
  // contract (mck/reduction.h) guarantees such an action exists.
  const auto counterexample = [&](std::string property, std::uint64_t rank) {
    std::vector<std::uint64_t> path;  // `rank` back to the root's child
    for (std::uint64_t r = rank; meta[r].parent != kNoParentRank;
         r = meta[r].parent) {
      path.push_back(r);
    }
    Violation<M> v{std::move(property), {}, states[rank]};
    State at = model.initial();
    for (auto r = path.rbegin(); r != path.rend(); ++r) {
      Action via = meta[*r].via;
      if (red.symmetry()) {
        const std::vector<Action> enabled = model.enabled(at);
        const auto hit = std::find_if(
            enabled.begin(), enabled.end(), [&](const Action& a) {
              return red.Canon(model.apply(at, a)) == states[*r];
            });
        if (hit == enabled.end()) {
          throw std::logic_error("symmetry spec: no concrete counterexample");
        }
        via = *hit;
        at = model.apply(at, via);
      }
      v.trace.push_back(via);
    }
    if (red.symmetry()) v.state = std::move(at);
    return v;
  };

  ExploreResult<M> result;
  const std::uint32_t n_props = static_cast<std::uint32_t>(properties.size());

  // Committed violations by property index.
  std::vector<char> violated(n_props, 0);
  std::uint32_t violated_count = 0;
  const auto commit = [&](std::uint32_t p, std::uint64_t rank) {
    violated[p] = 1;
    ++violated_count;
    result.violations.push_back(counterexample(properties[p].name, rank));
  };
  const auto all_violated = [&] {
    // An empty property set means "build the reachability graph", not "every
    // property is already violated" — keep exploring.
    return n_props != 0 && violated_count == n_props;
  };

  std::uint64_t depth = 0;
  State init = red.Canon(model.initial());
  const std::uint64_t init_hash = static_cast<std::uint64_t>(HashValue(init));
  const std::uint64_t root =
      intern(std::move(init), init_hash, kNoParentRank, Action{});
  for (std::uint32_t p = 0; p < n_props; ++p) {
    if (!properties[p].holds(states[root])) commit(p, root);
  }
  std::vector<std::uint64_t> frontier = {root};

  // POR's C3 freshness predicate: "interned before this wave began".
  std::int64_t wave_start = 0;
  const auto is_old_canon = [&](const State& t) {
    const std::int64_t found =
        find(static_cast<std::uint64_t>(HashValue(t)), t);
    return found >= 0 && found < wave_start;
  };

  bool truncated = false;
  std::vector<std::uint64_t> next_frontier;
  std::vector<Action> ample;
  while (!frontier.empty() && !all_violated()) {
    result.stats.frontier_peak =
        std::max(result.stats.frontier_peak,
                 static_cast<std::uint64_t>(frontier.size()));
    result.stats.max_depth_reached =
        std::max(result.stats.max_depth_reached, depth);
    ++result.par.waves;
    wave_start = static_cast<std::int64_t>(states.size());
    next_frontier.clear();
    for (const std::uint64_t parent_rank : frontier) {
      // Arena entries never move, so the parent stays valid while its
      // children are interned.
      const State& parent = states[static_cast<std::size_t>(parent_rank)];
      const std::vector<Action> actions = model.enabled(parent);
      if (actions.empty()) continue;
      const std::vector<Action>* expand = &actions;
      if (red.por() &&
          red.SelectAmple(model, parent, actions, is_old_canon, ample)) {
        expand = &ample;
        ++result.stats.ample_states;
      }
      for (const Action& a : *expand) {
        ++result.stats.transitions;
        State next = red.Canon(model.apply(parent, a));
        const std::uint64_t h = static_cast<std::uint64_t>(HashValue(next));
        if (const std::int64_t seen = find(h, next); seen >= 0) {
          on_edge(parent_rank, static_cast<std::uint64_t>(seen), a,
                  states[static_cast<std::size_t>(seen)]);
          continue;
        }
        if (options.max_states != 0 && states.size() >= options.max_states) {
          truncated = true;
          continue;
        }
        const std::uint64_t rank = intern(std::move(next), h, parent_rank, a);
        const State& s = states[static_cast<std::size_t>(rank)];
        on_edge(parent_rank, rank, a, s);
        for (std::uint32_t p = 0; p < n_props; ++p) {
          if (violated[p] == 0 && !properties[p].holds(s)) commit(p, rank);
        }
        next_frontier.push_back(rank);
      }
    }
    frontier.swap(next_frontier);
    ++depth;
    if (truncated) break;
  }

  result.stats.states_visited = states.size();
  result.stats.truncated = truncated;
  // Orbit accounting: each canonical representative stands for its whole
  // permutation orbit.
  if (red.orbits()) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      result.stats.represented_states += red.OrbitSize(states[i]);
    }
  } else {
    result.stats.represented_states = states.size();
  }
  result.stats.hash_occupancy = table.occupancy();
  result.stats.elapsed_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace internal

// Exhaustive property-checking exploration.
template <CheckableModel M>
ExploreResult<M> Explore(const M& model,
                         const PropertySet<typename M::State>& properties,
                         const ExploreOptions& options = {}) {
  return internal::Search(model, properties, options, [](auto&&...) {});
}

// Explore under another options type.
template <CheckableModel M>
ExploreResult<M> ParallelExplore(
    const M& model, const PropertySet<typename M::State>& properties,
    const ParallelExploreOptions& options = {},
    // No longer affects exploration; perfbench/bench.cc still passes one.
    dist::Executor* /*exec*/ = nullptr) {
  return Explore(model, properties, options.base);
}

// A model's full reachable state graph: no properties, no reduction.
template <typename M>
struct ReachableGraph {
  struct Edge {
    std::uint64_t from = 0;  // discovery ranks
    std::uint64_t to = 0;
    typename M::Action action{};
  };
  std::vector<typename M::State> states;  // by discovery rank; [0] is initial
  std::vector<Edge> edges;                // every transition, expansion order
  ExploreStats stats;
};

// The reachable graph, truncated by the engine's rule at `max_states`
// (0 = unlimited).
template <CheckableModel M>
ReachableGraph<M> BuildReachableGraph(const M& model,
                                      std::uint64_t max_states) {
  ReachableGraph<M> g;
  g.states.push_back(model.initial());
  const auto record = [&g](std::uint64_t from, std::uint64_t to,
                           const typename M::Action& a,
                           const typename M::State& target) {
    if (to == g.states.size()) g.states.push_back(target);
    g.edges.push_back({from, to, a});
  };
  ExploreOptions options;
  options.max_states = max_states;
  g.stats = internal::Search(model, {}, options, record).stats;
  return g;
}

}  // namespace cnv::mck
