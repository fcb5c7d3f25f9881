// Explicit-state model checker. This stands in for the SPIN checker the
// paper embeds in CNetVerifier (§3.2): models are communicating finite state
// machines, the explorer interleaves all enabled transitions, and each
// property violation yields a concrete counterexample trace.
//
// A model is any type satisfying `CheckableModel`:
//
//   struct M {
//     struct State  { ... regular value type ... };  // with operator==
//     struct Action { ... };                          // transition label
//     State initial() const;
//     std::vector<Action> enabled(const State&) const;
//     State apply(const State&, const Action&) const;
//     std::string describe(const Action&) const;
//   };
//   std::size_t HashValue(const M::State&);           // found by ADL
//
// This header holds the types every exploration shares: the model concept,
// options, stats and their deterministic views, results and trace
// formatting. The one engine — breadth-first search in depth-synchronized
// waves, which yields shortest counterexamples — lives in
// mck/parallel_explorer.h, with its entry points `Explore`,
// `ParallelExplore` and `BuildReachableGraph`.
//
// Wave semantics: the whole frontier at depth d is expanded before any
// state at depth d+1, states are interned in expansion order, each property
// reports one counterexample (the first violating state) and is not checked
// again, and early exit (all properties violated) and max_states truncation
// take effect at deterministic points — truncation accepts new states in
// expansion order up to the cap, then finishes counting the wave's
// transitions and stops.
#pragma once

#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "mck/property.h"
#include "mck/reduction.h"

namespace cnv::mck {

template <typename M>
concept CheckableModel = requires(const M m, const typename M::State s,
                                  const typename M::Action a) {
  { m.initial() } -> std::convertible_to<typename M::State>;
  { m.enabled(s) } -> std::convertible_to<std::vector<typename M::Action>>;
  { m.apply(s, a) } -> std::convertible_to<typename M::State>;
  { m.describe(a) } -> std::convertible_to<std::string>;
  { s == s } -> std::convertible_to<bool>;
  { HashValue(s) } -> std::convertible_to<std::size_t>;
};

struct ExploreOptions {
  // Stop exploring after this many distinct states (0 = unlimited).
  std::uint64_t max_states = 2'000'000;
  // Also report reachable states with no enabled transitions ("deadlocks").
  // States for which the model's optional `is_final(state)` returns true are
  // successful terminations, not deadlocks.
  bool detect_deadlock = false;
  // State-space reduction switches (mck/reduction.h). A model that does not
  // declare the matching ReductionSpec pieces explores fully — the flags are
  // safe to pass uniformly across a sweep of heterogeneous models.
  ReductionOptions reduction;
};

// A concrete path, also under reduction: replaying `trace` from
// model.initial() reaches `state`.
template <typename M>
struct Violation {
  std::string property;          // property name, or "deadlock"
  std::vector<typename M::Action> trace;  // actions from the initial state
  typename M::State state;       // the violating state
};

struct ExploreStats {
  std::uint64_t states_visited = 0;
  std::uint64_t transitions = 0;
  std::uint64_t max_depth_reached = 0;
  bool truncated = false;  // hit max_states
  // Peak size of the BFS frontier and the final load factor of the
  // visited-state hash table — the two memory-pressure signals for soaks.
  std::uint64_t frontier_peak = 0;
  double hash_occupancy = 0;
  // States whose expansion used a strict ample subset (POR active and it
  // actually reduced something). 0 when POR is off or never fires.
  std::uint64_t ample_states = 0;
  // Sum of orbit sizes over the interned representatives — the number of
  // concrete states the reduced visited set stands for. Equal to
  // states_visited when symmetry (or orbit accounting) is off.
  std::uint64_t represented_states = 0;
  // Wall-clock timing. Everything else in this struct is deterministic;
  // these two are explicitly wall-clock throughput figures and must never
  // feed a byte-identical-replay comparison.
  double elapsed_wall_seconds = 0;
  double StatesPerSecond() const {
    return elapsed_wall_seconds > 0
               ? static_cast<double>(states_visited) / elapsed_wall_seconds
               : 0;
  }
};

// Canonical deterministic view of ExploreStats: every field that must be
// identical across replays — and nothing wall-clock. The determinism suites
// compare these views instead of hand-picking fields per test, so a new
// wall-clock field can never silently leak into a byte-identity comparison.
struct ExploreStatsView {
  std::uint64_t states_visited = 0;
  std::uint64_t transitions = 0;
  std::uint64_t max_depth_reached = 0;
  std::uint64_t frontier_peak = 0;
  bool truncated = false;
  double hash_occupancy = 0;
  std::uint64_t ample_states = 0;
  std::uint64_t represented_states = 0;
  bool operator==(const ExploreStatsView&) const = default;
};

// `include_occupancy = false` zeroes hash_occupancy on the view. Every
// exploration now uses one table, so no comparison needs it; it no longer
// affects exploration and stays because perfbench/bench.cc passes it.
inline ExploreStatsView DeterministicView(const ExploreStats& s,
                                          bool include_occupancy = true) {
  return {s.states_visited,
          s.transitions,
          s.max_depth_reached,
          s.frontier_peak,
          s.truncated,
          include_occupancy ? s.hash_occupancy : 0.0,
          s.ample_states,
          s.represented_states};
}

inline std::string ToString(const ExploreStatsView& v) {
  return "{states=" + std::to_string(v.states_visited) +
         " transitions=" + std::to_string(v.transitions) +
         " max_depth=" + std::to_string(v.max_depth_reached) +
         " frontier_peak=" + std::to_string(v.frontier_peak) +
         " truncated=" + std::to_string(v.truncated) +
         " occupancy=" + std::to_string(v.hash_occupancy) +
         " ample=" + std::to_string(v.ample_states) +
         " represented=" + std::to_string(v.represented_states) + "}";
}

inline std::ostream& operator<<(std::ostream& os, const ExploreStatsView& v) {
  return os << ToString(v);
}

struct ParallelExploreStats {
  std::uint64_t waves = 0;  // expanded frontier waves; deterministic
  // No longer affects exploration; always 0, read by perfbench/bench.cc.
  double utilization = 0;
};

template <typename M>
struct ExploreResult {
  std::vector<Violation<M>> violations;
  ExploreStats stats;
  ParallelExploreStats par;

  const Violation<M>* FindViolation(const std::string& property) const {
    for (const auto& v : violations) {
      if (v.property == property) return &v;
    }
    return nullptr;
  }
  bool Holds(const std::string& property) const {
    return FindViolation(property) == nullptr;
  }
};

namespace internal {

template <typename State>
struct StateHash {
  std::size_t operator()(const State& s) const { return HashValue(s); }
};

// Arena/table reservation hint derived from the max_states bound. Explicit
// modest bounds (soaks, graph exports) are reserved in full; the effectively
// unbounded defaults start small — growth rehashes only move cached
// (hash, index) pairs, so they are cheap.
inline std::size_t ReserveHint(std::uint64_t max_states) {
  constexpr std::uint64_t kFullReserveCap = 1ull << 16;
  if (max_states != 0 && max_states <= kFullReserveCap) {
    return static_cast<std::size_t>(max_states);
  }
  return 1024;
}

}  // namespace internal

// Renders a counterexample trace as numbered lines, one action per line.
template <CheckableModel M>
std::string FormatTrace(const M& model, const Violation<M>& v) {
  std::string out;
  out += "counterexample for " + v.property + " (" +
         std::to_string(v.trace.size()) + " steps):\n";
  std::size_t step = 1;
  for (const auto& a : v.trace) {
    out += "  " + std::to_string(step++) + ". " + model.describe(a) + "\n";
  }
  return out;
}

}  // namespace cnv::mck
