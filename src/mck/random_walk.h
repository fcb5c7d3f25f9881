// Random-walk sampling over a model's state graph. This mirrors the paper's
// random-sampling treatment of unbounded usage scenarios (§3.2.1): instead of
// exhausting the interleaving space, many deep walks are sampled and each
// state along a walk is checked against the properties. Raising the number of
// walks (the "sampling rate") exposes more defects, exactly as the paper
// describes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "mck/explorer.h"
#include "mck/property.h"
#include "util/rng.h"

namespace cnv::mck {

struct WalkOptions {
  std::uint64_t walks = 1000;
  std::uint64_t max_steps_per_walk = 200;
};

struct WalkStats {
  std::uint64_t walks_done = 0;
  std::uint64_t steps_taken = 0;
  std::uint64_t distinct_states = 0;
  std::uint64_t dead_ends = 0;  // walks that reached a state with no actions
};

template <typename M>
struct WalkResult {
  std::vector<Violation<M>> violations;
  WalkStats stats;

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

template <CheckableModel M>
WalkResult<M> RandomWalk(const M& model,
                         const PropertySet<typename M::State>& properties,
                         Rng& rng, const WalkOptions& options = {}) {
  using State = typename M::State;
  using Action = typename M::Action;

  WalkResult<M> result;
  std::unordered_set<std::string> violated;
  std::unordered_set<State, internal::StateHash<State>> distinct;
  // Pre-size for the walk budget (capped: deep soaks revisit heavily, so the
  // distinct count rarely approaches walks * steps).
  distinct.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(options.walks * options.max_steps_per_walk + 1,
                              1ull << 16)));

  auto check = [&](const State& s, const std::vector<Action>& trace) {
    for (const auto& p : properties) {
      if (violated.contains(p.name)) continue;
      if (!p.holds(s)) {
        violated.insert(p.name);
        result.violations.push_back({p.name, trace, s});
      }
    }
  };

  for (std::uint64_t w = 0; w < options.walks; ++w) {
    State s = model.initial();
    std::vector<Action> trace;
    distinct.insert(s);
    check(s, trace);
    for (std::uint64_t step = 0; step < options.max_steps_per_walk; ++step) {
      const std::vector<Action> actions = model.enabled(s);
      if (actions.empty()) {
        ++result.stats.dead_ends;
        break;
      }
      const Action& a = rng.Pick(actions);
      s = model.apply(s, a);
      trace.push_back(a);
      ++result.stats.steps_taken;
      distinct.insert(s);
      check(s, trace);
    }
    ++result.stats.walks_done;
    if (violated.size() == properties.size()) break;
  }
  result.stats.distinct_states = distinct.size();
  return result;
}

}  // namespace cnv::mck
