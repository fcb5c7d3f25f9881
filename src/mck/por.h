// Ample-set partial-order reduction. The engine expands, at each state, an
// *ample subset* of the enabled actions instead of all of them whenever a
// component can be found whose enabled actions provably commute with
// everything the rest of the system can do. The classic conditions, as
// implemented here over a ReductionSpec (mck/reduction.h):
//
//   C0  ample(s) is empty iff enabled(s) is empty. Holds by construction:
//       an ample candidate is the non-empty enabled-action set of one
//       component, and when no candidate qualifies the full set is used.
//   C1  Every action in ample(s) is independent of every action outside it.
//       Approximated by the spec's locality contract: all of the chosen
//       component's enabled actions are local (guard and effect touch only
//       component-private state), and the component is not `unsafe` (it has
//       no pending action whose guard reads shared state and could be
//       enabled by another component's move).
//   C2  Every action in ample(s) is invisible to the checked properties
//       (the spec's `visible` oracle); states are never skipped in a way a
//       property probe could notice. When the engine is run with an empty
//       property set, C2 is vacuous and the visibility check is skipped.
//   C3  Cycle proviso, BFS variant (Bosnacki/Holzmann): an ample set is
//       accepted only if at least one of its successors is *fresh* — not in
//       the visited set at the start of the current wave. A state whose
//       every candidate successor is already visited is fully expanded, so
//       an enabled action can never be deferred forever around a cycle.
//       "Visited at wave start" over-approximates "fully expanded", which
//       only costs reduction, never soundness — and it is exactly the
//       predicate the jobs = 1 path and the multi-worker path can evaluate
//       identically (the multi-worker expand phase probes the frozen
//       pre-wave table), preserving byte-identity at any job count.
//
// Candidate components are tried in ascending component order, so the
// chosen ample set is a deterministic function of the state alone.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mck/reduction.h"

namespace cnv::mck::internal {

// Resolved per-run reduction configuration: which reductions are actually
// active given the options AND what the model declares. Constructed once per
// engine run; const thereafter (safe to share across workers — the oracle
// std::functions are only invoked through const calls).
template <typename M>
class ReductionEngine {
 public:
  using State = typename M::State;
  using Action = typename M::Action;

  ReductionEngine() = default;

  ReductionEngine(const M& model, const ReductionOptions& opt,
                  bool have_properties) {
    if constexpr (ReducibleModel<M>) {
      if (opt.por || opt.symmetry) {
        spec_ = model.reduction();
        por_ = opt.por && spec_.components > 1 && spec_.owner != nullptr &&
               spec_.local != nullptr && spec_.visible != nullptr;
        sym_ = opt.symmetry && spec_.canonicalize != nullptr;
        orbits_ = sym_ && spec_.orbit_size != nullptr;
        check_visibility_ = have_properties;
      }
    } else {
      (void)model;
      (void)opt;
      (void)have_properties;
    }
  }

  bool active() const { return por_ || sym_; }
  bool por() const { return por_; }
  bool symmetry() const { return sym_; }
  bool orbits() const { return orbits_; }

  // Orbit representative of s; identity when symmetry is off.
  State Canon(State s) const {
    return sym_ ? spec_.canonicalize(s) : std::move(s);
  }

  std::uint64_t OrbitSize(const State& s) const {
    return orbits_ ? spec_.orbit_size(s) : 1;
  }

  // Chooses the expansion set for `s` whose full enabled set is `all`.
  // `is_old(t)` must return true iff canonical successor t was in the
  // visited set at the start of the current wave. On reduction, fills
  // `ample` with a strict subset (preserving the relative order of `all`)
  // and returns true; otherwise returns false and `all` should be expanded.
  template <typename IsOldFn>
  bool SelectAmple(const M& model, const State& s,
                   const std::vector<Action>& all, IsOldFn&& is_old,
                   std::vector<Action>& ample) const {
    if (!por_ || all.size() < 2) return false;
    for (int c = 0; c < spec_.components; ++c) {
      if (spec_.unsafe != nullptr && spec_.unsafe(s, c)) continue;
      ample.clear();
      bool qualifies = true;
      for (const Action& a : all) {
        if (spec_.owner(s, a) != c) continue;
        if (!spec_.local(s, a) ||
            (check_visibility_ && spec_.visible(s, a))) {
          qualifies = false;
          break;
        }
        ample.push_back(a);
      }
      if (!qualifies || ample.empty() || ample.size() == all.size()) continue;
      // C3: accept only if some ample successor is fresh this wave.
      bool fresh = false;
      for (const Action& a : ample) {
        if (!is_old(Canon(model.apply(s, a)))) {
          fresh = true;
          break;
        }
      }
      if (fresh) return true;
    }
    ample.clear();
    return false;
  }

 private:
  ReductionSpec<M> spec_{};
  bool por_ = false;
  bool sym_ = false;
  bool orbits_ = false;
  bool check_visibility_ = true;
};

}  // namespace cnv::mck::internal
