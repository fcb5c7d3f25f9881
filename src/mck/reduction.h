// State-space reduction interface: a model opts into partial-order and/or
// symmetry reduction by exposing a `ReductionSpec` through a `reduction()`
// method. The spec is purely declarative — per-state oracles the exploration
// engine (mck/parallel_explorer.h) consults when the caller enables
// reduction via ReductionOptions. A model without a reduction() method, or
// a run with both flags off, explores the full product exactly as before;
// reduction never changes which property violations are reachable (see
// tests/mck_por_test.cc for the differential proof obligation).
//
// The soundness contract a spec must honour (DESIGN.md "State-space
// reduction" spells out how the engine uses each oracle):
//
//   owner(s, a)    The component (process/UE) the action belongs to, in
//                  [0, components), or kSharedComponent for actions that
//                  touch cross-component state. Partitioning must be
//                  consistent across states.
//   local(s, a)    May return true ONLY if both the guard and the effect of
//                  `a` touch state that no other component's actions (and no
//                  shared action) read or write. This is the independence
//                  half of ample condition C1.
//   visible(s, a)  Must return true if `a` can change the valuation of ANY
//                  property the model is ever checked against (condition
//                  C2). Visibility must be uniform over all states where the
//                  action is enabled: if an action kind can flip a property
//                  somewhere, report it visible everywhere.
//   unsafe(s, c)   Must return true if component c has, at s, an action that
//                  is currently disabled but whose guard reads state outside
//                  the component — such an action could be enabled by
//                  another component's move and would then race the ample
//                  set (the "pending shared guard" hazard). Absent oracle =
//                  components are closed (no shared guards anywhere).
//   canonicalize(s)  The orbit representative of s under the model's
//                  symmetry group (for N interchangeable UEs: the state with
//                  its UE blocks sorted). Must be idempotent and must map
//                  symmetric states to the same representative; enabled/
//                  apply/properties must commute with the permutation.
//   orbit_size(s)  Number of concrete states in the orbit of representative
//                  s (for sorted UE blocks: N! / prod(multiplicity!)). Used
//                  only for the represented_states accounting.
#pragma once

#include <cstdint>
#include <functional>

namespace cnv::mck {

inline constexpr int kSharedComponent = -1;

// Engine-level switches; carried inside ExploreOptions. Enabling a
// reduction on a model that does not declare the matching spec pieces is a
// no-op (full exploration), so callers can pass the same options to every
// model in a sweep.
struct ReductionOptions {
  bool por = false;       // ample-set partial-order reduction
  bool symmetry = false;  // canonical-form symmetry reduction
};

template <typename M>
struct ReductionSpec {
  using State = typename M::State;
  using Action = typename M::Action;

  // Number of interchangeable-or-not components the actions partition into.
  // POR needs >= 2 to ever reduce anything.
  int components = 1;
  std::function<int(const State&, const Action&)> owner;
  std::function<bool(const State&, const Action&)> local;
  std::function<bool(const State&, const Action&)> visible;
  std::function<bool(const State&, int)> unsafe;
  std::function<State(const State&)> canonicalize;
  std::function<std::uint64_t(const State&)> orbit_size;
};

template <typename M>
concept ReducibleModel = requires(const M m) {
  { m.reduction() } -> std::convertible_to<ReductionSpec<M>>;
};

}  // namespace cnv::mck
