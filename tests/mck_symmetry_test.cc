// Symmetry-reduction suite: canonicalization units (SortBlocks /
// MultisetOrbitSize), the differential guarantee that symmetry-reduced
// exploration reaches the same violations as the full product, and the
// orbit accounting identity — for a fully symmetric model the sum of orbit
// sizes over reached representatives equals the unreduced reachable-set
// size exactly.
#include "mck/symmetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <stdexcept>
#include <string>

#include "mck/parallel_explorer.h"
#include "model/combined_model.h"
#include "toy_models.h"

namespace cnv::mck {
namespace {

using model::CombinedModel;
using toys::IndepWorkersModel;

template <typename M>
std::set<std::string> ViolatedProps(const std::vector<Violation<M>>& vs) {
  std::set<std::string> names;
  for (const auto& v : vs) names.insert(v.property);
  return names;
}

ExploreOptions SymOnly() {
  ExploreOptions opt;
  opt.reduction.symmetry = true;
  return opt;
}

// --- canonicalization units -------------------------------------------------

TEST(SymmetryTest, SortBlocksSortsOnlyTheActivePrefix) {
  std::array<int, 4> blocks{3, 1, 2, 0};
  SortBlocks(blocks, 3);
  EXPECT_EQ(blocks, (std::array<int, 4>{1, 2, 3, 0}));
}

TEST(SymmetryTest, MultisetOrbitSizes) {
  EXPECT_EQ(MultisetOrbitSize(std::array<int, 4>{7, 0, 0, 0}, 1), 1u);
  EXPECT_EQ(MultisetOrbitSize(std::array<int, 4>{1, 1, 0, 0}, 2), 1u);
  EXPECT_EQ(MultisetOrbitSize(std::array<int, 4>{1, 2, 0, 0}, 2), 2u);
  EXPECT_EQ(MultisetOrbitSize(std::array<int, 4>{1, 1, 2, 0}, 3), 3u);
  EXPECT_EQ(MultisetOrbitSize(std::array<int, 4>{1, 2, 3, 0}, 3), 6u);
  EXPECT_EQ(MultisetOrbitSize(std::array<int, 4>{1, 2, 3, 4}, 4), 24u);
  EXPECT_EQ(MultisetOrbitSize(std::array<int, 4>{5, 5, 5, 5}, 4), 1u);
  EXPECT_EQ(MultisetOrbitSize(std::array<int, 4>{1, 1, 2, 2}, 4), 6u);
}

TEST(SymmetryTest, CombinedModelCanonicalizeIsIdempotent) {
  const CombinedModel m;
  const auto spec = m.reduction();
  CombinedModel::State s;
  s.ue[0].cm = CombinedModel::Cm::kDone;
  s.ue[0].serving = CombinedModel::Sys::k3G;
  const auto once = spec.canonicalize(s);
  const auto twice = spec.canonicalize(once);
  EXPECT_EQ(once, twice);
  // The busy UE sorts behind the idle one, whichever slot it started in.
  CombinedModel::State swapped;
  swapped.ue[1] = s.ue[0];
  swapped.ue[0] = s.ue[1];
  EXPECT_EQ(spec.canonicalize(swapped), once);
}

// --- orbit accounting: representatives stand for the full product -----------

TEST(SymmetryTest, IndepWorkersOrbitSumEqualsFullProduct) {
  const IndepWorkersModel m;  // 4 workers x 4 steps
  const auto full = Explore(m, {});
  const auto sym = Explore(m, {}, SymOnly());
  // Multisets of 4 counters over 0..4: C(8, 4) representatives.
  EXPECT_EQ(sym.stats.states_visited, 70u);
  // Every concrete state is in exactly one orbit, so the orbit sizes sum
  // back to the unreduced reachable-set size.
  EXPECT_EQ(sym.stats.represented_states, full.stats.states_visited);
  EXPECT_EQ(full.stats.represented_states, full.stats.states_visited);
}

TEST(SymmetryTest, CombinedModelOrbitSumEqualsFullProduct) {
  const CombinedModel m;
  const auto props = m.Properties();
  const auto full = Explore(m, props);
  const auto sym = Explore(m, props, SymOnly());
  EXPECT_LT(sym.stats.states_visited, full.stats.states_visited);
  EXPECT_EQ(sym.stats.represented_states, full.stats.states_visited);
  EXPECT_EQ(ViolatedProps<CombinedModel>(full.violations),
            ViolatedProps<CombinedModel>(sym.violations));
}

TEST(SymmetryTest, CombinedModelFourUesStillAgree) {
  CombinedModel::Config cfg;
  cfg.ues = 3;
  const CombinedModel m(cfg);
  const auto props = m.Properties();
  const auto full = Explore(m, props);
  const auto sym = Explore(m, props, SymOnly());
  EXPECT_EQ(sym.stats.represented_states, full.stats.states_visited);
  EXPECT_EQ(ViolatedProps<CombinedModel>(full.violations),
            ViolatedProps<CombinedModel>(sym.violations));
  // Three interchangeable UEs buy a substantial factor on their own.
  EXPECT_GE(full.stats.states_visited, 3 * sym.stats.states_visited);
}

// The state holds a fixed array of kMaxUes UE blocks: a UE count outside
// [1, kMaxUes] is refused at construction instead of read past the array.
TEST(SymmetryTest, CombinedModelRejectsUeCountOutOfRange) {
  const int max_ues = static_cast<int>(CombinedModel::kMaxUes);
  for (const int ues : {-1, 0, max_ues + 1}) {
    CombinedModel::Config cfg;
    cfg.ues = ues;
    EXPECT_THROW(CombinedModel{cfg}, std::invalid_argument) << "ues=" << ues;
  }
  for (int ues = 1; ues <= max_ues; ++ues) {
    CombinedModel::Config cfg;
    cfg.ues = ues;
    EXPECT_NO_THROW(CombinedModel{cfg}) << "ues=" << ues;
  }
}

// --- Explore/ParallelExplore agreement under symmetry -----------------------

TEST(SymmetryTest, SymmetryReducedParallelMatchesSerial) {
  const CombinedModel m;
  const auto props = m.Properties();
  const auto serial = Explore(m, props, SymOnly());
  ParallelExploreOptions popt;
  popt.base = SymOnly();
  const auto par = ParallelExplore(m, props, popt);
  EXPECT_EQ(DeterministicView(serial.stats), DeterministicView(par.stats));
  EXPECT_EQ(ViolatedProps<CombinedModel>(serial.violations),
            ViolatedProps<CombinedModel>(par.violations));
}

// --- combined N=2 exhaustive with both reductions (the acceptance gate) -----

// The engine explores orbit representatives, but every counterexample it
// reports is a concrete path: from the model's own initial state each
// action is enabled in turn, and the path ends in the reported state, which
// violates the property.
TEST(SymmetryTest, CounterexamplesReplayFromTheInitialState) {
  for (int ues = 2; ues <= 4; ++ues) {
    CombinedModel::Config cfg;
    cfg.ues = ues;
    const CombinedModel m(cfg);
    const auto props = m.Properties();
    for (const bool por : {false, true}) {
      ExploreOptions opt = SymOnly();
      opt.reduction.por = por;
      const auto r = Explore(m, props, opt);
      ASSERT_FALSE(r.violations.empty());
      for (const auto& v : r.violations) {
        SCOPED_TRACE(std::to_string(ues) + " UEs, por=" + std::to_string(por) +
                     "\n" + FormatTrace(m, v));
        CombinedModel::State s = m.initial();
        for (const auto& a : v.trace) {
          const auto enabled = m.enabled(s);
          ASSERT_TRUE(std::any_of(enabled.begin(), enabled.end(),
                                  [&](const CombinedModel::Action& e) {
                                    return e.kind == a.kind && e.ue == a.ue;
                                  }))
              << m.describe(a);
          s = m.apply(s, a);
        }
        EXPECT_TRUE(s == v.state);
        const auto p = std::find_if(props.begin(), props.end(),
                                    [&](const auto& q) {
                                      return q.name == v.property;
                                    });
        ASSERT_NE(p, props.end());
        EXPECT_FALSE(p->holds(s));
      }
    }
  }
}

TEST(SymmetryTest, CombinedN2ExhaustiveUnderBothReductions) {
  const CombinedModel m;
  const auto props = m.Properties();
  ExploreOptions opt;
  opt.reduction.por = true;
  opt.reduction.symmetry = true;
  const auto r = Explore(m, props, opt);
  EXPECT_FALSE(r.stats.truncated);  // exhausted, not capped
  EXPECT_FALSE(r.Holds(model::kPacketServiceOk));
  EXPECT_FALSE(r.Holds(model::kCallServiceOk));
  EXPECT_TRUE(r.Holds(model::kMmOk));
  EXPECT_GT(r.stats.represented_states, r.stats.states_visited);
}

}  // namespace
}  // namespace cnv::mck
