// Differential reduction-equivalence suite for partial-order reduction:
// for every model the full exploration and the reduced explorations must
// agree on the set of reachable property violations (up to orbit
// representatives when symmetry is on), and the reduction factor on the
// models built for it must clear the asserted floor. Also pins the C3
// cycle proviso with a model where skipping it would lose a violation, and
// serial-vs-parallel byte-identity of reduced runs at several job counts.
#include "mck/por.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "mck/parallel_explorer.h"
#include "mck/toy_models.h"
#include "model/combined_model.h"
#include "model/s1_model.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"

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

ExploreOptions Reduced(bool por, bool symmetry) {
  ExploreOptions opt;
  opt.reduction.por = por;
  opt.reduction.symmetry = symmetry;
  return opt;
}

// --- IndepWorkers: the engineered reduction-factor floor --------------------

TEST(PorTest, IndepWorkersFullProductSize) {
  IndepWorkersModel m;  // 4 workers x 4 steps
  const auto full = Explore(m, {});
  EXPECT_EQ(full.stats.states_visited, 625u);  // (L+1)^K
  EXPECT_EQ(full.stats.ample_states, 0u);
  EXPECT_EQ(full.stats.represented_states, 625u);
}

TEST(PorTest, IndepWorkersPorCollapsesToOneSchedule) {
  IndepWorkersModel m;
  const auto full = Explore(m, {});
  const auto por = Explore(m, {}, Reduced(true, false));
  // All actions are local and invisible and counters are monotone (every
  // ample successor is fresh), so exactly one interleaving survives.
  EXPECT_EQ(por.stats.states_visited, 17u);  // K*L + 1
  EXPECT_GT(por.stats.ample_states, 0u);
  // The >= 10x reduction-factor floor the bench report also asserts.
  EXPECT_GE(full.stats.states_visited, 10 * por.stats.states_visited);
  EXPECT_EQ(ViolatedProps<IndepWorkersModel>(full.violations),
            ViolatedProps<IndepWorkersModel>(por.violations));
}

TEST(PorTest, IndepWorkersPorPlusSymmetryAgree) {
  IndepWorkersModel m;
  const auto por = Explore(m, {}, Reduced(true, false));
  const auto both = Explore(m, {}, Reduced(true, true));
  // The single surviving schedule's prefixes are already canonical up to
  // the sort direction, so combining the reductions stays exhaustive.
  EXPECT_LE(both.stats.states_visited, por.stats.states_visited);
  EXPECT_GE(both.stats.represented_states, both.stats.states_visited);
}

// --- Models without a spec: the flags must be inert -------------------------

TEST(PorTest, NonReducibleModelsIgnoreTheFlags) {
  toys::PetersonModel peterson;
  peterson.use_turn_variable = false;
  PropertySet<toys::PetersonModel::State> props = {
      {"mutex",
       [](const toys::PetersonModel::State& s) {
         return !toys::PetersonModel::BothCritical(s);
       },
       "mutual exclusion"}};
  const auto full = Explore(peterson, props);
  const auto red = Explore(peterson, props, Reduced(true, true));
  EXPECT_EQ(DeterministicView(full.stats), DeterministicView(red.stats));
  ASSERT_EQ(full.violations.size(), red.violations.size());
  for (std::size_t i = 0; i < full.violations.size(); ++i) {
    EXPECT_EQ(full.violations[i].trace.size(), red.violations[i].trace.size());
  }
}

// --- S1-S4: trivial specs, identical results with the flags on --------------

template <typename M>
void ExpectReductionIsNoOp(const M& m, const PropertySet<typename M::State>& props) {
  const auto full = Explore(m, props);
  const auto red = Explore(m, props, Reduced(true, true));
  EXPECT_EQ(DeterministicView(full.stats), DeterministicView(red.stats));
  EXPECT_EQ(ViolatedProps<M>(full.violations), ViolatedProps<M>(red.violations));
  ASSERT_EQ(full.violations.size(), red.violations.size());
  for (std::size_t i = 0; i < full.violations.size(); ++i) {
    EXPECT_EQ(full.violations[i].trace.size(), red.violations[i].trace.size());
  }
}

TEST(PorTest, ScreeningModelsUnchangedUnderReductionFlags) {
  ExpectReductionIsNoOp(model::S1Model{}, model::S1Model::Properties());
  ExpectReductionIsNoOp(model::S2Model{}, model::S2Model::Properties());
  const model::S3Model s3;
  ExpectReductionIsNoOp(s3, s3.Properties());
  ExpectReductionIsNoOp(model::S4Model{}, model::S4Model::Properties());
}

// --- Combined model: counterexamples survive the reductions -----------------

TEST(PorTest, CombinedModelViolationSetSurvivesPor) {
  const CombinedModel m;
  const auto props = m.Properties();
  const auto full = Explore(m, props);
  const auto por = Explore(m, props, Reduced(true, false));
  const auto expected = ViolatedProps<CombinedModel>(full.violations);
  // Default config reaches the S1 detach and the cross-UE dropped call.
  EXPECT_TRUE(expected.contains(model::kPacketServiceOk));
  EXPECT_TRUE(expected.contains(model::kCallServiceOk));
  EXPECT_EQ(expected, ViolatedProps<CombinedModel>(por.violations));
  EXPECT_LT(por.stats.states_visited, full.stats.states_visited);
}

TEST(PorTest, CombinedModelViolationSetSurvivesPorPlusSymmetry) {
  const CombinedModel m;
  const auto props = m.Properties();
  const auto full = Explore(m, props);
  const auto both = Explore(m, props, Reduced(true, true));
  EXPECT_EQ(ViolatedProps<CombinedModel>(full.violations),
            ViolatedProps<CombinedModel>(both.violations));
  EXPECT_LT(both.stats.states_visited, full.stats.states_visited);
  // Orbit accounting covers at least the representatives themselves.
  EXPECT_GE(both.stats.represented_states, both.stats.states_visited);
}

TEST(PorTest, CombinedModelStuckIn3GFoundUnderReduction) {
  CombinedModel::Config cfg;
  cfg.switch_back = false;
  const CombinedModel m(cfg);
  const auto red = Explore(m, m.Properties(), Reduced(true, true));
  EXPECT_FALSE(red.Holds(model::kMmOk));
}

TEST(PorTest, CombinedModelAllFixesCleanUnderReduction) {
  CombinedModel::Config cfg;
  cfg.fix_reactivate_bearer = true;
  cfg.fix_queue_call = true;
  const CombinedModel m(cfg);
  const auto full = Explore(m, m.Properties());
  const auto red = Explore(m, m.Properties(), Reduced(true, true));
  EXPECT_TRUE(full.violations.empty());
  EXPECT_TRUE(red.violations.empty());
}

// --- C3 cycle proviso -------------------------------------------------------

// Two components: component 0 flips a private bit forever (an invisible
// local cycle), component 1 has a single shared action that breaks the
// property. Without the cycle proviso the flip action would be ample in
// every state, the BFS would close the 2-cycle and terminate, and the
// violation would never be seen. With C3 the second wave finds every flip
// successor stale, falls back to full expansion, and reaches the bug.
struct CycleTrapModel {
  struct State {
    std::uint8_t bit = 0;
    bool bad = false;
    bool operator==(const State&) const = default;
  };
  struct Action {
    int comp = 0;
  };

  State initial() const { return {}; }
  std::vector<Action> enabled(const State& s) const {
    std::vector<Action> acts;
    acts.push_back({0});                  // flip: always enabled
    if (!s.bad) acts.push_back({1});      // break: sets bad once
    return acts;
  }
  State apply(const State& s, const Action& a) const {
    State next = s;
    if (a.comp == 0) {
      next.bit ^= 1;
    } else {
      next.bad = true;
    }
    return next;
  }
  std::string describe(const Action& a) const {
    return a.comp == 0 ? "flip" : "break";
  }
  ReductionSpec<CycleTrapModel> reduction() const {
    ReductionSpec<CycleTrapModel> spec;
    spec.components = 2;
    spec.owner = [](const State&, const Action& a) { return a.comp; };
    spec.local = [](const State&, const Action& a) { return a.comp == 0; };
    spec.visible = [](const State&, const Action& a) { return a.comp != 0; };
    return spec;
  }
};

std::size_t HashValue(const CycleTrapModel::State& s) {
  return Hasher().Mix(s.bit).Mix(s.bad).Digest();
}

TEST(PorTest, CycleProvisoKeepsVisibleActionReachable) {
  const CycleTrapModel m;
  PropertySet<CycleTrapModel::State> props = {
      {"ok", [](const CycleTrapModel::State& s) { return !s.bad; }, "no bad"}};
  const auto full = Explore(m, props);
  const auto red = Explore(m, props, Reduced(true, false));
  ASSERT_FALSE(full.Holds("ok"));
  EXPECT_FALSE(red.Holds("ok"));  // lost if C3 were skipped
  EXPECT_EQ(ViolatedProps<CycleTrapModel>(full.violations),
            ViolatedProps<CycleTrapModel>(red.violations));
}

// --- Serial-vs-parallel byte-identity of reduced runs -----------------------

TEST(PorTest, ReducedExplorationByteIdenticalAtAnyJobCount) {
  const CombinedModel m;
  const auto props = m.Properties();
  ExploreOptions base = Reduced(true, true);
  const auto serial = Explore(m, props, base);
  for (const int jobs : {1, 2, 4}) {
    ParallelExploreOptions popt;
    popt.base = base;
    popt.jobs = jobs;
    const auto par = ParallelExplore(m, props, popt);
    EXPECT_EQ(DeterministicView(serial.stats, /*include_occupancy=*/false),
              DeterministicView(par.stats, /*include_occupancy=*/false))
        << "jobs=" << jobs;
    ASSERT_EQ(serial.violations.size(), par.violations.size());
    for (std::size_t i = 0; i < serial.violations.size(); ++i) {
      EXPECT_EQ(serial.violations[i].property, par.violations[i].property);
      EXPECT_EQ(serial.violations[i].trace.size(),
                par.violations[i].trace.size());
      EXPECT_EQ(serial.violations[i].state, par.violations[i].state);
    }
  }
}

TEST(PorTest, ReducedParallelShardOccupancyIdenticalAcrossJobs) {
  const IndepWorkersModel m;
  ParallelExploreOptions popt;
  popt.base = Reduced(true, true);
  popt.jobs = 1;
  const auto p1 = ParallelExplore(m, {}, popt);
  popt.jobs = 4;
  const auto p4 = ParallelExplore(m, {}, popt);
  EXPECT_EQ(DeterministicView(p1.stats), DeterministicView(p4.stats));
  EXPECT_EQ(DeterministicView(p1.par), DeterministicView(p4.par));
}

// --- Checkpoint/resume mid-reduced-run --------------------------------------

TEST(PorTest, ResumeMidReducedRunIsByteIdentical) {
  const CombinedModel m;
  const auto props = m.Properties();
  ParallelExploreOptions popt;
  popt.base = Reduced(true, true);
  popt.jobs = 2;

  std::vector<ExploreSnapshot<CombinedModel>> snaps;
  SnapshotHooks<CombinedModel> hooks;
  hooks.every_waves = 1;
  hooks.on_snapshot = [&](const ExploreSnapshot<CombinedModel>& s) {
    snaps.push_back(s);
  };
  const auto uninterrupted = ParallelExplore(m, props, popt, nullptr, &hooks);
  ASSERT_GE(snaps.size(), 2u);

  SnapshotHooks<CombinedModel> resume_hooks;
  resume_hooks.resume = &snaps[1];
  const auto resumed = ParallelExplore(m, props, popt, nullptr, &resume_hooks);
  EXPECT_EQ(DeterministicView(uninterrupted.stats),
            DeterministicView(resumed.stats));
  ASSERT_EQ(uninterrupted.violations.size(), resumed.violations.size());
  for (std::size_t i = 0; i < uninterrupted.violations.size(); ++i) {
    EXPECT_EQ(uninterrupted.violations[i].property,
              resumed.violations[i].property);
  }
}

}  // namespace
}  // namespace cnv::mck
