// Suite for the exploration engine's two entry points: ParallelExplore
// must return byte-identical results to mck::Explore — same stats, same
// violations in the same order with the same counterexample traces — on
// every toy and screening model, bounded or not. Also pins the combined
// model's state space at every supported UE count.
#include "mck/parallel_explorer.h"

#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "model/combined_model.h"
#include "model/s1_model.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"
#include "toy_models.h"

namespace cnv::mck {
namespace {

// Runs Explore and ParallelExplore and asserts the deterministic outputs
// match exactly via the canonical view: every deterministic field at once,
// hash_occupancy included, no hand-picked subsets a new field could slip
// past.
template <typename M>
void ExpectMatchesSerial(const M& m,
                         const PropertySet<typename M::State>& props,
                         const ExploreOptions& base = {}) {
  const ExploreResult<M> serial = Explore(m, props, base);
  ParallelExploreOptions opt;
  opt.base = base;
  const ExploreResult<M> par = ParallelExplore(m, props, opt);

  EXPECT_EQ(DeterministicView(par.stats), DeterministicView(serial.stats));
  ASSERT_EQ(par.violations.size(), serial.violations.size());
  for (std::size_t i = 0; i < par.violations.size(); ++i) {
    SCOPED_TRACE("violation #" + std::to_string(i));
    EXPECT_EQ(par.violations[i].property, serial.violations[i].property);
    EXPECT_TRUE(par.violations[i].state == serial.violations[i].state);
    EXPECT_EQ(FormatTrace(m, par.violations[i]),
              FormatTrace(m, serial.violations[i]));
  }
}

TEST(ParallelExploreTest, CorrectCounterMatchesSerial) {
  toys::CounterModel m{4, false};
  PropertySet<toys::CounterModel::State> props{
      {"below_cap", [](const auto& s) { return s.value <= 4; }, ""}};
  ExpectMatchesSerial(m, props);
}

TEST(ParallelExploreTest, BuggyCounterMatchesSerial) {
  toys::CounterModel m{20, true};
  PropertySet<toys::CounterModel::State> props{
      {"below_cap", [](const auto& s) { return s.value <= 20; }, ""}};
  ExpectMatchesSerial(m, props);
}

TEST(ParallelExploreTest, PetersonMatchesSerial) {
  toys::PetersonModel good{true};
  toys::PetersonModel broken{false};
  PropertySet<toys::PetersonModel::State> props{
      {"mutex",
       [](const auto& s) { return !toys::PetersonModel::BothCritical(s); },
       ""}};
  ExpectMatchesSerial(good, props);
  ExpectMatchesSerial(broken, props);
}

TEST(ParallelExploreTest, LossyPingDeadlockMatchesSerial) {
  ExploreOptions base;
  base.detect_deadlock = true;
  PropertySet<toys::LossyPingModel::State> no_props;
  ExpectMatchesSerial(toys::LossyPingModel{true}, no_props, base);
  ExpectMatchesSerial(toys::LossyPingModel{false}, no_props, base);
}

TEST(ParallelExploreTest, DeadlockModelMatchesSerial) {
  ExploreOptions base;
  base.detect_deadlock = true;
  PropertySet<toys::DeadlockModel::State> no_props;
  ExpectMatchesSerial(toys::DeadlockModel{}, no_props, base);
}

TEST(ParallelExploreTest, MaxStatesTruncationMatchesSerial) {
  toys::PetersonModel m{true};
  PropertySet<toys::PetersonModel::State> props{
      {"mutex",
       [](const auto& s) { return !toys::PetersonModel::BothCritical(s); },
       ""}};
  for (const std::uint64_t cap : {1u, 2u, 7u, 10u, 25u}) {
    SCOPED_TRACE("max_states=" + std::to_string(cap));
    ExploreOptions base;
    base.max_states = cap;
    ExpectMatchesSerial(m, props, base);
  }
}

TEST(ParallelExploreTest, S1ModelMatchesSerial) {
  {
    model::S1Model m{model::S1Model::Config{}};
    ExpectMatchesSerial(m, model::S1Model::Properties());
  }
  {
    model::S1Model::Config cfg;
    cfg.allow_user_data_toggle = false;
    model::S1Model m(cfg);
    ExpectMatchesSerial(m, model::S1Model::Properties());
  }
}

TEST(ParallelExploreTest, S2ModelMatchesSerial) {
  // Loss-only, duplication-only, and the combined cell.
  for (const bool allow_loss : {true, false}) {
    for (const bool allow_duplicate : {true, false}) {
      if (!allow_loss && !allow_duplicate) continue;
      model::S2Model::Config cfg;
      cfg.allow_loss = allow_loss;
      cfg.allow_duplicate = allow_duplicate;
      model::S2Model m(cfg);
      ExpectMatchesSerial(m, model::S2Model::Properties());
    }
  }
}

TEST(ParallelExploreTest, S3ModelMatchesSerialForEveryPolicy) {
  for (const auto policy : {model::SwitchPolicy::kReleaseWithRedirect,
                            model::SwitchPolicy::kHandover,
                            model::SwitchPolicy::kCellReselection}) {
    model::S3Model::Config cfg;
    cfg.policy = policy;
    model::S3Model m(cfg);
    ExpectMatchesSerial(m, m.Properties());
  }
}

TEST(ParallelExploreTest, S4ModelMatchesSerial) {
  model::S4Model m{model::S4Model::Config{}};
  ExpectMatchesSerial(m, model::S4Model::Properties());
}

TEST(ParallelExploreTest, RepeatedRunsAreByteIdentical) {
  model::S3Model m;
  const auto a = ParallelExplore(m, m.Properties());
  const auto b = ParallelExplore(m, m.Properties());
  EXPECT_EQ(a.stats.states_visited, b.stats.states_visited);
  EXPECT_EQ(a.stats.transitions, b.stats.transitions);
  EXPECT_DOUBLE_EQ(a.stats.hash_occupancy, b.stats.hash_occupancy);
  EXPECT_EQ(a.par.waves, b.par.waves);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(FormatTrace(m, a.violations[i]), FormatTrace(m, b.violations[i]));
  }
}

// The combined model's state space at every supported UE count, full and
// under POR + symmetry. Every row must come out the same through Explore
// and through ParallelExplore.
struct CombinedPin {
  int ues = 0;
  bool reduced = false;  // POR + symmetry
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t represented = 0;
};

constexpr CombinedPin kCombinedPins[] = {
    {2, false, 113, 186, 113},       {2, true, 47, 71, 87},
    {3, false, 1411, 3381, 1411},    {3, true, 179, 396, 847},
    {4, false, 16785, 52804, 16785}, {4, true, 544, 1587, 7967},
};

TEST(ParallelExploreTest, CombinedModelStateSpaceIsPinned) {
  using model::CombinedModel;
  // MM_OK needs the switch-back misconfiguration; the default config
  // reaches the other two at every UE count.
  const std::set<std::string> expected_violated = {model::kPacketServiceOk,
                                                   model::kCallServiceOk};
  for (const CombinedPin& pin : kCombinedPins) {
    SCOPED_TRACE("ues=" + std::to_string(pin.ues) +
                 (pin.reduced ? " por+symmetry" : " full"));
    CombinedModel::Config cfg;
    cfg.ues = pin.ues;
    const CombinedModel m(cfg);
    const auto props = m.Properties();
    ExploreOptions base;
    base.reduction.por = pin.reduced;
    base.reduction.symmetry = pin.reduced;
    const auto expect_pinned =
        [&](const ExploreStats& stats,
            const std::vector<Violation<CombinedModel>>& violations) {
          EXPECT_EQ(stats.states_visited, pin.states);
          EXPECT_EQ(stats.transitions, pin.transitions);
          EXPECT_EQ(stats.represented_states, pin.represented);
          EXPECT_FALSE(stats.truncated);
          std::set<std::string> violated;
          for (const auto& v : violations) violated.insert(v.property);
          EXPECT_EQ(violated, expected_violated);
        };
    const auto serial = Explore(m, props, base);
    expect_pinned(serial.stats, serial.violations);
    ParallelExploreOptions opt;
    opt.base = base;
    const auto par = ParallelExplore(m, props, opt);
    expect_pinned(par.stats, par.violations);
  }
}

}  // namespace
}  // namespace cnv::mck
