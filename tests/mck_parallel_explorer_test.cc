// Determinism suite for the exploration engine: at any worker count and
// shard split, ParallelExplore must return byte-identical results to
// mck::Explore (one job, one shard) — same stats, same violations in the
// same order with the same counterexample traces — on every toy and
// screening model, bounded or not. Also pins the combined model's state
// space at every supported UE count.
#include "mck/parallel_explorer.h"

#include <optional>
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

// Runs serial Explore and ParallelExplore at jobs 1, 2, 4 and 8 over
// 2^shard_bits shards, asserting the deterministic outputs match exactly
// via the canonical views: every deterministic field at once, no
// hand-picked subsets a new field could slip past. hash_occupancy is
// excluded from the serial comparison (a sharded table has a different load
// factor than a single one) but the full views — occupancy included — must
// be identical across job counts.
template <typename M>
void ExpectMatchesSerial(const M& m,
                         const PropertySet<typename M::State>& props,
                         const ExploreOptions& base = {},
                         int shard_bits = 6) {
  const ExploreResult<M> serial = Explore(m, props, base);

  std::optional<ExploreStatsView> stats_ref;
  std::optional<ParallelStatsView> par_ref;
  for (const int jobs : {1, 2, 4, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    ParallelExploreOptions opt;
    opt.base = base;
    opt.jobs = jobs;
    opt.shard_bits = shard_bits;
    const ParallelExploreResult<M> par = ParallelExplore(m, props, opt);

    EXPECT_EQ(DeterministicView(par.stats, /*include_occupancy=*/false),
              DeterministicView(serial.stats, /*include_occupancy=*/false));

    ASSERT_EQ(par.violations.size(), serial.violations.size());
    for (std::size_t i = 0; i < par.violations.size(); ++i) {
      SCOPED_TRACE("violation #" + std::to_string(i));
      EXPECT_EQ(par.violations[i].property, serial.violations[i].property);
      EXPECT_TRUE(par.violations[i].state == serial.violations[i].state);
      EXPECT_EQ(FormatTrace(m, par.violations[i]),
                FormatTrace(m, serial.violations[i]));
    }

    EXPECT_EQ(par.par.jobs, jobs);
    EXPECT_EQ(par.par.shards, 1u << shard_bits);
    const ExploreStatsView stats_view = DeterministicView(par.stats);
    const ParallelStatsView par_view = DeterministicView(par.par);
    if (!stats_ref.has_value()) {
      stats_ref = stats_view;
      par_ref = par_view;
    } else {
      EXPECT_EQ(stats_view, *stats_ref);
      EXPECT_EQ(par_view, *par_ref);
    }
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
  ParallelExploreOptions opt;
  opt.jobs = 8;
  const auto a = ParallelExplore(m, m.Properties(), opt);
  const auto b = ParallelExplore(m, m.Properties(), opt);
  EXPECT_EQ(a.stats.states_visited, b.stats.states_visited);
  EXPECT_EQ(a.stats.transitions, b.stats.transitions);
  EXPECT_DOUBLE_EQ(a.stats.hash_occupancy, b.stats.hash_occupancy);
  EXPECT_EQ(a.par.waves, b.par.waves);
  EXPECT_EQ(a.par.largest_shard, b.par.largest_shard);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(FormatTrace(m, a.violations[i]), FormatTrace(m, b.violations[i]));
  }
}

TEST(ParallelExploreTest, SharedExecutorReusesWorkersAcrossModels) {
  dist::Executor exec(4);
  model::S3Model s3;
  const auto first = ParallelExplore(s3, s3.Properties(), {}, &exec);
  const auto second = ParallelExplore(s3, s3.Properties(), {}, &exec);
  EXPECT_EQ(first.stats.states_visited, second.stats.states_visited);
  EXPECT_EQ(first.par.jobs, 4);
  // Busy time accrued before the second run must not leak into its figures.
  EXPECT_GE(second.par.worker_busy_seconds, 0.0);
}

TEST(ParallelExploreTest, ShardBitsZeroStillMatchesSerial) {
  toys::PetersonModel m{false};
  PropertySet<toys::PetersonModel::State> props{
      {"mutex",
       [](const auto& s) { return !toys::PetersonModel::BothCritical(s); },
       ""}};
  const auto serial = Explore(m, props);
  ParallelExploreOptions opt;
  opt.jobs = 4;
  opt.shard_bits = 0;  // single shard: the striping degenerates gracefully
  const auto par = ParallelExplore(m, props, opt);
  EXPECT_EQ(par.par.shards, 1u);
  EXPECT_EQ(par.stats.states_visited, serial.stats.states_visited);
  ASSERT_EQ(par.violations.size(), serial.violations.size());
  for (std::size_t i = 0; i < par.violations.size(); ++i) {
    EXPECT_EQ(FormatTrace(m, par.violations[i]),
              FormatTrace(m, serial.violations[i]));
  }
}

// The combined model's state space at every supported UE count, full and
// under POR + symmetry. Every row must come out the same through Explore
// and through ParallelExplore at jobs 1 and 4.
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
    for (const int jobs : {1, 4}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      ParallelExploreOptions opt;
      opt.base = base;
      opt.jobs = jobs;
      const auto par = ParallelExplore(m, props, opt);
      expect_pinned(par.stats, par.violations);
    }
  }
}

// Regression for the shard-merge rollback: when max_states lands mid-wave
// the merge phase must undo the over-cap insertions, and the undo now reuses
// the hash cached at insert time instead of re-hashing the state. If the
// erased hash ever disagreed with the inserted one the table would retain a
// ghost entry and hash_occupancy would drift between job counts. Pin full
// byte-identity — occupancy included — across jobs for caps that force a
// rollback in every shard layout.
TEST(ParallelExploreTest, RollbackLeavesHashOccupancyByteIdentical) {
  toys::PetersonModel m{true};
  PropertySet<toys::PetersonModel::State> props{
      {"mutex",
       [](const auto& s) { return !toys::PetersonModel::BothCritical(s); },
       ""}};
  for (const std::uint64_t cap : {3u, 5u, 9u, 13u, 21u}) {
    SCOPED_TRACE("max_states=" + std::to_string(cap));
    std::optional<ExploreStatsView> ref;
    std::optional<ParallelStatsView> par_ref;
    for (const int jobs : {1, 2, 4, 8}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      ParallelExploreOptions opt;
      opt.base.max_states = cap;
      opt.jobs = jobs;
      const auto r = ParallelExplore(m, props, opt);
      EXPECT_TRUE(r.stats.truncated);
      EXPECT_EQ(r.stats.states_visited, cap);
      const auto view = DeterministicView(r.stats);  // occupancy included
      if (!ref.has_value()) {
        ref = view;
        par_ref = DeterministicView(r.par);
      } else {
        EXPECT_EQ(view, *ref);
        EXPECT_EQ(DeterministicView(r.par), *par_ref);
      }
    }
  }
}

// The beyond-cap rollback pops shard arenas back across segment edges. On
// one shard the reserve hint is max_states, so the arena's first segment
// holds bit_floor(max_states) nodes: a power-of-two cap puts the first
// beyond-cap node just past that edge (the rollback empties the second
// segment), and a cap of 2^k + 1 keeps exactly one node past it. Multi-job
// runs intern the whole crossing wave before rolling back, so every case
// pops across an edge; all must equal serial, on one shard and on 64.
TEST(ParallelExploreTest, RollbackAcrossSegmentEdgeMatchesSerial) {
  model::CombinedModel::Config cfg;
  cfg.ues = 3;  // 1411 states
  const model::CombinedModel m(cfg);
  for (const std::uint64_t cap : {255u, 256u, 257u, 512u, 513u, 1024u, 1025u}) {
    SCOPED_TRACE("max_states=" + std::to_string(cap));
    ExploreOptions base;
    base.max_states = cap;
    const auto serial = Explore(m, m.Properties(), base);
    ASSERT_TRUE(serial.stats.truncated);
    ASSERT_EQ(serial.stats.states_visited, cap);
    ExpectMatchesSerial(m, m.Properties(), base, /*shard_bits=*/0);
    ExpectMatchesSerial(m, m.Properties(), base);
  }
}

}  // namespace
}  // namespace cnv::mck
