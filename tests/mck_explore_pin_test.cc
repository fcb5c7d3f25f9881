// Pins the final output of the run
// `model_explorer --model combined --ues 3 --por --symmetry` performs: the
// deterministic stats view, the wave count, and an FNV-1a digest of every
// violation's property name and formatted counterexample, in report order.
// The counterexamples are concrete paths from the initial state, so each
// step names the UE that actually moves.
// Any change to the engine's discovery order, its reduction decisions or
// its shortest-counterexample choice shows up here.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "digest.h"
#include "mck/parallel_explorer.h"
#include "model/combined_model.h"

namespace cnv {
namespace {

TEST(ExplorePinTest, ReducedCombinedThreeUes) {
  model::CombinedModel::Config cfg;
  cfg.ues = 3;
  const model::CombinedModel m(cfg);
  mck::ParallelExploreOptions opt;
  opt.base.reduction.por = true;
  opt.base.reduction.symmetry = true;
  const auto r = mck::ParallelExplore(m, m.Properties(), opt);

  mck::ExploreStatsView pinned;
  pinned.states_visited = 179;
  pinned.transitions = 396;
  pinned.max_depth_reached = 24;
  pinned.frontier_peak = 21;
  pinned.truncated = false;
  pinned.hash_occupancy = 179.0 / 2048;  // 179 states in a 2048-slot table
  pinned.ample_states = 6;
  pinned.represented_states = 847;
  EXPECT_EQ(mck::DeterministicView(r.stats), pinned);
  EXPECT_EQ(r.par.waves, 25u);

  std::string traces;
  for (const auto& v : r.violations) {
    traces += v.property + '\n' + mck::FormatTrace(m, v);
  }
  EXPECT_EQ(r.violations.size(), 2u);
  EXPECT_EQ(testutil::Fnv1a64(traces), 5451077511184345243ull) << traces;
}

}  // namespace
}  // namespace cnv
