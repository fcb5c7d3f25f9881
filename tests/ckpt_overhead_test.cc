// Checkpoint overhead budget: an exploration with snapshot hooks armed must
// cost less than 5% more wall time than the same exploration without them.
// The hooked run pays for rank bookkeeping and a cadence check per wave; the
// snapshot writes themselves amortize over the cadence.
//
// The workload is the S2 full-space exploration (no properties, so nothing
// stops it early) with hooks on a 5,000-state cadence. One explore takes a
// few microseconds, far too little for a stable ratio, so each side of a
// sample sums a batch of 2,000; each side keeps its best of 20 samples. The
// two batches of a sample run interleaved, one plain explore then one hooked
// explore, so frequency scaling and host steal hit both sides alike. Timing
// whole batches one after the other swung by 10% and more between runs of
// identical code on a shared 4-vCPU VM; explore-level interleaving stays
// within 2% there.
// The test is labelled `perf` and runs with no other test beside it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "ckpt/explore_ckpt.h"
#include "gtest/gtest.h"
#include "mck/parallel_explorer.h"
#include "model/s2_model.h"
#include "test_dirs.h"

namespace cnv {
namespace {

constexpr int kBatch = 2000;
constexpr int kRounds = 20;
constexpr double kBudgetPct = 5.0;

using Clock = std::chrono::steady_clock;

TEST(CheckpointOverheadTest, ArmedHooksCostUnderFivePercent) {
  const model::S2Model s2;
  ckpt::ExploreCheckpointer<model::S2Model> checkpointer(
      test::TestTempDir().string(), "s2", /*config_digest=*/1,
      /*every_states=*/5000);
  const auto* hooks = checkpointer.hooks(nullptr);
  // One sample: wall seconds of kBatch plain and kBatch hooked explores.
  const auto sample = [&](double* plain, double* hooked) {
    Clock::duration plain_sum{};
    Clock::duration hooked_sum{};
    for (int i = 0; i < kBatch; ++i) {
      const auto t0 = Clock::now();
      (void)mck::Explore(s2, {});
      const auto t1 = Clock::now();
      (void)mck::Explore(s2, {}, {}, hooks);
      const auto t2 = Clock::now();
      plain_sum += t1 - t0;
      hooked_sum += t2 - t1;
    }
    *plain = std::chrono::duration<double>(plain_sum).count();
    *hooked = std::chrono::duration<double>(hooked_sum).count();
  };

  double plain = 0;
  double hooked = 0;
  sample(&plain, &hooked);  // warm-up
  double best_plain = std::numeric_limits<double>::infinity();
  double best_hooked = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kRounds; ++r) {
    sample(&plain, &hooked);
    best_plain = std::min(best_plain, plain);
    best_hooked = std::min(best_hooked, hooked);
  }
  const double overhead_pct = (best_hooked / best_plain - 1.0) * 100.0;
  std::printf("checkpoint overhead on S2 full space: %.2f%% (plain %.4fs, "
              "hooked %.4fs per %d explores; budget %.0f%%)\n",
              overhead_pct, best_plain, best_hooked, kBatch, kBudgetPct);
  EXPECT_LT(overhead_pct, kBudgetPct);
}

}  // namespace
}  // namespace cnv
