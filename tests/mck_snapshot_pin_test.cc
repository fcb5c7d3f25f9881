// Pins the wave-boundary snapshots of the run
// `model_explorer --model combined --ues 3 --por --symmetry` performs: the
// snapshot count and an FNV-1a digest of the encoded snapshot
// (ckpt::EncodeSnapshot) at a fixed wave. A snapshot holds every
// discovered state in discovery order with its hash and back-pointer, the
// frontier, the carried stats and the violations so far, so any change to
// the engine's discovery order, its reduction decisions or the codec shows
// up here. The digests were recorded with the earlier sharded multi-worker
// engine at its default worker count.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/explore_ckpt.h"
#include "ckpt/io.h"
#include "mck/parallel_explorer.h"
#include "model/combined_model.h"

namespace cnv {
namespace {

// One snapshot per wave boundary with a non-empty frontier: 25 waves, 24
// snapshots. Snapshot 12 is taken after wave 13.
constexpr std::size_t kSnapshots = 24;
constexpr std::size_t kPinnedSnapshot = 12;
constexpr std::uint64_t kPinnedDigest = 0x80f4e23eadb455daull;
constexpr std::uint64_t kLastDigest = 0xbeb44e372f4d2b1cull;

TEST(ExploreSnapshotPinTest, ReducedCombinedThreeUes) {
  model::CombinedModel::Config cfg;
  cfg.ues = 3;
  const model::CombinedModel m(cfg);
  mck::ParallelExploreOptions opt;
  opt.base.reduction.por = true;
  opt.base.reduction.symmetry = true;

  std::vector<std::string> payloads;
  mck::SnapshotHooks<model::CombinedModel> hooks;
  hooks.on_snapshot = [&payloads](const auto& snap) {
    payloads.push_back(ckpt::EncodeSnapshot<model::CombinedModel>(snap));
  };
  (void)mck::ParallelExplore(m, m.Properties(), opt, nullptr, &hooks);

  ASSERT_EQ(payloads.size(), kSnapshots);
  EXPECT_EQ(ckpt::Fnv1a64(payloads[kPinnedSnapshot]), kPinnedDigest);
  EXPECT_EQ(ckpt::Fnv1a64(payloads.back()), kLastDigest);
}

}  // namespace
}  // namespace cnv
