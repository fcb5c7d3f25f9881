// Kill-and-resume suite for exploration checkpoints: a snapshot captured at
// a wave boundary must resume — serially or in parallel at any job count —
// to results byte-identical to the uninterrupted run, on every toy model and
// every screening model. Also covers the snapshot codec's structural
// validation and the ExploreCheckpointer last-good rotation under file
// damage (truncation, flipped bytes, config mismatch).
#include "ckpt/explore_ckpt.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mck/parallel_explorer.h"
#include "mck/toy_models.h"
#include "model/combined_model.h"
#include "model/s1_model.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"

namespace cnv::ckpt {
namespace {

namespace fs = std::filesystem;
using mck::DeterministicView;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / "ckpt_explore" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void FlipPayloadByte(const std::string& path) {
  std::string bytes = ReadAll(path);
  ASSERT_FALSE(bytes.empty());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  WriteAll(path, bytes);
}

template <typename M>
void ExpectSameViolations(const M& m, const std::vector<mck::Violation<M>>& a,
                          const std::vector<mck::Violation<M>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("violation #" + std::to_string(i));
    EXPECT_EQ(a[i].property, b[i].property);
    EXPECT_TRUE(a[i].state == b[i].state);
    EXPECT_EQ(mck::FormatTrace(m, a[i]), mck::FormatTrace(m, b[i]));
  }
}

// The core kill-and-resume property. Runs the model serially with snapshot
// hooks, picks a mid-exploration snapshot (simulating the last checkpoint
// before a crash), round-trips it through the binary codec, and resumes
// serially and at jobs 1 and 4 — every result must match the uninterrupted
// baseline on the full deterministic view, hash_occupancy included.
template <typename M>
void ExpectResumeIdentical(const M& m,
                           const mck::PropertySet<typename M::State>& props,
                           const mck::ExploreOptions& base = {}) {
  std::vector<mck::ExploreSnapshot<M>> snaps;
  mck::SnapshotHooks<M> capture;
  capture.on_snapshot = [&snaps](const mck::ExploreSnapshot<M>& s) {
    snaps.push_back(s);
  };
  const auto baseline = mck::Explore(m, props, base, &capture);

  // Hooks only observe: the hooked baseline equals an unhooked run.
  const auto plain = mck::Explore(m, props, base);
  EXPECT_EQ(DeterministicView(baseline.stats), DeterministicView(plain.stats));
  ExpectSameViolations(m, baseline.violations, plain.violations);

  if (snaps.empty()) return;  // exhausted within the first wave

  // Pretend the run died right after the middle snapshot; resume from the
  // codec round-trip of that snapshot, exactly what a file resume sees.
  const auto& taken = snaps[snaps.size() / 2];
  const std::string payload = EncodeSnapshot<M>(taken);
  mck::ExploreSnapshot<M> snap;
  ASSERT_TRUE(DecodeSnapshot<M>(payload, &snap));
  EXPECT_EQ(EncodeSnapshot<M>(snap), payload);

  mck::SnapshotHooks<M> resume;
  resume.resume = &snap;
  const auto serial = mck::Explore(m, props, base, &resume);
  EXPECT_EQ(DeterministicView(serial.stats), DeterministicView(baseline.stats));
  ExpectSameViolations(m, serial.violations, baseline.violations);

  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("resume jobs=" + std::to_string(jobs));
    mck::ParallelExploreOptions opt;
    opt.base = base;
    opt.jobs = jobs;
    const auto uninterrupted = mck::ParallelExplore(m, props, opt);
    const auto resumed = mck::ParallelExplore(m, props, opt, nullptr, &resume);
    EXPECT_EQ(DeterministicView(resumed.stats),
              DeterministicView(uninterrupted.stats));
    EXPECT_EQ(resumed.par.waves, uninterrupted.par.waves);
    ExpectSameViolations(m, resumed.violations, uninterrupted.violations);
  }
}

TEST(ExploreResumeTest, CounterModels) {
  for (const bool buggy : {false, true}) {
    SCOPED_TRACE(buggy ? "buggy" : "correct");
    mck::toys::CounterModel m{20, buggy};
    mck::PropertySet<mck::toys::CounterModel::State> props{
        {"below_cap", [](const auto& s) { return s.value <= 20; }, ""}};
    ExpectResumeIdentical(m, props);
  }
}

TEST(ExploreResumeTest, PetersonModels) {
  mck::PropertySet<mck::toys::PetersonModel::State> props{
      {"mutex",
       [](const auto& s) { return !mck::toys::PetersonModel::BothCritical(s); },
       ""}};
  ExpectResumeIdentical(mck::toys::PetersonModel{true}, props);
  ExpectResumeIdentical(mck::toys::PetersonModel{false}, props);
}

TEST(ExploreResumeTest, LossyPingWithDeadlockDetection) {
  mck::ExploreOptions base;
  base.detect_deadlock = true;
  mck::PropertySet<mck::toys::LossyPingModel::State> no_props;
  ExpectResumeIdentical(mck::toys::LossyPingModel{true}, no_props, base);
  ExpectResumeIdentical(mck::toys::LossyPingModel{false}, no_props, base);
}

TEST(ExploreResumeTest, DeadlockModel) {
  mck::ExploreOptions base;
  base.detect_deadlock = true;
  mck::PropertySet<mck::toys::DeadlockModel::State> no_props;
  ExpectResumeIdentical(mck::toys::DeadlockModel{}, no_props, base);
}

TEST(ExploreResumeTest, S1Model) {
  model::S1Model m{model::S1Model::Config{}};
  ExpectResumeIdentical(m, model::S1Model::Properties());
}

TEST(ExploreResumeTest, S2Model) {
  model::S2Model m{model::S2Model::Config{}};
  ExpectResumeIdentical(m, model::S2Model::Properties());
}

TEST(ExploreResumeTest, S3ModelEveryPolicy) {
  for (const auto policy : {model::SwitchPolicy::kReleaseWithRedirect,
                            model::SwitchPolicy::kHandover,
                            model::SwitchPolicy::kCellReselection}) {
    model::S3Model::Config cfg;
    cfg.policy = policy;
    model::S3Model m(cfg);
    ExpectResumeIdentical(m, m.Properties());
  }
}

TEST(ExploreResumeTest, S4Model) {
  model::S4Model m{model::S4Model::Config{}};
  ExpectResumeIdentical(m, model::S4Model::Properties());
}

TEST(ExploreResumeTest, CombinedModel) {
  model::CombinedModel::Config cfg;
  cfg.ues = 3;
  const model::CombinedModel m(cfg);
  ExpectResumeIdentical(m, m.Properties());
}

TEST(ExploreResumeTest, ResumeFromEveryCapturedWave) {
  // Not just the middle snapshot: every wave boundary must be resumable.
  mck::toys::PetersonModel m{false};
  mck::PropertySet<mck::toys::PetersonModel::State> props{
      {"mutex",
       [](const auto& s) { return !mck::toys::PetersonModel::BothCritical(s); },
       ""}};
  std::vector<mck::ExploreSnapshot<mck::toys::PetersonModel>> snaps;
  mck::SnapshotHooks<mck::toys::PetersonModel> capture;
  capture.on_snapshot = [&snaps](const auto& s) { snaps.push_back(s); };
  const auto baseline = mck::Explore(m, props, {}, &capture);
  ASSERT_GE(snaps.size(), 2u);
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    SCOPED_TRACE("snapshot #" + std::to_string(i));
    mck::SnapshotHooks<mck::toys::PetersonModel> resume;
    resume.resume = &snaps[i];
    const auto r = mck::Explore(m, props, {}, &resume);
    EXPECT_EQ(DeterministicView(r.stats), DeterministicView(baseline.stats));
    ExpectSameViolations(m, r.violations, baseline.violations);
  }
}

TEST(SnapshotCodecTest, RejectsTruncatedPayload) {
  mck::toys::DeadlockModel m;
  std::vector<mck::ExploreSnapshot<mck::toys::DeadlockModel>> snaps;
  mck::SnapshotHooks<mck::toys::DeadlockModel> capture;
  capture.on_snapshot = [&snaps](const auto& s) { snaps.push_back(s); };
  mck::ExploreOptions opt;
  opt.detect_deadlock = true;
  (void)mck::Explore(m, {}, opt, &capture);
  ASSERT_FALSE(snaps.empty());
  const std::string payload = EncodeSnapshot(snaps.front());
  mck::ExploreSnapshot<mck::toys::DeadlockModel> out;
  for (const std::size_t cut : {payload.size() - 1, payload.size() / 2,
                                std::size_t{0}}) {
    EXPECT_FALSE(DecodeSnapshot<mck::toys::DeadlockModel>(
        std::string_view(payload).substr(0, cut), &out))
        << "cut=" << cut;
  }
  // Trailing garbage is a layout mismatch too.
  EXPECT_FALSE(
      DecodeSnapshot<mck::toys::DeadlockModel>(payload + "x", &out));
}

TEST(SnapshotCodecTest, RejectsStructurallyInvalidSnapshots) {
  using M = mck::toys::CounterModel;
  mck::ExploreSnapshot<M> snap;
  snap.nodes.resize(2);
  snap.nodes[0].parent = mck::kNoParentRank;
  snap.nodes[1].state.value = 1;
  snap.nodes[1].parent = 0;
  for (auto& node : snap.nodes) node.hash = mck::toys::HashValue(node.state);
  snap.frontier = {1};
  mck::ExploreSnapshot<M> out;
  ASSERT_TRUE(DecodeSnapshot<M>(EncodeSnapshot<M>(snap), &out));

  // A parent rank pointing forward would index into undiscovered state.
  auto bad_parent = snap;
  bad_parent.nodes[1].parent = 1;
  EXPECT_FALSE(DecodeSnapshot<M>(EncodeSnapshot<M>(bad_parent), &out));

  // A frontier rank past the node list would index out of bounds.
  auto bad_frontier = snap;
  bad_frontier.frontier = {5};
  EXPECT_FALSE(DecodeSnapshot<M>(EncodeSnapshot<M>(bad_frontier), &out));
}

TEST(SnapshotCodecTest, RejectsNodeWhoseHashIsNotHashValue) {
  // A snapshot whose cached hashes disagree with the running build's
  // HashValue (a stale layout, or another model's file) would route states
  // to the wrong shard and never find them again; decoding refuses it.
  using M = model::CombinedModel;
  const M m;
  std::vector<mck::ExploreSnapshot<M>> snaps;
  mck::SnapshotHooks<M> capture;
  capture.on_snapshot = [&snaps](const auto& s) { snaps.push_back(s); };
  (void)mck::Explore(m, m.Properties(), {}, &capture);
  ASSERT_FALSE(snaps.empty());
  const mck::ExploreSnapshot<M>& good = snaps.back();
  ASSERT_GE(good.nodes.size(), 2u);
  mck::ExploreSnapshot<M> out;
  ASSERT_TRUE(DecodeSnapshot<M>(EncodeSnapshot<M>(good), &out));

  for (const std::size_t victim : {std::size_t{0}, good.nodes.size() - 1}) {
    SCOPED_TRACE("node #" + std::to_string(victim));
    auto stale = good;
    stale.nodes[victim].hash ^= 1;
    EXPECT_FALSE(DecodeSnapshot<M>(EncodeSnapshot<M>(stale), &out));
  }
}

TEST(SnapshotCodecTest, CheckpointerRejectsVersion2Snapshot) {
  // v2 files cached the combined model's old field-by-field hashes; the
  // envelope version check turns them away before decoding.
  using M = model::S3Model;
  const std::string dir = FreshDir("version-2");
  constexpr std::uint64_t kDigest = 0x5335ull;
  ExploreCheckpointer<M> cp(dir, "s3", kDigest);
  M m;
  std::vector<mck::ExploreSnapshot<M>> snaps;
  mck::SnapshotHooks<M> capture;
  capture.on_snapshot = [&snaps](const auto& s) { snaps.push_back(s); };
  (void)mck::Explore(m, m.Properties(), {}, &capture);
  ASSERT_FALSE(snaps.empty());
  ASSERT_TRUE(WriteCheckpointFile(cp.path(), PayloadType::kExploreSnapshot,
                                  2, kDigest, EncodeSnapshot<M>(snaps[0])));
  mck::ExploreSnapshot<M> snap;
  const auto rs = cp.TryLoad(&snap);
  EXPECT_FALSE(rs.loaded);
  EXPECT_EQ(rs.primary, LoadStatus::kBadVersion);
}

// --- ExploreCheckpointer rotation under file damage -------------------------

class CheckpointerRotationTest : public testing::Test {
 protected:
  using M = model::S3Model;

  // Runs the S3 model with `cp` writing a snapshot every wave, so both the
  // primary and the .prev snapshot exist afterwards.
  void WriteCheckpoints(ExploreCheckpointer<M>& cp) {
    M m;
    baseline_ = mck::ParallelExplore(m, m.Properties(), {}, nullptr,
                                     cp.hooks(nullptr));
    ASSERT_GE(cp.snapshots_written(), 2u);
    EXPECT_EQ(cp.save_failures(), 0u);
    ASSERT_TRUE(fs::exists(cp.path()));
    ASSERT_TRUE(fs::exists(cp.prev_path()));
  }

  void ExpectResumedRunMatchesBaseline(const mck::ExploreSnapshot<M>& snap) {
    M m;
    mck::SnapshotHooks<M> resume;
    resume.resume = &snap;
    const auto r = mck::ParallelExplore(m, m.Properties(), {}, nullptr,
                                        &resume);
    EXPECT_EQ(DeterministicView(r.stats),
              DeterministicView(baseline_.stats));
    ExpectSameViolations(m, r.violations, baseline_.violations);
  }

  static constexpr std::uint64_t kDigest = 0x5335ull;
  mck::ParallelExploreResult<M> baseline_;
};

TEST_F(CheckpointerRotationTest, PristinePrimaryLoads) {
  ExploreCheckpointer<M> cp(FreshDir("pristine"), "s3", kDigest);
  WriteCheckpoints(cp);
  mck::ExploreSnapshot<M> snap;
  const auto rs = cp.TryLoad(&snap);
  EXPECT_TRUE(rs.loaded);
  EXPECT_FALSE(rs.fell_back);
  EXPECT_EQ(rs.primary, LoadStatus::kOk);
  ExpectResumedRunMatchesBaseline(snap);
}

TEST_F(CheckpointerRotationTest, FlippedByteFallsBackToLastGood) {
  ExploreCheckpointer<M> cp(FreshDir("flipped"), "s3", kDigest);
  WriteCheckpoints(cp);
  FlipPayloadByte(cp.path());
  mck::ExploreSnapshot<M> snap;
  const auto rs = cp.TryLoad(&snap);
  EXPECT_TRUE(rs.loaded);
  EXPECT_TRUE(rs.fell_back);
  EXPECT_EQ(rs.primary, LoadStatus::kChecksumMismatch);
  EXPECT_EQ(rs.fallback, LoadStatus::kOk);
  ExpectResumedRunMatchesBaseline(snap);
}

TEST_F(CheckpointerRotationTest, TruncationFallsBackToLastGood) {
  ExploreCheckpointer<M> cp(FreshDir("truncated"), "s3", kDigest);
  WriteCheckpoints(cp);
  const std::string bytes = ReadAll(cp.path());
  WriteAll(cp.path(), bytes.substr(0, bytes.size() / 2));
  mck::ExploreSnapshot<M> snap;
  const auto rs = cp.TryLoad(&snap);
  EXPECT_TRUE(rs.loaded);
  EXPECT_TRUE(rs.fell_back);
  EXPECT_EQ(rs.primary, LoadStatus::kTruncated);
  ExpectResumedRunMatchesBaseline(snap);
}

TEST_F(CheckpointerRotationTest, BothDamagedReportsFreshStart) {
  ExploreCheckpointer<M> cp(FreshDir("both-damaged"), "s3", kDigest);
  WriteCheckpoints(cp);
  FlipPayloadByte(cp.path());
  FlipPayloadByte(cp.prev_path());
  mck::ExploreSnapshot<M> snap;
  const auto rs = cp.TryLoad(&snap);
  EXPECT_FALSE(rs.loaded);
  EXPECT_EQ(rs.primary, LoadStatus::kChecksumMismatch);
  EXPECT_EQ(rs.fallback, LoadStatus::kChecksumMismatch);
}

TEST_F(CheckpointerRotationTest, ConfigMismatchRefusesToLoad) {
  const std::string dir = FreshDir("config-mismatch");
  ExploreCheckpointer<M> cp(dir, "s3", kDigest);
  WriteCheckpoints(cp);
  // Same files, different sweep definition: the resume must be rejected
  // rather than silently mixing incompatible state.
  ExploreCheckpointer<M> other(dir, "s3", kDigest + 1);
  mck::ExploreSnapshot<M> snap;
  const auto rs = other.TryLoad(&snap);
  EXPECT_FALSE(rs.loaded);
  EXPECT_EQ(rs.primary, LoadStatus::kConfigMismatch);
  EXPECT_EQ(rs.fallback, LoadStatus::kConfigMismatch);
}

}  // namespace
}  // namespace cnv::ckpt
