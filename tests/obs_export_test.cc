#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "fault/campaign.h"
#include "sim/simulator.h"

namespace cnv::obs {
namespace {

TEST(SnapshotSchedulerTest, SnapshotsFollowTheSimulatorClock) {
  sim::Simulator sim;
  int refreshes = 0;
  SnapshotScheduler snaps(
      sim,
      [&](Registry& reg) {
        ++refreshes;
        reg.GetGauge("now_us").Set(static_cast<double>(sim.now()));
      },
      Seconds(10));
  snaps.Start();
  snaps.Start();  // idempotent: must not double-arm
  // The scheduler perpetually re-arms itself, so the run must be bounded.
  sim.RunAll(Seconds(35));
  // Snapshots at t=10,20,30s; the 40s arming is past the bound.
  ASSERT_EQ(snaps.snapshots().size(), 3u);
  EXPECT_EQ(refreshes, 3);
  EXPECT_NE(snaps.snapshots()[0].find("\"sim_time_us\":10000000"),
            std::string::npos);
  EXPECT_NE(snaps.snapshots()[2].find("\"sim_time_us\":30000000"),
            std::string::npos);
}

TEST(SnapshotSchedulerTest, SnapshotNowUsesCurrentTime) {
  sim::Simulator sim;
  SnapshotScheduler snaps(sim, [](Registry&) {}, Seconds(60));
  snaps.SnapshotNow();
  ASSERT_EQ(snaps.snapshots().size(), 1u);
  EXPECT_NE(snaps.snapshots()[0].find("\"sim_time_us\":0"), std::string::npos);
}

TEST(RunReportTest, JsonShapeAndLabel) {
  RunReport r;
  r.meta = {{"seed", "7"}, {"plan", "s2-attach-disruption"}};
  r.snapshots = {"{\"sim_time_us\":1}"};
  r.final_metrics = "{\"sim_time_us\":2}";
  ProcedureSpan s;
  s.kind = SpanKind::kAttach;
  s.start = 0;
  s.end = Seconds(1);
  s.outcome = SpanOutcome::kSuccess;
  r.spans = {s};

  const std::string json = r.ToJson();
  EXPECT_NE(json.find("\"meta\":{\"seed\":\"7\""), std::string::npos);
  EXPECT_NE(json.find("\"snapshots\":[{\"sim_time_us\":1}]"),
            std::string::npos);
  EXPECT_NE(json.find("\"final\":{\"sim_time_us\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"attach\""), std::string::npos);
  EXPECT_EQ(r.Label(), "seed=7 plan=s2-attach-disruption");
}

// The acceptance bar for the telemetry layer: two runs of the same
// (seed, plan, profile) triple must export byte-identical reports —
// snapshots, final metrics, spans, and the Chrome fragment.
TEST(TelemetryDeterminismTest, RepeatedRunsExportIdenticalBytes) {
  fault::CampaignConfig cfg;
  cfg.collect_telemetry = true;
  fault::CampaignRunner runner(cfg);
  const auto a =
      runner.RunOne(5, fault::plans::S2AttachDisruption(), stack::OpI());
  const auto b =
      runner.RunOne(5, fault::plans::S2AttachDisruption(), stack::OpI());
  ASSERT_TRUE(a.telemetry.has_value());
  ASSERT_TRUE(b.telemetry.has_value());
  EXPECT_FALSE(a.telemetry->snapshots.empty());
  EXPECT_FALSE(a.telemetry->final_metrics.empty());
  EXPECT_FALSE(a.telemetry->spans.empty());
  EXPECT_EQ(a.telemetry->ToJson(), b.telemetry->ToJson());
  EXPECT_EQ(a.telemetry->ChromeFragment(1), b.telemetry->ChromeFragment(1));
}

TEST(TelemetryTest, DisabledByDefault) {
  fault::CampaignConfig cfg;
  fault::CampaignRunner runner(cfg);
  const auto run =
      runner.RunOne(1, fault::plans::S2AttachDisruption(), stack::OpI());
  EXPECT_FALSE(run.telemetry.has_value());
}

TEST(WriteFileTest, CreatesParentDirectories) {
  const auto dir = std::filesystem::temp_directory_path() / "cnv_obs_export";
  std::filesystem::remove_all(dir);
  const auto path = dir / "nested" / "report.json";
  ASSERT_TRUE(WriteFile(path.string(), "{\"ok\":true}"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"ok\":true}");
  std::filesystem::remove_all(dir);
}

// A device that accepts the open but fails every write: the content fits
// the stream buffer, so only the flush at close can report the failure.
TEST(WriteFileTest, ReportsAFailedFlushOnDevFull) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(WriteFile("/dev/full", "{\"ok\":true}"));
}

TEST(SanitizeFilenameTest, ReplacesAwkwardCharacters) {
  EXPECT_EQ(SanitizeFilename("OP-I (release/redirect)"),
            "OP-I--release-redirect-");
  EXPECT_EQ(SanitizeFilename("plain_name-1.json"), "plain_name-1.json");
}

}  // namespace
}  // namespace cnv::obs
