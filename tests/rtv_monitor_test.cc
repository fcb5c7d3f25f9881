// The acceptance bar for the online monitors: replaying each committed
// golden trace raises exactly the expected finding alerts — its own finding
// and nothing else (no misses, no spurious cross-fires anywhere in the
// catalog).
#include "rtv/monitors.h"

#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rtv/alert.h"
#include "trace/qxdm.h"

namespace cnv::rtv {
namespace {

std::string ReadGolden(const std::string& name) {
  const std::string path = std::string(CNV_GOLDEN_DIR) + "/" + name + ".log";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden: " << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::vector<Alert> Replay(const std::string& log) {
  FindingMonitors monitors;
  std::vector<Alert> alerts;
  std::uint64_t ordinal = 0;
  for (const auto& r : trace::ParseLog(log)) {
    monitors.Step(r, ordinal++, &alerts);
  }
  return alerts;
}

struct GoldenExpectation {
  std::string golden;
  std::vector<AlertKind> expected;
};

const std::vector<GoldenExpectation>& Expectations() {
  static const std::vector<GoldenExpectation> kExpectations = {
      {"s1_context_loss_opi", {AlertKind::kS1}},
      {"s2_lost_attach_complete_opi", {AlertKind::kS2}},
      {"s3_stuck_in_3g_opii", {AlertKind::kS3}},
      {"s4_hol_blocking_opi", {AlertKind::kS4}},
      {"s5_call_data_coupling_opi", {AlertKind::kS5}},
      {"s6_lu_failure_detach_opi", {AlertKind::kS6}},
      {"congestion_attach_storm_opi",
       {AlertKind::kOverload, AlertKind::kOverload, AlertKind::kOverload}},
  };
  return kExpectations;
}

TEST(FindingMonitorsTest, EveryGoldenRaisesExactlyItsExpectedAlerts) {
  for (const auto& e : Expectations()) {
    SCOPED_TRACE(e.golden);
    const auto alerts = Replay(ReadGolden(e.golden));
    ASSERT_EQ(alerts.size(), e.expected.size())
        << FormatAlertLog(alerts);
    for (std::size_t i = 0; i < alerts.size(); ++i) {
      EXPECT_EQ(alerts[i].kind, e.expected[i]) << FormatAlert(alerts[i]);
    }
  }
}

TEST(FindingMonitorsTest, NoFindingAlertFiresOnAnotherFindingsGolden) {
  // The cross matrix: S<i>'s alert must never fire while replaying S<j>'s
  // golden (i != j), and no S alert may fire on the congestion golden.
  for (const auto& e : Expectations()) {
    SCOPED_TRACE(e.golden);
    std::map<AlertKind, int> counts;
    for (const auto& a : Replay(ReadGolden(e.golden))) ++counts[a.kind];
    std::map<AlertKind, int> want;
    for (const auto k : e.expected) ++want[k];
    EXPECT_EQ(counts, want);
  }
}

TEST(FindingMonitorsTest, AlertsCarryTimeOrdinalAndDetail) {
  const auto alerts = Replay(ReadGolden("s1_context_loss_opi"));
  ASSERT_EQ(alerts.size(), 1u);
  const Alert& a = alerts[0];
  EXPECT_EQ(a.stream, 0u);
  EXPECT_GT(a.time, 0);
  EXPECT_GT(a.record_index, 0u);
  EXPECT_FALSE(a.detail.empty());
  EXPECT_NE(FormatAlert(a).find("[ALERT] [S1] [stream 0]"),
            std::string::npos);
}

TEST(FindingMonitorsTest, StreamIdTagsEveryAlert) {
  FindingMonitors monitors(7);
  std::vector<Alert> alerts;
  std::uint64_t ordinal = 0;
  for (const auto& r :
       trace::ParseLog(ReadGolden("s2_lost_attach_complete_opi"))) {
    monitors.Step(r, ordinal++, &alerts);
  }
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].stream, 7u);
  EXPECT_NE(FormatAlert(alerts[0]).find("[stream 7]"), std::string::npos);
}

TEST(FindingMonitorsTest, ConcatenatedCatalogStillRaisesEverySignature) {
  // Back-to-back captures in one stream: the power-on at the head of each
  // scenario is a session boundary, so no finding is masked by state left
  // over from the previous capture.
  std::string all;
  std::map<AlertKind, int> want;
  for (const auto& e : Expectations()) {
    all += ReadGolden(e.golden);
    for (const auto k : e.expected) ++want[k];
  }
  std::map<AlertKind, int> counts;
  for (const auto& a : Replay(all)) ++counts[a.kind];
  EXPECT_EQ(counts, want);
}

TEST(FindingMonitorsTest, ReplayingTwiceRaisesEverySignatureTwice) {
  for (const auto& e : Expectations()) {
    SCOPED_TRACE(e.golden);
    const std::string log = ReadGolden(e.golden);
    const auto alerts = Replay(log + log);
    EXPECT_EQ(alerts.size(), 2 * e.expected.size())
        << FormatAlertLog(alerts);
  }
}

TEST(ObserveTest, ExtractsOnlyWhatTheAutomataRead) {
  std::string text = "untouched";
  const Observation reject = Observe(
      "EMM",
      "Tracking Area Update Reject received (cause: implicitly detached)",
      Seconds(3), &text);
  EXPECT_EQ(reject.time, Seconds(3));
  EXPECT_EQ(reject.kind, trace::AbstractKind::kTauReject);
  EXPECT_TRUE(reject.Has(Observation::kImplicitlyDetached));
  EXPECT_FALSE(reject.Has(Observation::kNoEpsBearer));
  EXPECT_FALSE(reject.NeedsText());
  EXPECT_EQ(text, "untouched");

  const Observation dial =
      Observe("CM/CC", "user dials an outgoing call", 0, &text);
  EXPECT_EQ(dial.kind, trace::AbstractKind::kCallDialed);
  EXPECT_TRUE(dial.Has(Observation::kCmLayerDial));

  const Observation power = Observe("UE", "device powers on (4G)", 0, &text);
  EXPECT_TRUE(power.Has(Observation::kPowerOn));
  EXPECT_FALSE(power.kind.has_value());

  const Observation storm = Observe(
      "STORM", "  Mass attach storm begins (count=3)\t", 0, &text);
  EXPECT_TRUE(storm.NeedsText());
  EXPECT_EQ(text, "Mass attach storm begins (count=3)");

  EXPECT_FALSE(Observe("3G-RRC", "RRC DCH", 0, &text).kind.has_value());
}

TEST(ObserveTest, StepOnObservationsMatchesStepOnRecords) {
  // The gateway's path (Observe on the ingest side, then Step) and the
  // offline path (Step on records) raise the same alerts.
  std::string all;
  for (const auto& e : Expectations()) all += ReadGolden(e.golden);
  FindingMonitors monitors;
  std::vector<Alert> alerts;
  std::uint64_t ordinal = 0;
  std::string text;
  for (const auto& r : trace::ParseLog(all)) {
    const Observation o = Observe(r.module, r.description, r.time, &text);
    monitors.Step(o, text, ordinal++, &alerts);
  }
  EXPECT_EQ(FormatAlertLog(alerts), FormatAlertLog(Replay(all)));
}

TEST(AlertKindTest, NamesAreDistinctAndNonEmpty) {
  std::vector<AlertKind> kinds = {AlertKind::kS1, AlertKind::kS2,
                                  AlertKind::kS3, AlertKind::kS4,
                                  AlertKind::kS5, AlertKind::kS6,
                                  AlertKind::kOverload};
  std::map<std::string, int> seen;
  for (const auto k : kinds) {
    const std::string name = ToString(k);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(seen[name]++, 0) << "duplicate name " << name;
  }
}

}  // namespace
}  // namespace cnv::rtv
