// Counter verdict vs trace verdict: the chaos campaign attributes findings
// by probing the testbed's defect counters after a run
// (RecoveryMonitor::ProbeFindings), while the runtime monitors
// (rtv::FindingMonitors) raise them from the run's trace alone. This pins,
// per chaos cell at seed 1, which finding ids each detector reports, so a
// change to either definition shows up here as a named cell.
//
// The two agree on S1, S2, S3 and S6 in every cell. Two gaps are pinned as
// they stand (DESIGN.md "Runtime verification" discusses them):
//   S5  probe-only in 37 of the 38 cells: the probe counts every call that
//       overlaps a data session, CSFB calls included; the automaton skips
//       CSFB visits (S3's territory).
//   S4  probe-only in 18 of the 19 OP-II cells: the probe counts deferred
//       EMM-dialed (CSFB) calls too; the automaton needs a CM/CC-layer dial
//       before the deferral.
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rtv/alert.h"
#include "rtv/monitors.h"
#include "trace/qxdm.h"
#include "trace_corpus.h"

namespace cnv {
namespace {

std::string Ids(const std::set<std::string>& ids) {
  std::string out;
  for (const auto& id : ids) {
    if (!out.empty()) out += ' ';
    out += id;
  }
  return out;
}

std::set<std::string> ProbeIds(const fault::RunOutcome& cell) {
  std::set<std::string> ids;
  for (const auto& f : cell.report.findings) ids.insert(f.id);
  return ids;
}

std::set<std::string> AlertIds(const fault::RunOutcome& cell) {
  rtv::FindingMonitors monitors;
  std::vector<rtv::Alert> alerts;
  std::uint64_t ordinal = 0;
  for (const auto& r : trace::ParseLog(cell.trace_log)) {
    monitors.Step(r, ordinal++, &alerts);
  }
  std::set<std::string> ids;
  for (const auto& a : alerts) {
    if (a.kind != rtv::AlertKind::kOverload) ids.insert(rtv::ToString(a.kind));
  }
  return ids;
}

struct Expected {
  const char* cell;
  const char* probe;   // RecoveryMonitor::ProbeFindings ids
  const char* alerts;  // FindingMonitors alert ids (S1-S6)
};

// clang-format off
const Expected kMatrix[] = {
    {"s1-missing-bearer-context@OP-I", "S1 S5 S6", "S1 S6"},
    {"s1-missing-bearer-context@OP-II", "S1 S3 S4 S5", "S1 S3"},
    {"s2-attach-disruption@OP-I", "S2 S5 S6", "S2 S6"},
    {"s2-attach-disruption@OP-II", "S3 S4 S5", "S3"},
    {"s3-stuck-in-3g@OP-I", "S5 S6", "S6"},
    {"s3-stuck-in-3g@OP-II", "S3 S4 S5", "S3"},
    {"s4-mm-hol-blocking@OP-I", "S5 S6", "S6"},
    {"s4-mm-hol-blocking@OP-II", "S3 S4 S5", "S3"},
    {"s5-shared-channel-drop@OP-I", "S5 S6", "S6"},
    {"s5-shared-channel-drop@OP-II", "S3 S4 S5", "S3"},
    {"s6-lu-failure-propagation@OP-I", "S5 S6", "S6"},
    {"s6-lu-failure-propagation@OP-II", "S3 S4 S5", "S3"},
    {"mme-crash-restart@OP-I", "S2 S5", "S2"},
    {"mme-crash-restart@OP-II", "S3 S4 S5", "S3"},
    {"msc-outage@OP-I", "S5", ""},
    {"msc-outage@OP-II", "S4", "S4"},
    {"sgsn-flap@OP-I", "S5 S6", "S6"},
    {"sgsn-flap@OP-II", "S3 S4 S5", "S3"},
    {"hss-blackout@OP-I", "S5 S6", "S6"},
    {"hss-blackout@OP-II", "S3 S4 S5", "S3"},
    {"radio-burst-loss@OP-I", "S5 S6", "S6"},
    {"radio-burst-loss@OP-II", "S3 S4 S5", "S3"},
    {"backhaul-degradation@OP-I", "S5 S6", "S6"},
    {"backhaul-degradation@OP-II", "S3 S4 S5", "S3"},
    {"timer-skew@OP-I", "S5 S6", "S6"},
    {"timer-skew@OP-II", "S3 S4 S5", "S3"},
    {"attach-interference@OP-I", "S5", ""},
    {"attach-interference@OP-II", "S3 S4 S5", "S3"},
    {"mass-attach-storm@OP-I", "S5 S6", "S6"},
    {"mass-attach-storm@OP-II", "S3 S4 S5", "S3"},
    {"ta-ping-pong-storm@OP-I", "S5 S6", "S6"},
    {"ta-ping-pong-storm@OP-II", "S3 S4 S5", "S3"},
    {"paging-flood-storm@OP-I", "S5 S6", "S6"},
    {"paging-flood-storm@OP-II", "S3 S4 S5", "S3"},
    {"adversarial-nas-storm@OP-I", "S5 S6", "S6"},
    {"adversarial-nas-storm@OP-II", "S3 S4 S5", "S3"},
    {"signalling-storm-mix@OP-I", "S5 S6", "S6"},
    {"signalling-storm-mix@OP-II", "S3 S4 S5", "S3"},
};
// clang-format on

TEST(ProbeAgreementTest, ChaosGridDetectorMatrixIsPinned) {
  const auto& cells = testing::ChaosGridCells();
  ASSERT_EQ(cells.size(), std::size(kMatrix));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string name = cells[i].plan + "@" + cells[i].profile;
    ASSERT_EQ(name, kMatrix[i].cell);
    const std::string probe = Ids(ProbeIds(cells[i]));
    const std::string alerts = Ids(AlertIds(cells[i]));
    const std::string row =
        "{\"" + name + "\", \"" + probe + "\", \"" + alerts + "\"},";
    EXPECT_EQ(probe, kMatrix[i].probe) << row;
    EXPECT_EQ(alerts, kMatrix[i].alerts) << row;
  }
}

}  // namespace
}  // namespace cnv
