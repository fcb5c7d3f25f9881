// CampaignRunner end-to-end: the S1-S6 canned plans must reproduce their
// findings on the carrier profile where the paper observed them, and the
// sweep bookkeeping (runs, SLO counts, summary) must hold together.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "digest.h"
#include "fault/campaign.h"

namespace cnv::fault {
namespace {

using testutil::ByteWriter;

// Lossless byte layout of a run outcome — monitor report, findings,
// degradation, trace log and telemetry — hashed by CellOutcomesArePinned.
// Field order and widths are part of the pinned digests.
void EncodeMonitorReport(ByteWriter& w, const MonitorReport& r) {
  w.U64(r.properties.size());
  for (const auto& p : r.properties) {
    w.Str(p.name);
    w.U8(p.established ? 1 : 0);
    w.U8(p.ok_at_end ? 1 : 0);
    w.I64(p.outages);
    w.I64(p.total_outage);
    w.I64(p.longest_outage);
    w.I64(p.slo);
  }
  w.U64(r.findings.size());
  for (const auto& f : r.findings) {
    w.Str(f.id);
    w.Str(f.detail);
  }
  const DegradationReport& d = r.degradation;
  w.U8(d.active ? 1 : 0);
  w.U64(d.storm_injected);
  w.U64(d.offered);
  w.U64(d.served);
  w.U64(d.rejected_congestion);
  w.U64(d.shed);
  w.U64(d.integrity_rejected);
  w.U64(d.replay_dropped);
  w.U64(d.queue_peak);
  w.F64(d.shed_fraction);
  w.F64(d.attach_p99_s);
  w.U64(d.ue_congestion_rejects);
  w.U64(d.ue_congestion_backoffs);
  w.U8(d.drained ? 1 : 0);
  w.I64(d.time_to_drain);
  w.I64(d.attach_p99_slo);
  w.F64(d.shed_fraction_slo);
  w.I64(d.drain_slo);
}

// sim.events_executed and sim.events_scheduled count the monitor's samples
// as well as the run's own events (DESIGN "Idle skip"). Replaces their
// values in a registry JSON snapshot with "_", so a digest of the result
// holds across changes to how often the monitor samples.
std::string MaskEventTotals(std::string json) {
  for (const std::string key :
       {"\"sim.events_executed\":", "\"sim.events_scheduled\":"}) {
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at)) {
      at += key.size();
      std::size_t end = at;
      while (end < json.size() && json[end] >= '0' && json[end] <= '9') ++end;
      json.replace(at, end - at, "_");
    }
  }
  return json;
}

void EncodeTelemetry(ByteWriter& w, const obs::RunReport& t,
                     bool mask_event_totals) {
  const auto metrics = [mask_event_totals](const std::string& json) {
    return mask_event_totals ? MaskEventTotals(json) : json;
  };
  w.U64(t.meta.size());
  for (const auto& [k, v] : t.meta) {
    w.Str(k);
    w.Str(v);
  }
  w.U64(t.snapshots.size());
  for (const auto& s : t.snapshots) w.Str(metrics(s));
  w.Str(metrics(t.final_metrics));
  w.U64(t.spans.size());
  for (const auto& s : t.spans) {
    w.U8(static_cast<std::uint8_t>(s.kind));
    w.I64(s.start);
    w.I64(s.end);
    w.U8(static_cast<std::uint8_t>(s.outcome));
    w.I64(s.retries);
    w.Str(s.detail);
  }
}

std::string EncodeRunOutcome(const RunOutcome& out,
                             bool mask_event_totals = false) {
  ByteWriter w;
  w.U64(out.seed);
  w.Str(out.plan);
  w.Str(out.profile);
  w.Str(out.admission);
  EncodeMonitorReport(w, out.report);
  w.U64(out.faults_injected);
  w.Str(out.trace_log);
  w.U8(out.telemetry.has_value() ? 1 : 0);
  if (out.telemetry.has_value()) {
    EncodeTelemetry(w, *out.telemetry, mask_event_totals);
  }
  return w.bytes();
}

// plans::Storms() with every storm burst scaled to a tenth, which keeps the
// storm pins below quick.
std::vector<FaultPlan> TenthScaleStorms() {
  std::vector<FaultPlan> storms = plans::Storms();
  for (FaultPlan& plan : storms) {
    for (FaultAction& action : plan.actions) {
      const bool storm = action.kind == FaultKind::kStormMassAttach ||
                         action.kind == FaultKind::kStormTaPingPong ||
                         action.kind == FaultKind::kStormPagingFlood ||
                         action.kind == FaultKind::kStormAdversarialNas;
      if (storm) action.count = std::max(1, action.count / 10);
    }
  }
  return storms;
}

bool HasFinding(const RunOutcome& run, const std::string& id) {
  for (const auto& f : run.report.findings) {
    if (f.id == id) return true;
  }
  return false;
}

RunOutcome RunPlan(const FaultPlan& plan, const stack::CarrierProfile& profile,
                   std::uint64_t seed = 1) {
  CampaignConfig cfg;
  CampaignRunner runner(cfg);
  return runner.RunOne(seed, plan, profile);
}

TEST(CampaignFindingsTest, S1PdpLossMidCsfbReproducesOnOpI) {
  const RunOutcome run = RunPlan(plans::S1MissingBearerContext(), stack::OpI());
  EXPECT_TRUE(HasFinding(run, "S1")) << run.report.findings.size();
  EXPECT_EQ(run.faults_injected, 1u);
}

TEST(CampaignFindingsTest, S2LostAttachCompleteReproduces) {
  const RunOutcome run = RunPlan(plans::S2AttachDisruption(), stack::OpI());
  EXPECT_TRUE(HasFinding(run, "S2"));
}

TEST(CampaignFindingsTest, S3StuckIn3gReproducesOnCellReselection) {
  const RunOutcome run = RunPlan(plans::S3StuckIn3g(), stack::OpII());
  EXPECT_TRUE(HasFinding(run, "S3"));
}

TEST(CampaignFindingsTest, S3DoesNotFireOnReleaseWithRedirect) {
  // OP-I releases with redirect: the device comes straight back to 4G, so
  // the same control plan must stay quiet on S3.
  const RunOutcome run = RunPlan(plans::S3StuckIn3g(), stack::OpI());
  EXPECT_FALSE(HasFinding(run, "S3"));
}

TEST(CampaignFindingsTest, S4HolBlockingReproducesOnOpII) {
  const RunOutcome run = RunPlan(plans::S4MmHolBlocking(), stack::OpII());
  EXPECT_TRUE(HasFinding(run, "S4"));
}

TEST(CampaignFindingsTest, S5SharedChannelDropReproducesOnOpI) {
  const RunOutcome run = RunPlan(plans::S5SharedChannelDrop(), stack::OpI());
  EXPECT_TRUE(HasFinding(run, "S5"));
}

TEST(CampaignFindingsTest, S6SgsRaceReproducesOnOpI) {
  // OP-II cannot hit the race under this workload: the pinned data session
  // strands the device in 3G (S3), so the return TAU that would carry the
  // SGs update never happens. OP-II coverage lives in stack_s5_s6_test.
  EXPECT_TRUE(
      HasFinding(RunPlan(plans::S6LuFailurePropagation(), stack::OpI()), "S6"));
}

TEST(CampaignFindingsTest, SweepAcrossBothCarriersReproducesAllSixFindings) {
  CampaignConfig cfg;
  cfg.seeds = {1};
  cfg.profiles = {stack::OpI(), stack::OpII()};
  const CampaignResult result = CampaignRunner(cfg).Run();
  std::set<std::string> ids;
  for (const auto& run : result.runs) {
    for (const auto& f : run.report.findings) ids.insert(f.id);
  }
  for (const std::string id : {"S1", "S2", "S3", "S4", "S5", "S6"}) {
    EXPECT_TRUE(ids.count(id)) << id << " never reproduced in the sweep";
  }
}

TEST(CampaignFindingsTest, FindingsAreStableAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    EXPECT_TRUE(HasFinding(
        RunPlan(plans::S2AttachDisruption(), stack::OpI(), seed), "S2"))
        << "seed " << seed;
    EXPECT_TRUE(HasFinding(
        RunPlan(plans::S6LuFailurePropagation(), stack::OpI(), seed), "S6"))
        << "seed " << seed;
  }
}

// Every canned plan on both carriers at seed 1, pinned as the FNV-1a digest
// of the encoded outcome with its full QXDM trace: monitor report, findings,
// storm degradation and every trace line. Kernel-level rewrites (event
// queue, monitor sampling, storm scheduling, trace formatting) must leave
// every digest unchanged; a deliberate behaviour change re-pins them.
TEST(CampaignTest, CellOutcomesArePinned) {
  struct Pin {
    const char* plan;
    const char* profile;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"s1-missing-bearer-context", "OP-I", 0xb8f7a71bca23b505ULL},
      {"s1-missing-bearer-context", "OP-II", 0x1b3c10134d8f6823ULL},
      {"s2-attach-disruption", "OP-I", 0xdb9643e42d79f043ULL},
      {"s2-attach-disruption", "OP-II", 0x957cb598f96bc133ULL},
      {"s3-stuck-in-3g", "OP-I", 0x68a54f271cd76ea3ULL},
      {"s3-stuck-in-3g", "OP-II", 0x62369a8cb5b90e0aULL},
      {"s4-mm-hol-blocking", "OP-I", 0x1808296a2b343ffdULL},
      {"s4-mm-hol-blocking", "OP-II", 0x30083c7fc68c1834ULL},
      {"s5-shared-channel-drop", "OP-I", 0xe01d45f1bd99681fULL},
      {"s5-shared-channel-drop", "OP-II", 0x471d948ed41469c6ULL},
      {"s6-lu-failure-propagation", "OP-I", 0xd01349a26fc8eeb7ULL},
      {"s6-lu-failure-propagation", "OP-II", 0xd72100cafe59a1ccULL},
      {"mme-crash-restart", "OP-I", 0xfd81978af49f5968ULL},
      {"mme-crash-restart", "OP-II", 0xa0d0ee1ae4b1cc41ULL},
      {"msc-outage", "OP-I", 0x0c68c5c7c377353fULL},
      {"msc-outage", "OP-II", 0x96105d0f4241480dULL},
      {"sgsn-flap", "OP-I", 0x3a0aedd310db770fULL},
      {"sgsn-flap", "OP-II", 0xba957a7633a051d2ULL},
      {"hss-blackout", "OP-I", 0x47286e8e6cbc5657ULL},
      {"hss-blackout", "OP-II", 0x30e9c8ac7b4d623aULL},
      {"radio-burst-loss", "OP-I", 0x7ff4439875fb1a3bULL},
      {"radio-burst-loss", "OP-II", 0x82d2e7df59b01d43ULL},
      {"backhaul-degradation", "OP-I", 0xf788668943abfa1bULL},
      {"backhaul-degradation", "OP-II", 0x80dfc9eaae951f74ULL},
      {"timer-skew", "OP-I", 0x4b8f2366daaa2303ULL},
      {"timer-skew", "OP-II", 0x188c0298626fa1deULL},
      {"attach-interference", "OP-I", 0xdbaab537c2d22b20ULL},
      {"attach-interference", "OP-II", 0x6cb022d6f9bc4d4dULL},
      {"mass-attach-storm", "OP-I", 0xbd92eb5d4e2ffae1ULL},
      {"mass-attach-storm", "OP-II", 0x222067ae0d200011ULL},
      {"ta-ping-pong-storm", "OP-I", 0xd434813e12969e28ULL},
      {"ta-ping-pong-storm", "OP-II", 0xbdc4a42641567cb6ULL},
      {"paging-flood-storm", "OP-I", 0xf99db7c02f31244cULL},
      {"paging-flood-storm", "OP-II", 0xca5be5d8308aafe8ULL},
      {"adversarial-nas-storm", "OP-I", 0x7f90b744366fe8dbULL},
      {"adversarial-nas-storm", "OP-II", 0xc78ed3a8138ea3d7ULL},
      {"signalling-storm-mix", "OP-I", 0x88ecaef239b41b19ULL},
      {"signalling-storm-mix", "OP-II", 0x80f44ca6bad659efULL},
  };
  CampaignConfig cfg;
  const CampaignRunner runner(cfg, /*keep_traces=*/true);
  std::size_t checked = 0;
  for (const auto& plan : plans::All()) {
    for (const auto& profile : {stack::OpI(), stack::OpII()}) {
      const RunOutcome run = runner.RunOne(1, plan, profile);
      const Pin* pin = nullptr;
      for (const Pin& p : pins) {
        if (plan.name == p.plan && profile.name == p.profile) pin = &p;
      }
      ASSERT_NE(pin, nullptr) << plan.name << " " << profile.name;
      EXPECT_EQ(testutil::Fnv1a64(EncodeRunOutcome(run)), pin->digest)
          << plan.name << " on " << profile.name;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(pins));
}

// CellOutcomesArePinned runs the legacy core with telemetry off, so it sees
// neither the admission paths a storm drives nor the kernel counters the
// telemetry exports (sim.events_*, sim.queue_depth_peak, sim.handler_slots).
// Here every storm plan runs under each enabled admission policy with
// telemetry on, its storms scaled to a tenth to keep the test quick.
TEST(CampaignTest, StormTelemetryIsPinned) {
  struct Pin {
    const char* plan;
    const char* profile;
    const char* admission;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"mass-attach-storm", "OP-I", "unbounded",
       0xfa524379133d3658ULL},
      {"mass-attach-storm", "OP-I", "reject-backoff",
       0xaf71aadb1b700603ULL},
      {"mass-attach-storm", "OP-I", "priority-shed",
       0x59e2e46c54992a63ULL},
      {"mass-attach-storm", "OP-II", "unbounded",
       0x88ddea2857822e0fULL},
      {"mass-attach-storm", "OP-II", "reject-backoff",
       0x548af65850ac0e46ULL},
      {"mass-attach-storm", "OP-II", "priority-shed",
       0x961df9a2bc345124ULL},
      {"ta-ping-pong-storm", "OP-I", "unbounded",
       0xcb1aeee48d360b19ULL},
      {"ta-ping-pong-storm", "OP-I", "reject-backoff",
       0x52ed168c9a948719ULL},
      {"ta-ping-pong-storm", "OP-I", "priority-shed",
       0xdad21799aefee139ULL},
      {"ta-ping-pong-storm", "OP-II", "unbounded",
       0xd960d951d3b66648ULL},
      {"ta-ping-pong-storm", "OP-II", "reject-backoff",
       0x3a2db41f3cafb0f1ULL},
      {"ta-ping-pong-storm", "OP-II", "priority-shed",
       0xf960a1596210788dULL},
      {"paging-flood-storm", "OP-I", "unbounded",
       0x3495744180a05d4bULL},
      {"paging-flood-storm", "OP-I", "reject-backoff",
       0x0e1d46fbca3d2dfeULL},
      {"paging-flood-storm", "OP-I", "priority-shed",
       0xecb61c1029750580ULL},
      {"paging-flood-storm", "OP-II", "unbounded",
       0x59e325ead79dce60ULL},
      {"paging-flood-storm", "OP-II", "reject-backoff",
       0xc105eb5d5a27ba27ULL},
      {"paging-flood-storm", "OP-II", "priority-shed",
       0x921ee20a666aede3ULL},
      {"adversarial-nas-storm", "OP-I", "unbounded",
       0xd4f2abca7d6ad3c1ULL},
      {"adversarial-nas-storm", "OP-I", "reject-backoff",
       0xa35bf04d5e868949ULL},
      {"adversarial-nas-storm", "OP-I", "priority-shed",
       0x164685366acb9b01ULL},
      {"adversarial-nas-storm", "OP-II", "unbounded",
       0x8714b7a583a4ae5fULL},
      {"adversarial-nas-storm", "OP-II", "reject-backoff",
       0x97479ae6ef94f9f3ULL},
      {"adversarial-nas-storm", "OP-II", "priority-shed",
       0x24e8a76a346cd7dbULL},
      {"signalling-storm-mix", "OP-I", "unbounded",
       0x82edbec6c0c26772ULL},
      {"signalling-storm-mix", "OP-I", "reject-backoff",
       0xce0dd373db60681fULL},
      {"signalling-storm-mix", "OP-I", "priority-shed",
       0x6acba5963a2949f5ULL},
      {"signalling-storm-mix", "OP-II", "unbounded",
       0xd1cbd1fb2ed7c2deULL},
      {"signalling-storm-mix", "OP-II", "reject-backoff",
       0x8bbb95c424f41cd9ULL},
      {"signalling-storm-mix", "OP-II", "priority-shed",
       0xd826de1a4a497a59ULL},
  };
  CampaignConfig cfg;
  cfg.collect_telemetry = true;
  const CampaignRunner runner(cfg, /*keep_traces=*/true);
  std::size_t checked = 0;
  for (const FaultPlan& plan : TenthScaleStorms()) {
    for (const auto& profile : {stack::OpI(), stack::OpII()}) {
      for (const stack::AdmissionPolicy policy :
           {stack::AdmissionPolicy::kUnbounded,
            stack::AdmissionPolicy::kRejectBackoff,
            stack::AdmissionPolicy::kPriorityShed}) {
        stack::OverloadConfig overload;
        overload.policy = policy;
        const RunOutcome run = runner.RunOne(1, plan, profile, overload);
        const Pin* pin = nullptr;
        for (const Pin& p : pins) {
          if (plan.name == p.plan && profile.name == p.profile &&
              run.admission == p.admission) {
            pin = &p;
          }
        }
        ASSERT_NE(pin, nullptr)
            << plan.name << " " << profile.name << " " << run.admission;
        EXPECT_EQ(testutil::Fnv1a64(EncodeRunOutcome(run)), pin->digest)
            << plan.name << " on " << profile.name << " under "
            << run.admission;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(pins));
}

// The two pins above run with robustness off, so neither sees a NAS
// retransmission, a re-attach backoff, a CM re-request or the core's
// queue-and-replay. Here every plan runs on the robust stack, and every
// storm plan runs again under reject-backoff (storms scaled to a tenth),
// where the device's T3346 paths fire. Telemetry is on so the kernel's
// timer counters (sim.timers_armed/fired/cancelled) are pinned as well.
TEST(CampaignTest, RobustCellOutcomesArePinned) {
  struct Pin {
    const char* plan;
    const char* profile;
    const char* admission;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"s1-missing-bearer-context", "OP-I", "",
       0x03a73bbfa2e854faULL},
      {"s1-missing-bearer-context", "OP-II", "",
       0xe2de9b214ca91bb2ULL},
      {"s2-attach-disruption", "OP-I", "",
       0x454da949c5b9dff3ULL},
      {"s2-attach-disruption", "OP-II", "",
       0xc5e3b0db733f8aebULL},
      {"s3-stuck-in-3g", "OP-I", "",
       0x5119430e462a0404ULL},
      {"s3-stuck-in-3g", "OP-II", "",
       0x832750ac7ee5512cULL},
      {"s4-mm-hol-blocking", "OP-I", "",
       0x90ef732cb46cb7e7ULL},
      {"s4-mm-hol-blocking", "OP-II", "",
       0x027ed0cc9123ad20ULL},
      {"s5-shared-channel-drop", "OP-I", "",
       0x0cbd63a038959e40ULL},
      {"s5-shared-channel-drop", "OP-II", "",
       0x14ee13ffa9f79c54ULL},
      {"s6-lu-failure-propagation", "OP-I", "",
       0xbafc961ad14bc499ULL},
      {"s6-lu-failure-propagation", "OP-II", "",
       0x04c236c81d184431ULL},
      {"mme-crash-restart", "OP-I", "",
       0x4baed04107210fd2ULL},
      {"mme-crash-restart", "OP-II", "",
       0x5f0bd7b32b4ee782ULL},
      {"msc-outage", "OP-I", "",
       0x12ef16c56dd67666ULL},
      {"msc-outage", "OP-II", "",
       0xc4bd585f5249eee6ULL},
      {"sgsn-flap", "OP-I", "",
       0x00c9352b6b7df492ULL},
      {"sgsn-flap", "OP-II", "",
       0x2b092863be3d14a3ULL},
      {"hss-blackout", "OP-I", "",
       0x1ab09f7bc6434eecULL},
      {"hss-blackout", "OP-II", "",
       0x1d9ae7b04c60f8dcULL},
      {"radio-burst-loss", "OP-I", "",
       0x5f77477ed71aace7ULL},
      {"radio-burst-loss", "OP-II", "",
       0x79bc4a17b528cb2fULL},
      {"backhaul-degradation", "OP-I", "",
       0x761bbfa3bca53d7fULL},
      {"backhaul-degradation", "OP-II", "",
       0xf42b23b7f89f32afULL},
      {"timer-skew", "OP-I", "",
       0xf2da8d2f074ba01cULL},
      {"timer-skew", "OP-II", "",
       0xf0c5c135f02cde46ULL},
      {"attach-interference", "OP-I", "",
       0x51f99a35f09c380aULL},
      {"attach-interference", "OP-II", "",
       0xdf847c0dd399d357ULL},
      {"mass-attach-storm", "OP-I", "",
       0xffc634b1b9ff29d9ULL},
      {"mass-attach-storm", "OP-II", "",
       0xf9f53978e95ea1ecULL},
      {"ta-ping-pong-storm", "OP-I", "",
       0x4643a41f1735e92cULL},
      {"ta-ping-pong-storm", "OP-II", "",
       0xfe14b823c4b23fafULL},
      {"paging-flood-storm", "OP-I", "",
       0x0f97b4d4490ef98eULL},
      {"paging-flood-storm", "OP-II", "",
       0x8cbae2af5ce1de81ULL},
      {"adversarial-nas-storm", "OP-I", "",
       0xe48657a9785d21feULL},
      {"adversarial-nas-storm", "OP-II", "",
       0x9803b6af017beca3ULL},
      {"signalling-storm-mix", "OP-I", "",
       0x1b067a6d32406ae8ULL},
      {"signalling-storm-mix", "OP-II", "",
       0xab7802a0b97288d2ULL},
      {"mass-attach-storm", "OP-I", "reject-backoff",
       0x93816f28bbc3d723ULL},
      {"mass-attach-storm", "OP-II", "reject-backoff",
       0x98f83ebf8b4a5309ULL},
      {"ta-ping-pong-storm", "OP-I", "reject-backoff",
       0xa3c85bc4ae3f5019ULL},
      {"ta-ping-pong-storm", "OP-II", "reject-backoff",
       0xd7c65064d2dc22f9ULL},
      {"paging-flood-storm", "OP-I", "reject-backoff",
       0xd96ed25cd05d39e6ULL},
      {"paging-flood-storm", "OP-II", "reject-backoff",
       0x7dc985dfbb82f730ULL},
      {"adversarial-nas-storm", "OP-I", "reject-backoff",
       0x8cb4dd9b63684278ULL},
      {"adversarial-nas-storm", "OP-II", "reject-backoff",
       0xd0ac1a657d3c4f95ULL},
      {"signalling-storm-mix", "OP-I", "reject-backoff",
       0xa2920246817fc534ULL},
      {"signalling-storm-mix", "OP-II", "reject-backoff",
       0xb5067249af4b1779ULL},
  };
  CampaignConfig cfg;
  cfg.robust = true;
  cfg.collect_telemetry = true;
  const CampaignRunner runner(cfg, /*keep_traces=*/true);
  std::size_t checked = 0;
  const auto check = [&](const RunOutcome& run) {
    const Pin* pin = nullptr;
    for (const Pin& p : pins) {
      if (run.plan == p.plan && run.profile == p.profile &&
          run.admission == p.admission) {
        pin = &p;
      }
    }
    const std::uint64_t digest = testutil::Fnv1a64(EncodeRunOutcome(run));
    ASSERT_NE(pin, nullptr) << run.plan << " " << run.profile << " "
                            << run.admission << " " << std::hex << digest;
    EXPECT_EQ(digest, pin->digest)
        << run.plan << " on " << run.profile << " under " << run.admission
        << ": 0x" << std::hex << digest;
    ++checked;
  };
  for (const auto& plan : plans::All()) {
    for (const auto& profile : {stack::OpI(), stack::OpII()}) {
      check(runner.RunOne(1, plan, profile));
    }
  }
  stack::OverloadConfig overload;
  overload.policy = stack::AdmissionPolicy::kRejectBackoff;
  for (const FaultPlan& plan : TenthScaleStorms()) {
    for (const auto& profile : {stack::OpI(), stack::OpII()}) {
      check(runner.RunOne(1, plan, profile, overload));
    }
  }
  EXPECT_EQ(checked, std::size(pins));
}

// The cells of StormTelemetryIsPinned and RobustCellOutcomesArePinned, with
// sim.events_executed and sim.events_scheduled masked out of the telemetry.
// Those two totals count monitor samples; everything else a cell exports
// (monitor report, trace log, snapshots, final metrics, spans) is pinned
// here. A change to how often the monitor samples re-pins the two tests
// above and must leave this one untouched.
TEST(CampaignTest, TelemetryApartFromEventTotalsIsPinned) {
  struct Pin {
    bool robust;
    const char* plan;
    const char* profile;
    const char* admission;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {false, "mass-attach-storm", "OP-I", "unbounded",
       0x777707ea74af523dULL},
      {false, "mass-attach-storm", "OP-I", "reject-backoff",
       0xad836a6eee3f5d9eULL},
      {false, "mass-attach-storm", "OP-I", "priority-shed",
       0xec6ff367b6fb26b2ULL},
      {false, "mass-attach-storm", "OP-II", "unbounded",
       0xb411206635cc5718ULL},
      {false, "mass-attach-storm", "OP-II", "reject-backoff",
       0x4f60643d207c5c03ULL},
      {false, "mass-attach-storm", "OP-II", "priority-shed",
       0x1c710f480ec78c8dULL},
      {false, "ta-ping-pong-storm", "OP-I", "unbounded",
       0xf90955aee2340e21ULL},
      {false, "ta-ping-pong-storm", "OP-I", "reject-backoff",
       0x02208983b5c1da04ULL},
      {false, "ta-ping-pong-storm", "OP-I", "priority-shed",
       0x38bc068adf826614ULL},
      {false, "ta-ping-pong-storm", "OP-II", "unbounded",
       0xcf2e8f74d86f79c8ULL},
      {false, "ta-ping-pong-storm", "OP-II", "reject-backoff",
       0xfe884e5613238bf8ULL},
      {false, "ta-ping-pong-storm", "OP-II", "priority-shed",
       0x35f1753bd67e69ecULL},
      {false, "paging-flood-storm", "OP-I", "unbounded",
       0x1c9fbeb16915a36fULL},
      {false, "paging-flood-storm", "OP-I", "reject-backoff",
       0x18339750ca09cfddULL},
      {false, "paging-flood-storm", "OP-I", "priority-shed",
       0x520999af457a398bULL},
      {false, "paging-flood-storm", "OP-II", "unbounded",
       0x6025df54ab4fa14aULL},
      {false, "paging-flood-storm", "OP-II", "reject-backoff",
       0x65e8e69f92aa5e55ULL},
      {false, "paging-flood-storm", "OP-II", "priority-shed",
       0xef006bb6fcd95dc1ULL},
      {false, "adversarial-nas-storm", "OP-I", "unbounded",
       0xd60686d1ea9da897ULL},
      {false, "adversarial-nas-storm", "OP-I", "reject-backoff",
       0x71c5250d37c19acfULL},
      {false, "adversarial-nas-storm", "OP-I", "priority-shed",
       0xc949a247aac619d7ULL},
      {false, "adversarial-nas-storm", "OP-II", "unbounded",
       0x13896263c369a9e3ULL},
      {false, "adversarial-nas-storm", "OP-II", "reject-backoff",
       0xc874437d818426bfULL},
      {false, "adversarial-nas-storm", "OP-II", "priority-shed",
       0xcebe82e00f88b8e7ULL},
      {false, "signalling-storm-mix", "OP-I", "unbounded",
       0x10d2597297670efbULL},
      {false, "signalling-storm-mix", "OP-I", "reject-backoff",
       0x9fdbd146255dc1afULL},
      {false, "signalling-storm-mix", "OP-I", "priority-shed",
       0xdc4dd3f236e13c1bULL},
      {false, "signalling-storm-mix", "OP-II", "unbounded",
       0xb17b67b54a1c6e54ULL},
      {false, "signalling-storm-mix", "OP-II", "reject-backoff",
       0xd33fd042cbbe9b23ULL},
      {false, "signalling-storm-mix", "OP-II", "priority-shed",
       0x1be41937d3dac367ULL},
      {true, "s1-missing-bearer-context", "OP-I", "",
       0xfc42276e7a1bf109ULL},
      {true, "s1-missing-bearer-context", "OP-II", "",
       0x0733938ab97c581fULL},
      {true, "s2-attach-disruption", "OP-I", "",
       0xe956b40b1c17e868ULL},
      {true, "s2-attach-disruption", "OP-II", "",
       0x982fe87a05843795ULL},
      {true, "s3-stuck-in-3g", "OP-I", "",
       0xf1395e475ce74c7aULL},
      {true, "s3-stuck-in-3g", "OP-II", "",
       0xf74ebe88684fac9bULL},
      {true, "s4-mm-hol-blocking", "OP-I", "",
       0x3953d5240009df98ULL},
      {true, "s4-mm-hol-blocking", "OP-II", "",
       0xe5b1a9ed8410c44fULL},
      {true, "s5-shared-channel-drop", "OP-I", "",
       0x37c38d6d4c288d16ULL},
      {true, "s5-shared-channel-drop", "OP-II", "",
       0xe5ac6c9cf0adf8c3ULL},
      {true, "s6-lu-failure-propagation", "OP-I", "",
       0xffbd8d51df5e7e01ULL},
      {true, "s6-lu-failure-propagation", "OP-II", "",
       0xd10c6ce261a0cc66ULL},
      {true, "mme-crash-restart", "OP-I", "",
       0x7af8ed538663ef08ULL},
      {true, "mme-crash-restart", "OP-II", "",
       0xe872909e9d01cf78ULL},
      {true, "msc-outage", "OP-I", "",
       0xc6d22ac44b4a8056ULL},
      {true, "msc-outage", "OP-II", "",
       0xe067f0564077afd5ULL},
      {true, "sgsn-flap", "OP-I", "",
       0xb34404ea7394950cULL},
      {true, "sgsn-flap", "OP-II", "",
       0xc9b312966388ced3ULL},
      {true, "hss-blackout", "OP-I", "",
       0x94854e1b59c895e1ULL},
      {true, "hss-blackout", "OP-II", "",
       0x836fca7bf551b641ULL},
      {true, "radio-burst-loss", "OP-I", "",
       0x73fdcdb3caa66980ULL},
      {true, "radio-burst-loss", "OP-II", "",
       0x48edc17c5f8aebf0ULL},
      {true, "backhaul-degradation", "OP-I", "",
       0xb5818ebd79c2da28ULL},
      {true, "backhaul-degradation", "OP-II", "",
       0xeeeb120f6dd7c038ULL},
      {true, "timer-skew", "OP-I", "",
       0x7066572a5d709c2fULL},
      {true, "timer-skew", "OP-II", "",
       0xd0fda6dd1a1e655aULL},
      {true, "attach-interference", "OP-I", "",
       0x0ef491ee4591c83aULL},
      {true, "attach-interference", "OP-II", "",
       0x2f0be1cf53f4ad69ULL},
      {true, "mass-attach-storm", "OP-I", "",
       0x911913b0e4293483ULL},
      {true, "mass-attach-storm", "OP-II", "",
       0x71516c42d7dbd364ULL},
      {true, "ta-ping-pong-storm", "OP-I", "",
       0x675460ee6036d822ULL},
      {true, "ta-ping-pong-storm", "OP-II", "",
       0x8fd8bebc6c222565ULL},
      {true, "paging-flood-storm", "OP-I", "",
       0xc9d0943e89a260a8ULL},
      {true, "paging-flood-storm", "OP-II", "",
       0xf15c01e398d7a36bULL},
      {true, "adversarial-nas-storm", "OP-I", "",
       0x3676bedd403e0509ULL},
      {true, "adversarial-nas-storm", "OP-II", "",
       0x81f9c4e82eb8bd3eULL},
      {true, "signalling-storm-mix", "OP-I", "",
       0x475a66de67909192ULL},
      {true, "signalling-storm-mix", "OP-II", "",
       0x8cb0b7fdbc459795ULL},
      {true, "mass-attach-storm", "OP-I", "reject-backoff",
       0x433b7f8f2da17da5ULL},
      {true, "mass-attach-storm", "OP-II", "reject-backoff",
       0x764be3b34a184297ULL},
      {true, "ta-ping-pong-storm", "OP-I", "reject-backoff",
       0xc822f1c5aeaca68bULL},
      {true, "ta-ping-pong-storm", "OP-II", "reject-backoff",
       0x2fe1d1ab0e6958fcULL},
      {true, "paging-flood-storm", "OP-I", "reject-backoff",
       0x3ac3a1f217b116d2ULL},
      {true, "paging-flood-storm", "OP-II", "reject-backoff",
       0xca7a8830e86df2e1ULL},
      {true, "adversarial-nas-storm", "OP-I", "reject-backoff",
       0x786d025e3934bba6ULL},
      {true, "adversarial-nas-storm", "OP-II", "reject-backoff",
       0xd45a68edae77d5f9ULL},
      {true, "signalling-storm-mix", "OP-I", "reject-backoff",
       0x2aa72b5e76ff5ac4ULL},
      {true, "signalling-storm-mix", "OP-II", "reject-backoff",
       0x787c48a754142525ULL},
  };
  std::size_t checked = 0;
  const auto check = [&](bool robust, const RunOutcome& run) {
    const Pin* pin = nullptr;
    for (const Pin& p : pins) {
      if (p.robust == robust && run.plan == p.plan &&
          run.profile == p.profile && run.admission == p.admission) {
        pin = &p;
      }
    }
    const std::uint64_t digest =
        testutil::Fnv1a64(EncodeRunOutcome(run, /*mask_event_totals=*/true));
    ASSERT_NE(pin, nullptr) << "PIN {" << robust << ", \"" << run.plan
                            << "\", \"" << run.profile << "\", \""
                            << run.admission << "\", 0x" << std::hex
                            << digest << "ULL},";
    EXPECT_EQ(digest, pin->digest)
        << (robust ? "robust " : "") << run.plan << " on " << run.profile
        << " under " << run.admission << ": 0x" << std::hex << digest;
    ++checked;
  };
  for (const bool robust : {false, true}) {
    CampaignConfig cfg;
    cfg.robust = robust;
    cfg.collect_telemetry = true;
    const CampaignRunner runner(cfg, /*keep_traces=*/true);
    if (robust) {
      for (const auto& plan : plans::All()) {
        for (const auto& profile : {stack::OpI(), stack::OpII()}) {
          check(robust, runner.RunOne(1, plan, profile));
        }
      }
    }
    for (const FaultPlan& plan : TenthScaleStorms()) {
      for (const auto& profile : {stack::OpI(), stack::OpII()}) {
        for (const stack::AdmissionPolicy policy :
             {stack::AdmissionPolicy::kUnbounded,
              stack::AdmissionPolicy::kRejectBackoff,
              stack::AdmissionPolicy::kPriorityShed}) {
          // The robust pin runs the storms under reject-backoff only.
          if (robust && policy != stack::AdmissionPolicy::kRejectBackoff) {
            continue;
          }
          stack::OverloadConfig overload;
          overload.policy = policy;
          check(robust, runner.RunOne(1, plan, profile, overload));
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(pins));
}

TEST(CampaignSweepTest, RunSweepsSeedsTimesPlansTimesProfiles) {
  CampaignConfig cfg;
  cfg.seeds = {1, 2};
  cfg.plans = {plans::S1MissingBearerContext(), plans::TimerSkew()};
  cfg.profiles = {stack::OpI(), stack::OpII()};
  const CampaignResult result = CampaignRunner(cfg).Run();
  EXPECT_EQ(result.runs.size(), 8u);
  EXPECT_LE(result.runs_within_slo, result.runs.size());
  EXPECT_LE(result.runs_with_findings, result.runs.size());
  // Every run is labelled with its coordinates.
  for (const auto& r : result.runs) {
    EXPECT_FALSE(r.plan.empty());
    EXPECT_FALSE(r.profile.empty());
  }
}

TEST(CampaignSweepTest, SummaryListsEveryRun) {
  CampaignConfig cfg;
  cfg.seeds = {3};
  cfg.plans = {plans::S2AttachDisruption()};
  const CampaignResult result = CampaignRunner(cfg).Run();
  const std::string summary = result.Summary();
  EXPECT_NE(summary.find("1 run(s)"), std::string::npos);
  EXPECT_NE(summary.find("s2-attach-disruption"), std::string::npos);
  EXPECT_NE(summary.find("seed=3"), std::string::npos);
}

TEST(CampaignSweepTest, TracesAreKeptOnlyWhenAskedFor) {
  CampaignConfig cfg;
  const FaultPlan plan = plans::TimerSkew();
  const RunOutcome without =
      CampaignRunner(cfg, /*keep_traces=*/false).RunOne(1, plan, stack::OpI());
  const RunOutcome with =
      CampaignRunner(cfg, /*keep_traces=*/true).RunOne(1, plan, stack::OpI());
  EXPECT_TRUE(without.trace_log.empty());
  EXPECT_FALSE(with.trace_log.empty());
}

TEST(CampaignSweepTest, RobustRunsRecoverWhereBaselineViolatesSlo) {
  // The MME crash plan wipes the registration; a baseline device that
  // never notices stays broken, while the robust stack's periodic TAU plus
  // attach backoff brings service back.
  CampaignConfig base;
  base.seeds = {1};
  base.plans = {plans::MmeCrashRestart()};
  const CampaignResult baseline = CampaignRunner(base).Run();

  CampaignConfig robust = base;
  robust.robust = true;
  const CampaignResult fixed = CampaignRunner(robust).Run();

  ASSERT_EQ(baseline.runs.size(), 1u);
  ASSERT_EQ(fixed.runs.size(), 1u);
  EXPECT_GE(fixed.runs_within_slo, baseline.runs_within_slo);
}

}  // namespace
}  // namespace cnv::fault
