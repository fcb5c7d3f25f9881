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

void EncodeTelemetry(ByteWriter& w, const obs::RunReport& t) {
  w.U64(t.meta.size());
  for (const auto& [k, v] : t.meta) {
    w.Str(k);
    w.Str(v);
  }
  w.U64(t.snapshots.size());
  for (const auto& s : t.snapshots) w.Str(s);
  w.Str(t.final_metrics);
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

std::string EncodeRunOutcome(const RunOutcome& out) {
  ByteWriter w;
  w.U64(out.seed);
  w.Str(out.plan);
  w.Str(out.profile);
  w.Str(out.admission);
  EncodeMonitorReport(w, out.report);
  w.U64(out.faults_injected);
  w.Str(out.trace_log);
  w.U8(out.telemetry.has_value() ? 1 : 0);
  if (out.telemetry.has_value()) EncodeTelemetry(w, *out.telemetry);
  return w.bytes();
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
       0x7deef84eb40fa3ceULL},
      {"mass-attach-storm", "OP-I", "reject-backoff",
       0xb2204a5b854e38adULL},
      {"mass-attach-storm", "OP-I", "priority-shed",
       0x23b23ee2d7d6b2c5ULL},
      {"mass-attach-storm", "OP-II", "unbounded",
       0x143ba670dc3279aeULL},
      {"mass-attach-storm", "OP-II", "reject-backoff",
       0x9a82c4e2fec311c5ULL},
      {"mass-attach-storm", "OP-II", "priority-shed",
       0x35c122a5c37feb9bULL},
      {"ta-ping-pong-storm", "OP-I", "unbounded",
       0x219c51f6f07b37d0ULL},
      {"ta-ping-pong-storm", "OP-I", "reject-backoff",
       0x6266a1b457701194ULL},
      {"ta-ping-pong-storm", "OP-I", "priority-shed",
       0x5266fa6f3fdaf454ULL},
      {"ta-ping-pong-storm", "OP-II", "unbounded",
       0x576892007059ce2cULL},
      {"ta-ping-pong-storm", "OP-II", "reject-backoff",
       0x0cc891f408465afaULL},
      {"ta-ping-pong-storm", "OP-II", "priority-shed",
       0xd012071bc42d0a26ULL},
      {"paging-flood-storm", "OP-I", "unbounded",
       0x07811aac8280ba62ULL},
      {"paging-flood-storm", "OP-I", "reject-backoff",
       0x655f806161642fdcULL},
      {"paging-flood-storm", "OP-I", "priority-shed",
       0x4fcb9ab14456cfcaULL},
      {"paging-flood-storm", "OP-II", "unbounded",
       0xe3a15924fa665fadULL},
      {"paging-flood-storm", "OP-II", "reject-backoff",
       0x0af537edcf23275bULL},
      {"paging-flood-storm", "OP-II", "priority-shed",
       0x21b2f4aec482ed4fULL},
      {"adversarial-nas-storm", "OP-I", "unbounded",
       0x0495a404b78fa14fULL},
      {"adversarial-nas-storm", "OP-I", "reject-backoff",
       0xfb50cfbdea754ea7ULL},
      {"adversarial-nas-storm", "OP-I", "priority-shed",
       0x5e6a022c34d9908fULL},
      {"adversarial-nas-storm", "OP-II", "unbounded",
       0x3cf345bf1fa4df40ULL},
      {"adversarial-nas-storm", "OP-II", "reject-backoff",
       0xc8af9404a8f8cda4ULL},
      {"adversarial-nas-storm", "OP-II", "priority-shed",
       0xe6179b11456300fcULL},
      {"signalling-storm-mix", "OP-I", "unbounded",
       0x264072d54e93aeb6ULL},
      {"signalling-storm-mix", "OP-I", "reject-backoff",
       0x51f964f93bbc4a63ULL},
      {"signalling-storm-mix", "OP-I", "priority-shed",
       0xf3023031e4a70329ULL},
      {"signalling-storm-mix", "OP-II", "unbounded",
       0xf37d5a67233fa1c1ULL},
      {"signalling-storm-mix", "OP-II", "reject-backoff",
       0xd3fae6cd5bc73dfdULL},
      {"signalling-storm-mix", "OP-II", "priority-shed",
       0xc9e3c2bbe2cc467bULL},
  };
  CampaignConfig cfg;
  cfg.collect_telemetry = true;
  const CampaignRunner runner(cfg, /*keep_traces=*/true);
  std::size_t checked = 0;
  for (FaultPlan plan : plans::Storms()) {
    for (FaultAction& action : plan.actions) {
      const bool storm = action.kind == FaultKind::kStormMassAttach ||
                         action.kind == FaultKind::kStormTaPingPong ||
                         action.kind == FaultKind::kStormPagingFlood ||
                         action.kind == FaultKind::kStormAdversarialNas;
      if (storm) action.count = std::max(1, action.count / 10);
    }
    for (const auto& profile : {stack::OpI(), stack::OpII()}) {
      for (const stack::AdmissionPolicy policy :
           {stack::AdmissionPolicy::kUnbounded,
            stack::AdmissionPolicy::kRejectBackoff,
            stack::AdmissionPolicy::kPriorityShed}) {
        stack::OverloadConfig overload;
        overload.enabled = true;
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
       0x9b14b7d169d1b7a9ULL},
      {"s1-missing-bearer-context", "OP-II", "",
       0x998c6027b498ec3dULL},
      {"s2-attach-disruption", "OP-I", "",
       0x1b61f7187c492b6aULL},
      {"s2-attach-disruption", "OP-II", "",
       0x6970837fc0a57d63ULL},
      {"s3-stuck-in-3g", "OP-I", "",
       0xad2771408c0f2491ULL},
      {"s3-stuck-in-3g", "OP-II", "",
       0xfbe55fd395de4159ULL},
      {"s4-mm-hol-blocking", "OP-I", "",
       0xe792ebd509b44856ULL},
      {"s4-mm-hol-blocking", "OP-II", "",
       0x9f0ebbffb26f183aULL},
      {"s5-shared-channel-drop", "OP-I", "",
       0xb56e73340b063f8dULL},
      {"s5-shared-channel-drop", "OP-II", "",
       0x6e26708c863e50c1ULL},
      {"s6-lu-failure-propagation", "OP-I", "",
       0x79a12f15cd0c265cULL},
      {"s6-lu-failure-propagation", "OP-II", "",
       0xc59a69a54ee309e2ULL},
      {"mme-crash-restart", "OP-I", "",
       0x99251b2f19792cbfULL},
      {"mme-crash-restart", "OP-II", "",
       0x5d0cff96489689c0ULL},
      {"msc-outage", "OP-I", "",
       0xc0c196b55a5434f4ULL},
      {"msc-outage", "OP-II", "",
       0x272e8338421d92a1ULL},
      {"sgsn-flap", "OP-I", "",
       0x6207638fe14c0b64ULL},
      {"sgsn-flap", "OP-II", "",
       0x09f7f4156d1b172eULL},
      {"hss-blackout", "OP-I", "",
       0xebfcd1f6622acba3ULL},
      {"hss-blackout", "OP-II", "",
       0x45023cb47921e254ULL},
      {"radio-burst-loss", "OP-I", "",
       0xe33880702c407e55ULL},
      {"radio-burst-loss", "OP-II", "",
       0x1fb53aed4d6d679cULL},
      {"backhaul-degradation", "OP-I", "",
       0x7c322f63415faf70ULL},
      {"backhaul-degradation", "OP-II", "",
       0x4a386677e44d5f09ULL},
      {"timer-skew", "OP-I", "",
       0xf228caac171b6889ULL},
      {"timer-skew", "OP-II", "",
       0xc06c090bef723385ULL},
      {"attach-interference", "OP-I", "",
       0x8a35ccd39b5aedcaULL},
      {"attach-interference", "OP-II", "",
       0x4738a6a9765ff02eULL},
      {"mass-attach-storm", "OP-I", "",
       0x65bd76f47175f156ULL},
      {"mass-attach-storm", "OP-II", "",
       0x6ce23a6da4fb3159ULL},
      {"ta-ping-pong-storm", "OP-I", "",
       0x8383dbc7ba7297e6ULL},
      {"ta-ping-pong-storm", "OP-II", "",
       0x9e89d90a040036bcULL},
      {"paging-flood-storm", "OP-I", "",
       0xd38966a9125b5ec9ULL},
      {"paging-flood-storm", "OP-II", "",
       0x43ed42e65668d740ULL},
      {"adversarial-nas-storm", "OP-I", "",
       0xb5cce5ca89986daaULL},
      {"adversarial-nas-storm", "OP-II", "",
       0xb3fcf05894230474ULL},
      {"signalling-storm-mix", "OP-I", "",
       0x20fe6d2e9d6788d6ULL},
      {"signalling-storm-mix", "OP-II", "",
       0xb6a9c8937471b045ULL},
      {"mass-attach-storm", "OP-I", "reject-backoff",
       0x35115da69a7dd049ULL},
      {"mass-attach-storm", "OP-II", "reject-backoff",
       0x7ed16dc412ad84c6ULL},
      {"ta-ping-pong-storm", "OP-I", "reject-backoff",
       0xe4073e1a61997a56ULL},
      {"ta-ping-pong-storm", "OP-II", "reject-backoff",
       0xad0e8b6abdf74d30ULL},
      {"paging-flood-storm", "OP-I", "reject-backoff",
       0x420e720c50e20395ULL},
      {"paging-flood-storm", "OP-II", "reject-backoff",
       0x6f2cc85894ce9945ULL},
      {"adversarial-nas-storm", "OP-I", "reject-backoff",
       0xa6aceca5c68b0ed8ULL},
      {"adversarial-nas-storm", "OP-II", "reject-backoff",
       0x98ce1aa179165f5aULL},
      {"signalling-storm-mix", "OP-I", "reject-backoff",
       0xc4c57af4c3a8ecd8ULL},
      {"signalling-storm-mix", "OP-II", "reject-backoff",
       0x833770811525ca4cULL},
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
  overload.enabled = true;
  overload.policy = stack::AdmissionPolicy::kRejectBackoff;
  for (FaultPlan plan : plans::Storms()) {
    for (FaultAction& action : plan.actions) {
      const bool storm = action.kind == FaultKind::kStormMassAttach ||
                         action.kind == FaultKind::kStormTaPingPong ||
                         action.kind == FaultKind::kStormPagingFlood ||
                         action.kind == FaultKind::kStormAdversarialNas;
      if (storm) action.count = std::max(1, action.count / 10);
    }
    for (const auto& profile : {stack::OpI(), stack::OpII()}) {
      check(runner.RunOne(1, plan, profile, overload));
    }
  }
  EXPECT_EQ(checked, std::size(pins));
}

TEST(CampaignSweepTest, RunSweepsSeedsTimesPlansTimesProfiles) {
  CampaignConfig cfg;
  cfg.seeds = {1, 2};
  cfg.plans = {plans::S1MissingBearerContext(), plans::TimerSkew()};
  cfg.profiles = {stack::OpI(), stack::OpII()};
  cfg.duration = Seconds(300);
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
  cfg.duration = Seconds(300);
  const CampaignResult result = CampaignRunner(cfg).Run();
  const std::string summary = result.Summary();
  EXPECT_NE(summary.find("1 run(s)"), std::string::npos);
  EXPECT_NE(summary.find("s2-attach-disruption"), std::string::npos);
  EXPECT_NE(summary.find("seed=3"), std::string::npos);
}

TEST(CampaignSweepTest, TracesAreKeptOnlyWhenAskedFor) {
  CampaignConfig cfg;
  cfg.duration = Seconds(60);
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
