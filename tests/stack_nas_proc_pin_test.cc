// Every guarded UE NAS procedure driven through its retry paths: lost
// requests (quick retransmission, then backoff and restart, or giving up),
// congestion rejects (T3346, then restart), a non-congestion LU reject,
// stale GMM rejects of the other variant, timer skew, power-off and
// inter-system switches mid-procedure. Each scenario runs on the baseline
// and on the robust device and is pinned as the FNV-1a digest of its full
// QXDM trace, the kernel's timer and event counters and the UE's retry
// counters. The campaign pins see few of these paths; a rewrite of the UE's
// procedure machinery must leave every digest unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "digest.h"
#include "stack/testbed.h"
#include "trace/qxdm.h"

namespace cnv::stack {
namespace {

OverloadConfig Congested() {
  OverloadConfig c;
  c.policy = AdmissionPolicy::kRejectBackoff;
  c.queue_capacity = 0;  // every request overflows into a congestion reject
  return c;
}

nas::Message Reject(nas::MsgKind kind, nas::Protocol protocol,
                    nas::MmCause cause) {
  nas::Message m;
  m.kind = kind;
  m.protocol = protocol;
  m.mm_cause = cause;
  return m;
}

struct Scenario {
  const char* name;
  void (*drive)(Testbed&);
};

const Scenario kScenarios[] = {
    {"attach-lost",
     [](Testbed& tb) {
       tb.ul4g().ForceDropNext(12);
       tb.ue().PowerOn(nas::System::k4G);
       tb.Run(Seconds(600));
     }},
    {"attach-congested",
     [](Testbed& tb) {
       tb.mme().ConfigureOverload(Congested());
       tb.ue().PowerOn(nas::System::k4G);
       tb.Run(Seconds(300));
       tb.mme().ConfigureOverload({});
       tb.Run(Seconds(300));
       // The accept reset the T3346 doubling: the TAU's backoff starts over.
       tb.mme().ConfigureOverload(Congested());
       tb.ue().CrossAreaBoundary();
       tb.Run(Seconds(100));
       tb.mme().ConfigureOverload({});
       tb.Run(Seconds(100));
     }},
    {"attach-lost-then-congested",
     [](Testbed& tb) {
       // Two requests vanish, the third meets a congested MME: the T3346
       // restart is a fresh attach, not a fourth retransmission.
       tb.ul4g().ForceDropNext(2);
       tb.mme().ConfigureOverload(Congested());
       tb.ue().PowerOn(nas::System::k4G);
       tb.Run(Seconds(100));
       tb.mme().ConfigureOverload({});
       tb.Run(Seconds(100));
     }},
    {"tau-lost",
     [](Testbed& tb) {
       tb.ue().PowerOn(nas::System::k4G);
       tb.Run(Seconds(10));
       tb.ul4g().ForceDropNext(4);
       tb.ue().CrossAreaBoundary();
       tb.Run(Seconds(120));
       tb.ue().CrossAreaBoundary();
       tb.Run(Seconds(60));
     }},
    {"tau-congested",
     [](Testbed& tb) {
       tb.ue().PowerOn(nas::System::k4G);
       tb.Run(Seconds(10));
       tb.mme().ConfigureOverload(Congested());
       tb.ue().CrossAreaBoundary();
       tb.Run(Seconds(200));
       tb.mme().ConfigureOverload({});
       tb.Run(Seconds(200));
     }},
    {"tau-lost-then-congested",
     [](Testbed& tb) {
       // The congestion reject ends the run: the TAU restarted after T3346
       // gets the full three retransmissions again.
       tb.ue().PowerOn(nas::System::k4G);
       tb.Run(Seconds(10));
       tb.ul4g().ForceDropNext(1);
       tb.mme().ConfigureOverload(Congested());
       tb.ue().CrossAreaBoundary();
       tb.Run(Seconds(30));
       tb.mme().ConfigureOverload({});
       tb.ul4g().ForceDropNext(3);
       tb.Run(Seconds(200));
     }},
    {"lu-lost",
     [](Testbed& tb) {
       tb.ul3g_cs().ForceDropNext(9);
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(600));
     }},
    {"lu-congested",
     [](Testbed& tb) {
       tb.msc().ConfigureOverload(Congested());
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(300));
       tb.msc().ConfigureOverload({});
       tb.Run(Seconds(300));
       tb.msc().ConfigureOverload(Congested());
       tb.ue().CrossAreaBoundary();
       tb.Run(Seconds(100));
       tb.msc().ConfigureOverload({});
       tb.Run(Seconds(100));
     }},
    {"lu-rejected",
     [](Testbed& tb) {
       tb.ul3g_cs().ForceDropNext(1);
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(5));
       tb.ue().OnDownlink3gCs(Reject(nas::MsgKind::kLocationUpdateReject,
                                     nas::Protocol::kMm,
                                     nas::MmCause::kNetworkFailure));
       tb.Run(Seconds(300));
     }},
    {"gprs-attach-lost",
     [](Testbed& tb) {
       tb.ul3g_ps().ForceDropNext(9);
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(5));
       tb.ue().StartDataSession(0.2);
       tb.Run(Seconds(600));
     }},
    {"gprs-attach-congested",
     [](Testbed& tb) {
       tb.sgsn().ConfigureOverload(Congested());
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(5));
       tb.ue().StartDataSession(0.2);
       tb.Run(Seconds(300));
       tb.sgsn().ConfigureOverload({});
       tb.Run(Seconds(300));
       tb.sgsn().ConfigureOverload(Congested());
       tb.ue().CrossAreaBoundary();
       tb.Run(Seconds(100));
       tb.sgsn().ConfigureOverload({});
       tb.Run(Seconds(100));
     }},
    {"rau-lost",
     [](Testbed& tb) {
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(10));
       tb.ul3g_ps().ForceDropNext(9);
       tb.ue().CrossAreaBoundary();
       tb.Run(Seconds(600));
     }},
    {"rau-congested",
     [](Testbed& tb) {
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(10));
       tb.sgsn().ConfigureOverload(Congested());
       tb.ue().CrossAreaBoundary();
       tb.Run(Seconds(200));
       tb.sgsn().ConfigureOverload({});
       tb.Run(Seconds(200));
     }},
    {"pdp-lost",
     [](Testbed& tb) {
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(10));
       tb.ul3g_ps().ForceDropNext(9);
       tb.ue().StartDataSession(0.2);
       tb.Run(Seconds(600));
     }},
    {"pdp-congested",
     [](Testbed& tb) {
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(10));
       tb.sgsn().ConfigureOverload(Congested());
       tb.ue().StartDataSession(0.2);
       tb.Run(Seconds(200));
       tb.sgsn().ConfigureOverload({});
       tb.Run(Seconds(200));
     }},
    {"cm-lost",
     [](Testbed& tb) {
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(30));
       tb.ul3g_cs().ForceDropNext(10);
       tb.ue().Dial();
       tb.Run(Seconds(120));
       tb.ue().Dial();
       tb.Run(Seconds(30));
       tb.ue().HangUp();
       tb.Run(Seconds(10));
     }},
    {"cm-congested",
     [](Testbed& tb) {
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(30));
       tb.msc().ConfigureOverload(Congested());
       tb.ue().Dial();
       tb.Run(Seconds(60));
       tb.msc().ConfigureOverload({});
       tb.ue().Dial();
       tb.Run(Seconds(60));
     }},
    {"stale-gprs-attach-reject",
     [](Testbed& tb) {
       // A congestion reject for GPRS attach reaching an attached device
       // whose last GMM procedure was a RAU.
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(10));
       tb.ue().CrossAreaBoundary();
       tb.Run(Seconds(10));
       tb.ue().OnDownlink3gPs(Reject(nas::MsgKind::kGprsAttachReject,
                                     nas::Protocol::kGmm,
                                     nas::MmCause::kCongestion));
       tb.Run(Seconds(200));
     }},
    {"stale-rau-reject",
     [](Testbed& tb) {
       // A congestion reject for RAU reaching a GPRS attach in progress.
       tb.ul3g_ps().ForceDropNext(1);
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(1));
       tb.ue().OnDownlink3gPs(Reject(nas::MsgKind::kRauReject,
                                     nas::Protocol::kGmm,
                                     nas::MmCause::kCongestion));
       tb.Run(Seconds(300));
     }},
    {"skewed-attach",
     [](Testbed& tb) {
       tb.ue().set_timer_scale(2.5);
       tb.ul4g().ForceDropNext(12);
       tb.ue().PowerOn(nas::System::k4G);
       tb.Run(Seconds(900));
     }},
    {"power-off-mid-backoff",
     [](Testbed& tb) {
       tb.ul4g().ForceDropNext(6);
       tb.ul3g_cs().ForceDropNext(6);
       tb.ue().PowerOn(nas::System::k4G);
       tb.Run(Seconds(100));
       tb.ue().PowerOff();
       tb.Run(Seconds(50));
       tb.ue().PowerOn(nas::System::k3G);
       tb.Run(Seconds(120));
     }},
    {"switches-mid-procedure",
     [](Testbed& tb) {
       tb.ue().PowerOn(nas::System::k4G);
       tb.Run(Seconds(20));
       tb.ue().StartDataSession(0.2);
       tb.Run(Seconds(5));
       tb.ul3g_cs().ForceDropNext(3);
       tb.ul3g_ps().ForceDropNext(3);
       tb.ue().Dial();
       tb.Run(Seconds(40));
       tb.ue().HangUp();
       tb.Run(Seconds(60));
       tb.ue().SwitchTo3g(model::SwitchReason::kMobility);
       tb.ul3g_cs().ForceDropNext(2);
       tb.Run(Seconds(25));
       tb.ue().SwitchTo4g();
       tb.ul4g().ForceDropNext(2);
       tb.Run(Seconds(120));
     }},
};

std::uint64_t Digest(Testbed& tb) {
  testutil::ByteWriter w;
  w.Str(trace::FormatLog(tb.traces().records()));
  const auto& timers = tb.sim().timer_stats();
  w.U64(timers.armed);
  w.U64(timers.fired);
  w.U64(timers.cancelled);
  w.U64(tb.sim().ExecutedEvents());
  w.U64(tb.sim().ScheduledEvents());
  w.U64(tb.sim().CancelledEvents());
  const UeDevice& ue = tb.ue();
  for (const std::uint64_t v :
       {ue.lu_retries(), ue.gmm_retries(), ue.pdp_retries(), ue.cm_retries(),
        ue.cm_abandoned(), ue.attach_backoff_cycles(),
        ue.congestion_rejects(), ue.congestion_backoffs(),
        ue.attach_attempts_total(), ue.oos_events()}) {
    w.U64(v);
  }
  w.U8(static_cast<std::uint8_t>(ue.emm_state()));
  w.U8(static_cast<std::uint8_t>(ue.mm_state()));
  w.U8(static_cast<std::uint8_t>(ue.call_state()));
  return testutil::Fnv1a64(w.bytes());
}

TEST(NasProcedurePinTest, RetryPathsArePinned) {
  struct Pin {
    const char* scenario;
    bool robust;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"attach-lost", false, 0xf5d36bb450533e1cULL},
      {"attach-lost", true, 0x1ece30a73fad36deULL},
      {"attach-congested", false, 0x0381ff6470c7de14ULL},
      {"attach-congested", true, 0x0381ff6470c7de14ULL},
      {"attach-lost-then-congested", false, 0x82eef1532256c38aULL},
      {"attach-lost-then-congested", true, 0x82eef1532256c38aULL},
      {"tau-lost", false, 0x7101fba3d98c0750ULL},
      {"tau-lost", true, 0x7101fba3d98c0750ULL},
      {"tau-congested", false, 0xa084aeab75a4d15fULL},
      {"tau-congested", true, 0xa084aeab75a4d15fULL},
      {"tau-lost-then-congested", false, 0xc6d819b842530f10ULL},
      {"tau-lost-then-congested", true, 0xc6d819b842530f10ULL},
      {"lu-lost", false, 0x62478873f9d9cd30ULL},
      {"lu-lost", true, 0x6746c1f38fad606eULL},
      {"lu-congested", false, 0xd5b84779535b28a1ULL},
      {"lu-congested", true, 0x229c182a4beae449ULL},
      {"lu-rejected", false, 0x4adf6929f0e06c14ULL},
      {"lu-rejected", true, 0xa6839711e5473f4aULL},
      {"gprs-attach-lost", false, 0xe17cd9153ee8dd6fULL},
      {"gprs-attach-lost", true, 0xcfd2857a39717b1dULL},
      {"gprs-attach-congested", false, 0xcdce002a77d93a86ULL},
      {"gprs-attach-congested", true, 0x5d5abfe54cb419c6ULL},
      {"rau-lost", false, 0x23c1c919aded3f1eULL},
      {"rau-lost", true, 0x4a9baaf2cf187b69ULL},
      {"rau-congested", false, 0x21ee077723c9f6acULL},
      {"rau-congested", true, 0x80c45ccd16c0a30cULL},
      {"pdp-lost", false, 0x9b001e92457d4876ULL},
      {"pdp-lost", true, 0x41c3c6186bc54470ULL},
      {"pdp-congested", false, 0x6428a034dc88873fULL},
      {"pdp-congested", true, 0x2d177cbc3901bb35ULL},
      {"cm-lost", false, 0x6003af6cf3dc469bULL},
      {"cm-lost", true, 0xbc0c598d043ed19dULL},
      {"cm-congested", false, 0x697ec66f2730763cULL},
      {"cm-congested", true, 0xbb02d116ac3d0914ULL},
      {"stale-gprs-attach-reject", false, 0xd4330f11c32ef658ULL},
      {"stale-gprs-attach-reject", true, 0xb266c37b7aae3e80ULL},
      {"stale-rau-reject", false, 0x9f212ffd8858054aULL},
      {"stale-rau-reject", true, 0xc76b9aa80b9a5a32ULL},
      {"skewed-attach", false, 0xfe6f1559b057fb20ULL},
      {"skewed-attach", true, 0x3a50cb594da40cc5ULL},
      {"power-off-mid-backoff", false, 0x881bb1696fa762e0ULL},
      {"power-off-mid-backoff", true, 0x380db491fcd65262ULL},
      {"switches-mid-procedure", false, 0x84cdafc881ad9d92ULL},
      {"switches-mid-procedure", true, 0x9ac3a6d23f05f2efULL},
  };
  std::size_t checked = 0;
  for (const Scenario& scenario : kScenarios) {
    for (const bool robust : {false, true}) {
      TestbedConfig cfg;
      cfg.robust = robust;
      Testbed tb(cfg);
      scenario.drive(tb);
      const std::uint64_t digest = Digest(tb);
      const Pin* pin = nullptr;
      for (const Pin& p : pins) {
        if (std::string(p.scenario) == scenario.name && p.robust == robust) {
          pin = &p;
        }
      }
      if (pin == nullptr) {
        ADD_FAILURE() << "no pin for " << scenario.name
                      << " robust=" << robust << ": 0x" << std::hex << digest;
        continue;
      }
      EXPECT_EQ(digest, pin->digest) << scenario.name << " robust=" << robust
                                     << ": 0x" << std::hex << digest;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(pins));
}

}  // namespace
}  // namespace cnv::stack
