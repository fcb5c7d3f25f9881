#include "core/validation.h"

#include "stack/scenarios.h"
#include "stack/testbed.h"
#include "trace/analyze.h"
#include "util/strings.h"

namespace cnv::core {

namespace {

using stack::scenario::EstablishCall;
using stack::scenario::RunUntil;

void AttachIn4g(stack::Testbed& tb) {
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
}

}  // namespace

ValidationRunner::ValidationRunner(ValidationOptions options)
    : options_(options) {}

ValidationResult ValidationRunner::RunS1(
    const stack::CarrierProfile& profile) const {
  stack::TestbedConfig cfg{.profile = profile,
                           .solutions = options_.solutions,
                           .seed = options_.seed};
  stack::Testbed tb(cfg);
  AttachIn4g(tb);
  tb.ue().SwitchTo3g(model::SwitchReason::kCsfbCall);
  tb.Run(Seconds(10));
  tb.sgsn().DeactivatePdp(nas::PdpDeactCause::kRegularDeactivation);
  tb.Run(Seconds(1));
  tb.ue().SwitchTo4g();
  RunUntil(tb,
           [&] {
             return tb.ue().recovery_seconds().Count() == 1 ||
                    (!tb.ue().out_of_service() &&
                     tb.ue().emm_state() ==
                         stack::UeDevice::EmmState::kRegistered);
           },
           Minutes(2));

  ValidationResult r{FindingId::kS1, profile.name, false, ""};
  r.observed = tb.ue().detaches_no_eps_bearer() > 0;
  if (r.observed) {
    r.evidence = cnv::Format(
        "detached with \"No EPS Bearer Context Activated\"; recovery took "
        "%.1fs",
        tb.ue().recovery_seconds().Count() > 0
            ? tb.ue().recovery_seconds().Values()[0]
            : -1.0);
  } else {
    r.evidence = cnv::Format("no detach; bearer reactivations at MME: %llu",
                        static_cast<unsigned long long>(
                            tb.mme().bearer_reactivations()));
  }
  return r;
}

ValidationResult ValidationRunner::RunS2(
    const stack::CarrierProfile& profile) const {
  stack::TestbedConfig cfg{.profile = profile,
                           .solutions = options_.solutions,
                           .seed = options_.seed};
  stack::Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.ul4g().ForceDropNext(1);  // the Attach Complete is lost over the air
  tb.Run(Seconds(2));
  tb.ue().CrossAreaBoundary();
  RunUntil(tb, [&] { return tb.ue().oos_events() > 0; }, Seconds(10));

  ValidationResult r{FindingId::kS2, profile.name, false, ""};
  r.observed = tb.ue().oos_events() > 0;
  r.evidence =
      r.observed
          ? "lost Attach Complete -> TAU rejected (implicitly detached)"
          : "attach survived the loss (reliable shim retransmitted)";
  return r;
}

ValidationResult ValidationRunner::RunS3(
    const stack::CarrierProfile& profile) const {
  stack::TestbedConfig cfg{.profile = profile,
                           .solutions = options_.solutions,
                           .seed = options_.seed};
  cfg.profile.lu_failure_prob = 0;  // isolate from S6
  stack::Testbed tb(cfg);
  AttachIn4g(tb);
  tb.ue().StartDataSession(0.2);  // the paper's 200 kbps UDP session
  tb.Run(Seconds(1));
  EstablishCall(tb);
  tb.Run(Seconds(10));
  tb.ue().HangUp();
  tb.Run(Minutes(2));

  ValidationResult r{FindingId::kS3, profile.name, false, ""};
  const bool stuck = tb.ue().serving() == nas::System::k3G;
  r.observed = stuck;
  if (stuck) {
    r.evidence = cnv::Format(
        "still in 3G 120s after the CSFB call ended (RRC %s, data ongoing)",
        model::ToString(tb.ue().rrc3g()).c_str());
  } else if (tb.ue().stuck_in_3g_seconds().Count() > 0) {
    r.evidence = cnv::Format("returned to 4G %.1fs after call end",
                        tb.ue().stuck_in_3g_seconds().Values()[0]);
  }
  return r;
}

ValidationResult ValidationRunner::RunS4(
    const stack::CarrierProfile& profile) const {
  stack::TestbedConfig cfg{.profile = profile,
                           .solutions = options_.solutions,
                           .seed = options_.seed};
  stack::Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  tb.ue().CrossAreaBoundary();
  tb.Run(Millis(200));
  EstablishCall(tb);

  ValidationResult r{FindingId::kS4, profile.name, false, ""};
  r.observed = tb.ue().deferred_service_requests() > 0;
  const double setup = tb.ue().call_setup_seconds().Count() > 0
                           ? tb.ue().call_setup_seconds().Values().back()
                           : -1.0;
  r.evidence = cnv::Format("call setup %.1fs, %llu service request(s) deferred "
                      "behind the location update",
                      setup,
                      static_cast<unsigned long long>(
                          tb.ue().deferred_service_requests()));
  return r;
}

ValidationResult ValidationRunner::RunS5(
    const stack::CarrierProfile& profile) const {
  stack::TestbedConfig cfg{.profile = profile,
                           .solutions = options_.solutions,
                           .seed = options_.seed};
  stack::Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  tb.ue().StartDataSession(50.0);  // saturating speed test
  tb.Run(Seconds(2));
  const double dl_before =
      tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12);
  const double ul_before =
      tb.ue().CurrentPsRateMbps(sim::Direction::kUplink, 12);
  EstablishCall(tb);
  const double dl_during =
      tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12);
  const double ul_during =
      tb.ue().CurrentPsRateMbps(sim::Direction::kUplink, 12);

  ValidationResult r{FindingId::kS5, profile.name, false, ""};
  const double dl_drop = 1.0 - dl_during / dl_before;
  const double ul_drop = 1.0 - ul_during / ul_before;
  r.observed = dl_drop > 0.25 || ul_drop > 0.25;
  r.evidence = cnv::Format("PS rate during CS call: DL %.1f -> %.1f Mbps "
                      "(%.1f%% drop), UL %.2f -> %.2f Mbps (%.1f%% drop)",
                      dl_before, dl_during, dl_drop * 100.0, ul_before,
                      ul_during, ul_drop * 100.0);
  return r;
}

ValidationResult ValidationRunner::RunS6(
    const stack::CarrierProfile& profile) const {
  stack::TestbedConfig cfg{.profile = profile,
                           .solutions = options_.solutions,
                           .seed = options_.seed};
  // Force the S6 race so the bounded run demonstrates the failure path
  // (its natural frequency, 2.6% of CSFB calls, is measured by the user
  // study instead).
  cfg.profile.lu_failure_prob = 1.0;
  stack::Testbed tb(cfg);
  AttachIn4g(tb);
  EstablishCall(tb);
  tb.Run(Seconds(10));
  tb.ue().HangUp();
  RunUntil(tb, [&] { return tb.ue().serving() == nas::System::k4G; },
           Minutes(2));
  RunUntil(tb, [&] { return tb.ue().oos_events() > 0; }, Seconds(10));

  ValidationResult r{FindingId::kS6, profile.name, false, ""};
  r.observed = tb.ue().detaches_implicit() + tb.ue().detaches_msc_unreachable() > 0;
  if (r.observed) {
    r.evidence = profile.lu_failure_mode ==
                         stack::LuFailureMode::kFirstUpdateDisrupted
                     ? "disrupted first 3G update propagated to 4G: "
                       "\"implicitly detach\""
                     : "MSC refused the relayed second update: \"MSC "
                       "temporarily not reachable\" -> detach";
  } else {
    r.evidence = cnv::Format(
        "no detach; MME absorbed the failure (LU recoveries: %llu)",
        static_cast<unsigned long long>(tb.mme().lu_recoveries()));
  }
  return r;
}

std::vector<ValidationResult> ValidationRunner::RunAll(
    const stack::CarrierProfile& profile) const {
  return {RunS1(profile), RunS2(profile), RunS3(profile),
          RunS4(profile), RunS5(profile), RunS6(profile)};
}

std::string ValidationRunner::Format(
    const std::vector<ValidationResult>& results) {
  std::string out = "=== CNetVerifier validation phase ===\n";
  for (const auto& r : results) {
    out += cnv::Format("%-3s [%s] %-12s %s\n", ToString(r.id).c_str(),
                       r.observed ? "OBSERVED" : "not seen",
                       r.carrier.c_str(), r.evidence.c_str());
  }
  return out;
}

}  // namespace cnv::core
