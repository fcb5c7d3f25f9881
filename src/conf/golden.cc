#include "conf/golden.h"

#include "stack/scenarios.h"
#include "stack/testbed.h"
#include "trace/qxdm.h"

namespace cnv::conf {

namespace {

// All goldens share one fixed seed; changing it is an intentional golden
// update (regenerate with examples/golden_traces).
constexpr std::uint64_t kGoldenSeed = 7;

stack::Testbed MakeTestbed(stack::CarrierProfile profile) {
  stack::TestbedConfig cfg;
  cfg.profile = std::move(profile);
  cfg.seed = kGoldenSeed;
  return stack::Testbed(cfg);
}

// S1 (§5.1): 4G->3G switch with data, network deactivates the PDP context,
// switch back detaches the device for the missing EPS bearer context.
std::string GenerateS1() {
  auto profile = stack::OpI();
  profile.pdp_deact_in_3g_prob = 0.0;  // the deactivation is scripted
  auto tb = MakeTestbed(profile);
  stack::scenario::AttachIn4g(tb);
  tb.ue().SwitchTo3g(model::SwitchReason::kCsfbCall);
  tb.Run(Seconds(10));
  tb.sgsn().DeactivatePdp(nas::PdpDeactCause::kRegularDeactivation);
  tb.Run(Seconds(1));
  tb.ue().SwitchTo4g();
  tb.Run(Seconds(30));
  return trace::FormatLog(tb.traces().records());
}

// S2 (§5.2, Figure 5a): the Attach Complete is lost over the air; the next
// TAU is rejected with "implicitly detached".
std::string GenerateS2() {
  auto tb = MakeTestbed(stack::OpI());
  tb.ue().PowerOn(nas::System::k4G);
  tb.ul4g().ForceDropNext(1);  // the request is in flight; drop the Complete
  tb.Run(Seconds(2));
  tb.ue().CrossAreaBoundary();
  tb.Run(Seconds(10));
  return trace::FormatLog(tb.traces().records());
}

// S3 (§5.3): CSFB call with an ongoing data session on the cell-reselection
// carrier; after hang-up the device is stranded in 3G.
std::string GenerateS3() {
  auto profile = stack::OpII();
  profile.lu_failure_prob = 0.0;  // isolate from the S6 failure mode
  auto tb = MakeTestbed(profile);
  stack::scenario::AttachIn4g(tb);
  tb.ue().StartDataSession(0.2);
  tb.Run(Seconds(1));
  stack::scenario::EstablishCall(tb);
  tb.Run(Seconds(10));
  tb.ue().HangUp();
  tb.Run(Seconds(30));
  return trace::FormatLog(tb.traces().records());
}

// S4 (§6.1): an outgoing call dialed while the location update from an
// area-boundary crossing is still running gets deferred (HOL blocking).
std::string GenerateS4() {
  auto tb = MakeTestbed(stack::OpI());
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  tb.ue().CrossAreaBoundary();
  tb.Run(Millis(200));
  tb.ue().Dial();
  tb.Run(Seconds(5));
  return trace::FormatLog(tb.traces().records());
}

// S5 (§6.2): a 3G voice call throttles the shared-channel data session.
std::string GenerateS5() {
  auto tb = MakeTestbed(stack::OpI());
  stack::scenario::AttachIn3g(tb);
  tb.ue().StartDataSession(50.0);
  tb.Run(Seconds(5));
  stack::scenario::EstablishCall(tb);
  tb.Run(Seconds(10));
  tb.ue().HangUp();
  tb.Run(Seconds(2));
  return trace::FormatLog(tb.traces().records());
}

// S6 (§6.3): the post-CSFB location update fails and the device is
// implicitly detached on its return to 4G.
std::string GenerateS6() {
  auto profile = stack::OpI();
  profile.lu_failure_prob = 1.0;  // force the failure mode deterministically
  auto tb = MakeTestbed(profile);
  stack::scenario::AttachIn4g(tb);
  stack::scenario::EstablishCall(tb);
  tb.Run(Seconds(10));
  tb.ue().HangUp();
  stack::scenario::RunUntil(
      tb, [&] { return tb.ue().serving() == nas::System::k4G; }, Seconds(60));
  tb.Run(Seconds(10));
  return trace::FormatLog(tb.traces().records());
}

// Overload control: a mass-attach storm saturates the MME's bounded
// signalling queue under the reject-backoff policy. The device powers on
// mid-storm, its Attach Request is congestion-rejected with a T3346 grant,
// and the retry lands after the backlog has drained. A short adversarial
// burst exercises the screening path (malformed / truncated / mis-typed /
// replayed NAS) in the same trace.
std::string GenerateCongestionStorm() {
  stack::TestbedConfig cfg;
  cfg.profile = stack::OpI();
  cfg.seed = kGoldenSeed;
  cfg.overload.policy = stack::AdmissionPolicy::kRejectBackoff;
  cfg.overload.queue_capacity = 4;
  cfg.overload.service_time = Millis(20);
  cfg.overload.t3346_backoff = Seconds(5);
  stack::Testbed tb(cfg);
  tb.storm().MassAttach(Millis(10), 300, Millis(2));
  tb.sim().ScheduleAt(Millis(100),
                      [&tb] { tb.ue().PowerOn(nas::System::k4G); });
  tb.storm().AdversarialNas(Seconds(1), 7, Millis(50));
  tb.Run(Seconds(12));
  return trace::FormatLog(tb.traces().records());
}

}  // namespace

const std::vector<GoldenScenario>& GoldenScenarios() {
  static const std::vector<GoldenScenario> kScenarios = {
      {"s1_context_loss_opi", "S1: PDP context loss detaches on 3G->4G switch",
       &GenerateS1},
      {"s2_lost_attach_complete_opi",
       "S2: lost Attach Complete, TAU implicitly detached", &GenerateS2},
      {"s3_stuck_in_3g_opii",
       "S3: post-CSFB device stranded in 3G awaiting reselection",
       &GenerateS3},
      {"s4_hol_blocking_opi",
       "S4: CM service request deferred behind a location update",
       &GenerateS4},
      {"s5_call_data_coupling_opi",
       "S5: voice call throttles the shared-channel data session",
       &GenerateS5},
      {"s6_lu_failure_detach_opi",
       "S6: failed post-CSFB location update ends in implicit detach",
       &GenerateS6},
      {"congestion_attach_storm_opi",
       "Overload: storm congests the MME; attach congestion-rejected with "
       "T3346 backoff, retried after the drain",
       &GenerateCongestionStorm},
  };
  return kScenarios;
}

}  // namespace cnv::conf
