// The trace abstraction layer maps concrete modem-style records back into
// the screening models' vocabulary; these tests pin the mapping table
// (module + description substring -> AbstractKind), the in-order
// subsequence semantics of the refinement check, and that real testbed
// runs of the paper's scenarios refine the event sequences they anticipate.
#include "conf/abstract.h"

#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "stack/testbed.h"
#include "trace/record.h"

namespace cnv::conf {
namespace {

trace::TraceRecord Rec(const std::string& module,
                       const std::string& description) {
  trace::TraceRecord r;
  r.module = module;
  r.description = description;
  return r;
}

TEST(AbstractTraceTest, MapsCoreVocabulary) {
  const std::vector<trace::TraceRecord> records = {
      Rec("EMM", "Attach Request sent"),
      Rec("EMM", "Attach Accept received"),
      Rec("EMM", "Attach Complete sent"),
      Rec("UE", "4G->3G switch (user mobility)"),
      Rec("SM", "PDP context deactivated"),
      Rec("UE", "3G->4G switch"),
      Rec("EMM", "detached by network via MME (cause: no EPS bearer)"),
  };
  const auto events = AbstractTrace(records);
  ASSERT_EQ(events.size(), 7u);
  EXPECT_EQ(events[0].kind, AbstractKind::kAttachRequest);
  EXPECT_EQ(events[1].kind, AbstractKind::kAttachAccept);
  EXPECT_EQ(events[2].kind, AbstractKind::kAttachComplete);
  EXPECT_EQ(events[3].kind, AbstractKind::kSwitch4gTo3g);
  EXPECT_EQ(events[4].kind, AbstractKind::kPdpDeactivated);
  EXPECT_EQ(events[5].kind, AbstractKind::kSwitch3gTo4g);
  EXPECT_EQ(events[6].kind, AbstractKind::kNetworkDetach);
  // Provenance: each event points back at its source record.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].record_index, i);
  }
}

TEST(AbstractTraceTest, CsfbSwitchIsDistinctFromMobilitySwitch) {
  const auto events = AbstractTrace({
      Rec("UE", "4G->3G switch (CSFB call)"),
      Rec("UE", "4G->3G switch (user mobility)"),
  });
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, AbstractKind::kCsfbFallback);
  EXPECT_EQ(events[1].kind, AbstractKind::kSwitch4gTo3g);
}

TEST(AbstractTraceTest, DialInEitherSystemAbstractsToCallDialed) {
  // Serving 3G the CM layer logs the dial; serving 4G only the Extended
  // Service Request is visible. Both must abstract to the same model event.
  const auto events = AbstractTrace({
      Rec("CM/CC", "user dials an outgoing call"),
      Rec("EMM", "Extended Service Request (CSFB) sent"),
  });
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, AbstractKind::kCallDialed);
  EXPECT_EQ(events[1].kind, AbstractKind::kCallDialed);
}

TEST(AbstractTraceTest, ModuleMustMatchNotJustDescription) {
  // "GPRS Attach Request sent" comes from GMM; it must not be swallowed by
  // the EMM attach rules.
  const auto events = AbstractTrace({Rec("GMM", "GPRS Attach Request sent")});
  for (const auto& e : events) {
    EXPECT_NE(e.kind, AbstractKind::kAttachRequest);
  }
}

TEST(AbstractTraceTest, UnmappedRecordsAreDropped) {
  const auto events = AbstractTrace({
      Rec("4G-RRC", "RRC IDLE -> CONNECTED"),
      Rec("EMM", "Attach Request sent"),
      Rec("3G-RRC", "RAB established"),
  });
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, AbstractKind::kAttachRequest);
  EXPECT_EQ(events[0].record_index, 1u);
}

TEST(AbstractTraceTest, MmAndReselectionVocabulary) {
  const auto events = AbstractTrace({
      Rec("MM", "Location Updating Request sent"),
      Rec("MM", "CM Service Request sent"),
      Rec("MM", "CM service request deferred: location update in progress"),
      Rec("3G-RRC", "awaiting RRC IDLE for inter-system cell reselection"),
      Rec("3G-RRC", "inter-system cell reselection to 4G"),
  });
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].kind, AbstractKind::kLocationUpdateStart);
  EXPECT_EQ(events[1].kind, AbstractKind::kCmServiceRequest);
  EXPECT_EQ(events[2].kind, AbstractKind::kCallDeferred);
  EXPECT_EQ(events[3].kind, AbstractKind::kAwaitReselection);
  EXPECT_EQ(events[4].kind, AbstractKind::kCellReselection);
}

TEST(AbstractTraceTest, LuCouplingAndChannelVocabulary) {
  const auto events = AbstractTrace({
      Rec("MM", "location update deferred until the CSFB call completes"),
      Rec("MM", "location update disrupted by inter-system switch"),
      Rec("3G-RRC",
          "RRC Channel Config: 64QAM disabled during CS voice call (16QAM)"),
      Rec("3G-RRC", "RRC Channel Config: 64QAM re-enabled after voice call"),
  });
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, AbstractKind::kLuDeferred);
  EXPECT_EQ(events[1].kind, AbstractKind::kLuDisrupted);
  EXPECT_EQ(events[2].kind, AbstractKind::kChannelDegraded);
  EXPECT_EQ(events[3].kind, AbstractKind::kChannelRestored);
}

TEST(MatchAbstractKindTest, AgreesWithAbstractTraceRecordByRecord) {
  const std::vector<trace::TraceRecord> records = {
      Rec("EMM", "Attach Request sent"),
      Rec("4G-RRC", "RRC IDLE -> CONNECTED"),  // unmapped
      Rec("UE", "4G->3G switch (CSFB call)"),
      Rec("MM", "location update disrupted by inter-system switch"),
      Rec("STORM", "Mass attach storm begins (count=3 spacing=2ms)"),
      Rec("ESM", "nothing in the vocabulary"),  // unmapped
  };
  const auto events = AbstractTrace(records);
  std::size_t next = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto kind = MatchAbstractKind(records[i]);
    if (kind) {
      ASSERT_LT(next, events.size());
      EXPECT_EQ(events[next].kind, *kind);
      EXPECT_EQ(events[next].record_index, i);
      ++next;
    }
  }
  EXPECT_EQ(next, events.size());
}

TEST(ToStringTest, AllKindsHaveDistinctNonEmptyNames) {
  std::vector<std::string> names;
  for (int i = 0; i <= static_cast<int>(AbstractKind::kChannelRestored);
       ++i) {
    names.push_back(ToString(static_cast<AbstractKind>(i)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]) << i << " vs " << j;
    }
  }
}

std::vector<AbstractEvent> Events(std::vector<AbstractKind> kinds) {
  std::vector<AbstractEvent> out;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    out.push_back({kinds[i], 0, i});
  }
  return out;
}

TEST(CheckRefinementTest, ExactSequenceRefines) {
  const auto check = CheckRefinement(
      Events({AbstractKind::kAttachRequest, AbstractKind::kAttachAccept}),
      {AbstractKind::kAttachRequest, AbstractKind::kAttachAccept});
  EXPECT_TRUE(check.refines);
  EXPECT_TRUE(check.missing.empty());
}

TEST(CheckRefinementTest, SubsequenceWithExtraConcreteEventsRefines) {
  const auto check = CheckRefinement(
      Events({AbstractKind::kAttachRequest, AbstractKind::kDataSessionStart,
              AbstractKind::kAttachAccept, AbstractKind::kAttachComplete}),
      {AbstractKind::kAttachRequest, AbstractKind::kAttachComplete});
  EXPECT_TRUE(check.refines);
}

TEST(CheckRefinementTest, OutOfOrderDoesNotRefine) {
  const auto check = CheckRefinement(
      Events({AbstractKind::kAttachAccept, AbstractKind::kAttachRequest}),
      {AbstractKind::kAttachRequest, AbstractKind::kAttachAccept});
  EXPECT_FALSE(check.refines);
  EXPECT_EQ(check.failed_index, 1u);
  ASSERT_EQ(check.missing.size(), 1u);
  EXPECT_EQ(check.missing[0], AbstractKind::kAttachAccept);
}

TEST(CheckRefinementTest, MissingEventsReportedInOrder) {
  const auto check =
      CheckRefinement(Events({AbstractKind::kAttachRequest}),
                      {AbstractKind::kAttachRequest, AbstractKind::kTauRequest,
                       AbstractKind::kNetworkDetach});
  EXPECT_FALSE(check.refines);
  EXPECT_EQ(check.failed_index, 1u);
  ASSERT_EQ(check.missing.size(), 2u);
  EXPECT_EQ(check.missing[0], AbstractKind::kTauRequest);
  EXPECT_EQ(check.missing[1], AbstractKind::kNetworkDetach);
  // An empty trace fails on the first expected event.
  const auto empty = CheckRefinement({}, {AbstractKind::kAttachRequest});
  EXPECT_FALSE(empty.refines);
  EXPECT_EQ(empty.failed_index, 0u);
  // Each expected event needs its own concrete event.
  EXPECT_FALSE(CheckRefinement(Events({AbstractKind::kAttachRequest}),
                               {AbstractKind::kAttachRequest,
                                AbstractKind::kAttachRequest})
                   .refines);
}

TEST(CheckRefinementTest, EmptyExpectationTriviallyRefines) {
  EXPECT_TRUE(CheckRefinement({}, {}).refines);
  EXPECT_TRUE(
      CheckRefinement(Events({AbstractKind::kAttachRequest}), {}).refines);
}

void RunUntil(stack::Testbed& tb, const std::function<bool()>& pred,
              SimDuration limit) {
  const SimTime deadline = tb.sim().now() + limit;
  while (!pred() && tb.sim().now() < deadline) tb.Run(Millis(100));
}

// S1: a 4G->3G switch, PDP deactivation in 3G, and the return to 4G that
// the MME answers with a TAU reject and a detach before the re-attach.
const std::vector<AbstractKind> kS1Kinds = {
    AbstractKind::kAttachComplete, AbstractKind::kSwitch4gTo3g,
    AbstractKind::kPdpDeactivated, AbstractKind::kSwitch3gTo4g,
    AbstractKind::kTauRequest,     AbstractKind::kTauReject,
    AbstractKind::kNetworkDetach,  AbstractKind::kAttachRequest,
    AbstractKind::kAttachAccept,   AbstractKind::kAttachComplete,
};

std::string Describe(const std::vector<AbstractEvent>& events) {
  std::string out;
  for (const AbstractEvent& e : events) out += ToString(e.kind) + " ";
  return out;
}

TEST(ScenarioRefinementTest, S1ContextLossRunRefinesS1Kinds) {
  stack::Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().SwitchTo3g(model::SwitchReason::kMobility);
  tb.Run(Seconds(10));
  tb.sgsn().DeactivatePdp(nas::PdpDeactCause::kRegularDeactivation);
  tb.Run(Seconds(1));
  tb.ue().SwitchTo4g();
  RunUntil(tb, [&] { return !tb.ue().out_of_service(); }, Minutes(2));
  RunUntil(tb, [&] { return tb.ue().recovery_seconds().Count() == 1; },
           Minutes(2));
  const auto events = AbstractTrace(tb.traces().records());
  const auto check = CheckRefinement(events, kS1Kinds);
  EXPECT_TRUE(check.refines) << "failed at " << check.failed_index << ": "
                             << Describe(events);
}

TEST(ScenarioRefinementTest, S2LostAttachCompleteRunRefinesS2Kinds) {
  stack::Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.ul4g().ForceDropNext(1);
  tb.Run(Seconds(2));
  tb.ue().CrossAreaBoundary();
  RunUntil(tb, [&] { return tb.ue().oos_events() > 0; }, Seconds(10));
  const auto events = AbstractTrace(tb.traces().records());
  const auto check = CheckRefinement(
      events, {AbstractKind::kAttachRequest, AbstractKind::kAttachAccept,
               AbstractKind::kAttachComplete, AbstractKind::kTauRequest,
               AbstractKind::kTauReject, AbstractKind::kNetworkDetach});
  EXPECT_TRUE(check.refines) << "failed at " << check.failed_index << ": "
                             << Describe(events);
}

TEST(ScenarioRefinementTest, CsfbCallFlowRefinesCsfbKinds) {
  stack::TestbedConfig cfg;
  cfg.profile = stack::OpI();
  cfg.profile.lu_failure_prob = 0;
  stack::Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().Dial();
  RunUntil(tb,
           [&] {
             return tb.ue().call_state() ==
                    stack::UeDevice::CallState::kActive;
           },
           Minutes(2));
  tb.Run(Seconds(5));
  tb.ue().HangUp();
  tb.Run(Seconds(5));
  const auto events = AbstractTrace(tb.traces().records());
  const auto check = CheckRefinement(
      events, {AbstractKind::kCallDialed, AbstractKind::kCsfbFallback,
               AbstractKind::kCmServiceRequest, AbstractKind::kCallEstablished,
               AbstractKind::kCallEnded});
  EXPECT_TRUE(check.refines) << "failed at " << check.failed_index << ": "
                             << Describe(events);
}

TEST(ScenarioRefinementTest, CleanAttachDoesNotRefineS1Kinds) {
  stack::Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(3));
  EXPECT_FALSE(
      CheckRefinement(AbstractTrace(tb.traces().records()), kS1Kinds).refines);
}

}  // namespace
}  // namespace cnv::conf
