// Interprets a FaultPlan against a Testbed: every action is scheduled on
// the testbed's simulator at its absolute time and emits a FAULT trace
// record when it fires, so campaign logs show injected faults inline with
// the protocol traffic they disturb.
#pragma once

#include "fault/plan.h"
#include "stack/testbed.h"

namespace cnv::fault {

class FaultInjector {
 public:
  explicit FaultInjector(stack::Testbed& tb) : tb_(tb) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every action of `plan`. Actions whose time is already in the
  // past execute immediately. May be called more than once (plans compose).
  // Throws std::invalid_argument, naming the plan, for a storm action with a
  // negative count, a spacing that is not finite, negative or too large for
  // SimTime, or a last message past the end of simulated time.
  void Apply(const FaultPlan& plan);

  std::size_t injected() const { return injected_; }

 private:
  void Execute(const FaultAction& a);
  sim::Link& LinkOf(FaultTarget t);
  // Which system a fault record should be attributed to.
  static nas::System SystemOf(FaultTarget t);

  stack::Testbed& tb_;
  std::size_t injected_ = 0;
};

}  // namespace cnv::fault
