#include "fault/injector.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace cnv::fault {

sim::Link& FaultInjector::LinkOf(FaultTarget t) {
  switch (t) {
    case FaultTarget::kUl4g:
      return tb_.ul4g();
    case FaultTarget::kDl4g:
      return tb_.dl4g();
    case FaultTarget::kUl3gCs:
      return tb_.ul3g_cs();
    case FaultTarget::kDl3gCs:
      return tb_.dl3g_cs();
    case FaultTarget::kUl3gPs:
      return tb_.ul3g_ps();
    case FaultTarget::kDl3gPs:
      return tb_.dl3g_ps();
    default:
      throw std::logic_error("fault target is not a link");
  }
}

nas::System FaultInjector::SystemOf(FaultTarget t) {
  switch (t) {
    case FaultTarget::kUl4g:
    case FaultTarget::kDl4g:
    case FaultTarget::kMme:
      return nas::System::k4G;
    case FaultTarget::kHss:
    case FaultTarget::kUe:
      return nas::System::kNone;
    default:
      return nas::System::k3G;
  }
}

namespace {

bool IsStorm(FaultKind k) {
  return k == FaultKind::kStormMassAttach ||
         k == FaultKind::kStormTaPingPong ||
         k == FaultKind::kStormPagingFlood ||
         k == FaultKind::kStormAdversarialNas;
}

// Throws unless the storm action starting at `start` is a burst the
// generator can schedule: a count >= 0, a finite spacing >= 0 that fits
// SimTime, and a last message that does too.
void CheckStorm(const std::string& plan, const FaultAction& a,
                SimTime start) {
  const auto reject = [&](const std::string& why) {
    throw std::invalid_argument("fault plan '" + plan + "': " + Describe(a) +
                                ": " + why);
  };
  if (a.count < 0) reject("negative storm count");
  // 2^63 us, the first spacing SimDuration cannot hold.
  constexpr double kLimit = 9223372036854775808.0;
  if (!std::isfinite(a.value) || a.value < 0 ||
      a.value * static_cast<double>(kSecond) >= kLimit) {
    reject("storm spacing must be finite, >= 0 and fit in simulated time");
  }
  const SimDuration spacing = FromSeconds(a.value);
  if (a.count > 1 && spacing > 0 &&
      static_cast<std::uint64_t>(a.count - 1) >
          static_cast<std::uint64_t>(
              (std::numeric_limits<SimTime>::max() - start) / spacing)) {
    reject("last storm message overflows simulated time");
  }
}

}  // namespace

void FaultInjector::Apply(const FaultPlan& plan) {
  // Checked first, so a rejected plan schedules nothing.
  for (const FaultAction& a : plan.actions) {
    if (IsStorm(a.kind)) {
      CheckStorm(plan.name, a, std::max(a.at, tb_.sim().now()));
    }
  }
  for (const FaultAction& a : plan.actions) {
    const SimTime at = std::max(a.at, tb_.sim().now());
    tb_.sim().ScheduleAt(at, [this, a] { Execute(a); });
  }
}

void FaultInjector::Execute(const FaultAction& a) {
  tb_.traces().Fault(SystemOf(a.target), "FAULT-INJ", Describe(a));
  ++injected_;
  switch (a.kind) {
    case FaultKind::kDropNext:
      LinkOf(a.target).ForceDropNext(a.count);
      break;
    case FaultKind::kDeferNext:
      LinkOf(a.target).DeferNext(FromSeconds(a.value));
      break;
    case FaultKind::kDuplicateNext:
      LinkOf(a.target).ForceDuplicateNext(a.count);
      break;
    case FaultKind::kReorderNext:
      LinkOf(a.target).ReorderNext();
      break;
    case FaultKind::kCorruptNext:
      LinkOf(a.target).CorruptNext(a.count);
      break;
    case FaultKind::kExtraDelay:
      LinkOf(a.target).set_extra_delay(FromSeconds(a.value));
      break;
    case FaultKind::kLinkLoss:
      LinkOf(a.target).set_loss_prob(a.value);
      break;
    case FaultKind::kElementOutage:
      switch (a.target) {
        case FaultTarget::kMme:
          tb_.mme().BeginOutage();
          break;
        case FaultTarget::kMsc:
          tb_.msc().BeginOutage();
          break;
        case FaultTarget::kSgsn:
          tb_.sgsn().BeginOutage();
          break;
        case FaultTarget::kHss:
          tb_.hss().BeginOutage();
          break;
        default:
          throw std::logic_error("outage target is not an element");
      }
      break;
    case FaultKind::kElementRestart:
      switch (a.target) {
        case FaultTarget::kMme:
          tb_.mme().Restart(a.lose_state);
          break;
        case FaultTarget::kMsc:
          tb_.msc().Restart(a.lose_state);
          break;
        case FaultTarget::kSgsn:
          tb_.sgsn().Restart(a.lose_state);
          break;
        case FaultTarget::kHss:
          tb_.hss().Restart(a.lose_state);
          break;
        default:
          throw std::logic_error("restart target is not an element");
      }
      break;
    case FaultKind::kPdpDeactivate:
      tb_.sgsn().DeactivatePdp(nas::PdpDeactCause::kRegularDeactivation);
      break;
    case FaultKind::kDisruptNextLu:
      tb_.msc().DisruptNextLocationUpdate();
      break;
    case FaultKind::kForceSgsRace:
      tb_.mme().ForceNextSgsRace();
      break;
    case FaultKind::kTimerSkew:
      tb_.ue().set_timer_scale(a.value);
      break;
    case FaultKind::kStormMassAttach:
      tb_.storm().MassAttach(tb_.sim().now(),
                             static_cast<std::size_t>(a.count),
                             FromSeconds(a.value));
      break;
    case FaultKind::kStormTaPingPong:
      tb_.storm().TaPingPong(tb_.sim().now(),
                             static_cast<std::size_t>(a.count),
                             FromSeconds(a.value));
      break;
    case FaultKind::kStormPagingFlood:
      tb_.storm().PagingFlood(tb_.sim().now(),
                              static_cast<std::size_t>(a.count),
                              FromSeconds(a.value));
      break;
    case FaultKind::kStormAdversarialNas:
      tb_.storm().AdversarialNas(tb_.sim().now(),
                                 static_cast<std::size_t>(a.count),
                                 FromSeconds(a.value));
      break;
  }
}

}  // namespace cnv::fault
