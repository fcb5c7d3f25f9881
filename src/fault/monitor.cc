#include "fault/monitor.h"

#include <algorithm>
#include <limits>

#include "util/strings.h"

namespace cnv::fault {

namespace {
// Hour used for the time-of-day load factor in throughput sampling; noon
// keeps the factor deterministic and non-degenerate.
constexpr int kSampleHour = 12;
// A CSFB device stranded in 3G longer than this counts as the S3 defect.
constexpr double kStuckIn3gThresholdS = 10.0;
// Longest tolerated single outage of each property.
constexpr SimDuration kOutageSlo = Seconds(120);
// Graceful-degradation bounds, checked only when the run carried storm load
// (see DegradationReport): the foreground attach latency p99, the share of
// offered signalling turned away, and how soon after the last injection
// the backlog must be gone.
constexpr SimDuration kStormAttachP99Slo = Seconds(35);
constexpr double kStormShedFractionSlo = 0.9;
constexpr SimDuration kStormDrainSlo = Seconds(30);
}  // namespace

RecoveryMonitor::RecoveryMonitor(stack::Testbed& tb) : tb_(tb) {
  mm_.name = "MM_OK";
  ps_.name = "PacketService_OK";
  cs_.name = "CallService_OK";
}

bool RecoveryMonitor::MmOk() const {
  const auto& ue = tb_.ue();
  switch (ue.serving()) {
    case nas::System::k4G:
      return ue.emm_state() == stack::UeDevice::EmmState::kRegistered ||
             ue.emm_state() == stack::UeDevice::EmmState::kWaitTauAccept;
    case nas::System::k3G:
      return tb_.msc().registered();
    default:
      return false;
  }
}

bool RecoveryMonitor::PsOk() const {
  auto& tb = tb_;
  const auto& ue = tb.ue();
  bool path_ok = false;
  switch (ue.serving()) {
    case nas::System::k4G:
      path_ok = (ue.emm_state() == stack::UeDevice::EmmState::kRegistered ||
                 ue.emm_state() == stack::UeDevice::EmmState::kWaitTauAccept) &&
                tb.mme().available();
      break;
    case nas::System::k3G:
      path_ok = tb.sgsn().available() && tb.sgsn().registered();
      break;
    default:
      return false;
  }
  if (!path_ok) return false;
  // With a data session up, "the path exists" is not enough: the user sees
  // throughput, so sample it.
  if (ue.data_session_active()) {
    return ue.CurrentPsRateMbps(sim::Direction::kDownlink, kSampleHour) > 0.0;
  }
  return true;
}

bool RecoveryMonitor::CsOk() const {
  auto& tb = tb_;
  if (!MmOk()) return false;
  // VoLTE carriers serve calls in 4G without the MSC; everyone else anchors
  // call service on it (directly in 3G, via CSFB from 4G).
  if (tb.profile().volte_enabled &&
      tb.ue().serving() == nas::System::k4G) {
    return true;
  }
  return tb.msc().available();
}

void RecoveryMonitor::Observe(Tracker& t, bool ok_now) {
  if (!t.established) {
    if (ok_now) {
      t.established = true;
      t.ok = true;
      tb_.traces().Recovery(nas::System::kNone, "MONITOR",
                            t.name + " established");
    }
    return;
  }
  if (t.ok && !ok_now) {
    t.ok = false;
    t.outage_started = tb_.sim().now();
    ++t.outages;
    tb_.traces().Recovery(nas::System::kNone, "MONITOR",
                          t.name + " outage begins");
  } else if (!t.ok && ok_now) {
    t.ok = true;
    const SimDuration d = tb_.sim().now() - t.outage_started;
    t.total_outage += d;
    t.longest_outage = std::max(t.longest_outage, d);
    tb_.traces().Recovery(
        nas::System::kNone, "MONITOR",
        Format("%s recovered after %.1f s", t.name.c_str(), ToSeconds(d)));
  }
}

void RecoveryMonitor::Sample() {
  if (!running_) return;
  Observe(mm_, MmOk());
  Observe(ps_, PsOk());
  Observe(cs_, CsOk());
  ScheduleNextSample();
}

void RecoveryMonitor::ScheduleNextSample() {
  // Runs inside an event, so nothing can change the testbed before the
  // kernel's next pending event: every grid point before it would see the
  // state this sample just saw.
  sim::Simulator& sim = tb_.sim();
  SimTime next = sim.now() + kSamplePeriod;
  // Clamped so that rounding an event at the end of time up to the grid
  // cannot overflow.
  const SimTime bound =
      std::min(sim.NextEventLowerBound(),
               std::numeric_limits<SimTime>::max() - kSamplePeriod);
  if (bound > next) {
    const SimDuration ahead = bound - grid_origin_;
    next = grid_origin_ +
           (ahead + kSamplePeriod - 1) / kSamplePeriod * kSamplePeriod;
  }
  sim.ScheduleAt(next, [this] { Sample(); });
}

void RecoveryMonitor::Start() {
  if (running_) return;
  running_ = true;
  // Not skipped: the caller may still schedule work or change state before
  // the run starts.
  grid_origin_ = tb_.sim().now();
  tb_.sim().ScheduleIn(kSamplePeriod, [this] { Sample(); });
}

DegradationReport RecoveryMonitor::ProbeDegradation(stack::Testbed& tb) {
  DegradationReport d;
  d.active = tb.storm().injected() > 0;
  d.storm_injected = tb.storm().injected();
  for (const stack::OverloadStats* s :
       {&tb.mme().overload_stats(), &tb.msc().overload_stats(),
        &tb.sgsn().overload_stats()}) {
    d.offered += s->offered();
    d.served += s->admitted + s->background_served;
    d.rejected_congestion += s->rejected_congestion;
    d.shed += s->shed;
    d.integrity_rejected += s->integrity_rejected;
    d.replay_dropped += s->replay_dropped;
    d.queue_peak = std::max(d.queue_peak, s->queue_peak);
  }
  if (d.offered > 0) {
    d.shed_fraction =
        static_cast<double>(d.rejected_congestion + d.shed) /
        static_cast<double>(d.offered);
  }
  const auto& attach = tb.ue().attach_latency_seconds();
  d.attach_p99_s = attach.Empty() ? 0.0 : attach.Percentile(99.0);
  d.ue_congestion_rejects = tb.ue().congestion_rejects();
  d.ue_congestion_backoffs = tb.ue().congestion_backoffs();
  // Time to drain: how long past the storm's final injection each element
  // kept a backlog. DrainedAfter finds the first instant the queue emptied
  // at or after the storm end, so later foreground bursts don't inflate it.
  const SimTime storm_end = tb.storm().last_injection_at();
  const SimTime drains[] = {tb.mme().DrainedAfter(storm_end),
                            tb.msc().DrainedAfter(storm_end),
                            tb.sgsn().DrainedAfter(storm_end)};
  d.drained = true;
  SimTime last_drain = storm_end;
  for (const SimTime at : drains) {
    if (at < 0) d.drained = false;
    last_drain = std::max(last_drain, at);
  }
  if (d.drained) d.time_to_drain = last_drain - storm_end;
  d.attach_p99_slo = kStormAttachP99Slo;
  d.shed_fraction_slo = kStormShedFractionSlo;
  d.drain_slo = kStormDrainSlo;
  return d;
}

MonitorReport RecoveryMonitor::Finalize() {
  running_ = false;
  MonitorReport report;
  for (Tracker* t : {&mm_, &ps_, &cs_}) {
    // Close an open outage window at the current time.
    if (t->established && !t->ok) {
      const SimDuration d = tb_.sim().now() - t->outage_started;
      t->total_outage += d;
      t->longest_outage = std::max(t->longest_outage, d);
    }
    PropertyReport p;
    p.name = t->name;
    p.established = t->established;
    p.ok_at_end = t->established && t->ok;
    p.outages = t->outages;
    p.total_outage = t->total_outage;
    p.longest_outage = t->longest_outage;
    p.slo = kOutageSlo;
    if (!t->established) {
      // Never came up: the whole run is one outage.
      p.outages = 1;
      p.total_outage = tb_.sim().now();
      p.longest_outage = tb_.sim().now();
    }
    report.properties.push_back(std::move(p));
  }
  report.findings = ProbeFindings(tb_);
  report.degradation = ProbeDegradation(tb_);
  if (report.degradation.active) {
    const DegradationReport& d = report.degradation;
    tb_.traces().Recovery(
        nas::System::kNone, "MONITOR",
        Format("storm degradation: offered=%llu served=%llu rejected=%llu "
               "shed=%llu (%.2f) attach-p99=%.2fs drain=%.1fs -> %s",
               static_cast<unsigned long long>(d.offered),
               static_cast<unsigned long long>(d.served),
               static_cast<unsigned long long>(d.rejected_congestion),
               static_cast<unsigned long long>(d.shed), d.shed_fraction,
               d.attach_p99_s,
               d.drained ? ToSeconds(d.time_to_drain) : -1.0,
               d.within_slo() ? "within SLO" : "SLO-VIOLATION"));
  }
  return report;
}

std::vector<Finding> RecoveryMonitor::ProbeFindings(stack::Testbed& tb) {
  std::vector<Finding> out;
  const auto& ue = tb.ue();
  if (ue.detaches_no_eps_bearer() > 0) {
    out.push_back(
        {"S1", Format("%llu detach(es) for missing EPS bearer context",
                      static_cast<unsigned long long>(
                          ue.detaches_no_eps_bearer()))});
  }
  if (tb.mme().stale_attach_detaches() > 0) {
    out.push_back(
        {"S2", Format("%llu detach(es) from stale/duplicated attach "
                      "signaling at the MME",
                      static_cast<unsigned long long>(
                          tb.mme().stale_attach_detaches()))});
  }
  // Completed stuck periods are sampled on the return to 4G; a device still
  // pinned in 3G when the run ends never gets to record one.
  const bool stranded_now = ue.serving() == nas::System::k3G &&
                            ue.awaiting_cell_reselection();
  if (!ue.stuck_in_3g_seconds().Empty() &&
      ue.stuck_in_3g_seconds().Max() > kStuckIn3gThresholdS) {
    out.push_back({"S3", Format("stranded in 3G for up to %.1f s after a "
                                "CSFB call",
                                ue.stuck_in_3g_seconds().Max())});
  } else if (stranded_now) {
    out.push_back({"S3", "still stranded in 3G awaiting cell reselection "
                         "at end of run"});
  }
  if (ue.deferred_call_requests() > 0) {
    out.push_back(
        {"S4", Format("%llu call request(s) head-of-line blocked behind a "
                      "location update",
                      static_cast<unsigned long long>(
                          ue.deferred_call_requests()))});
  }
  if (ue.calls_with_data() > 0) {
    out.push_back(
        {"S5", Format("%llu call(s) overlapped a data session on the "
                      "shared 3G channel (PS rate degraded)",
                      static_cast<unsigned long long>(ue.calls_with_data()))});
  }
  if (tb.mme().sgs_update_failures() > 0) {
    out.push_back(
        {"S6", Format("3G location-update failure reached the 4G core "
                      "(%llu SGs failure(s): %llu detach(es), %llu core-side "
                      "recover(ies))",
                      static_cast<unsigned long long>(
                          tb.mme().sgs_update_failures()),
                      static_cast<unsigned long long>(
                          ue.detaches_msc_unreachable()),
                      static_cast<unsigned long long>(
                          tb.mme().lu_recoveries()))});
  }
  return out;
}

}  // namespace cnv::fault
