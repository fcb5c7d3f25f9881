#include "obs/harvest.h"

#include <map>

#include "trace/record.h"
#include "util/time.h"

namespace cnv::obs {

namespace {

// Copies a Samples series into a latency histogram.
void HarvestSamples(Registry& reg, const std::string& name, const Samples& s) {
  if (s.Empty()) return;
  Histogram& h = reg.GetHistogram(name);
  for (const double v : s.Values()) h.Observe(v);
}

}  // namespace

void HarvestSimulator(Registry& reg, const sim::Simulator& sim) {
  reg.GetCounter("sim.events_executed").Increment(sim.ExecutedEvents());
  reg.GetCounter("sim.events_scheduled").Increment(sim.ScheduledEvents());
  reg.GetCounter("sim.events_cancelled").Increment(sim.CancelledEvents());
  reg.GetGauge("sim.pending_events")
      .Set(static_cast<double>(sim.PendingEvents()));
  reg.GetGauge("sim.queue_depth_peak")
      .Set(static_cast<double>(sim.PeakQueueDepth()));
  reg.GetGauge("sim.handler_slots")
      .Set(static_cast<double>(sim.HandlerSlots()));
  const auto& ts = sim.timer_stats();
  reg.GetCounter("sim.timers_armed").Increment(ts.armed);
  reg.GetCounter("sim.timers_fired").Increment(ts.fired);
  reg.GetCounter("sim.timers_cancelled").Increment(ts.cancelled);
}

void HarvestTestbed(Registry& reg, stack::Testbed& tb) {
  HarvestSimulator(reg, tb.sim());

  // Per-module NAS signaling counts, derived from the trace stream the same
  // way the paper counts QXDM message items per module.
  std::map<std::string, std::uint64_t> per_module;
  std::uint64_t total = 0;
  for (const auto& r : tb.traces().records()) {
    if (r.type != trace::TraceType::kMsg) continue;
    ++per_module[r.module];
    ++total;
  }
  reg.GetCounter("stack.nas_msgs.total").Increment(total);
  for (const auto& [module, n] : per_module) {
    reg.GetCounter("stack.nas_msgs." + module).Increment(n);
  }

  const stack::UeDevice& ue = tb.ue();
  reg.GetCounter("stack.attach.attempts").Increment(ue.attach_attempts_total());
  reg.GetCounter("stack.attach.backoff_cycles")
      .Increment(ue.attach_backoff_cycles());
  reg.GetCounter("stack.lu.retries").Increment(ue.lu_retries());
  reg.GetCounter("stack.gmm.retries").Increment(ue.gmm_retries());
  reg.GetCounter("stack.pdp.retries").Increment(ue.pdp_retries());
  reg.GetCounter("stack.cm.retries").Increment(ue.cm_retries());
  reg.GetCounter("stack.cm.abandoned").Increment(ue.cm_abandoned());
  reg.GetCounter("stack.oos_events").Increment(ue.oos_events());
  reg.GetCounter("stack.data_disruptions").Increment(ue.data_disruptions());
  reg.GetCounter("stack.deferred_service_requests")
      .Increment(ue.deferred_service_requests());
  reg.GetCounter("stack.detaches.no_eps_bearer")
      .Increment(ue.detaches_no_eps_bearer());
  reg.GetCounter("stack.detaches.implicit").Increment(ue.detaches_implicit());
  reg.GetCounter("stack.detaches.msc_unreachable")
      .Increment(ue.detaches_msc_unreachable());
  reg.GetCounter("stack.calls.connected").Increment(ue.calls_connected());
  reg.GetCounter("stack.calls.with_data").Increment(ue.calls_with_data());

  HarvestSamples(reg, "stack.call_setup.latency_s", ue.call_setup_seconds());
  HarvestSamples(reg, "stack.lau.latency_s", ue.lau_duration_seconds());
  HarvestSamples(reg, "stack.rau.latency_s", ue.rau_duration_seconds());
  HarvestSamples(reg, "stack.recovery.latency_s", ue.recovery_seconds());
  HarvestSamples(reg, "stack.stuck_in_3g.duration_s",
                 ue.stuck_in_3g_seconds());
  HarvestSamples(reg, "stack.call.duration_s", ue.call_durations_seconds());

  // Overload-control view: per-element admission counters, the UE's
  // congestion-backoff discipline, and the storm generator's load.
  reg.GetCounter("stack.congestion.rejects_seen")
      .Increment(ue.congestion_rejects());
  reg.GetCounter("stack.congestion.backoffs")
      .Increment(ue.congestion_backoffs());
  HarvestSamples(reg, "stack.attach.latency_s", ue.attach_latency_seconds());
  reg.GetCounter("stack.storm.injected").Increment(tb.storm().injected());
  const struct {
    const char* name;
    const stack::OverloadStats& s;
  } elements[] = {{"mme", tb.mme().overload_stats()},
                  {"msc", tb.msc().overload_stats()},
                  {"sgsn", tb.sgsn().overload_stats()},
                  {"hss", tb.hss().overload_stats()}};
  for (const auto& e : elements) {
    const std::string prefix = std::string("stack.overload.") + e.name;
    reg.GetCounter(prefix + ".admitted").Increment(e.s.admitted);
    reg.GetCounter(prefix + ".rejected_congestion")
        .Increment(e.s.rejected_congestion);
    reg.GetCounter(prefix + ".shed").Increment(e.s.shed);
    reg.GetCounter(prefix + ".background_served")
        .Increment(e.s.background_served);
    reg.GetCounter(prefix + ".integrity_rejected")
        .Increment(e.s.integrity_rejected);
    reg.GetCounter(prefix + ".replay_dropped")
        .Increment(e.s.replay_dropped);
    reg.GetGauge(prefix + ".queue_peak")
        .Set(static_cast<double>(e.s.queue_peak));
  }
}

}  // namespace cnv::obs
