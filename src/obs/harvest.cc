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

void HarvestTimerWheel(Registry& reg, const sim::TimerWheel::Stats& stats,
                       const std::string& prefix) {
  for (int level = 0; level < sim::TimerWheel::kLevels; ++level) {
    const std::string tier = prefix + ".l" + std::to_string(level);
    reg.GetCounter(tier + ".inserts").Increment(stats.inserts[level]);
    reg.GetGauge(tier + ".occupancy")
        .Set(static_cast<double>(stats.occupancy[level]));
    reg.GetGauge(tier + ".occupancy_peak")
        .Set(static_cast<double>(stats.peak_occupancy[level]));
  }
  reg.GetCounter(prefix + ".overflow.inserts")
      .Increment(stats.overflow_inserts);
  reg.GetGauge(prefix + ".overflow.occupancy")
      .Set(static_cast<double>(stats.overflow_occupancy));
  reg.GetGauge(prefix + ".overflow.occupancy_peak")
      .Set(static_cast<double>(stats.overflow_peak));
  reg.GetCounter(prefix + ".cascaded").Increment(stats.cascaded);
  reg.GetCounter(prefix + ".migrated").Increment(stats.migrated);
  reg.GetCounter(prefix + ".sorted_ticks").Increment(stats.sorted_ticks);
  reg.GetCounter(prefix + ".reaped").Increment(stats.reaped);
}

void HarvestCity(Registry& reg, const stack::CityReport& r) {
  reg.GetCounter("city.events_executed").Increment(r.events_executed);
  reg.GetCounter("city.events_scheduled").Increment(r.events_scheduled);
  reg.GetCounter("city.events_cancelled").Increment(r.events_cancelled);
  reg.GetCounter("city.stale_events").Increment(r.stale_events);
  reg.GetCounter("city.attaches_started").Increment(r.attaches_started);
  reg.GetCounter("city.attaches_completed").Increment(r.attaches_completed);
  reg.GetCounter("city.attaches_rejected").Increment(r.attaches_rejected);
  reg.GetCounter("city.guard_expiries").Increment(r.guard_expiries);
  reg.GetCounter("city.backoffs_armed").Increment(r.backoffs_armed);
  reg.GetCounter("city.sessions").Increment(r.sessions);
  reg.GetCounter("city.pagings").Increment(r.pagings);
  reg.GetCounter("city.handovers").Increment(r.handovers);
  reg.GetCounter("city.location_updates").Increment(r.location_updates);
  reg.GetCounter("city.taus").Increment(r.taus);
  reg.GetCounter("city.storms_flagged").Increment(r.storms_flagged);
  reg.GetCounter("city.windows").Increment(r.windows);
  reg.GetCounter("city.shard_stalls").Increment(r.shard_stalls);
  reg.GetCounter("city.cross_cell_messages")
      .Increment(r.cross_cell_messages);
  reg.GetCounter("city.trace_emitted").Increment(r.trace_emitted);
  reg.GetCounter("city.trace_dropped").Increment(r.trace_dropped);
  reg.GetCounter("city.digest").Increment(r.digest);
  reg.GetGauge("city.arena_bytes").Set(static_cast<double>(r.arena_bytes));
  reg.GetGauge("city.bytes_per_ue").Set(r.bytes_per_ue);
  HarvestTimerWheel(reg, r.wheel, "city.wheel");
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

void HarvestExploreStats(Registry& reg, const mck::ExploreStats& stats,
                         const std::string& prefix, bool include_wall) {
  reg.GetCounter(prefix + ".states_visited").Increment(stats.states_visited);
  reg.GetCounter(prefix + ".transitions").Increment(stats.transitions);
  reg.GetGauge(prefix + ".max_depth_reached")
      .Set(static_cast<double>(stats.max_depth_reached));
  reg.GetGauge(prefix + ".frontier_peak")
      .Set(static_cast<double>(stats.frontier_peak));
  reg.GetGauge(prefix + ".hash_occupancy").Set(stats.hash_occupancy);
  reg.GetGauge(prefix + ".truncated").Set(stats.truncated ? 1 : 0);
  if (include_wall) {
    reg.GetGauge(prefix + ".elapsed_wall_seconds")
        .Set(stats.elapsed_wall_seconds);
    reg.GetGauge(prefix + ".states_per_sec_wall")
        .Set(stats.StatesPerSecond());
  }
}

void HarvestExecutionStats(Registry& reg, const ckpt::ExecutionStats& stats,
                           const std::string& prefix) {
  reg.GetCounter(prefix + ".cells_total").Increment(stats.cells_total);
  reg.GetCounter(prefix + ".cells_resumed").Increment(stats.cells_resumed);
  reg.GetCounter(prefix + ".cells_run").Increment(stats.cells_run);
  reg.GetCounter(prefix + ".retries").Increment(stats.retries);
  reg.GetCounter(prefix + ".watchdog_hits").Increment(stats.watchdog_hits);
  reg.GetCounter(prefix + ".checkpoints_written")
      .Increment(stats.checkpoints_written);
  reg.GetCounter(prefix + ".corrupt_cells_discarded")
      .Increment(stats.corrupt_cells_discarded);
  reg.GetGauge(prefix + ".interrupted").Set(stats.interrupted ? 1 : 0);
}

}  // namespace cnv::obs
