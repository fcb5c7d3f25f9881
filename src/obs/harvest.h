// Harvesters: translate each layer's native counters into registry metrics.
// A harvest writes absolute cumulative values, so call it on a registry (or
// registry namespace) that has not been harvested before — the snapshot
// exporters build a fresh registry per snapshot for exactly this reason.
// Everything harvested is deterministic (derived from simulated time and
// event counts).
#pragma once

#include "obs/metrics.h"
#include "sim/simulator.h"
#include "stack/testbed.h"

namespace cnv::obs {

// Event-queue and guard-timer metrics of the kernel:
//   sim.events_executed / scheduled / cancelled, sim.pending_events,
//   sim.queue_depth_peak, sim.handler_slots,
//   sim.timers_armed / fired / cancelled.
void HarvestSimulator(Registry& reg, const sim::Simulator& sim);

// Protocol-stack metrics of one testbed run: per-module NAS message counts
// (from the trace collector), per-procedure retry counters, attach/detach
// bookkeeping, and the UE's latency series as histograms
// ("stack.call_setup.latency_s", ...). Includes HarvestSimulator on the
// testbed's kernel.
void HarvestTestbed(Registry& reg, stack::Testbed& tb);

}  // namespace cnv::obs
