// Harvesters: translate each layer's native counters into registry metrics.
// A harvest writes absolute cumulative values, so call it on a registry (or
// registry namespace) that has not been harvested before — the snapshot
// exporters build a fresh registry per snapshot for exactly this reason.
// Everything harvested is deterministic (derived from simulated time and
// event counts); the only wall-clock figures are the explicitly "_wall"-
// suffixed explorer throughput gauges.
#pragma once

#include <string>

#include "ckpt/manifest.h"
#include "mck/explorer.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/wheel.h"
#include "stack/city.h"
#include "stack/testbed.h"

namespace cnv::obs {

// Event-queue and guard-timer metrics of the kernel:
//   sim.events_executed / scheduled / cancelled, sim.pending_events,
//   sim.queue_depth_peak, sim.handler_slots,
//   sim.timers_armed / fired / cancelled.
void HarvestSimulator(Registry& reg, const sim::Simulator& sim);

// Timer-wheel tier metrics under `prefix` (default "sim.wheel"): per-tier
// insert counters and occupancy/peak gauges ("<prefix>.l0.inserts", ...),
// overflow-calendar figures, and the cascade / migration / sorted-tick
// counters. Everything is an event count — deterministic and byte-stable
// across replays and worker counts.
void HarvestTimerWheel(Registry& reg, const sim::TimerWheel::Stats& stats,
                       const std::string& prefix = "sim.wheel");

// City-engine metrics under "city.": kernel accounting (executed /
// scheduled / cancelled / stale tombstones), protocol procedure counters,
// parallel-window shape (windows, shard lookahead stalls, cross-cell
// messages), arena footprint (bytes total and per UE), sampled-vs-dropped
// trace records, the determinism digest, and the aggregated wheel tiers
// under "city.wheel.". Deterministic at any --jobs value.
void HarvestCity(Registry& reg, const stack::CityReport& report);

// Protocol-stack metrics of one testbed run: per-module NAS message counts
// (from the trace collector), per-procedure retry counters, attach/detach
// bookkeeping, and the UE's latency series as histograms
// ("stack.call_setup.latency_s", ...). Includes HarvestSimulator on the
// testbed's kernel.
void HarvestTestbed(Registry& reg, stack::Testbed& tb);

// Explorer metrics under `prefix` (e.g. "mck.s3_cell"): states visited,
// transitions, depth, frontier peak, hash occupancy; when `include_wall`
// is set, also "<prefix>.states_per_sec_wall" and
// "<prefix>.elapsed_wall_seconds" — wall-clock throughput figures that must
// stay out of byte-identical replay comparisons.
void HarvestExploreStats(Registry& reg, const mck::ExploreStats& stats,
                         const std::string& prefix, bool include_wall = false);

// Checkpoint/resume execution accounting under `prefix` (default "ckpt"):
// "<prefix>.cells_total", ".cells_resumed", ".cells_run", ".retries",
// ".watchdog_hits", ".checkpoints_written", ".corrupt_cells_discarded",
// ".interrupted". These depend on the process's interruption history, so
// harvest them only into exports that are never byte-compared against an
// uninterrupted run (drivers keep them out of --metrics-json).
void HarvestExecutionStats(Registry& reg, const ckpt::ExecutionStats& stats,
                           const std::string& prefix = "ckpt");

}  // namespace cnv::obs
