// Export surfaces of the telemetry layer:
//  - SnapshotScheduler: periodic JSON metric snapshots driven by the
//    simulator clock (never wall-clock), so the snapshot cadence replays
//    byte-identically with the run;
//  - RunReport: one machine-readable report per run — metadata,
//    snapshot series, final metrics, and stitched procedure spans;
//  - file helpers for the CLI drivers.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace cnv::obs {

// Serializes a registry snapshot every `period` of simulated time. The
// refresh hook populates a fresh registry with absolute cumulative values
// (see harvest.h); the scheduler serializes and discards it, keeping only
// the JSON strings.
class SnapshotScheduler {
 public:
  using Refresh = std::function<void(Registry&)>;

  SnapshotScheduler(sim::Simulator& sim, Refresh refresh, SimDuration period);
  SnapshotScheduler(const SnapshotScheduler&) = delete;
  SnapshotScheduler& operator=(const SnapshotScheduler&) = delete;

  // Arms the first snapshot one period from now (idempotent).
  void Start();

  // Takes one snapshot immediately at the current simulated time.
  void SnapshotNow();

  const std::vector<std::string>& snapshots() const { return snapshots_; }

 private:
  sim::Simulator& sim_;
  Refresh refresh_;
  SimDuration period_;
  bool running_ = false;
  std::vector<std::string> snapshots_;
};

// Machine-readable report of one run. `meta` is an ordered key/value list
// (seed, plan, profile, ...) so export order — and therefore bytes — are
// caller-controlled and stable.
struct RunReport {
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<std::string> snapshots;  // periodic registry snapshots (JSON)
  std::string final_metrics;           // end-of-run registry snapshot (JSON)
  std::vector<ProcedureSpan> spans;

  // {"meta":{...},"snapshots":[...],"final":{...},"spans":[...]}
  std::string ToJson() const;

  // This run's span events as a Chrome trace fragment (see span.h).
  std::string ChromeFragment(int pid) const;

  // Human-readable process label, e.g. "seed=1 plan=x profile=OP-I".
  std::string Label() const;
};

// Writes `content` to `path`, creating parent directories, and closes it.
// Returns false on any I/O failure, including one the final flush reports.
bool WriteFile(const std::string& path, const std::string& content);

// Replaces characters that are awkward in filenames with '-'.
std::string SanitizeFilename(const std::string& s);

}  // namespace cnv::obs
