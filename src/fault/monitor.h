// Watches a Testbed during a fault campaign and reports, per user-visible
// property, the outage and recovery times against fixed SLO bounds: 120 s
// for the longest single outage of each property and, under storm load, a
// 35 s foreground attach p99, at most 90% of offered signalling turned
// away, and a backlog gone within 30 s of the last injection.
// The three properties are the ones the paper's user study cares about:
//
//   MM_OK            the device is registered with its serving system
//   PacketService_OK the packet-service path works end to end (and, when a
//                    data session is up, delivers non-zero throughput)
//   CallService_OK   the device could get call service right now
//
// Sampling sits on a fixed grid (every kSamplePeriod from Start) on the
// testbed's simulator, so a monitored run is exactly as deterministic as
// the run itself. The three properties are pure functions of testbed
// state, which only events change, so a sample skips the grid points that
// fall before the kernel's next pending event (Simulator::
// NextEventLowerBound): they would observe exactly what this sample did.
// The next sample lands on the first grid point at or after that bound and
// pops against that instant's events just as the full 100 ms chain would.
// A quiet stretch therefore costs one sample, however long it is; with
// nothing else pending the bound is the end of the 2^20 us (~1.05 s)
// interval holding the latest event, so an idle testbed is sampled about
// once per 1.05 s. Code that mutates the testbed between Run() calls,
// outside any event, is observed at the next queued sample rather than the
// next grid point.
// Property transitions emit RECOV trace records; finding probes translate
// the testbed's defect counters into the paper's S1-S6 findings after the
// run.
#pragma once

#include <string>
#include <vector>

#include "stack/testbed.h"

namespace cnv::fault {

struct PropertyReport {
  std::string name;
  bool established = false;  // the property was OK at least once
  bool ok_at_end = false;
  int outages = 0;
  SimDuration total_outage = 0;
  SimDuration longest_outage = 0;
  SimDuration slo = 0;
  // Recovered from every outage and never exceeded the SLO bound. A
  // property that never came up fails by definition.
  bool within_slo() const {
    return established && ok_at_end && longest_outage <= slo;
  }
};

// A structured finding: a known protocol-interaction defect the run
// reproduced, attributed via the testbed's defect counters.
struct Finding {
  std::string id;      // "S1" .. "S6"
  std::string detail;  // what the counters showed
};

// How gracefully the core degraded under storm load. Aggregated over the
// MME, MSC and SGSN admission counters; `active` only when the testbed's
// StormGenerator injected traffic, so storm-free runs are unaffected.
struct DegradationReport {
  bool active = false;
  std::uint64_t storm_injected = 0;     // messages the generator produced
  std::uint64_t offered = 0;            // signalling that asked for capacity
  std::uint64_t served = 0;             // dispatched + background drained
  std::uint64_t rejected_congestion = 0;
  std::uint64_t shed = 0;
  std::uint64_t integrity_rejected = 0;
  std::uint64_t replay_dropped = 0;
  std::size_t queue_peak = 0;
  double shed_fraction = 0.0;           // (rejected + shed) / offered
  double attach_p99_s = 0.0;            // foreground UE attach latency p99
  std::uint64_t ue_congestion_rejects = 0;
  std::uint64_t ue_congestion_backoffs = 0;
  bool drained = false;                 // every core queue empty at the end
  SimDuration time_to_drain = 0;        // last-drain minus last-injection
  // The storm SLO bounds, copied in so the verdict is self-contained.
  SimDuration attach_p99_slo = 0;
  double shed_fraction_slo = 0.0;
  SimDuration drain_slo = 0;

  bool within_slo() const {
    if (!active) return true;
    if (attach_p99_s > ToSeconds(attach_p99_slo)) return false;
    if (shed_fraction > shed_fraction_slo) return false;
    return drained && time_to_drain <= drain_slo;
  }
};

struct MonitorReport {
  std::vector<PropertyReport> properties;  // MM, PS, CS (in that order)
  std::vector<Finding> findings;
  DegradationReport degradation;
  bool all_within_slo() const {
    for (const auto& p : properties) {
      if (!p.within_slo()) return false;
    }
    return degradation.within_slo();
  }
};

class RecoveryMonitor {
 public:
  // Spacing of the sample grid.
  static constexpr SimDuration kSamplePeriod = Millis(100);

  explicit RecoveryMonitor(stack::Testbed& tb);
  RecoveryMonitor(const RecoveryMonitor&) = delete;
  RecoveryMonitor& operator=(const RecoveryMonitor&) = delete;

  // Begins periodic sampling (idempotent).
  void Start();

  // Stops sampling, closes open outage windows at the current simulation
  // time, probes the finding counters, and returns the report.
  MonitorReport Finalize();

  // Probes the testbed's defect counters for the paper's findings. Usable
  // standalone (the validation experiments reuse it).
  static std::vector<Finding> ProbeFindings(stack::Testbed& tb);

  // Aggregates the core elements' overload counters and the foreground
  // UE's congestion/backoff view into a degradation verdict.
  static DegradationReport ProbeDegradation(stack::Testbed& tb);

  // The three properties as a sample sees them now.
  bool MmOk() const;
  bool PsOk() const;
  bool CsOk() const;

 private:
  struct Tracker {
    std::string name;
    bool established = false;
    bool ok = false;
    SimTime outage_started = 0;
    int outages = 0;
    SimDuration total_outage = 0;
    SimDuration longest_outage = 0;
  };

  void Sample();
  // Queues the next sample on the first grid point that can see a change.
  void ScheduleNextSample();
  void Observe(Tracker& t, bool ok_now);

  stack::Testbed& tb_;
  SimTime grid_origin_ = 0;  // samples run at grid_origin_ + k * kSamplePeriod
  bool running_ = false;
  Tracker mm_;
  Tracker ps_;
  Tracker cs_;
};

}  // namespace cnv::fault
