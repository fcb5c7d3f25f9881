// Sweeps seeds x fault plans x carrier profiles, running each combination
// through a fresh Testbed with the standard workload, a FaultInjector and
// a RecoveryMonitor. Every run is fully deterministic: the same (seed,
// plan, profile) triple produces an identical trace, report and findings.
//
// Each run lasts 600 s of simulated time; with telemetry on, metrics are
// snapshotted every 60 s of it. The standard workload (all times from t=0):
//   0 s     power on in 4G, periodic updates every 300 s
//   30 s    data session starts (0.2 Mbps demand)
//   120 s   dial (CSFB when in 4G), hang up at 180 s
//   240 s   area crossing; dial at 250 s, hang up at 310 s
//   400 s   area crossing; dial at 420 s, hang up at 480 s
// Canned fault plans reference these times (see plan.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "fault/injector.h"
#include "fault/monitor.h"
#include "fault/plan.h"
#include "obs/export.h"
#include "stack/testbed.h"

namespace cnv::fault {

struct CampaignConfig {
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  std::vector<FaultPlan> plans = plans::Findings();
  std::vector<stack::CarrierProfile> profiles;  // empty -> {OpI()}
  // Admission-policy sweep dimension: each entry is one core overload
  // configuration crossed with profiles x plans x seeds. Empty -> one
  // default-constructed (AdmissionPolicy::kOff) entry, which keeps legacy
  // campaigns — ordering, summaries, digests — byte-identical.
  std::vector<stack::OverloadConfig> admission;
  stack::SolutionConfig solutions;
  bool robust = false;  // the robust stack (see stack::TestbedConfig)
  // Telemetry: when collect_telemetry is set, every run carries an
  // obs::RunReport (periodic metric snapshots on the simulator clock,
  // end-of-run metrics, stitched procedure spans). All exported values are
  // simulated-time based, so reports replay byte-identically per
  // (seed, plan, profile).
  bool collect_telemetry = false;
  // Worker count for the sweep: 1 = serial (default), 0 = hardware
  // concurrency. Each (seed, plan, profile) run is self-contained, so runs
  // execute concurrently while reports keep the serial ordering — the
  // Summary(), traces and telemetry exports are byte-identical at any
  // parallelism.
  int parallelism = 1;
};

struct RunOutcome {
  std::uint64_t seed = 0;
  std::string plan;
  std::string profile;
  // Admission-policy label for the run ("" = AdmissionPolicy::kOff, else
  // "unbounded" / "reject-backoff" / "priority-shed").
  std::string admission;
  MonitorReport report;
  std::size_t faults_injected = 0;
  // The QXDM-formatted trace of the run; kept only when
  // CampaignConfig-independent callers ask for it via keep_traces.
  std::string trace_log;
  // Machine-readable run report; present iff config.collect_telemetry.
  std::optional<obs::RunReport> telemetry;
};

struct CampaignResult {
  std::vector<RunOutcome> runs;
  std::size_t runs_within_slo = 0;
  std::size_t runs_with_findings = 0;
  // Cells whose run threw (index order). Quarantined cells keep default
  // RunOutcome entries and are listed by Summary().
  std::vector<dist::QuarantineRecord> quarantined;
  // True when every cell produced a result (quarantined is empty).
  bool complete = true;
  std::string Summary() const;
  // Chrome trace-event document covering every run that carried telemetry
  // (one viewer process per run). Empty-run document when telemetry was off.
  std::string ChromeTraceJson() const;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config, bool keep_traces = false)
      : config_(std::move(config)), keep_traces_(keep_traces) {}

  CampaignResult Run() const;

  // One deterministic run; exposed for tests and the determinism checks.
  // The overload config defaults to AdmissionPolicy::kOff.
  RunOutcome RunOne(std::uint64_t seed, const FaultPlan& plan,
                    const stack::CarrierProfile& profile,
                    const stack::OverloadConfig& overload = {}) const;

  // Label used for RunOutcome::admission.
  static std::string AdmissionLabel(const stack::OverloadConfig& overload);

 private:
  static void ScheduleWorkload(stack::Testbed& tb);
  std::vector<stack::CarrierProfile> ResolvedProfiles() const;
  std::vector<stack::OverloadConfig> ResolvedAdmission() const;

  CampaignConfig config_;
  bool keep_traces_;
};

}  // namespace cnv::fault
