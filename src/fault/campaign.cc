#include "fault/campaign.h"

#include <memory>

#include "obs/harvest.h"
#include "obs/span.h"
#include "trace/qxdm.h"
#include "util/strings.h"

namespace cnv::fault {

namespace {

// Simulated length of every run, and the telemetry snapshot spacing.
constexpr SimDuration kRunDuration = Seconds(600);
constexpr SimDuration kSnapshotPeriod = Seconds(60);

// Folds the monitor's per-property outage accounting into SLO metrics.
void HarvestMonitorReport(obs::Registry& reg, const MonitorReport& report) {
  for (const auto& p : report.properties) {
    const std::string prefix = "fault.slo." + p.name;
    reg.GetCounter(prefix + ".outages")
        .Increment(static_cast<std::uint64_t>(p.outages));
    reg.GetGauge(prefix + ".total_outage_s").Set(ToSeconds(p.total_outage));
    reg.GetGauge(prefix + ".longest_outage_s")
        .Set(ToSeconds(p.longest_outage));
    reg.GetGauge(prefix + ".within_slo").Set(p.within_slo() ? 1 : 0);
  }
  reg.GetCounter("fault.findings.total")
      .Increment(report.findings.size());
  for (const auto& f : report.findings) {
    reg.GetCounter("fault.findings." + f.id).Increment();
  }
  if (report.degradation.active) {
    const DegradationReport& d = report.degradation;
    reg.GetCounter("fault.storm.injected").Increment(d.storm_injected);
    reg.GetCounter("fault.storm.offered").Increment(d.offered);
    reg.GetCounter("fault.storm.served").Increment(d.served);
    reg.GetCounter("fault.storm.rejected_congestion")
        .Increment(d.rejected_congestion);
    reg.GetCounter("fault.storm.shed").Increment(d.shed);
    reg.GetCounter("fault.storm.integrity_rejected")
        .Increment(d.integrity_rejected);
    reg.GetCounter("fault.storm.replay_dropped").Increment(d.replay_dropped);
    reg.GetGauge("fault.storm.queue_peak")
        .Set(static_cast<double>(d.queue_peak));
    reg.GetGauge("fault.storm.shed_fraction").Set(d.shed_fraction);
    reg.GetGauge("fault.storm.attach_p99_s").Set(d.attach_p99_s);
    reg.GetGauge("fault.storm.time_to_drain_s")
        .Set(d.drained ? ToSeconds(d.time_to_drain) : -1.0);
    reg.GetGauge("fault.storm.within_slo").Set(d.within_slo() ? 1 : 0);
  }
}

}  // namespace

void CampaignRunner::ScheduleWorkload(stack::Testbed& tb) {
  auto& sim = tb.sim();
  auto& ue = tb.ue();
  sim.ScheduleAt(0, [&ue] {
    ue.PowerOn(nas::System::k4G);
    ue.EnablePeriodicUpdates(Seconds(300));
  });
  sim.ScheduleAt(Seconds(30), [&ue] { ue.StartDataSession(0.2); });
  sim.ScheduleAt(Seconds(120), [&ue] { ue.Dial(); });
  sim.ScheduleAt(Seconds(180), [&ue] { ue.HangUp(); });
  sim.ScheduleAt(Seconds(240), [&ue] { ue.CrossAreaBoundary(); });
  sim.ScheduleAt(Seconds(250), [&ue] { ue.Dial(); });
  sim.ScheduleAt(Seconds(310), [&ue] { ue.HangUp(); });
  sim.ScheduleAt(Seconds(400), [&ue] { ue.CrossAreaBoundary(); });
  sim.ScheduleAt(Seconds(420), [&ue] { ue.Dial(); });
  sim.ScheduleAt(Seconds(480), [&ue] { ue.HangUp(); });
}

std::string CampaignRunner::AdmissionLabel(
    const stack::OverloadConfig& overload) {
  if (overload.policy == stack::AdmissionPolicy::kOff) return "";
  return ToString(overload.policy);
}

RunOutcome CampaignRunner::RunOne(
    std::uint64_t seed, const FaultPlan& plan,
    const stack::CarrierProfile& profile,
    const stack::OverloadConfig& overload) const {
  stack::TestbedConfig cfg;
  cfg.profile = profile;
  cfg.solutions = config_.solutions;
  cfg.robust = config_.robust;
  cfg.overload = overload;
  cfg.seed = seed;
  stack::Testbed tb(cfg);

  FaultInjector injector(tb);
  injector.Apply(plan);
  RecoveryMonitor monitor(tb);
  monitor.Start();
  ScheduleWorkload(tb);

  std::unique_ptr<obs::SnapshotScheduler> snapshots;
  if (config_.collect_telemetry) {
    snapshots = std::make_unique<obs::SnapshotScheduler>(
        tb.sim(), [&tb](obs::Registry& reg) { obs::HarvestTestbed(reg, tb); },
        kSnapshotPeriod);
    snapshots->Start();
  }

  tb.Run(kRunDuration);

  RunOutcome out;
  out.seed = seed;
  out.plan = plan.name;
  out.profile = profile.name;
  out.admission = AdmissionLabel(overload);
  out.report = monitor.Finalize();
  out.faults_injected = injector.injected();
  if (keep_traces_) out.trace_log = trace::FormatLog(tb.traces().records());

  if (config_.collect_telemetry) {
    obs::RunReport report;
    report.meta = {{"seed", std::to_string(seed)},
                   {"plan", plan.name},
                   {"profile", profile.name}};
    if (!out.admission.empty()) {
      report.meta.emplace_back("admission", out.admission);
    }
    report.snapshots = snapshots->snapshots();
    report.spans = obs::StitchSpans(tb.traces().records());

    obs::Registry final_reg;
    obs::HarvestTestbed(final_reg, tb);
    HarvestMonitorReport(final_reg, out.report);
    final_reg.GetCounter("fault.injected").Increment(out.faults_injected);
    obs::RecordSpans(final_reg, report.spans);
    report.final_metrics = final_reg.ToJson(tb.sim().now());
    out.telemetry = std::move(report);
  }
  return out;
}

std::vector<stack::CarrierProfile> CampaignRunner::ResolvedProfiles() const {
  std::vector<stack::CarrierProfile> profiles = config_.profiles;
  if (profiles.empty()) profiles.push_back(stack::OpI());
  return profiles;
}

std::vector<stack::OverloadConfig> CampaignRunner::ResolvedAdmission() const {
  std::vector<stack::OverloadConfig> admission = config_.admission;
  if (admission.empty()) admission.push_back(stack::OverloadConfig{});
  return admission;
}

CampaignResult CampaignRunner::Run() const {
  CampaignResult result;
  const std::vector<stack::CarrierProfile> profiles = ResolvedProfiles();
  const std::vector<stack::OverloadConfig> admission = ResolvedAdmission();

  // Enumerate the sweep up front so runs can execute on any worker while
  // the results vector keeps the serial profile -> plan -> admission ->
  // seed ordering.
  struct Triple {
    const stack::CarrierProfile* profile;
    const FaultPlan* plan;
    const stack::OverloadConfig* overload;
    std::uint64_t seed;
  };
  std::vector<Triple> triples;
  triples.reserve(profiles.size() * config_.plans.size() *
                  admission.size() * config_.seeds.size());
  for (const auto& profile : profiles) {
    for (const auto& plan : config_.plans) {
      for (const auto& adm : admission) {
        for (const std::uint64_t seed : config_.seeds) {
          triples.push_back({&profile, &plan, &adm, seed});
        }
      }
    }
  }

  // One grid cell per triple, each writing its outcome into its own slot.
  result.runs.resize(triples.size());
  result.quarantined = dist::RunGrid(
      triples.size(), config_.parallelism,
      [&](std::size_t i) {
        const Triple& t = triples[i];
        result.runs[i] = RunOne(t.seed, *t.plan, *t.profile, *t.overload);
      },
      [&](std::size_t i) {
        const Triple& t = triples[i];
        std::string name = "seed=" + std::to_string(t.seed) +
                           " plan=" + t.plan->name +
                           " profile=" + t.profile->name;
        const std::string adm = AdmissionLabel(*t.overload);
        if (!adm.empty()) name += " admission=" + adm;
        return name;
      });
  result.complete = result.quarantined.empty();

  for (const RunOutcome& run : result.runs) {
    if (run.report.all_within_slo()) ++result.runs_within_slo;
    if (!run.report.findings.empty()) ++result.runs_with_findings;
  }
  return result;
}

std::string CampaignResult::Summary() const {
  std::string out = Format(
      "%zu run(s): %zu within SLO, %zu with findings\n", runs.size(),
      runs_within_slo, runs_with_findings);
  for (const auto& r : runs) {
    out += Format("  seed=%llu plan=%s profile=%s faults=%zu",
                  static_cast<unsigned long long>(r.seed), r.plan.c_str(),
                  r.profile.c_str(), r.faults_injected);
    // Admission label only when the run swept one, so legacy summaries are
    // byte-identical.
    if (!r.admission.empty()) {
      out += Format(" admission=%s", r.admission.c_str());
    }
    out += Format(" -> %s",
                  r.report.all_within_slo() ? "OK" : "SLO-VIOLATION");
    if (!r.report.findings.empty()) {
      out += " [";
      for (std::size_t i = 0; i < r.report.findings.size(); ++i) {
        if (i > 0) out += ' ';
        out += r.report.findings[i].id;
      }
      out += ']';
    }
    out += '\n';
    for (const auto& p : r.report.properties) {
      if (p.within_slo() && p.outages == 0) continue;
      out += Format("    %-16s outages=%d longest=%.1fs total=%.1fs %s\n",
                    p.name.c_str(), p.outages, ToSeconds(p.longest_outage),
                    ToSeconds(p.total_outage),
                    p.within_slo() ? "recovered-within-SLO" : "VIOLATION");
    }
    if (r.report.degradation.active) {
      const DegradationReport& d = r.report.degradation;
      out += Format(
          "    %-16s injected=%llu offered=%llu rejected=%llu shed=%llu "
          "(%.2f) queue-peak=%zu attach-p99=%.2fs drain=%s %s\n", "storm",
          static_cast<unsigned long long>(d.storm_injected),
          static_cast<unsigned long long>(d.offered),
          static_cast<unsigned long long>(d.rejected_congestion),
          static_cast<unsigned long long>(d.shed), d.shed_fraction,
          d.queue_peak, d.attach_p99_s,
          d.drained ? Format("%.1fs", ToSeconds(d.time_to_drain)).c_str()
                    : "never",
          d.within_slo() ? "degraded-within-SLO" : "VIOLATION");
    }
  }
  // Quarantine block only when cells were actually quarantined, so legacy
  // summaries stay byte-identical.
  if (!quarantined.empty()) {
    out += Format("%zu quarantined cell(s):\n", quarantined.size());
    for (const auto& q : quarantined) {
      out += Format("  QUARANTINED %s: %s\n", q.name.c_str(),
                    q.error.c_str());
    }
  }
  return out;
}

std::string CampaignResult::ChromeTraceJson() const {
  std::vector<std::string> fragments;
  int pid = 1;
  for (const auto& r : runs) {
    if (!r.telemetry) continue;
    fragments.push_back(r.telemetry->ChromeFragment(pid++));
  }
  return obs::ChromeTraceDocument(fragments);
}

}  // namespace cnv::fault
