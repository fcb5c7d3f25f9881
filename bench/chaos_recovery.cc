// Chaos recovery comparison: runs every canned fault plan over both
// carriers, baseline stack vs robust stack (NAS retries, attach backoff,
// bounded CM re-requests, core queue-and-replay), and tabulates per-plan
// SLO compliance and worst-case outage. Quantifies how much of the paper's
// fragility is recoverable with §8-style machinery alone.
#include <cstdio>

#include "bench/bench_util.h"
#include "fault/campaign.h"

using namespace cnv;

namespace {

struct PlanRow {
  std::string plan;
  std::size_t runs = 0;
  std::size_t ok = 0;
  double worst_outage_s = 0.0;
};

std::vector<PlanRow> Tabulate(const fault::CampaignResult& result) {
  std::vector<PlanRow> rows;
  for (const auto& run : result.runs) {
    PlanRow* row = nullptr;
    for (auto& r : rows) {
      if (r.plan == run.plan) row = &r;
    }
    if (row == nullptr) {
      rows.push_back({.plan = run.plan});
      row = &rows.back();
    }
    ++row->runs;
    if (run.report.all_within_slo()) ++row->ok;
    for (const auto& p : run.report.properties) {
      row->worst_outage_s =
          std::max(row->worst_outage_s, ToSeconds(p.longest_outage));
    }
  }
  return rows;
}

fault::CampaignResult RunSweep(bool robust) {
  fault::CampaignConfig cfg;
  cfg.seeds = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  cfg.plans = fault::plans::All();
  cfg.profiles = {stack::OpI(), stack::OpII()};
  cfg.robust = robust;
  return fault::CampaignRunner(cfg).Run();
}

}  // namespace

int main() {
  bench::Banner("chaos recovery: baseline vs robust stack",
                "fault-injection campaign over the S1-S6 + generic plans");

  const auto baseline = Tabulate(RunSweep(/*robust=*/false));
  const auto robust = Tabulate(RunSweep(/*robust=*/true));

  std::printf("%-26s %14s %14s %12s %12s\n", "plan", "baseline-ok",
              "robust-ok", "base-worst", "robust-worst");
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const PlanRow& b = baseline[i];
    const PlanRow& r = robust[i];
    std::printf("%-26s %8zu/%-5zu %8zu/%-5zu %10.1fs %10.1fs\n",
                b.plan.c_str(), b.ok, b.runs, r.ok, r.runs, b.worst_outage_s,
                r.worst_outage_s);
  }

  std::size_t b_ok = 0, b_n = 0, r_ok = 0;
  for (const auto& row : baseline) {
    b_ok += row.ok;
    b_n += row.runs;
  }
  for (const auto& row : robust) r_ok += row.ok;
  std::printf("\ntotal within SLO: baseline %zu/%zu, robust %zu/%zu\n", b_ok,
              b_n, r_ok, b_n);
  return 0;
}
