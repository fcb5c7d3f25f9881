// Chaos campaign driver: sweeps seeds x fault plans x carrier profiles,
// injecting scripted faults into the validation testbed and reporting, per
// run, whether every user-visible property (MM_OK, PacketService_OK,
// CallService_OK) recovered within its SLO bound — and which of the paper's
// S1-S6 findings the run reproduced.
//
// Every run is deterministic in (seed, plan, profile): re-running the same
// triple replays the identical QXDM trace byte for byte.
//
// Usage:  ./chaos_campaign [seeds] [plans] [--robust] [--jobs N]
//                          [--metrics-json DIR]
//   seeds     number of seeds to sweep (default 20, at most 1,000,000)
//   plans     "findings" = the S1-S6 set, "all" = every canned plan,
//             or a comma-separated list of plan names (default "all")
//   --robust  enable the robustness machinery (NAS retries, attach
//             backoff, bounded CM re-requests, core queue-and-replay)
//   --jobs N  run the sweep on N workers (default 0 = hardware concurrency,
//             1 = the old serial behavior). Results, traces and metrics
//             files are byte-identical at any N.
//   --metrics-json DIR
//             collect telemetry and write, under DIR, one
//             run_seed<seed>_<plan>_<profile>.metrics.json report per run
//             (periodic sim-clock metric snapshots + final metrics + spans)
//             plus spans.trace.json, a Chrome trace-event file of every
//             procedure span (open in chrome://tracing or Perfetto). All
//             exported values are simulated-time based, so files are
//             byte-identical across replays.
//   --admission SPEC
//             sweep core admission policies: comma list of off (legacy
//             zero-queueing core), unbounded (bounded service rate, no
//             admission control — the storm baseline), reject
//             (reject-with-congestion + T3346 backoff), shed
//             (priority shed preserving emergency/paging). Default "off".
//   --storm-scale X
//             scale the message count of every storm action in the
//             selected plans by X (e.g. 0.1 for a smoke run); a scaled
//             count above INT_MAX exits 2 naming the plan
//
// Storm sweeps: ./chaos_campaign 3 storms --admission unbounded,reject,shed
// CI runs the smoke version: ./chaos_campaign 3 s2-attach-disruption,mme-crash-restart
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "obs/export.h"
#include "par/pool.h"
#include "util/args.h"
#include "util/strings.h"

using namespace cnv;

namespace {

constexpr char kUsage[] =
    "usage: chaos_campaign [seeds] [plans] [--robust] [--jobs N]\n"
    "                      [--metrics-json DIR]\n"
    "                      [--admission off,unbounded,reject,shed]\n"
    "                      [--storm-scale X]";

// The largest seed count: the sweep is enumerated up front, so the count
// must stay far from wrapping the int it is cast to.
constexpr std::int64_t kMaxSeeds = 1'000'000;

std::vector<fault::FaultPlan> SelectPlans(const std::string& spec) {
  if (spec == "findings") return fault::plans::Findings();
  if (spec == "all") return fault::plans::All();
  if (spec == "storms") return fault::plans::Storms();
  std::vector<fault::FaultPlan> picked;
  std::string rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string name = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    bool found = false;
    for (auto& plan : fault::plans::All()) {
      if (plan.name == name) {
        picked.push_back(std::move(plan));
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown plan '%s'; known plans:\n", name.c_str());
      for (const auto& plan : fault::plans::All()) {
        std::fprintf(stderr, "  %s\n", plan.name.c_str());
      }
      std::exit(2);
    }
  }
  return picked;
}

bool IsStormKind(fault::FaultKind k) {
  return k == fault::FaultKind::kStormMassAttach ||
         k == fault::FaultKind::kStormTaPingPong ||
         k == fault::FaultKind::kStormPagingFlood ||
         k == fault::FaultKind::kStormAdversarialNas;
}

std::vector<stack::OverloadConfig> SelectAdmission(const std::string& spec) {
  std::vector<stack::OverloadConfig> out;
  std::string rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string name = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    stack::OverloadConfig cfg;
    if (!stack::ParseAdmissionPolicy(name, &cfg.policy)) {
      std::fprintf(stderr,
                   "unknown admission policy '%s' (want off, unbounded, "
                   "reject or shed)\n",
                   name.c_str());
      std::exit(2);
    }
    out.push_back(cfg);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  args::ArgParser parser(argc, argv, kUsage);
  const bool robust = parser.Flag("--robust");
  int jobs = 0;
  parser.IntValue("--jobs", &jobs, 0, par::kMaxJobs);
  std::string metrics_dir;
  parser.StrValue("--metrics-json", &metrics_dir);
  std::string admission_spec;
  parser.StrValue("--admission", &admission_spec);
  double storm_scale = 1.0;
  parser.DoubleValue("--storm-scale", &storm_scale);
  const auto positional = parser.Finish(2);

  int n_seeds = 20;
  std::string plan_spec = "all";
  if (!positional.empty()) {
    std::int64_t v = 0;
    if (!args::ParseI64(positional[0], &v) || v < 1 || v > kMaxSeeds) {
      parser.Fail("seed count must be an integer in [1, " +
                  std::to_string(kMaxSeeds) + "], got '" + positional[0] +
                  "'");
    }
    n_seeds = static_cast<int>(v);
  }
  if (positional.size() > 1) plan_spec = positional[1];

  fault::CampaignConfig cfg;
  cfg.seeds.clear();
  for (int s = 1; s <= n_seeds; ++s) cfg.seeds.push_back(s);
  cfg.plans = SelectPlans(plan_spec);
  if (storm_scale != 1.0) {
    if (storm_scale <= 0.0) parser.Fail("--storm-scale must be > 0");
    for (auto& plan : cfg.plans) {
      for (auto& action : plan.actions) {
        if (!IsStormKind(action.kind)) continue;
        // Scaled in double: the int product overflows long before the
        // double does, and converting an out-of-range double is UB.
        const double scaled =
            static_cast<double>(action.count) * storm_scale;
        if (scaled > static_cast<double>(INT_MAX)) {
          parser.Fail("--storm-scale " + Format("%g", storm_scale) +
                      " gives plan '" + plan.name + "' a storm of " +
                      Format("%.3g", scaled) + " messages (max " +
                      std::to_string(INT_MAX) + ")");
        }
        action.count = std::max(1, static_cast<int>(scaled));
      }
    }
  }
  if (!admission_spec.empty()) cfg.admission = SelectAdmission(admission_spec);
  cfg.profiles = {stack::OpI(), stack::OpII()};
  cfg.robust = robust;
  cfg.collect_telemetry = !metrics_dir.empty();
  cfg.parallelism = jobs;

  std::printf(
      "chaos campaign: %zu seed(s) x %zu plan(s) x %zu profile(s)%s%s [%d "
      "job(s)]\n",
      cfg.seeds.size(), cfg.plans.size(), cfg.profiles.size(),
      cfg.admission.empty()
          ? ""
          : (" x " + std::to_string(cfg.admission.size()) + " admission")
                .c_str(),
      robust ? " [robust stack]" : " [baseline stack]",
      par::ResolveJobs(jobs));
  for (const auto& plan : cfg.plans) {
    std::printf("  %-26s %s\n", plan.name.c_str(), plan.description.c_str());
  }
  std::printf("\n");

  const fault::CampaignResult result = fault::CampaignRunner(cfg).Run();

  std::printf("%s\n", result.Summary().c_str());

  std::set<std::string> reproduced;
  for (const auto& run : result.runs) {
    for (const auto& f : run.report.findings) reproduced.insert(f.id);
  }
  if (!reproduced.empty()) {
    std::printf("findings reproduced across the sweep:");
    for (const auto& id : reproduced) std::printf(" %s", id.c_str());
    std::printf("\n");
  }
  std::printf("%zu/%zu run(s) recovered within SLO\n", result.runs_within_slo,
              result.runs.size());

  if (!metrics_dir.empty()) {
    std::size_t written = 0;
    for (const auto& run : result.runs) {
      if (!run.telemetry) continue;
      const std::string path =
          metrics_dir + "/run_seed" + std::to_string(run.seed) + "_" +
          obs::SanitizeFilename(run.plan) + "_" +
          obs::SanitizeFilename(run.profile) +
          (run.admission.empty()
               ? ""
               : "_" + obs::SanitizeFilename(run.admission)) +
          ".metrics.json";
      if (!obs::WriteFile(path, run.telemetry->ToJson())) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
      }
      ++written;
    }
    const std::string spans_path = metrics_dir + "/spans.trace.json";
    if (!obs::WriteFile(spans_path, result.ChromeTraceJson())) {
      std::fprintf(stderr, "failed to write %s\n", spans_path.c_str());
      return 1;
    }
    std::printf("wrote %zu per-run metrics report(s) and %s\n", written,
                spans_path.c_str());
  }

  // Exit non-zero only on harness failure; SLO violations and findings are
  // the campaign's *output*, not an error. A quarantined cell *is* a
  // harness failure: it threw and never produced a result.
  return result.quarantined.empty() ? 0 : 1;
}
