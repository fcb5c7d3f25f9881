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
//                          [--metrics-json DIR] [--checkpoint-dir DIR]
//                          [--resume] [--cell-timeout-ms T] [--max-retries R]
//   seeds     number of seeds to sweep (default 20)
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
//   --checkpoint-dir DIR
//             persist a manifest + one blob per completed (seed, plan,
//             profile) cell under DIR (atomic checksummed writes); with
//             --resume, completed cells replay from their blobs and only
//             missing cells run — report and metrics files are
//             byte-identical to an uninterrupted run, at any --jobs.
//             SIGINT/SIGTERM drain gracefully (in-flight cells finish and
//             checkpoint; exit status 75).
//   --cell-timeout-ms T / --max-retries R
//             per-cell watchdog: a cell whose attempt overran T wall-clock
//             milliseconds is retried up to R times with exponential
//             backoff (defaults: no watchdog, no retries); a cell whose
//             every attempt fails is quarantined into the report
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

#include "ckpt/manifest.h"
#include "fault/campaign.h"
#include "obs/export.h"
#include "par/pool.h"
#include "util/args.h"
#include "util/strings.h"

using namespace cnv;

namespace {

constexpr char kUsage[] =
    "usage: chaos_campaign [seeds] [plans] [--robust] [--jobs N]\n"
    "                      [--metrics-json DIR] [--checkpoint-dir DIR]\n"
    "                      [--resume] [--cell-timeout-ms T] [--max-retries R]\n"
    "                      [--admission off,unbounded,reject,shed]\n"
    "                      [--storm-scale X]";

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
    if (name == "off") {
      out.push_back(cfg);  // legacy disabled core
      continue;
    }
    stack::AdmissionPolicy policy;
    if (!stack::ParseAdmissionPolicy(name, &policy)) {
      std::fprintf(stderr,
                   "unknown admission policy '%s' (want off, unbounded, "
                   "reject or shed)\n",
                   name.c_str());
      std::exit(2);
    }
    cfg.enabled = true;
    cfg.policy = policy;
    out.push_back(cfg);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  args::ArgParser parser(argc, argv, kUsage);
  const bool robust = parser.Flag("--robust");
  int jobs = 0;
  parser.IntValue("--jobs", &jobs, 0);
  std::string metrics_dir;
  parser.StrValue("--metrics-json", &metrics_dir);
  std::string checkpoint_dir;
  parser.StrValue("--checkpoint-dir", &checkpoint_dir);
  const bool resume = parser.Flag("--resume");
  std::int64_t cell_timeout_ms = 0;
  parser.I64Value("--cell-timeout-ms", &cell_timeout_ms, 0);
  int max_retries = 0;
  parser.IntValue("--max-retries", &max_retries, 0);
  std::string admission_spec;
  parser.StrValue("--admission", &admission_spec);
  double storm_scale = 1.0;
  parser.DoubleValue("--storm-scale", &storm_scale);
  const auto positional = parser.Finish(2);

  int n_seeds = 20;
  std::string plan_spec = "all";
  if (!positional.empty()) {
    std::int64_t v = 0;
    if (!args::ParseI64(positional[0], &v) || v < 1) {
      parser.Fail("seed count must be an integer >= 1, got '" +
                  positional[0] + "'");
    }
    n_seeds = static_cast<int>(v);
  }
  if (positional.size() > 1) plan_spec = positional[1];
  if (resume && checkpoint_dir.empty()) {
    parser.Fail("--resume requires --checkpoint-dir");
  }

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
  if (robust) {
    cfg.robustness = {.nas_retry = true,
                      .attach_backoff = true,
                      .cm_reattempt = true,
                      .core_queue_replay = true};
  }
  cfg.collect_telemetry = !metrics_dir.empty();
  cfg.parallelism = jobs;
  cfg.checkpoint_dir = checkpoint_dir;
  cfg.resume = resume;
  cfg.retry.cell_timeout_ms = cell_timeout_ms;
  cfg.retry.max_retries = max_retries;

  // Graceful drain: SIGINT/SIGTERM stop new cells; in-flight cells finish
  // and checkpoint before we exit with the distinct interrupted status.
  ckpt::CancelToken cancel;
  ckpt::InstallSignalDrain(&cancel);
  cfg.cancel = &cancel;

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
  ckpt::InstallSignalDrain(nullptr);

  // Execution accounting goes to stderr: it varies with interruption
  // history, and stdout / the metrics files must stay byte-identical
  // between a resumed and an uninterrupted campaign.
  if (!checkpoint_dir.empty() || result.exec.retries > 0 ||
      result.exec.watchdog_hits > 0) {
    std::fprintf(stderr, "execution: %s\n", result.exec.ToString().c_str());
  }
  if (!result.complete && result.quarantined.empty()) {
    std::fprintf(stderr,
                 "campaign interrupted: %llu/%llu cell(s) done; resume with "
                 "--checkpoint-dir %s --resume\n",
                 static_cast<unsigned long long>(result.exec.cells_resumed +
                                                 result.exec.cells_run),
                 static_cast<unsigned long long>(result.exec.cells_total),
                 checkpoint_dir.c_str());
    return ckpt::kInterruptedExitCode;
  }

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
  // harness failure: its workers kept dying and the cell never produced a
  // result.
  return result.quarantined.empty() ? 0 : 1;
}
