// The CNetVerifier workflow end to end, as a command-line diagnosis tool:
//
//   phase 1 (screening):  model-check the protocol-interaction models
//                         against the three cellular-oriented properties;
//   phase 2 (validation): replay the counterexample scenarios on both
//                         simulated carriers and report what is observed;
//   remedies:             re-run both phases with the §8 solutions enabled
//                         and show that every issue disappears.
//
// Build and run:  ./diagnose
//
// With a positional argument, runs in offline log-diagnosis mode instead:
//
//   ./diagnose capture.log
//
// parses the QXDM-format capture strictly (reporting exactly which lines
// were malformed and skipped), replays it through the S1-S6 online monitors
// and prints the alerts — the file-based twin of the `watchdog` tool.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/findings.h"
#include "core/report.h"
#include "core/screening.h"
#include "core/validation.h"
#include "rtv/monitors.h"
#include "trace/qxdm.h"
#include "util/args.h"

using namespace cnv;

namespace {

int DiagnoseLog(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "diagnose: cannot open '%s'\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << file.rdbuf();

  trace::ParseLogStats stats;
  const auto records = trace::ParseLogStrict(buf.str(), &stats);
  std::printf("%s: %zu line(s), %zu record(s), %zu blank, %zu skipped\n",
              path.c_str(), stats.lines, stats.parsed, stats.blank,
              stats.skipped);
  if (stats.skipped > 0) {
    std::printf("  malformed line(s):");
    for (const auto n : stats.skipped_lines) std::printf(" %zu", n);
    if (stats.skipped > stats.skipped_lines.size()) {
      std::printf(" ... (+%zu more)",
                  stats.skipped - stats.skipped_lines.size());
    }
    std::printf("\n");
  }

  rtv::FindingMonitors monitors;
  std::vector<rtv::Alert> alerts;
  std::uint64_t ordinal = 0;
  for (const auto& r : records) monitors.Step(r, ordinal++, &alerts);
  std::printf("%zu alert(s)\n", alerts.size());
  for (const auto& a : alerts) {
    std::printf("  %s\n", rtv::FormatAlert(a).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  args::ArgParser parser(argc, argv, "usage: diagnose [capture.log]");
  const auto positional = parser.Finish(1);
  if (!positional.empty()) return DiagnoseLog(positional[0]);

  std::printf("CNetVerifier: two-phase control-plane diagnosis\n\n");

  // --- phase 1: screening
  core::ScreeningRunner screening;
  const auto sreport = screening.RunAll();
  std::printf("%s\n", core::ScreeningRunner::Format(sreport).c_str());

  // --- phase 2: validation on both carriers
  core::ValidationRunner validation;
  for (const auto& profile : {stack::OpI(), stack::OpII()}) {
    std::printf("validating on %s:\n", profile.name.c_str());
    std::printf("%s\n",
                core::ValidationRunner::Format(validation.RunAll(profile))
                    .c_str());
  }

  // --- the same pipeline with every §8 remedy enabled
  std::printf("re-running with all solutions enabled...\n\n");
  core::ScreeningOptions sopt;
  sopt.with_solutions = true;
  const auto fixed = core::ScreeningRunner(sopt).RunAll();
  std::printf("screening with solutions: %zu violation(s)\n",
              fixed.findings_found.size());

  core::ValidationOptions vopt;
  vopt.solutions = {.shim_layer = true,
                    .mm_decoupled = true,
                    .domain_decoupled = true,
                    .csfb_tag = true,
                    .reactivate_bearer = true,
                    .mme_lu_recovery = true};
  int observed = 0;
  for (const auto& profile : {stack::OpI(), stack::OpII()}) {
    for (const auto& r : core::ValidationRunner(vopt).RunAll(profile)) {
      if (r.observed) ++observed;
    }
  }
  std::printf("validation with solutions: %d finding(s) observed\n\n",
              observed);
  std::printf(fixed.findings_found.empty() && observed == 0
                  ? "all six instances resolved by the proposed remedies.\n"
                  : "some issues remain!\n");

  // Write the full markdown report for humans.
  const auto report = core::RunPipeline();
  std::ofstream("cnetverifier_report.md") << core::RenderMarkdown(report);
  std::printf("\nfull report written to cnetverifier_report.md "
              "(%zu finding(s) confirmed)\n",
              report.confirmed.size());
  return 0;
}
