#include "core/report.h"

#include <algorithm>

#include "util/strings.h"

namespace cnv::core {

PipelineReport RunPipeline(const PipelineOptions& options) {
  PipelineReport report;
  report.with_solutions = options.with_solutions;

  ScreeningOptions sopt;
  sopt.with_solutions = options.with_solutions;
  sopt.seed = options.seed;
  report.screening = ScreeningRunner(sopt).RunAll();

  ValidationOptions vopt;
  vopt.seed = options.seed;
  if (options.with_solutions) {
    vopt.solutions = {.shim_layer = true,
                      .mm_decoupled = true,
                      .domain_decoupled = true,
                      .csfb_tag = true,
                      .reactivate_bearer = true,
                      .mme_lu_recovery = true};
  }
  ValidationRunner validation(vopt);
  report.op1 = validation.RunAll(stack::OpI());
  report.op2 = validation.RunAll(stack::OpII());

  auto confirm = [&report](FindingId id) {
    if (std::find(report.confirmed.begin(), report.confirmed.end(), id) ==
        report.confirmed.end()) {
      report.confirmed.push_back(id);
    }
  };
  for (const auto f : report.screening.findings_found) confirm(f);
  for (const auto* results : {&report.op1, &report.op2}) {
    for (const auto& r : *results) {
      if (r.observed) confirm(r.id);
    }
  }
  std::sort(report.confirmed.begin(), report.confirmed.end());
  return report;
}

std::string RenderMarkdown(const PipelineReport& report) {
  std::string out;
  out += "# CNetVerifier diagnosis report\n\n";
  out += report.with_solutions
             ? "Configuration: standards behaviour **with the §8 remedies "
               "enabled**.\n\n"
             : "Configuration: standards behaviour as deployed (no "
               "remedies).\n\n";

  out += "## Finding summary\n\n";
  out += "| Id | Problem | Type | Dimension | Screening | OP-I | OP-II |\n";
  out += "|----|---------|------|-----------|-----------|------|-------|\n";
  for (const auto& f : AllFindings()) {
    const auto observed = [&](const std::vector<ValidationResult>& v) {
      for (const auto& r : v) {
        if (r.id == f.id) return r.observed ? "observed" : "-";
      }
      return "-";
    };
    out += Format("| %s | %s | %s | %s | %s | %s | %s |\n", f.code.c_str(),
                  f.problem.c_str(), ToString(f.type).c_str(),
                  ToString(f.dimension).c_str(),
                  report.screening.Found(f.id) ? "counterexample" : "-",
                  observed(report.op1), observed(report.op2));
  }

  out += "\n## Validation evidence\n\n";
  for (const auto* results : {&report.op1, &report.op2}) {
    for (const auto& r : *results) {
      out += Format("- **%s / %s**: %s\n", ToString(r.id).c_str(),
                    r.carrier.c_str(), r.evidence.c_str());
    }
  }

  out += Format("\n## Screening statistics\n\n"
                "%zu scenario cells, %llu states, %llu transitions.\n",
                report.screening.cells.size(),
                static_cast<unsigned long long>(report.screening.total_states),
                static_cast<unsigned long long>(
                    report.screening.total_transitions));

  out += "\n## Counterexamples\n";
  for (const auto& cell : report.screening.cells) {
    for (const auto& cx : cell.counterexamples) {
      out += "\n```\n[" + cell.cell + "]\n" + cx + "```\n";
    }
  }

  out += "\n## Verdict\n\n";
  if (report.Clean()) {
    out += "No problematic protocol interactions confirmed.\n";
  } else {
    out += "Confirmed findings:";
    for (const auto f : report.confirmed) out += " " + ToString(f);
    out += "\n";
  }
  return out;
}

}  // namespace cnv::core
