// One-call execution of the full CNetVerifier pipeline (screening on the
// models, validation on both simulated carriers, optionally with the §8
// remedies) plus a markdown rendering of the outcome — the report an
// operator or standards body would read.
#pragma once

#include <string>
#include <vector>

#include "core/screening.h"
#include "core/validation.h"

namespace cnv::core {

struct PipelineOptions {
  bool with_solutions = false;
  std::uint64_t seed = 1;
};

struct PipelineReport {
  bool with_solutions = false;
  ScreeningReport screening;
  std::vector<ValidationResult> op1;
  std::vector<ValidationResult> op2;

  // Findings confirmed anywhere (screening or either carrier).
  std::vector<FindingId> confirmed;
  bool Clean() const { return confirmed.empty(); }
};

// Runs screening + validation end to end.
PipelineReport RunPipeline(const PipelineOptions& options = {});

// Renders the report as markdown (Table 1-style summary, per-carrier
// validation evidence, screening statistics, counterexamples).
std::string RenderMarkdown(const PipelineReport& report);

}  // namespace cnv::core
