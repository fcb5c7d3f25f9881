// Conformance phase: closes the paper's screening -> validation loop
// automatically. For each S1–S4 finding the runner runs the shared
// cross-check (conf/crosscheck.h) at one seed: explore the screening model,
// compile the counterexample into a simulator script, replay it on a
// carrier-profiled testbed, and require both the same finding probe AND an
// abstracted trace that refines the model counterexample. Every
// cross-check ends in a machine-readable conf::Verdict — divergences
// (model-only, sim-only, refinement or carrier mismatches, damaged
// counterexamples) are first-class results, never silent passes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "conf/verdict.h"
#include "core/findings.h"
#include "stack/carrier.h"
#include "stack/testbed.h"

namespace cnv::core {

struct ConformanceOptions {
  std::uint64_t seed = 1;
  // §8 remedies deployed in the replayed stack (sim side only). A stack
  // remedy the model does not know about surfaces as a model-only
  // divergence — the expected shape when validating fixes.
  stack::SolutionConfig solutions;
  // §8 remedies enabled in the screening models (model side only). A fixed
  // model over an unfixed stack surfaces as a sim-only divergence.
  bool model_solutions = false;
};

struct ConformanceResult {
  FindingId id = FindingId::kS1;
  std::string carrier;
  conf::Verdict verdict = conf::Verdict::kAgreedAbsent;
  bool model_violation = false;
  bool probe_reproduced = false;
  bool refined = false;
  std::string counterexample;  // formatted model trace ("" when none)
  std::string detail;          // human-readable cross-check summary
};

class ConformanceRunner {
 public:
  explicit ConformanceRunner(ConformanceOptions options = {});

  // Cross-checks one finding on one carrier. S5/S6 have no screening model
  // (they are validation-only findings); asking for them reports that in
  // `detail` with an agreed-absent verdict.
  ConformanceResult CrossCheck(FindingId id,
                               const stack::CarrierProfile& profile) const;

  // S1–S4 in order. The paper's affected carriers: S1/S2/S4 reproduce on
  // either profile, S3 only on the cell-reselection one (OP-II).
  std::vector<ConformanceResult> RunAll(
      const stack::CarrierProfile& profile) const;

  // conf::Classify, the divergence lattice of every cross-check.
  static conf::Verdict Classify(bool model_violation, bool sim_observed,
                                bool refined);

  static std::string Format(const std::vector<ConformanceResult>& results);

 private:
  ConformanceOptions options_;
};

}  // namespace cnv::core
