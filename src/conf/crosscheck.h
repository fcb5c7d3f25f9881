// The one S1–S4 model-vs-stack cross-check that the conformance runner
// (core/conformance.h) and the differential sweep (conf/diff.h) share:
//
//   screen  — explore the carrier-configured screening model (ground truth)
//   compile — compile the baseline model's counterexample into a script
//   replay  — run the script on a carrier-profiled testbed
//   refine  — abstract the concrete trace and check it refines the script
//   classify — map the three observations onto one Verdict lattice
//
// BuildScenarioCheck does the first two once per (scenario, carrier
// policy); CrossCheck does the rest once per seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "conf/compile.h"
#include "conf/script.h"
#include "conf/verdict.h"
#include "model/vocab.h"
#include "stack/carrier.h"
#include "util/rng.h"

namespace cnv::conf {

// The divergence lattice: model verdict x observed reproduction x trace
// refinement -> verdict. kConfirmed always includes refinement.
Verdict Classify(bool model_violation, bool sim_observed, bool refined);

// The model side of one scenario, fixed before any replay.
struct ScenarioCheck {
  Scenario scenario = Scenario::kS1;
  std::string property;  // the screening property under check
  // The configured model's exhaustive verdict: the model is configured from
  // the carrier's CSFB return policy (S3) and, with `model_solutions`, runs
  // its §8 remedy.
  bool model_violation = false;
  // The canonical script: the first counterexample of the baseline,
  // defect-enabled model (S3 under cell reselection), compiled. The sim side
  // replays it even when the configured model holds, so sim-only
  // divergences show.
  CompileResult compiled;
  // Seeded random walks over the configured model; true when one of
  // `walks` walks violates `property`.
  std::function<bool(Rng&, std::uint64_t walks)> walk;
};

// The per-scenario table: the only place the S1–S4 screening models are
// wired to their properties, remedies and compilers.
ScenarioCheck BuildScenarioCheck(Scenario s, model::SwitchPolicy csfb_policy,
                                 bool model_solutions = false);

struct CrossCheckResult {
  Verdict verdict = Verdict::kAgreedAbsent;
  bool probe = false;    // the replay reproduced the finding probe
  bool refined = false;  // the abstracted trace refines the counterexample
  // Why, for the verdicts the lattice does not name on its own:
  // kBadCounterexample, kCarrierMismatch and kRefinementMismatch.
  std::string detail;
  ReplayOutcome outcome;  // empty when no replay ran
};

// Replays `check`'s script on `carrier` with `options` (seed, stack
// remedies), reads the probe, checks refinement, applies the carrier gate
// and classifies. A failed compile is kBadCounterexample; a model violation
// whose counterexample needs a CSFB return policy the carrier does not use
// is kCarrierMismatch, without a replay.
CrossCheckResult CrossCheck(const ScenarioCheck& check,
                            const stack::CarrierProfile& carrier,
                            const ReplayOptions& options);

}  // namespace cnv::conf
