// Randomized differential driver: sweeps seeds × carrier profiles, running
// the screening models (exhaustive exploration as ground truth plus a
// seeded random walk per cell) side by side with simulator replays of the
// compiled counterexample scripts, and classifies every cell into a
// conf::Verdict. Divergences are either explained (a known cause, e.g. a
// random-walk sampling miss or the Table 6 CSFB return-latency tail) or
// unexplained — the sweep's headline number, expected to be zero.
//
// The sweep is checkpointable and parallel with the same discipline as the
// screening/campaign runners: cells are position-indexed, so the report is
// byte-identical at any --jobs count and across kill/resume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/manifest.h"
#include "conf/script.h"
#include "mck/reduction.h"
#include "conf/verdict.h"
#include "dist/grid.h"

namespace cnv::conf {

struct DiffOptions {
  std::uint64_t seeds = 64;      // seeds per (scenario, carrier) group
  std::uint64_t seed_base = 1;   // first testbed seed
  std::uint64_t walks = 32;      // random walks per cell (model side)
  int jobs = 1;                  // worker threads (1 = inline)
  std::string checkpoint_dir;    // empty = no checkpointing
  bool resume = false;
  ckpt::RetryPolicy retry;
  ckpt::CancelToken* cancel = nullptr;
  // State-space reductions for the model-side explorations (exhaustive
  // passes and canonical-script compilation). The S1-S4 slices have
  // trivial reduction specs, so the report is byte-identical with the
  // flags on — the `reduction` CI job pins that.
  mck::ReductionOptions reduction;
};

struct DiffCell {
  Scenario scenario = Scenario::kS1;
  std::string carrier;
  std::uint64_t seed = 0;
  bool model_violation = false;  // exhaustive exploration (ground truth)
  bool walk_violation = false;   // the seeded random walk found it
  bool sim_probe = false;        // the replay reproduced the finding probe
  Verdict verdict = Verdict::kAgreedAbsent;
  bool explained = true;  // agreement, or a divergence with a known cause
  std::string note;
};

struct DiffReport {
  std::uint64_t seeds = 0;
  std::uint64_t seed_base = 0;
  std::uint64_t walks = 0;
  std::vector<DiffCell> cells;  // (scenario, carrier, seed) order
  std::uint64_t agreements = 0;
  std::uint64_t explained_divergences = 0;
  std::uint64_t unexplained_divergences = 0;
  // Cells where the random walk missed a violation the exhaustive pass
  // finds — a sampling artifact (§3.2.1), tracked but never a divergence.
  std::uint64_t walk_misses = 0;
  ckpt::ExecutionStats exec;  // stderr only, never byte-compared
  // Quarantined cells (poisoned inputs that repeatedly killed their
  // workers); empty on healthy sweeps.
  std::vector<dist::QuarantineRecord> quarantined;
  bool complete = true;
};

class DifferentialDriver {
 public:
  explicit DifferentialDriver(DiffOptions options);

  std::uint64_t ConfigDigest() const;
  DiffReport Run() const;

  // Deterministic renderings: same report -> same bytes.
  static std::string FormatText(const DiffReport& report);
  static std::string FormatJson(const DiffReport& report);

 private:
  DiffOptions options_;
};

}  // namespace cnv::conf
