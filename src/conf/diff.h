// Randomized differential driver: sweeps seeds × carrier profiles, running
// the screening models (exhaustive exploration as ground truth plus a
// seeded random walk per cell) side by side with simulator replays of the
// compiled counterexample scripts. Every cell is one conf::CrossCheck
// (conf/crosscheck.h) at the cell's seed, so a confirmed cell has also
// passed the refinement check. Divergences are either explained (a known
// cause, e.g. the Table 6 CSFB return-latency tail) or unexplained — the
// sweep's headline number, expected to be zero. A random walk that misses a
// violation the exhaustive pass finds is a sampling artifact, counted apart.
//
// The sweep is parallel with the same discipline as the campaign runner:
// cells are position-indexed, so the report is byte-identical at any --jobs
// count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "conf/script.h"
#include "conf/verdict.h"
#include "dist/coordinator.h"

namespace cnv::conf {

struct DiffOptions {
  std::uint64_t seeds = 64;      // seeds per (scenario, carrier) group
  std::uint64_t seed_base = 1;   // first testbed seed
  std::uint64_t walks = 32;      // random walks per cell (model side)
  int jobs = 1;                  // worker threads (1 = inline)
};

// Largest `seeds` a sweep accepts. The bound keeps the cell count
// (scenario-carrier groups x seeds) far from wrapping.
inline constexpr std::uint64_t kMaxSeeds = 1'000'000;

// Largest random-walk count per cell that this sweep and the screening
// runner (core::ScreeningOptions::random_walks) accept. Walks run one after
// another, so a count past it would run for days instead of failing.
inline constexpr std::uint64_t kMaxWalks = 1'000'000;

// Empty when `options` describe a sweep the driver can run; otherwise the
// reason it cannot: `seeds` outside [1, kMaxSeeds], `walks` above
// kMaxWalks, or a seed range [seed_base, seed_base + seeds) that wraps past
// 2^64 - 1.
std::string CheckOptions(const DiffOptions& options);

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
  // Cells whose run threw; empty on healthy sweeps. Their verdicts are
  // missing from `cells`.
  std::vector<dist::QuarantineRecord> quarantined;
  bool complete = true;  // quarantined is empty
};

class DifferentialDriver {
 public:
  // Throws std::invalid_argument when CheckOptions(options) is non-empty.
  explicit DifferentialDriver(DiffOptions options);

  DiffReport Run() const;

  // Deterministic renderings: same report -> same bytes.
  static std::string FormatText(const DiffReport& report);
  static std::string FormatJson(const DiffReport& report);

 private:
  DiffOptions options_;
};

}  // namespace cnv::conf
