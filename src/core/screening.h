// Phase 1 of CNetVerifier (§3.2): domain-specific protocol screening. The
// runner owns a catalog of usage-scenario cells — each a screening model
// plus a configuration drawn from the bounded-option enumeration of §3.2.1
// (all PDP deactivation causes, all switch mechanisms, all data intensities,
// loss/duplication on radio legs) — explores each cell exhaustively, and
// classifies every property violation into a Table 1 finding. Scenario
// cells with unbounded behaviour are additionally random-walk sampled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/manifest.h"
#include "core/findings.h"
#include "dist/grid.h"
#include "mck/explorer.h"
#include "util/rng.h"

namespace cnv::core {

struct ScreeningOptions {
  // Check the §8 remedies instead of the standard behaviour; the expected
  // outcome is zero violations.
  bool with_solutions = false;
  // Extra random-walk sampling on top of exhaustive exploration, mirroring
  // the paper's scenario sampling. Walks per cell.
  std::uint64_t random_walks = 200;
  std::uint64_t seed = 1;
  // Workers for the exhaustive passes (0 = hardware concurrency, 1 =
  // serial). Cells run in catalog order either way — the random-walk
  // sampling consumes one shared RNG stream — and exploration results are
  // byte-identical at any worker count.
  int jobs = 1;
  // Crash safety: when checkpoint_dir is set, each completed catalog cell is
  // persisted (result plus the post-cell RNG state) together with a
  // manifest. With resume, completed cells replay from their blobs — the
  // shared RNG stream picks up exactly where the blob left it, so the final
  // report is byte-identical to an uninterrupted run. The config digest
  // excludes `jobs`, so a resume may use a different worker count.
  std::string checkpoint_dir;
  bool resume = false;
  // Self-healing: per-cell watchdog + bounded retries. A retried cell
  // restores the RNG state it started from, so retries never skew the
  // shared stream.
  ckpt::RetryPolicy retry;
  // Graceful drain: checked between cells; the report is then marked
  // interrupted/incomplete.
  ckpt::CancelToken* cancel = nullptr;
  // State-space reduction for the exhaustive passes (mck/reduction.h). The
  // S1–S4 screening models declare single-component specs, so turning the
  // flags on must not change any cell result — the `reduction` CI job pins
  // that. Part of the checkpoint config digest.
  mck::ReductionOptions reduction;
};

struct ScenarioCellResult {
  std::string cell;                  // e.g. "S3 model / cell reselection / high-rate data"
  std::vector<FindingId> findings;   // classified violations (deduplicated)
  std::vector<std::string> violated_properties;
  std::vector<std::string> counterexamples;  // formatted traces
  mck::ExploreStats stats;
};

struct ScreeningReport {
  std::vector<ScenarioCellResult> cells;
  std::vector<FindingId> findings_found;  // union over cells, S-order
  std::uint64_t total_states = 0;
  std::uint64_t total_transitions = 0;
  // Wall-clock total across cells; throughput figure only, never part of a
  // determinism comparison.
  double total_wall_seconds = 0;
  // Process-level accounting; never part of Format() or any byte-compared
  // export (drivers print it to stderr).
  ckpt::ExecutionStats exec;
  // Cells quarantined after repeatedly crashing/hanging their workers. A
  // chained catalog stops at the first quarantined cell (its carry-out is
  // lost), so at most one entry today.
  std::vector<dist::QuarantineRecord> quarantined;
  // False when a drain stopped the catalog early; `cells` then holds only
  // the completed prefix.
  bool complete = true;

  double StatesPerSecond() const {
    return total_wall_seconds > 0
               ? static_cast<double>(total_states) / total_wall_seconds
               : 0;
  }

  bool Found(FindingId id) const;
};

class ScreeningRunner {
 public:
  explicit ScreeningRunner(ScreeningOptions options = {});

  // Runs the whole catalog.
  ScreeningReport RunAll() const;

  // Renders the report as text (scenario cells, findings, statistics).
  static std::string Format(const ScreeningReport& report);

  // Digest of the catalog-shaping options (solutions flag, walk count,
  // seed) guarding checkpoint resume; excludes jobs, retry policy and
  // checkpoint paths.
  std::uint64_t ConfigDigest() const;

 private:
  ScreeningOptions options_;
};

}  // namespace cnv::core
