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

#include "core/findings.h"
#include "dist/coordinator.h"
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
  // No longer affects exploration; perfbench/bench.cc still sets it.
  int jobs = 1;
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
  // The catalog cell whose exploration threw, if any. The cells share one
  // random-walk stream, so the catalog stops there and `cells` holds the
  // completed prefix.
  std::vector<dist::QuarantineRecord> quarantined;

  double StatesPerSecond() const {
    return total_wall_seconds > 0
               ? static_cast<double>(total_states) / total_wall_seconds
               : 0;
  }

  bool Found(FindingId id) const;
};

// Empty when `options` describe a catalog run the runner can do; otherwise
// the reason it cannot: `random_walks` above conf::kMaxWalks.
std::string CheckOptions(const ScreeningOptions& options);

class ScreeningRunner {
 public:
  // Throws std::invalid_argument when CheckOptions(options) is non-empty.
  explicit ScreeningRunner(ScreeningOptions options = {});

  // Runs the whole catalog.
  ScreeningReport RunAll() const;

  // Renders the report as text (scenario cells, findings, statistics).
  static std::string Format(const ScreeningReport& report);

 private:
  ScreeningOptions options_;
};

}  // namespace cnv::core
