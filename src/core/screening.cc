#include "core/screening.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <stdexcept>

#include "conf/diff.h"
#include "mck/parallel_explorer.h"
#include "mck/random_walk.h"
#include "model/s1_model.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"
#include "util/strings.h"

namespace cnv::core {

namespace {

// Explores one scenario cell exhaustively plus by random walks, collecting
// violations as (property, trace) pairs.
template <typename M>
ScenarioCellResult ExploreCell(const std::string& name, const M& m,
                               const mck::PropertySet<typename M::State>& props,
                               FindingId classify_as, Rng& rng,
                               const ScreeningOptions& options) {
  ScenarioCellResult cell;
  cell.cell = name;

  const auto result = mck::Explore(m, props);
  cell.stats = result.stats;
  for (const auto& v : result.violations) {
    cell.violated_properties.push_back(v.property);
    cell.counterexamples.push_back(mck::FormatTrace(m, v));
    if (std::find(cell.findings.begin(), cell.findings.end(), classify_as) ==
        cell.findings.end()) {
      cell.findings.push_back(classify_as);
    }
  }

  // Random-walk sampling (§3.2.1) — a defect found only here would indicate
  // the exhaustive pass was truncated.
  mck::WalkOptions wopt;
  wopt.walks = options.random_walks;
  const auto walked = mck::RandomWalk(m, props, rng, wopt);
  for (const auto& v : walked.violations) {
    if (std::find(cell.violated_properties.begin(),
                  cell.violated_properties.end(),
                  v.property) == cell.violated_properties.end()) {
      cell.violated_properties.push_back(v.property);
      cell.counterexamples.push_back(mck::FormatTrace(m, v));
      if (std::find(cell.findings.begin(), cell.findings.end(),
                    classify_as) == cell.findings.end()) {
        cell.findings.push_back(classify_as);
      }
    }
  }
  return cell;
}

// One catalog entry: a name-bearing closure that builds the model and
// explores the cell, drawing its random walks from the shared stream.
struct CellSpec {
  std::string name;
  std::function<ScenarioCellResult(Rng&)> run;
};

template <typename M>
CellSpec Row(std::string name, typename M::Config cfg, FindingId finding,
             const ScreeningOptions& options) {
  auto run = [name, cfg, finding, options](Rng& rng) {
    const M m(cfg);
    return ExploreCell(name, m, m.Properties(), finding, rng, options);
  };
  return {std::move(name), std::move(run)};
}

std::vector<CellSpec> BuildCatalog(const ScreeningOptions& options) {
  const bool fix = options.with_solutions;

  // S1: inter-system context sharing.
  model::S1Model::Config s1;
  s1.fix_keep_context = fix;
  s1.fix_reactivate_bearer = fix;
  model::S1Model::Config s1_network = s1;
  s1_network.allow_user_data_toggle = false;

  // S2: unreliable RRC under the attach procedure.
  model::S2Model::Config s2;
  s2.reliable_shim = fix;
  model::S2Model::Config s2_loss = s2;
  s2_loss.allow_duplicate = false;
  model::S2Model::Config s2_duplicate = s2;
  s2_duplicate.allow_loss = false;

  // S4: CS-only, PS-only and combined HOL blocking.
  model::S4Model::Config s4;
  s4.decoupled = fix;
  model::S4Model::Config s4_cs = s4;
  s4_cs.model_ps = false;
  model::S4Model::Config s4_ps = s4;
  s4_ps.model_cs = false;

  using model::S1Model;
  using model::S2Model;
  using model::S3Model;
  using model::S4Model;
  std::vector<CellSpec> catalog = {
      Row<S1Model>(
          "S1 model / inter-system switches x all PDP deactivation causes", s1,
          FindingId::kS1, options),
      Row<S1Model>("S1 model / network-initiated deactivations only",
                   s1_network, FindingId::kS1, options),
      Row<S2Model>("S2 model / lost signaling (Figure 5a)", s2_loss,
                   FindingId::kS2, options),
      Row<S2Model>("S2 model / duplicate signaling (Figure 5b)", s2_duplicate,
                   FindingId::kS2, options),
      Row<S2Model>("S2 model / loss + duplication combined", s2,
                   FindingId::kS2, options),
  };
  // S3: every inter-system switching option (Figure 6a).
  for (const auto policy : {model::SwitchPolicy::kReleaseWithRedirect,
                            model::SwitchPolicy::kHandover,
                            model::SwitchPolicy::kCellReselection}) {
    S3Model::Config s3;
    s3.policy = policy;
    s3.fix_csfb_tag = fix;
    catalog.push_back(Row<S3Model>("S3 model / " + model::ToString(policy),
                                   s3, FindingId::kS3, options));
  }
  catalog.push_back(Row<S4Model>("S4 model / CS domain (CM over MM)", s4_cs,
                                 FindingId::kS4, options));
  catalog.push_back(Row<S4Model>("S4 model / PS domain (SM over GMM)", s4_ps,
                                 FindingId::kS4, options));
  catalog.push_back(Row<S4Model>("S4 model / both domains", s4,
                                 FindingId::kS4, options));
  return catalog;
}

}  // namespace

bool ScreeningReport::Found(FindingId id) const {
  return std::find(findings_found.begin(), findings_found.end(), id) !=
         findings_found.end();
}

std::string CheckOptions(const ScreeningOptions& options) {
  if (options.random_walks > conf::kMaxWalks) {
    return "walks must be at most " + std::to_string(conf::kMaxWalks) +
           ", got " + std::to_string(options.random_walks);
  }
  return "";
}

ScreeningRunner::ScreeningRunner(ScreeningOptions options)
    : options_(options) {
  if (const std::string error = CheckOptions(options_); !error.empty()) {
    throw std::invalid_argument(error);
  }
}

ScreeningReport ScreeningRunner::RunAll() const {
  ScreeningReport report;
  const std::vector<CellSpec> catalog = BuildCatalog(options_);

  // The cells draw their random walks from one stream, in catalog order.
  Rng rng(options_.seed);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    try {
      report.cells.push_back(catalog[i].run(rng));
    } catch (const std::exception& e) {
      report.quarantined.push_back({i, catalog[i].name, e.what()});
      break;
    } catch (...) {
      report.quarantined.push_back({i, catalog[i].name, "unknown exception"});
      break;
    }
  }

  // Aggregate.
  for (const auto& cell : report.cells) {
    report.total_states += cell.stats.states_visited;
    report.total_transitions += cell.stats.transitions;
    report.total_wall_seconds += cell.stats.elapsed_wall_seconds;
    for (const auto f : cell.findings) {
      if (!report.Found(f)) report.findings_found.push_back(f);
    }
  }
  std::sort(report.findings_found.begin(), report.findings_found.end());
  return report;
}

std::string ScreeningRunner::Format(const ScreeningReport& report) {
  std::string out;
  out += "=== CNetVerifier screening phase ===\n";
  for (const auto& cell : report.cells) {
    out += cnv::Format("\n--- %s ---\n", cell.cell.c_str());
    out += cnv::Format("    states: %llu  transitions: %llu%s\n",
                   static_cast<unsigned long long>(cell.stats.states_visited),
                   static_cast<unsigned long long>(cell.stats.transitions),
                   cell.stats.truncated ? "  (truncated)" : "");
    out += cnv::Format(
        "    wall: %.3fs  throughput: %.0f states/s  frontier peak: %llu\n",
        cell.stats.elapsed_wall_seconds, cell.stats.StatesPerSecond(),
        static_cast<unsigned long long>(cell.stats.frontier_peak));
    if (cell.findings.empty()) {
      out += "    all properties hold\n";
      continue;
    }
    for (std::size_t i = 0; i < cell.violated_properties.size(); ++i) {
      out += "    VIOLATED: " + cell.violated_properties[i] + " -> finding " +
             ToString(cell.findings.front()) + "\n";
    }
  }
  out += cnv::Format(
      "\ntotal: %llu states, %llu transitions in %.3fs wall "
      "(%.0f states/s)\n",
      static_cast<unsigned long long>(report.total_states),
      static_cast<unsigned long long>(report.total_transitions),
      report.total_wall_seconds, report.StatesPerSecond());
  out += "\n=== findings discovered by screening: ";
  if (report.findings_found.empty()) {
    out += "(none)";
  }
  for (const auto f : report.findings_found) {
    out += ToString(f) + " ";
  }
  out += "===\n";
  return out;
}

}  // namespace cnv::core
