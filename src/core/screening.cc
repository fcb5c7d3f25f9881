#include "core/screening.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "ckpt/io.h"
#include "dist/coordinator.h"
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

  mck::ExploreOptions eopt;
  eopt.reduction = options.reduction;
  const auto result = mck::Explore(m, props, eopt);
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
// explores the cell. Materializing the catalog as data (instead of inline
// blocks) is what lets the runner checkpoint, resume, retry and cancel at
// cell granularity.
struct CellSpec {
  std::string name;
  std::function<ScenarioCellResult(Rng&)> run;
};

std::vector<CellSpec> BuildCatalog(const ScreeningOptions& options) {
  const bool fix = options.with_solutions;
  std::vector<CellSpec> catalog;

  // --- S1 cells: inter-system context sharing.
  {
    model::S1Model::Config cfg;
    cfg.fix_keep_context = fix;
    cfg.fix_reactivate_bearer = fix;
    catalog.push_back(
        {"S1 model / inter-system switches x all PDP deactivation causes",
         [cfg, options](Rng& rng) {
      model::S1Model m(cfg);
      return ExploreCell(
          "S1 model / inter-system switches x all PDP deactivation causes", m,
          model::S1Model::Properties(), FindingId::kS1, rng, options);
    }});
  }
  {
    model::S1Model::Config cfg;
    cfg.allow_user_data_toggle = false;
    cfg.fix_keep_context = fix;
    cfg.fix_reactivate_bearer = fix;
    catalog.push_back(
        {"S1 model / network-initiated deactivations only",
         [cfg, options](Rng& rng) {
      model::S1Model m(cfg);
      return ExploreCell("S1 model / network-initiated deactivations only", m,
                         model::S1Model::Properties(), FindingId::kS1, rng,
                         options);
    }});
  }

  // --- S2 cells: unreliable RRC under the attach procedure.
  {
    model::S2Model::Config cfg;
    cfg.allow_duplicate = false;
    cfg.reliable_shim = fix;
    catalog.push_back(
        {"S2 model / lost signaling (Figure 5a)",
         [cfg, options](Rng& rng) {
      model::S2Model m(cfg);
      return ExploreCell("S2 model / lost signaling (Figure 5a)", m,
                         model::S2Model::Properties(), FindingId::kS2, rng,
                         options);
    }});
  }
  {
    model::S2Model::Config cfg;
    cfg.allow_loss = false;
    cfg.reliable_shim = fix;
    catalog.push_back(
        {"S2 model / duplicate signaling (Figure 5b)",
         [cfg, options](Rng& rng) {
      model::S2Model m(cfg);
      return ExploreCell("S2 model / duplicate signaling (Figure 5b)", m,
                         model::S2Model::Properties(), FindingId::kS2, rng,
                         options);
    }});
  }
  {
    model::S2Model::Config cfg;
    cfg.reliable_shim = fix;
    catalog.push_back(
        {"S2 model / loss + duplication combined",
         [cfg, options](Rng& rng) {
      model::S2Model m(cfg);
      return ExploreCell("S2 model / loss + duplication combined", m,
                         model::S2Model::Properties(), FindingId::kS2, rng,
                         options);
    }});
  }

  // --- S3 cells: every inter-system switching option (Figure 6a).
  for (const auto policy : {model::SwitchPolicy::kReleaseWithRedirect,
                            model::SwitchPolicy::kHandover,
                            model::SwitchPolicy::kCellReselection}) {
    model::S3Model::Config cfg;
    cfg.policy = policy;
    cfg.fix_csfb_tag = fix;
    catalog.push_back(
        {"S3 model / " + model::ToString(policy),
         [cfg, policy, options](Rng& rng) {
      model::S3Model m(cfg);
      return ExploreCell("S3 model / " + model::ToString(policy), m,
                         m.Properties(), FindingId::kS3, rng, options);
    }});
  }

  // --- S4 cells: CS-only, PS-only and combined HOL blocking.
  {
    model::S4Model::Config cfg;
    cfg.model_ps = false;
    cfg.decoupled = fix;
    catalog.push_back(
        {"S4 model / CS domain (CM over MM)",
         [cfg, options](Rng& rng) {
      model::S4Model m(cfg);
      return ExploreCell("S4 model / CS domain (CM over MM)", m,
                         model::S4Model::Properties(), FindingId::kS4, rng,
                         options);
    }});
  }
  {
    model::S4Model::Config cfg;
    cfg.model_cs = false;
    cfg.decoupled = fix;
    catalog.push_back(
        {"S4 model / PS domain (SM over GMM)",
         [cfg, options](Rng& rng) {
      model::S4Model m(cfg);
      return ExploreCell("S4 model / PS domain (SM over GMM)", m,
                         model::S4Model::Properties(), FindingId::kS4, rng,
                         options);
    }});
  }
  {
    model::S4Model::Config cfg;
    cfg.decoupled = fix;
    catalog.push_back(
        {"S4 model / both domains",
         [cfg, options](Rng& rng) {
      model::S4Model m(cfg);
      return ExploreCell("S4 model / both domains", m,
                         model::S4Model::Properties(), FindingId::kS4, rng,
                         options);
    }});
  }

  return catalog;
}

// Cell blob: the cell result plus the RNG state *after* the cell, so a
// resumed run re-enters the shared random stream exactly where the
// checkpointed run left it.
std::string EncodeCell(const ScenarioCellResult& cell,
                       const std::string& rng_state) {
  ckpt::BinaryWriter w;
  w.Str(cell.cell);
  w.U64(cell.findings.size());
  for (const auto f : cell.findings) w.U8(static_cast<std::uint8_t>(f));
  w.U64(cell.violated_properties.size());
  for (const auto& p : cell.violated_properties) w.Str(p);
  w.U64(cell.counterexamples.size());
  for (const auto& c : cell.counterexamples) w.Str(c);
  w.U64(cell.stats.states_visited);
  w.U64(cell.stats.transitions);
  w.U64(cell.stats.max_depth_reached);
  w.U8(cell.stats.truncated ? 1 : 0);
  w.U64(cell.stats.frontier_peak);
  w.F64(cell.stats.hash_occupancy);
  w.U64(cell.stats.ample_states);
  w.U64(cell.stats.represented_states);
  w.F64(cell.stats.elapsed_wall_seconds);
  w.Str(rng_state);
  return w.Take();
}

bool DecodeCell(std::string_view payload, ScenarioCellResult* cell,
                std::string* rng_state) {
  ckpt::BinaryReader r(payload);
  ScenarioCellResult out;
  out.cell = r.Str();
  const std::uint64_t n_findings = r.U64();
  if (n_findings > payload.size()) return false;
  for (std::uint64_t i = 0; i < n_findings && r.ok(); ++i) {
    out.findings.push_back(static_cast<FindingId>(r.U8()));
  }
  const std::uint64_t n_props = r.U64();
  if (n_props > payload.size()) return false;
  for (std::uint64_t i = 0; i < n_props && r.ok(); ++i) {
    out.violated_properties.push_back(r.Str());
  }
  const std::uint64_t n_cex = r.U64();
  if (n_cex > payload.size()) return false;
  for (std::uint64_t i = 0; i < n_cex && r.ok(); ++i) {
    out.counterexamples.push_back(r.Str());
  }
  out.stats.states_visited = r.U64();
  out.stats.transitions = r.U64();
  out.stats.max_depth_reached = r.U64();
  out.stats.truncated = r.U8() != 0;
  out.stats.frontier_peak = r.U64();
  out.stats.hash_occupancy = r.F64();
  out.stats.ample_states = r.U64();
  out.stats.represented_states = r.U64();
  out.stats.elapsed_wall_seconds = r.F64();
  *rng_state = r.Str();
  if (!r.AtEnd()) return false;
  *cell = std::move(out);
  return true;
}

}  // namespace

bool ScreeningReport::Found(FindingId id) const {
  return std::find(findings_found.begin(), findings_found.end(), id) !=
         findings_found.end();
}

ScreeningRunner::ScreeningRunner(ScreeningOptions options)
    : options_(options) {}

std::uint64_t ScreeningRunner::ConfigDigest() const {
  ckpt::DigestBuilder d;
  d.Add(std::string_view("screening"));
  d.Add(options_.with_solutions);
  d.Add(options_.random_walks);
  d.Add(options_.seed);
  d.Add(options_.reduction.por);
  d.Add(options_.reduction.symmetry);
  return d.Finish();
}

// The catalog as a *chained* cell grid: the shared random-walk RNG stream
// is the chain carry (cell i's carry-in is the post-cell-(i-1) RNG state),
// which is exactly what the cell blobs have always recorded — so retries
// and resumes re-enter the stream exactly.
class ScreeningGrid final : public dist::CellGrid {
 public:
  ScreeningGrid(const std::vector<CellSpec>& catalog,
                const ScreeningOptions& options)
      : catalog_(catalog), options_(options) {}

  std::size_t size() const override { return catalog_.size(); }
  std::string CellName(std::size_t i) const override {
    return catalog_[i].name;
  }
  bool chained() const override { return true; }

  std::string InitialCarry() const override {
    return Rng(options_.seed).SaveState();
  }

  bool CarryFromPayload(std::string_view payload,
                        std::string* carry) const override {
    ScenarioCellResult cell;
    std::string rng_state;
    if (!DecodeCell(payload, &cell, &rng_state)) return false;
    Rng scratch(0);
    if (!scratch.RestoreState(rng_state)) return false;
    *carry = std::move(rng_state);
    return true;
  }

  dist::CellOutcome RunCell(std::size_t i, std::string_view carry_in) override {
    dist::CellOutcome out;
    Rng rng(options_.seed);
    if (!rng.RestoreState(std::string(carry_in))) {
      out.ok = false;
      out.error = "undecodable RNG carry";
      return out;
    }
    const ScenarioCellResult cell = catalog_[i].run(rng);
    out.carry = rng.SaveState();
    out.payload = EncodeCell(cell, out.carry);
    return out;
  }

 private:
  const std::vector<CellSpec>& catalog_;
  const ScreeningOptions& options_;
};

ScreeningReport ScreeningRunner::RunAll() const {
  ScreeningReport report;
  const std::vector<CellSpec> catalog = BuildCatalog(options_);

  ScreeningGrid grid(catalog, options_);
  dist::DistOptions opt;
  // A chained grid runs its cells inline, in order.
  opt.retry = options_.retry;
  opt.cancel = options_.cancel != nullptr ? &options_.cancel->flag() : nullptr;
  opt.cell_type = ckpt::PayloadType::kScreeningCell;
  std::unique_ptr<ckpt::ManifestStore> store;
  if (!options_.checkpoint_dir.empty()) {
    store = std::make_unique<ckpt::ManifestStore>(options_.checkpoint_dir,
                                                  ConfigDigest());
    opt.store = store.get();
    opt.resume = options_.resume;
  }

  dist::GridResult cells = dist::RunGrid(grid, opt);
  report.exec = cells.exec;
  report.quarantined = std::move(cells.quarantined);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (!cells.Done(i)) {
      report.complete = false;
      break;  // chained: nothing after the first incomplete cell ran
    }
    ScenarioCellResult cell;
    std::string rng_state;
    if (DecodeCell(cells.payloads[i], &cell, &rng_state)) {
      report.cells.push_back(std::move(cell));
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
