#include "conf/diff.h"

#include <functional>
#include <memory>

#include "conf/compile.h"
#include "dist/coordinator.h"
#include "mck/parallel_explorer.h"
#include "mck/random_walk.h"
#include "obs/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cnv::conf {

namespace {

constexpr Scenario kScenarios[] = {Scenario::kS1, Scenario::kS2, Scenario::kS3,
                                   Scenario::kS4};

// One (scenario, carrier) group: the carrier-configured model's exhaustive
// verdict (ground truth), a per-cell random-walk closure over the same
// model, and the canonical replay script compiled from the scenario's
// counterexample.
struct GroupSpec {
  Scenario scenario = Scenario::kS1;
  stack::CarrierProfile carrier;
  std::string property;
  bool model_violation = false;
  bool script_ok = false;
  std::string script_error;
  ScenarioScript script;
  std::function<bool(Rng&, std::uint64_t walks)> walk;
};

// Compiles the canonical replay script for a scenario: the defect-enabled
// model's first counterexample. For S3 this is always the cell-reselection
// model — the script encodes the *user behavior* (data session, CSFB call,
// hang-up), which is what gets replayed on both carriers; the differential
// verdict comes from comparing outcomes, not from expecting reproduction.
CompileResult CanonicalScript(Scenario s, const mck::ExploreOptions& eopt) {
  switch (s) {
    case Scenario::kS1: {
      model::S1Model m;
      const auto r = mck::Explore(m, model::S1Model::Properties(), eopt);
      const auto* v = r.FindViolation(model::kPacketServiceOk);
      if (v == nullptr) return {};
      return CompileS1(m, *v);
    }
    case Scenario::kS2: {
      model::S2Model m;
      const auto r = mck::Explore(m, model::S2Model::Properties(), eopt);
      const auto* v = r.FindViolation(model::kPacketServiceOk);
      if (v == nullptr) return {};
      return CompileS2(m, *v);
    }
    case Scenario::kS3: {
      model::S3Model::Config cfg;
      cfg.policy = model::SwitchPolicy::kCellReselection;
      model::S3Model m(cfg);
      const auto r = mck::Explore(m, m.Properties(), eopt);
      const auto* v = r.FindViolation(model::kMmOk);
      if (v == nullptr) return {};
      return CompileS3(m, *v);
    }
    case Scenario::kS4: {
      model::S4Model m;
      const auto r = mck::Explore(m, model::S4Model::Properties(), eopt);
      const auto* v = r.FindViolation(model::kCallServiceOk);
      if (v == nullptr) return {};
      return CompileS4(m, *v);
    }
  }
  return {};
}

template <typename M>
std::function<bool(Rng&, std::uint64_t)> MakeWalk(M m, std::string property) {
  return [m = std::move(m), property = std::move(property)](
             Rng& rng, std::uint64_t walks) {
    mck::WalkOptions wopt;
    wopt.walks = walks;
    wopt.max_steps_per_walk = 64;
    mck::PropertySet<typename M::State> props;
    if constexpr (requires { M::Properties(); }) {
      props = M::Properties();
    } else {
      props = m.Properties();
    }
    return !mck::RandomWalk(m, props, rng, wopt).Holds(property);
  };
}

GroupSpec BuildGroup(Scenario s, const stack::CarrierProfile& carrier,
                     const mck::ReductionOptions& reduction) {
  GroupSpec g;
  g.scenario = s;
  g.carrier = carrier;
  mck::ExploreOptions eopt;
  eopt.reduction = reduction;
  const CompileResult compiled = CanonicalScript(s, eopt);
  g.script_ok = compiled.ok;
  g.script_error = compiled.error;
  g.script = compiled.script;

  switch (s) {
    case Scenario::kS1: {
      model::S1Model m;
      g.property = model::kPacketServiceOk;
      g.model_violation =
          !mck::Explore(m, model::S1Model::Properties(), eopt)
               .Holds(g.property);
      g.walk = MakeWalk(m, g.property);
      break;
    }
    case Scenario::kS2: {
      model::S2Model m;
      g.property = model::kPacketServiceOk;
      g.model_violation =
          !mck::Explore(m, model::S2Model::Properties(), eopt)
               .Holds(g.property);
      g.walk = MakeWalk(m, g.property);
      break;
    }
    case Scenario::kS3: {
      // The model is configured *from the carrier*: its CSFB return policy
      // decides whether the stuck-in-3G state is reachable at all.
      model::S3Model::Config cfg;
      cfg.policy = carrier.csfb_return_policy;
      model::S3Model m(cfg);
      g.property = model::kMmOk;
      g.model_violation =
          !mck::Explore(m, m.Properties(), eopt).Holds(g.property);
      g.walk = MakeWalk(m, g.property);
      break;
    }
    case Scenario::kS4: {
      model::S4Model m;
      g.property = model::kCallServiceOk;
      g.model_violation =
          !mck::Explore(m, model::S4Model::Properties(), eopt)
               .Holds(g.property);
      g.walk = MakeWalk(m, g.property);
      break;
    }
  }
  return g;
}

std::uint64_t WalkSeed(const GroupSpec& g, std::uint64_t seed) {
  ckpt::DigestBuilder d;
  d.Add(std::string_view("conf-walk"));
  d.Add(ToString(g.scenario));
  d.Add(g.carrier.name);
  d.Add(seed);
  return d.Finish();
}

DiffCell RunCell(const GroupSpec& g, std::uint64_t seed, std::uint64_t walks) {
  DiffCell cell;
  cell.scenario = g.scenario;
  cell.carrier = g.carrier.name;
  cell.seed = seed;
  cell.model_violation = g.model_violation;

  Rng rng(WalkSeed(g, seed));
  cell.walk_violation = g.walk(rng, walks);

  if (!g.script_ok) {
    cell.verdict = Verdict::kBadCounterexample;
    cell.explained = false;
    cell.note = g.script_error;
    return cell;
  }

  ReplayOptions ropt;
  ropt.seed = seed;
  const ReplayOutcome outcome = Replay(g.script, g.carrier, ropt);
  cell.sim_probe = outcome.HasProbe(g.scenario);

  if (cell.model_violation == cell.sim_probe) {
    cell.verdict =
        cell.sim_probe ? Verdict::kConfirmed : Verdict::kAgreedAbsent;
    cell.explained = true;
  } else if (cell.model_violation) {
    cell.verdict = Verdict::kModelOnlyDivergence;
    cell.explained = false;
    cell.note = outcome.awaits_satisfied
                    ? "replay finished without the finding probe"
                    : "replay stalled at: " + outcome.first_missed_await;
  } else {
    cell.verdict = Verdict::kSimOnlyDivergence;
    if (g.scenario == Scenario::kS3 &&
        g.carrier.csfb_return_policy !=
            model::SwitchPolicy::kCellReselection &&
        !outcome.counters.stranded_in_3g_now &&
        outcome.counters.stuck_in_3g_max_s > 0.0) {
      // The probe tripped on a slow operator-controlled return (the
      // Table 6 latency tail, up to 52.6 s on OP-I) — an operational
      // outlier, not the reselection defect the model rules out.
      cell.explained = true;
      cell.note = Format(
          "CSFB return took %.1f s (Table 6 latency tail), device did "
          "return to 4G",
          outcome.counters.stuck_in_3g_max_s);
    } else {
      cell.explained = false;
      cell.note = "simulator reproduced a defect the model rules out";
    }
  }
  if (cell.model_violation && !cell.walk_violation) {
    if (!cell.note.empty()) cell.note += "; ";
    cell.note += "random walk missed the violation (exhaustive pass finds it)";
  }
  return cell;
}

std::string EncodeCell(const DiffCell& c) {
  ckpt::BinaryWriter w;
  w.U8(static_cast<std::uint8_t>(c.scenario));
  w.Str(c.carrier);
  w.U64(c.seed);
  std::uint8_t flags = 0;
  if (c.model_violation) flags |= 1;
  if (c.walk_violation) flags |= 2;
  if (c.sim_probe) flags |= 4;
  if (c.explained) flags |= 8;
  w.U8(flags);
  w.U8(static_cast<std::uint8_t>(c.verdict));
  w.Str(c.note);
  return w.Take();
}

bool DecodeCell(std::string_view payload, DiffCell* cell) {
  ckpt::BinaryReader r(payload);
  DiffCell out;
  out.scenario = static_cast<Scenario>(r.U8());
  out.carrier = r.Str();
  out.seed = r.U64();
  const std::uint8_t flags = r.U8();
  out.model_violation = (flags & 1) != 0;
  out.walk_violation = (flags & 2) != 0;
  out.sim_probe = (flags & 4) != 0;
  out.explained = (flags & 8) != 0;
  out.verdict = static_cast<Verdict>(r.U8());
  out.note = r.Str();
  if (!r.AtEnd()) return false;
  *cell = std::move(out);
  return true;
}

}  // namespace

DifferentialDriver::DifferentialDriver(DiffOptions options)
    : options_(options) {}

std::uint64_t DifferentialDriver::ConfigDigest() const {
  ckpt::DigestBuilder d;
  d.Add(std::string_view("conformance-diff"));
  d.Add(options_.seeds);
  d.Add(options_.seed_base);
  d.Add(options_.walks);
  d.Add(options_.reduction.por);
  d.Add(options_.reduction.symmetry);
  return d.Finish();
}

DiffReport DifferentialDriver::Run() const {
  DiffReport report;
  report.seeds = options_.seeds;
  report.seed_base = options_.seed_base;
  report.walks = options_.walks;

  // The per-group model work (two exhaustive passes per scenario at most)
  // is cheap; precompute serially so every cell shares the ground truth.
  std::vector<GroupSpec> groups;
  for (const Scenario s : kScenarios) {
    for (const auto& carrier : {stack::OpI(), stack::OpII()}) {
      groups.push_back(BuildGroup(s, carrier, options_.reduction));
    }
  }

  const std::size_t n = groups.size() * options_.seeds;

  // Grid view of the sweep: cell i is (group i / seeds, seed i % seeds),
  // outcomes carried as the EncodeCell blob. Dispatch, supervision,
  // checkpoint/resume and quarantine live in dist::RunGrid.
  class Grid final : public dist::CellGrid {
   public:
    Grid(const std::vector<GroupSpec>& groups, const DiffOptions& options)
        : groups_(groups), options_(options) {}
    std::size_t size() const override {
      return groups_.size() * options_.seeds;
    }
    std::string CellName(std::size_t i) const override {
      const GroupSpec& g = groups_[i / options_.seeds];
      return ToString(g.scenario) + " x " + g.carrier.name + " seed=" +
             std::to_string(options_.seed_base + (i % options_.seeds));
    }
    dist::CellOutcome RunCell(std::size_t i, std::string_view) override {
      const GroupSpec& g = groups_[i / options_.seeds];
      const std::uint64_t seed = options_.seed_base + (i % options_.seeds);
      dist::CellOutcome out;
      out.payload = EncodeCell(conf::RunCell(g, seed, options_.walks));
      return out;
    }

   private:
    const std::vector<GroupSpec>& groups_;
    const DiffOptions& options_;
  };
  Grid grid(groups, options_);

  dist::DistOptions opt;
  opt.workers = options_.jobs;
  opt.retry = options_.retry;
  opt.cancel = options_.cancel != nullptr ? &options_.cancel->flag() : nullptr;
  opt.cell_type = ckpt::PayloadType::kConformanceCell;
  opt.validate_payload = [](std::size_t, std::string_view blob) {
    DiffCell cell;
    return DecodeCell(blob, &cell);
  };
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

  for (std::size_t i = 0; i < n; ++i) {
    if (!cells.Done(i)) {
      report.complete = false;
      if (cells.states[i] == dist::CellState::kPending) {
        report.exec.interrupted = true;
      }
      continue;
    }
    DiffCell c;
    if (!DecodeCell(cells.payloads[i], &c)) continue;
    report.cells.push_back(c);
    if (c.verdict == Verdict::kConfirmed ||
        c.verdict == Verdict::kAgreedAbsent) {
      ++report.agreements;
    } else if (c.explained) {
      ++report.explained_divergences;
    } else {
      ++report.unexplained_divergences;
    }
    if (c.model_violation && !c.walk_violation) ++report.walk_misses;
  }
  return report;
}

std::string DifferentialDriver::FormatText(const DiffReport& report) {
  std::string out;
  out += "=== CNetVerifier conformance: differential model-vs-stack sweep "
         "===\n";
  out += Format("seeds: %llu (base %llu)  walks/cell: %llu\n\n",
                static_cast<unsigned long long>(report.seeds),
                static_cast<unsigned long long>(report.seed_base),
                static_cast<unsigned long long>(report.walks));

  // Group cells back into (scenario, carrier) blocks; cells arrive in
  // sweep order, so group boundaries are where the pair changes.
  std::size_t i = 0;
  while (i < report.cells.size()) {
    const Scenario s = report.cells[i].scenario;
    const std::string& carrier = report.cells[i].carrier;
    std::uint64_t probes = 0;
    std::uint64_t agreements = 0;
    std::uint64_t explained = 0;
    std::uint64_t unexplained = 0;
    std::uint64_t walk_hits = 0;
    std::uint64_t total = 0;
    bool model_violation = false;
    std::string first_note;
    for (; i < report.cells.size() && report.cells[i].scenario == s &&
           report.cells[i].carrier == carrier;
         ++i) {
      const DiffCell& c = report.cells[i];
      ++total;
      model_violation = c.model_violation;
      if (c.sim_probe) ++probes;
      if (c.walk_violation) ++walk_hits;
      if (c.verdict == Verdict::kConfirmed ||
          c.verdict == Verdict::kAgreedAbsent) {
        ++agreements;
      } else if (c.explained) {
        ++explained;
        if (first_note.empty()) first_note = c.note;
      } else {
        ++unexplained;
        if (first_note.empty()) first_note = c.note;
      }
    }
    out += Format(
        "%s x %-5s  model=%s  walk=%llu/%llu  sim-probe=%llu/%llu  "
        "agree=%llu/%llu",
        ToString(s).c_str(), carrier.c_str(),
        model_violation ? "VIOLATION" : "holds",
        static_cast<unsigned long long>(walk_hits),
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(probes),
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(agreements),
        static_cast<unsigned long long>(total));
    if (explained > 0) {
      out += Format("  explained=%llu (%s)",
                    static_cast<unsigned long long>(explained),
                    first_note.c_str());
    }
    if (unexplained > 0) {
      out += Format("  UNEXPLAINED=%llu (%s)",
                    static_cast<unsigned long long>(unexplained),
                    first_note.c_str());
    }
    out += "\n";
  }

  out += Format(
      "\nsummary: %llu cells, %llu agreements, %llu explained divergences, "
      "%llu unexplained divergences, %llu walk misses\n",
      static_cast<unsigned long long>(report.cells.size()),
      static_cast<unsigned long long>(report.agreements),
      static_cast<unsigned long long>(report.explained_divergences),
      static_cast<unsigned long long>(report.unexplained_divergences),
      static_cast<unsigned long long>(report.walk_misses));
  return out;
}

std::string DifferentialDriver::FormatJson(const DiffReport& report) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("conformance_report").BeginObject();
  w.Key("seeds").UInt(report.seeds);
  w.Key("seed_base").UInt(report.seed_base);
  w.Key("walks_per_cell").UInt(report.walks);
  w.Key("complete").Bool(report.complete);
  w.Key("summary").BeginObject();
  w.Key("cells").UInt(report.cells.size());
  w.Key("agreements").UInt(report.agreements);
  w.Key("explained_divergences").UInt(report.explained_divergences);
  w.Key("unexplained_divergences").UInt(report.unexplained_divergences);
  w.Key("walk_misses").UInt(report.walk_misses);
  w.EndObject();
  w.Key("cells").BeginArray();
  for (const auto& c : report.cells) {
    w.BeginObject();
    w.Key("scenario").String(ToString(c.scenario));
    w.Key("carrier").String(c.carrier);
    w.Key("seed").UInt(c.seed);
    w.Key("model").Bool(c.model_violation);
    w.Key("walk").Bool(c.walk_violation);
    w.Key("sim").Bool(c.sim_probe);
    w.Key("verdict").String(ToString(c.verdict));
    w.Key("explained").Bool(c.explained);
    w.Key("note").String(c.note);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace cnv::conf
