#include "conf/diff.h"

#include <limits>
#include <optional>
#include <stdexcept>

#include "conf/crosscheck.h"
#include "dist/coordinator.h"
#include "obs/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cnv::conf {

namespace {

constexpr Scenario kScenarios[] = {Scenario::kS1, Scenario::kS2, Scenario::kS3,
                                   Scenario::kS4};

// One (scenario, carrier) group: the scenario's model side configured from
// the carrier (ground truth, walk closure, canonical script), shared by
// every cell of the group.
struct GroupSpec {
  stack::CarrierProfile carrier;
  ScenarioCheck check;
};

// The cell's random-walk seed: FNV-1a over the length-prefixed tag,
// scenario and carrier names, then the testbed seed (host-endian words).
// Every pinned report depends on these exact bytes.
std::uint64_t WalkSeed(const GroupSpec& g, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  const auto word = [&bytes](std::uint64_t v) { bytes(&v, sizeof(v)); };
  const auto str = [&](std::string_view s) {
    word(s.size());
    bytes(s.data(), s.size());
  };
  str("conf-walk");
  str(ToString(g.check.scenario));
  str(g.carrier.name);
  word(seed);
  return h;
}

DiffCell RunCell(const GroupSpec& g, std::uint64_t seed, std::uint64_t walks) {
  DiffCell cell;
  cell.scenario = g.check.scenario;
  cell.carrier = g.carrier.name;
  cell.seed = seed;
  cell.model_violation = g.check.model_violation;

  Rng rng(WalkSeed(g, seed));
  cell.walk_violation = g.check.walk(rng, walks);

  ReplayOptions ropt;
  ropt.seed = seed;
  const CrossCheckResult r = CrossCheck(g.check, g.carrier, ropt);
  cell.sim_probe = r.probe;
  cell.verdict = r.verdict;
  const ReplayCounters& counters = r.outcome.counters;
  switch (r.verdict) {
    case Verdict::kConfirmed:
    case Verdict::kAgreedAbsent:
      break;
    case Verdict::kModelOnlyDivergence:
      cell.explained = false;
      cell.note = r.outcome.awaits_satisfied
                      ? "replay finished without the finding probe"
                      : "replay stalled at: " + r.outcome.first_missed_await;
      break;
    case Verdict::kSimOnlyDivergence:
      if (g.check.scenario == Scenario::kS3 &&
          g.carrier.csfb_return_policy !=
              model::SwitchPolicy::kCellReselection &&
          !counters.stranded_in_3g_now && counters.stuck_in_3g_max_s > 0.0) {
        // The probe tripped on a slow operator-controlled return (the
        // Table 6 latency tail, up to 52.6 s on OP-I) — an operational
        // outlier, not the reselection defect the model rules out.
        cell.explained = true;
        cell.note = Format(
            "CSFB return took %.1f s (Table 6 latency tail), device did "
            "return to 4G",
            counters.stuck_in_3g_max_s);
      } else {
        cell.explained = false;
        cell.note = "simulator reproduced a defect the model rules out";
      }
      break;
    default:
      cell.explained = false;
      cell.note = r.detail;
      break;
  }
  if (cell.model_violation && !cell.walk_violation) {
    if (!cell.note.empty()) cell.note += "; ";
    cell.note += "random walk missed the violation (exhaustive pass finds it)";
  }
  return cell;
}

}  // namespace

std::string CheckOptions(const DiffOptions& options) {
  if (options.seeds < 1 || options.seeds > kMaxSeeds) {
    return "seeds must be in [1, " + std::to_string(kMaxSeeds) + "], got " +
           std::to_string(options.seeds);
  }
  if (options.walks > kMaxWalks) {
    return "walks must be at most " + std::to_string(kMaxWalks) + ", got " +
           std::to_string(options.walks);
  }
  if (options.seed_base > std::numeric_limits<std::uint64_t>::max() -
                              options.seeds) {
    return "seed_base + seeds must not exceed 2^64 - 1, got seed_base " +
           std::to_string(options.seed_base);
  }
  return "";
}

DifferentialDriver::DifferentialDriver(DiffOptions options)
    : options_(options) {
  if (const std::string error = CheckOptions(options_); !error.empty()) {
    throw std::invalid_argument(error);
  }
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
      groups.push_back({carrier,
                        BuildScenarioCheck(s, carrier.csfb_return_policy)});
    }
  }

  const std::size_t n = groups.size() * options_.seeds;

  // Cell i is (group i / seeds, seed i % seeds); each cell writes its
  // verdict into its own slot.
  std::vector<std::optional<DiffCell>> cells(n);
  const auto group_of = [&](std::size_t i) -> const GroupSpec& {
    return groups[i / options_.seeds];
  };
  const auto seed_of = [&](std::size_t i) {
    return options_.seed_base + (i % options_.seeds);
  };
  report.quarantined = dist::RunGrid(
      n, options_.jobs,
      [&](std::size_t i) {
        cells[i] = conf::RunCell(group_of(i), seed_of(i), options_.walks);
      },
      [&](std::size_t i) {
        return ToString(group_of(i).check.scenario) + " x " +
               group_of(i).carrier.name + " seed=" +
               std::to_string(seed_of(i));
      });
  report.complete = report.quarantined.empty();

  for (auto& cell : cells) {
    if (!cell) continue;
    const DiffCell& c = report.cells.emplace_back(std::move(*cell));
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
