// Randomized soundness fuzz for the state-space reductions: generate small
// random products of K identical components (a private program counter each
// plus one shared bounded counter), explore each with no reduction, with
// POR, with POR+symmetry, and in parallel — the reachable-violation sets
// must agree on every seed, and reduced runs must stay byte-identical
// across job counts. Components are generated identical by construction so
// the symmetry spec is sound; the shared-counter rules exercise the unsafe
// (pending-shared-guard) oracle, and random pc cycles exercise the C3
// proviso. Runs under ASan in the fuzz CI step.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "mck/hash.h"
#include "mck/parallel_explorer.h"
#include "mck/symmetry.h"

namespace cnv::mck {
namespace {

struct FuzzModel {
  static constexpr std::size_t kMaxComps = 4;

  // One rule set, replicated across all components (keeps them symmetric).
  struct LocalRule {
    std::uint8_t from = 0;
    std::uint8_t to = 0;
  };
  struct SharedRule {
    std::uint8_t from_pc = 0;
    std::uint8_t to_pc = 0;
    std::int8_t delta = 0;        // applied to the shared counter, clamped
    std::uint8_t min_shared = 0;  // enabled only when shared in range
    std::uint8_t max_shared = 0;
  };

  int comps = 2;
  std::uint8_t shared_max = 1;
  std::uint8_t bad_pc = 1;  // property: no component parks here
  std::vector<LocalRule> locals;
  std::vector<SharedRule> shareds;

  struct State {
    std::array<std::uint8_t, kMaxComps> pc{};
    std::uint8_t shared = 0;
    bool operator==(const State&) const = default;
  };
  struct Action {
    std::uint8_t comp = 0;
    bool is_shared = false;
    std::uint8_t rule = 0;
  };

  State initial() const { return {}; }

  std::vector<Action> enabled(const State& s) const {
    std::vector<Action> acts;
    for (int c = 0; c < comps; ++c) {
      const std::uint8_t pc = s.pc[static_cast<std::size_t>(c)];
      for (std::size_t r = 0; r < locals.size(); ++r) {
        if (locals[r].from == pc) {
          acts.push_back({static_cast<std::uint8_t>(c), false,
                          static_cast<std::uint8_t>(r)});
        }
      }
      for (std::size_t r = 0; r < shareds.size(); ++r) {
        const SharedRule& sr = shareds[r];
        if (sr.from_pc == pc && s.shared >= sr.min_shared &&
            s.shared <= sr.max_shared) {
          acts.push_back({static_cast<std::uint8_t>(c), true,
                          static_cast<std::uint8_t>(r)});
        }
      }
    }
    return acts;
  }

  State apply(const State& s, const Action& a) const {
    State next = s;
    std::uint8_t& pc = next.pc[a.comp];
    if (a.is_shared) {
      const SharedRule& sr = shareds[a.rule];
      pc = sr.to_pc;
      const int v = static_cast<int>(next.shared) + sr.delta;
      next.shared = static_cast<std::uint8_t>(
          v < 0 ? 0 : (v > shared_max ? shared_max : v));
    } else {
      pc = locals[a.rule].to;
    }
    return next;
  }

  std::string describe(const Action& a) const {
    return "c" + std::to_string(a.comp) + (a.is_shared ? " shared " : " local ") +
           std::to_string(a.rule);
  }

  ReductionSpec<FuzzModel> reduction() const {
    ReductionSpec<FuzzModel> spec;
    spec.components = comps;
    spec.owner = [](const State&, const Action& a) {
      return static_cast<int>(a.comp);
    };
    spec.local = [](const State&, const Action& a) { return !a.is_shared; };
    const std::uint8_t bad = bad_pc;
    const std::vector<LocalRule> lr = locals;
    const std::vector<SharedRule> sr = shareds;
    // A rule is visible iff it can move a pc onto or off the bad location —
    // either direction can flip the property valuation.
    spec.visible = [bad, lr, sr](const State&, const Action& a) {
      if (a.is_shared) {
        return sr[a.rule].from_pc == bad || sr[a.rule].to_pc == bad;
      }
      return lr[a.rule].from == bad || lr[a.rule].to == bad;
    };
    spec.unsafe = [sr](const State& s, int c) {
      // Conservative: the component is unsafe whenever any shared rule
      // matches its pc — such a rule's guard also reads the shared counter
      // and another component's move could enable it.
      const std::uint8_t pc = s.pc[static_cast<std::size_t>(c)];
      for (const SharedRule& r : sr) {
        if (r.from_pc == pc) return true;
      }
      return false;
    };
    const std::size_t n = static_cast<std::size_t>(comps);
    spec.canonicalize = [n](const State& s) {
      State canon = s;
      SortBlocks(canon.pc, n);
      return canon;
    };
    spec.orbit_size = [n](const State& s) {
      return MultisetOrbitSize(s.pc, n);
    };
    return spec;
  }
};

std::size_t HashValue(const FuzzModel::State& s) {
  Hasher h;
  for (const std::uint8_t pc : s.pc) h.Mix(pc);
  h.Mix(s.shared);
  return h.Digest();
}

FuzzModel RandomModel(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](int lo, int hi) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1)) +
           lo;
  };
  FuzzModel m;
  m.comps = pick(2, 4);
  const int pcs = pick(2, 4);
  m.shared_max = static_cast<std::uint8_t>(pick(1, 3));
  m.bad_pc = static_cast<std::uint8_t>(pcs - 1);
  const int n_local = pick(2, 5);
  for (int i = 0; i < n_local; ++i) {
    m.locals.push_back({static_cast<std::uint8_t>(pick(0, pcs - 1)),
                        static_cast<std::uint8_t>(pick(0, pcs - 1))});
  }
  const int n_shared = pick(0, 3);
  for (int i = 0; i < n_shared; ++i) {
    FuzzModel::SharedRule r;
    r.from_pc = static_cast<std::uint8_t>(pick(0, pcs - 1));
    r.to_pc = static_cast<std::uint8_t>(pick(0, pcs - 1));
    r.delta = static_cast<std::int8_t>(pick(-1, 1));
    r.min_shared = static_cast<std::uint8_t>(pick(0, m.shared_max));
    r.max_shared = static_cast<std::uint8_t>(
        pick(r.min_shared, m.shared_max));
    m.shareds.push_back(r);
  }
  return m;
}

PropertySet<FuzzModel::State> BadPcProps(const FuzzModel& m) {
  const std::uint8_t bad = m.bad_pc;
  const int comps = m.comps;
  return {{"no_bad_pc",
           [bad, comps](const FuzzModel::State& s) {
             for (int c = 0; c < comps; ++c) {
               if (s.pc[static_cast<std::size_t>(c)] == bad) return false;
             }
             return true;
           },
           "no component reaches the bad location"}};
}

std::set<std::string> ViolatedProps(
    const std::vector<Violation<FuzzModel>>& vs) {
  std::set<std::string> names;
  for (const auto& v : vs) names.insert(v.property);
  return names;
}

TEST(ReductionFuzzTest, ReducedAgreesWithFullOver256Seeds) {
  int violating_models = 0;
  int reduced_models = 0;
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    const FuzzModel m = RandomModel(seed);
    const auto props = BadPcProps(m);
    const auto full = Explore(m, props);
    ASSERT_FALSE(full.stats.truncated) << "seed " << seed;

    ExploreOptions por;
    por.reduction.por = true;
    const auto r_por = Explore(m, props, por);

    ExploreOptions both = por;
    both.reduction.symmetry = true;
    const auto r_both = Explore(m, props, both);

    const auto expected = ViolatedProps(full.violations);
    EXPECT_EQ(expected, ViolatedProps(r_por.violations)) << "seed " << seed;
    EXPECT_EQ(expected, ViolatedProps(r_both.violations)) << "seed " << seed;
    EXPECT_LE(r_por.stats.states_visited, full.stats.states_visited)
        << "seed " << seed;
    EXPECT_LE(r_both.stats.states_visited, full.stats.states_visited)
        << "seed " << seed;
    // Orbit accounting never undercounts the representatives.
    EXPECT_GE(r_both.stats.represented_states, r_both.stats.states_visited)
        << "seed " << seed;

    if (!expected.empty()) ++violating_models;
    if (r_both.stats.states_visited < full.stats.states_visited) {
      ++reduced_models;
    }
  }
  // The generator must produce a healthy mix: models where the property
  // actually breaks, and models where the reductions actually reduce —
  // otherwise the differential above proves nothing.
  EXPECT_GT(violating_models, 20);
  EXPECT_LT(violating_models, 236);
  EXPECT_GT(reduced_models, 20);
}

TEST(ReductionFuzzTest, ReducedParallelByteIdenticalOver64Seeds) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const FuzzModel m = RandomModel(seed * 7919);
    const auto props = BadPcProps(m);
    ExploreOptions both;
    both.reduction.por = true;
    both.reduction.symmetry = true;
    const auto serial = Explore(m, props, both);
    ParallelExploreOptions popt;
    popt.base = both;
    popt.jobs = 3;
    const auto par = ParallelExplore(m, props, popt);
    EXPECT_EQ(DeterministicView(serial.stats, /*include_occupancy=*/false),
              DeterministicView(par.stats, /*include_occupancy=*/false))
        << "seed " << seed;
    ASSERT_EQ(serial.violations.size(), par.violations.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < serial.violations.size(); ++i) {
      EXPECT_EQ(serial.violations[i].property, par.violations[i].property);
      EXPECT_EQ(serial.violations[i].trace.size(),
                par.violations[i].trace.size());
    }
  }
}

}  // namespace
}  // namespace cnv::mck
