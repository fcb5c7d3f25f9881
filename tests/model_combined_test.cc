// CombinedModel state identity: the packed per-UE hash and the byte-wise
// equality the explorer's visited table relies on. Every field of every UE
// block, and the shared MSC flag, must reach HashValue and operator== on a
// sample of reachable states.
#include "model/combined_model.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace cnv::model {
namespace {

using State = CombinedModel::State;
using Ue = CombinedModel::Ue;

// The first `limit` distinct states of a breadth-first walk from the
// initial state of the 4-UE model.
std::vector<State> ReachableSample(std::size_t limit) {
  CombinedModel::Config cfg;
  cfg.ues = 4;
  const CombinedModel m(cfg);
  std::vector<State> seen = {m.initial()};
  for (std::size_t next = 0; next < seen.size() && seen.size() < limit;
       ++next) {
    const State s = seen[next];
    for (const auto& a : m.enabled(s)) {
      const State t = m.apply(s, a);
      bool known = false;
      for (const State& u : seen) known = known || u == t;
      if (!known && seen.size() < limit) seen.push_back(t);
    }
  }
  return seen;
}

// One mutation per Ue field, each yielding a different valid value.
struct FieldFlip {
  const char* name;
  std::function<void(Ue&)> flip;
};

const std::vector<FieldFlip>& Flips() {
  static const std::vector<FieldFlip> flips = {
      {"serving",
       [](Ue& u) {
         u.serving = u.serving == CombinedModel::Sys::k4G
                         ? CombinedModel::Sys::k3G
                         : CombinedModel::Sys::k4G;
       }},
      {"mm",
       [](Ue& u) {
         u.mm = static_cast<CombinedModel::Mm>(
             (static_cast<int>(u.mm) + 1) % 4);
       }},
      {"cm",
       [](Ue& u) {
         u.cm = static_cast<CombinedModel::Cm>(
             (static_cast<int>(u.cm) + 1) % 4);
       }},
      {"ctx", [](Ue& u) { u.ctx = !u.ctx; }},
      {"out_of_service", [](Ue& u) { u.out_of_service = !u.out_of_service; }},
      {"call_dropped", [](Ue& u) { u.call_dropped = !u.call_dropped; }},
      {"calls",
       [](Ue& u) { u.calls = static_cast<std::uint8_t>(u.calls + 1); }},
      {"switches",
       [](Ue& u) { u.switches = static_cast<std::uint8_t>(u.switches + 1); }},
  };
  return flips;
}

TEST(CombinedModelTest, SampleCoversSeveralBfsLevels) {
  EXPECT_EQ(ReachableSample(300).size(), 300u);
}

TEST(CombinedModelTest, FlippingAnyUeFieldChangesHashAndEquality) {
  for (const State& s : ReachableSample(300)) {
    const std::size_t h = HashValue(s);
    for (std::size_t i = 0; i < CombinedModel::kMaxUes; ++i) {
      for (const FieldFlip& f : Flips()) {
        SCOPED_TRACE("ue " + std::to_string(i) + " field " + f.name);
        State t = s;
        f.flip(t.ue[i]);
        EXPECT_FALSE(t == s);
        EXPECT_NE(HashValue(t), h);
      }
    }
  }
}

TEST(CombinedModelTest, FlippingMscBusyChangesHashAndEquality) {
  for (const State& s : ReachableSample(300)) {
    State t = s;
    t.msc_busy = !t.msc_busy;
    EXPECT_FALSE(t == s);
    EXPECT_NE(HashValue(t), HashValue(s));
  }
}

TEST(CombinedModelTest, ByteEqualityAgreesWithMemberwiseEquality) {
  const std::vector<State> sample = ReachableSample(120);
  for (const State& a : sample) {
    for (const State& b : sample) {
      const bool memberwise = a.ue == b.ue && a.msc_busy == b.msc_busy;
      EXPECT_EQ(a == b, memberwise);
      if (a == b) {
        EXPECT_EQ(HashValue(a), HashValue(b));
      }
    }
  }
}

}  // namespace
}  // namespace cnv::model
