// Pins the two passes over a model's reachable state graph: FNV-1a digests
// of ExportDot's output, and CheckRecoverable's verdict, stats and
// counterexample for every case of ReachabilityTest. The S3 export uses
// model_explorer's own label and highlight functions, so the digest is the
// one of the `s3_model.dot` it writes. Any change to discovery order, node
// numbering, edge order or counterexample choice shows up here.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "digest.h"
#include "mck/dot.h"
#include "mck/reachability.h"
#include "model/s1_model.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"
#include "toy_models.h"

namespace cnv {
namespace {

using mck::toys::CounterModel;
using mck::toys::LossyPingModel;

std::size_t CountEdges(const std::string& dot) {
  std::size_t n = 0;
  for (std::size_t at = dot.find(" -> "); at != std::string::npos;
       at = dot.find(" -> ", at + 1)) {
    ++n;
  }
  return n;
}

// model_explorer's node label for the S3 model.
std::string S3Label(const model::S3Model::State& s) {
  std::string l = s.serving == model::S3Model::Sys::k4G ? "4G" : "3G";
  l += " " + model::ToString(s.rrc3g);
  l += s.call == model::S3Model::Call::kActive   ? " call"
       : s.call == model::S3Model::Call::kEnded ? " ended"
                                                : "";
  if (s.data != model::DataRate::kNone) {
    l += " +" + model::ToString(s.data);
  }
  return l;
}

TEST(GraphPinTest, S3DotIsModelExplorersFile) {
  const model::S3Model m;
  mck::DotOptions<model::S3Model::State> opt;
  opt.label = S3Label;
  opt.highlight = [&m](const model::S3Model::State& s) {
    return m.StuckIn3g(s);
  };
  const std::string dot = mck::ExportDot(m, opt);
  EXPECT_EQ(dot.size(), 4657u);
  EXPECT_EQ(CountEdges(dot), 58u);
  EXPECT_EQ(testutil::Fnv1a64(dot), 11184266564587287143ull) << dot;
}

// Default options: default labels and no state cap, so each pinned graph
// is complete.
template <typename M>
std::uint64_t DotDigest(const M& m) {
  const std::string dot = mck::ExportDot(m);
  EXPECT_EQ(dot.find("truncated"), std::string::npos);
  return testutil::Fnv1a64(dot);
}

TEST(GraphPinTest, DefaultLabelledDots) {
  EXPECT_EQ(DotDigest(model::S1Model()), 14437041709150484606ull);
  EXPECT_EQ(DotDigest(model::S2Model()), 3433374857433174125ull);
  EXPECT_EQ(DotDigest(model::S4Model()), 2363150250016286707ull);
  EXPECT_EQ(DotDigest(CounterModel()), 10853449460122524568ull);
  LossyPingModel ping;
  ping.retransmit = true;
  EXPECT_EQ(DotDigest(ping), 11005247286489396271ull);
  ping.retransmit = false;
  EXPECT_EQ(DotDigest(ping), 4284419570261176933ull);
}

// Digest of an empty trace.
constexpr std::uint64_t kNoTrace = testutil::kFnvOffset;

struct RecoverabilityPin {
  bool holds;
  std::uint64_t states_visited;
  std::uint64_t transitions;
  std::uint64_t trace_digest;  // FNV-1a of the described actions, one a line
};

template <typename M>
void ExpectPinned(const M& m, const mck::RecoverabilityResult<M>& r,
                  const RecoverabilityPin& pin) {
  std::string trace;
  for (const auto& a : r.trace) trace += m.describe(a) + '\n';
  EXPECT_EQ(r.holds, pin.holds);
  EXPECT_EQ(r.stats.states_visited, pin.states_visited);
  EXPECT_EQ(r.stats.transitions, pin.transitions);
  EXPECT_EQ(testutil::Fnv1a64(trace), pin.trace_digest) << trace;
}

TEST(GraphPinTest, CounterAlwaysReachesCap) {
  const CounterModel m;
  const auto r = mck::CheckRecoverable<CounterModel>(
      m, [&](const CounterModel::State& s) { return s.value < m.cap; },
      [&](const CounterModel::State& s) { return s.value == m.cap; });
  ExpectPinned(m, r, {true, 5, 4, kNoTrace});
}

TEST(GraphPinTest, LossyPingWithoutRetransmit) {
  LossyPingModel m;
  m.retransmit = false;
  const auto r = mck::CheckRecoverable<LossyPingModel>(
      m, [](const LossyPingModel::State& s) { return !s.sender_got_ack; },
      [](const LossyPingModel::State& s) { return s.sender_got_ack; });
  ExpectPinned(m, r, {false, 6, 5, 58323000315534662ull});
}

TEST(GraphPinTest, LossyPingWithRetransmit) {
  LossyPingModel m;
  m.retransmit = true;
  const auto r = mck::CheckRecoverable<LossyPingModel>(
      m, [](const LossyPingModel::State& s) { return !s.sender_got_ack; },
      [](const LossyPingModel::State& s) { return s.sender_got_ack; });
  ExpectPinned(m, r, {false, 16, 15, 14397425220211304572ull});
}

TEST(GraphPinTest, S1OutOfService) {
  const model::S1Model m;
  const auto r = mck::CheckRecoverable<model::S1Model>(
      m, [](const model::S1Model::State& s) { return s.out_of_service; },
      [](const model::S1Model::State& s) { return !s.out_of_service; });
  ExpectPinned(m, r, {true, 11, 32, kNoTrace});
}

TEST(GraphPinTest, S3Stuck) {
  const model::S3Model m;
  const auto r = mck::CheckRecoverable<model::S3Model>(
      m, [&m](const model::S3Model::State& s) { return m.StuckIn3g(s); },
      [](const model::S3Model::State& s) {
        return s.serving == model::S3Model::Sys::k4G;
      });
  ExpectPinned(m, r, {true, 27, 58, kNoTrace});
}

TEST(GraphPinTest, VacuousPending) {
  const CounterModel m;
  const auto r = mck::CheckRecoverable<CounterModel>(
      m, [](const CounterModel::State&) { return false; },
      [](const CounterModel::State&) { return false; });
  ExpectPinned(m, r, {true, 5, 4, kNoTrace});
}

TEST(GraphPinTest, UnreachableGoal) {
  const CounterModel m;
  const auto r = mck::CheckRecoverable<CounterModel>(
      m, [](const CounterModel::State&) { return true; },
      [](const CounterModel::State& s) { return s.value > 100; });
  ExpectPinned(m, r, {false, 5, 4, kNoTrace});
}

}  // namespace
}  // namespace cnv
