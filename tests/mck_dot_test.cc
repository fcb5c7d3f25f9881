#include "mck/dot.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "model/s3_model.h"
#include "model/s4_model.h"
#include "toy_models.h"

namespace cnv::mck {
namespace {

using toys::CounterModel;

TEST(DotTest, ContainsAllNodesAndEdges) {
  CounterModel m;  // 5 states in a chain
  const auto dot = ExportDot(m);
  EXPECT_NE(dot.find("digraph model"), std::string::npos);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(dot.find("n" + std::to_string(i) + " [label="),
              std::string::npos);
  }
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n3 -> n4"), std::string::npos);
  EXPECT_NE(dot.find("increment by 1"), std::string::npos);
  EXPECT_EQ(dot.find("truncated"), std::string::npos);
}

TEST(DotTest, InitialNodeIsBold) {
  CounterModel m;
  const auto dot = ExportDot(m);
  EXPECT_NE(dot.find("n0 [label=\"s0\", style=bold]"), std::string::npos);
}

TEST(DotTest, CustomLabelsAndHighlights) {
  CounterModel m;
  m.buggy = true;
  DotOptions<CounterModel::State> opt;
  opt.label = [](const CounterModel::State& s) {
    return "value=" + std::to_string(s.value);
  };
  opt.highlight = [&m](const CounterModel::State& s) {
    return s.value > m.cap;
  };
  const auto dot = ExportDot(m, opt);
  EXPECT_NE(dot.find("value=0"), std::string::npos);
  EXPECT_NE(dot.find("value=5"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightcoral"), std::string::npos);
}

TEST(DotTest, TruncationIsMarked) {
  CounterModel m;
  m.cap = 1000;
  DotOptions<CounterModel::State> opt;
  opt.max_states = 10;
  const auto dot = ExportDot(m, opt);
  EXPECT_NE(dot.find("truncated"), std::string::npos);
}

TEST(DotTest, DefaultExportIsTheWholeGraph) {
  // S4 reaches more states than the old default cap of 500.
  const model::S4Model m;
  const std::string dot = ExportDot(m);
  EXPECT_EQ(dot.find("// truncated"), std::string::npos);
  std::size_t nodes = 0;
  std::istringstream lines(dot);
  for (std::string line; std::getline(lines, line);) {
    // Node lines are `  n<i> [label=...]`; edge lines hold " -> ".
    if (line.starts_with("  n") && line.find(" [label=") != std::string::npos &&
        line.find(" -> ") == std::string::npos) {
      ++nodes;
    }
  }
  const auto r = Explore(m, {});
  EXPECT_GT(r.stats.states_visited, 500u);
  EXPECT_EQ(nodes, r.stats.states_visited);
}

TEST(DotTest, EscapesQuotesInLabels) {
  CounterModel m;
  DotOptions<CounterModel::State> opt;
  opt.label = [](const CounterModel::State&) { return "say \"hi\""; };
  const auto dot = ExportDot(m, opt);
  EXPECT_NE(dot.find("say \\\"hi\\\""), std::string::npos);
}

TEST(DotTest, S3ModelExportsItsRrcGraph) {
  model::S3Model m;
  DotOptions<model::S3Model::State> opt;
  opt.label = [](const model::S3Model::State& s) {
    return model::ToString(s.rrc3g) + "/" + model::ToString(s.data);
  };
  opt.highlight = [&m](const model::S3Model::State& s) {
    return m.StuckIn3g(s);
  };
  const auto dot = ExportDot(m, opt);
  EXPECT_NE(dot.find("DCH"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightcoral"), std::string::npos);  // stuck
  EXPECT_NE(dot.find("CSFB call"), std::string::npos);
}

}  // namespace
}  // namespace cnv::mck
