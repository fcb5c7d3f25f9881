// Model-exploration workbench: the checker-side tooling on one model.
// Default --model s3: exhausts the S3 screening model, prints the MM_OK
// counterexample, runs the recoverability analysis (is the stuck state
// permanent?), and writes a Graphviz rendering of the reachable state graph
// with stuck states highlighted (render with:
// dot -Tsvg s3_model.dot -o s3_model.svg). --model combined: exhausts the
// combined CSFB+LU+PDP model over N symmetric UEs and reports every
// property verdict with its counterexample.
//
// Build and run:  ./model_explorer [output.dot] [--model s3|combined]
//                                  [--ues N] [--por] [--symmetry]
//   --ues N   UEs in the combined model, 2..4 (default 2).
//   --por / --symmetry
//             enable partial-order and/or symmetry reduction. Sound for the
//             checked properties: the same violations are found, from a
//             smaller state count (reported as the reduction factor), and
//             each counterexample is still a concrete path.
#include <cstdio>
#include <fstream>
#include <string>

#include "mck/dot.h"
#include "mck/parallel_explorer.h"
#include "mck/reachability.h"
#include "model/combined_model.h"
#include "model/s3_model.h"
#include "util/args.h"

using namespace cnv;

namespace {

template <typename M>
void PrintStats(const mck::ExploreResult<M>& result) {
  std::printf(
      "explored %llu states, %llu transitions (1 job(s), %llu waves)\n",
      (unsigned long long)result.stats.states_visited,
      (unsigned long long)result.stats.transitions,
      (unsigned long long)result.par.waves);
  std::printf(
      "wall: %.3fs  throughput: %.0f states/s  frontier peak: %llu  "
      "hash occupancy: %.2f\n",
      result.stats.elapsed_wall_seconds, result.stats.StatesPerSecond(),
      (unsigned long long)result.stats.frontier_peak,
      result.stats.hash_occupancy);
  if (result.stats.represented_states > result.stats.states_visited) {
    std::printf(
        "reduction: %llu representatives stand for %llu concrete states "
        "(factor %.1fx); %llu ample expansions\n",
        (unsigned long long)result.stats.states_visited,
        (unsigned long long)result.stats.represented_states,
        static_cast<double>(result.stats.represented_states) /
            static_cast<double>(result.stats.states_visited),
        (unsigned long long)result.stats.ample_states);
  } else if (result.stats.ample_states > 0) {
    std::printf("reduction: %llu ample (partial-order) expansions\n",
                (unsigned long long)result.stats.ample_states);
  }
}

}  // namespace

int main(int argc, char** argv) {
  args::ArgParser parser(
      argc, argv,
      "usage: model_explorer [output.dot] [--model s3|combined] [--ues N]\n"
      "                      [--por] [--symmetry]");
  std::string model_name = "s3";
  parser.StrValue("--model", &model_name);
  int ues = 2;
  parser.IntValue("--ues", &ues, 2);
  const bool por = parser.Flag("--por");
  const bool symmetry = parser.Flag("--symmetry");
  const auto positional = parser.Finish(1);
  const std::string out_path =
      positional.empty() ? "s3_model.dot" : positional[0];
  if (model_name != "s3" && model_name != "combined") {
    parser.Fail("--model must be s3 or combined");
  }
  if (ues > static_cast<int>(model::CombinedModel::kMaxUes)) {
    parser.Fail("--ues: must be <= " +
                std::to_string(model::CombinedModel::kMaxUes));
  }

  mck::ParallelExploreOptions opt_explore;
  opt_explore.base.reduction.por = por;
  opt_explore.base.reduction.symmetry = symmetry;

  if (model_name == "combined") {
    // Combined CSFB + LU + PDP interaction model over N symmetric UEs
    // sharing one MSC: all three cross-protocol failures live in one
    // reachable graph. This is where the reductions earn their keep — UEs
    // are interchangeable, so --symmetry folds UE permutations into one
    // representative, and --por commutes their independent steps.
    model::CombinedModel::Config cfg;
    cfg.ues = ues;
    const model::CombinedModel m(cfg);
    const auto props = m.Properties();
    const auto result = mck::ParallelExplore(m, props, opt_explore);
    PrintStats(result);
    for (const auto& p : props) {
      if (const auto* v = result.FindViolation(p.name)) {
        std::printf("\n%s VIOLATED\n%s\n", p.name.c_str(),
                    mck::FormatTrace(m, *v).c_str());
      } else {
        std::printf("%s holds\n", p.name.c_str());
      }
    }
    return 0;
  }

  model::S3Model m;  // cell-reselection policy: the S3 configuration

  // 1. Exhaustive screening.
  const auto result = mck::ParallelExplore(m, m.Properties(), opt_explore);
  PrintStats(result);
  if (const auto* v = result.FindViolation(model::kMmOk)) {
    std::printf("\n%s\n", mck::FormatTrace(m, *v).c_str());
  } else {
    std::printf("MM_OK holds\n");
  }

  // 2. Recoverability: the stuck state is session-bounded, not permanent.
  const auto rec = mck::CheckRecoverable<model::S3Model>(
      m, [&m](const model::S3Model::State& s) { return m.StuckIn3g(s); },
      [](const model::S3Model::State& s) {
        return s.serving == model::S3Model::Sys::k4G;
      });
  std::printf("stuck state recoverable on some path: %s\n",
              rec.holds ? "yes (ending the data session frees the device)"
                        : "NO - permanent dead end");

  // 3. Graphviz export with the stuck states highlighted.
  mck::DotOptions<model::S3Model::State> opt;
  opt.label = [](const model::S3Model::State& s) {
    std::string l = s.serving == model::S3Model::Sys::k4G ? "4G" : "3G";
    l += " " + model::ToString(s.rrc3g);
    l += s.call == model::S3Model::Call::kActive   ? " call"
         : s.call == model::S3Model::Call::kEnded ? " ended"
                                                  : "";
    if (s.data != model::DataRate::kNone) {
      l += " +" + model::ToString(s.data);
    }
    return l;
  };
  opt.highlight = [&m](const model::S3Model::State& s) {
    return m.StuckIn3g(s);
  };
  const std::string dot = mck::ExportDot(m, opt);
  std::ofstream f(out_path);
  f << dot;
  std::printf("wrote %zu-byte state graph to %s (%s)\n", dot.size(),
              out_path.c_str(), "stuck states filled red");
  return 0;
}
