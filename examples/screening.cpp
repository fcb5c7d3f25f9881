// Screening-phase driver: runs the §3.2 scenario-cell catalog (S1-S4
// screening models x the bounded usage-option enumeration) and prints the
// per-cell exploration statistics, violated properties and classified
// findings.
//
// Usage:  ./screening [--walks W] [--seed S] [--solutions]
//   --walks W    random walks per cell on top of the exhaustive pass
//                (default 200, at most 1,000,000)
//   --seed S     RNG seed for the random walks (default 1)
//   --solutions  screen the §8 remedies instead of the standard behaviour
//                (expected outcome: zero findings)
#include <cstdio>
#include <string>

#include "core/screening.h"
#include "util/args.h"

using namespace cnv;

int main(int argc, char** argv) {
  args::ArgParser parser(
      argc, argv,
      "usage: screening [--walks W] [--seed S] [--solutions]");
  core::ScreeningOptions opt;
  opt.with_solutions = parser.Flag("--solutions");
  parser.U64Value("--walks", &opt.random_walks);
  parser.U64Value("--seed", &opt.seed);
  parser.Finish(0);
  if (const std::string error = core::CheckOptions(opt); !error.empty()) {
    parser.Fail(error);
  }

  const auto report = core::ScreeningRunner(opt).RunAll();
  for (const auto& q : report.quarantined) {
    std::fprintf(stderr, "QUARANTINED cell %llu (%s): %s\n",
                 static_cast<unsigned long long>(q.index), q.name.c_str(),
                 q.error.c_str());
  }
  if (!report.quarantined.empty()) return 1;

  std::printf("%s", core::ScreeningRunner::Format(report).c_str());
  return 0;
}
