// Differential conformance driver: sweeps seeds × carrier profiles, running
// the S1-S4 screening models (exhaustive exploration plus a seeded random
// walk per cell) side by side with simulator replays of the compiled
// counterexample scripts, and classifies every cell into a verdict. The
// headline number is unexplained divergences — expected to be zero.
//
// Usage:  ./conformance [--seeds N] [--seed-base S] [--walks W] [--jobs N]
//                       [--json FILE]
//   --seeds N    testbed/walk seeds per (scenario, carrier) group
//                (default 64, at most 1,000,000)
//   --seed-base S
//                first seed of the range (default 1); the range must not
//                wrap past 2^64 - 1
//   --walks W    random walks per cell on the model side (default 32, at
//                most 1,000,000)
//   --jobs N     run cells on N workers (default 1 = serial). The report
//                is byte-identical at any N.
//   --json FILE  also write the machine-readable report to FILE
//
// Exit status: 0 = complete sweep, zero unexplained divergences;
//              1 = unexplained divergences, or a cell that threw.
#include <cstdio>
#include <string>

#include "conf/diff.h"
#include "par/pool.h"
#include "util/args.h"

using namespace cnv;

int main(int argc, char** argv) {
  args::ArgParser parser(
      argc, argv,
      "usage: conformance [--seeds N] [--seed-base S] [--walks W] [--jobs N]\n"
      "                   [--json FILE]");
  conf::DiffOptions opt;
  std::string json_path;
  parser.U64Value("--seeds", &opt.seeds);
  parser.U64Value("--seed-base", &opt.seed_base);
  parser.U64Value("--walks", &opt.walks);
  parser.IntValue("--jobs", &opt.jobs, 1, par::kMaxJobs);
  parser.StrValue("--json", &json_path);
  parser.Finish(0);
  if (const std::string error = conf::CheckOptions(opt); !error.empty()) {
    parser.Fail(error);
  }

  const auto report = conf::DifferentialDriver(opt).Run();
  for (const auto& q : report.quarantined) {
    std::fprintf(stderr, "QUARANTINED cell %llu (%s): %s\n",
                 static_cast<unsigned long long>(q.index), q.name.c_str(),
                 q.error.c_str());
  }
  if (!report.quarantined.empty()) return 1;

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 2;
    }
    const std::string json = conf::DifferentialDriver::FormatJson(report);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }

  std::printf("%s", conf::DifferentialDriver::FormatText(report).c_str());
  return report.unexplained_divergences > 0 ? 1 : 0;
}
