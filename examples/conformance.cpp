// Differential conformance driver: sweeps seeds × carrier profiles, running
// the S1-S4 screening models (exhaustive exploration plus a seeded random
// walk per cell) side by side with simulator replays of the compiled
// counterexample scripts, and classifies every cell into a verdict. The
// headline number is unexplained divergences — expected to be zero.
//
// Usage:  ./conformance [--seeds N] [--seed-base S] [--walks W] [--jobs N]
//                       [--json FILE] [--checkpoint-dir DIR] [--resume]
//                       [--reduce]
//   --seeds N    testbed/walk seeds per (scenario, carrier) group
//                (default 64)
//   --seed-base S
//                first seed of the range (default 1)
//   --walks W    random walks per cell on the model side (default 32)
//   --jobs N     run cells on N workers (default 1 = serial). The report
//                is byte-identical at any N.
//   --json FILE  also write the machine-readable report to FILE
//   --checkpoint-dir DIR
//                persist each completed cell under DIR; with --resume,
//                completed cells replay from their blobs and the report is
//                byte-identical to an uninterrupted run. SIGINT/SIGTERM
//                drain gracefully between cells (exit status 75).
//   --reduce     explore the model side with partial-order + symmetry
//                reduction enabled; the report is byte-identical to an
//                unreduced sweep (the S1-S4 slices have trivial reduction
//                specs).
//
// Exit status: 0 = complete sweep, zero unexplained divergences;
//              1 = complete sweep with unexplained divergences;
//              75 = interrupted (resume with --checkpoint-dir/--resume).
#include <cstdio>

#include "ckpt/manifest.h"
#include "conf/diff.h"
#include "util/args.h"

using namespace cnv;

int main(int argc, char** argv) {
  args::ArgParser parser(
      argc, argv,
      "usage: conformance [--seeds N] [--seed-base S] [--walks W] [--jobs N]\n"
      "                   [--json FILE] [--checkpoint-dir DIR] [--resume]\n"
      "                   [--reduce]");
  conf::DiffOptions opt;
  std::string json_path;
  if (parser.Flag("--reduce")) {
    opt.reduction.por = true;
    opt.reduction.symmetry = true;
  }
  parser.U64Value("--seeds", &opt.seeds);
  parser.U64Value("--seed-base", &opt.seed_base);
  parser.U64Value("--walks", &opt.walks);
  parser.IntValue("--jobs", &opt.jobs, 1);
  parser.StrValue("--json", &json_path);
  parser.StrValue("--checkpoint-dir", &opt.checkpoint_dir);
  opt.resume = parser.Flag("--resume");
  parser.Finish(0);
  if (opt.resume && opt.checkpoint_dir.empty()) {
    parser.Fail("--resume requires --checkpoint-dir");
  }
  if (opt.seeds == 0) parser.Fail("--seeds must be >= 1");

  ckpt::CancelToken cancel;
  ckpt::InstallSignalDrain(&cancel);
  opt.cancel = &cancel;

  const auto report = conf::DifferentialDriver(opt).Run();
  ckpt::InstallSignalDrain(nullptr);

  // Execution accounting to stderr only: stdout must stay byte-identical
  // between a resumed and an uninterrupted sweep.
  if (!opt.checkpoint_dir.empty()) {
    std::fprintf(stderr, "execution: %s\n", report.exec.ToString().c_str());
  }
  for (const auto& q : report.quarantined) {
    std::fprintf(stderr, "QUARANTINED cell %llu (%s) after %u strike(s): %s\n",
                 static_cast<unsigned long long>(q.index), q.name.c_str(),
                 static_cast<unsigned>(q.strikes), q.last_error.c_str());
  }
  if (!report.quarantined.empty()) return 1;
  if (!report.complete) {
    std::fprintf(stderr,
                 "conformance sweep interrupted: %llu/%llu cell(s) done; "
                 "resume with --checkpoint-dir %s --resume\n",
                 static_cast<unsigned long long>(report.exec.cells_resumed +
                                                 report.exec.cells_run),
                 static_cast<unsigned long long>(report.exec.cells_total),
                 opt.checkpoint_dir.c_str());
    return ckpt::kInterruptedExitCode;
  }

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
