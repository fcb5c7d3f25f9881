// Screening-phase driver: runs the §3.2 scenario-cell catalog (S1-S4
// screening models x the bounded usage-option enumeration) and prints the
// per-cell exploration statistics, violated properties and classified
// findings.
//
// Usage:  ./screening [--jobs N] [--walks W] [--seed S] [--solutions]
//                     [--checkpoint-dir DIR] [--resume] [--reduce]
//   --jobs N     explore each cell on N workers (default 0 = hardware
//                concurrency, 1 = serial). Findings, violated properties
//                and counterexamples are byte-identical at any N; only the
//                wall-clock lines differ between runs.
//   --walks W    random walks per cell on top of the exhaustive pass
//                (default 200)
//   --seed S     RNG seed for the random walks (default 1)
//   --solutions  screen the §8 remedies instead of the standard behaviour
//                (expected outcome: zero findings)
//   --checkpoint-dir DIR
//                persist each completed catalog cell (plus the RNG stream
//                position) under DIR; with --resume, completed cells replay
//                from their blobs and the report is byte-identical to an
//                uninterrupted run. SIGINT/SIGTERM drain gracefully between
//                cells (exit status 75).
//   --reduce     explore each cell with partial-order + symmetry reduction
//                enabled. The S1-S4 slices carry trivial reduction specs,
//                so the findings and counterexamples are byte-identical to
//                an unreduced sweep (pinned by the `reduction` CI job).
#include <cstdio>

#include "ckpt/manifest.h"
#include "core/screening.h"
#include "util/args.h"

using namespace cnv;

int main(int argc, char** argv) {
  args::ArgParser parser(
      argc, argv,
      "usage: screening [--jobs N] [--walks W] [--seed S] [--solutions]\n"
      "                 [--checkpoint-dir DIR] [--resume] [--reduce]");
  core::ScreeningOptions opt;
  opt.jobs = 0;
  opt.with_solutions = parser.Flag("--solutions");
  if (parser.Flag("--reduce")) {
    opt.reduction.por = true;
    opt.reduction.symmetry = true;
  }
  parser.IntValue("--jobs", &opt.jobs, 0);
  parser.U64Value("--walks", &opt.random_walks);
  parser.U64Value("--seed", &opt.seed);
  parser.StrValue("--checkpoint-dir", &opt.checkpoint_dir);
  opt.resume = parser.Flag("--resume");
  parser.Finish(0);
  if (opt.resume && opt.checkpoint_dir.empty()) {
    parser.Fail("--resume requires --checkpoint-dir");
  }

  ckpt::CancelToken cancel;
  ckpt::InstallSignalDrain(&cancel);
  opt.cancel = &cancel;

  const auto report = core::ScreeningRunner(opt).RunAll();
  ckpt::InstallSignalDrain(nullptr);

  // Execution accounting to stderr only: stdout must stay byte-identical
  // between a resumed and an uninterrupted screening run.
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
                 "screening interrupted: %llu/%llu cell(s) done; resume "
                 "with --checkpoint-dir %s --resume\n",
                 static_cast<unsigned long long>(report.exec.cells_resumed +
                                                 report.exec.cells_run),
                 static_cast<unsigned long long>(report.exec.cells_total),
                 opt.checkpoint_dir.c_str());
    return ckpt::kInterruptedExitCode;
  }

  std::printf("%s", core::ScreeningRunner::Format(report).c_str());
  return 0;
}
