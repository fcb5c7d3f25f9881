// Command-line contracts of the built example and bench binaries: every
// byte-identity promise the CLIs make (same output on a rerun, at any
// --jobs, at any watchdog chunking, and from a fresh golden regeneration),
// the verdicts their reports must show, and one table of invocations with
// the exact exit status each must return.
//
// Each command runs through sh in the test's own TestTempDir(), with the
// built examples/ and bench/ directories first on PATH and $GOLDEN naming
// tests/golden, so parallel ctest runs never share a file.
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "test_dirs.h"

namespace cnv {
namespace {

namespace fs = std::filesystem;

// ASan and TSan reserve terabytes of shadow address space.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

std::string Quote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) {
    if (c == '\'') {
      q += "'\\''";
    } else {
      q += c;
    }
  }
  return q + "'";
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct Result {
  int status = -1;
  std::string out;
  std::string err;
};

// Runs `command` in this test's directory and returns its exit status
// (128 + the signal number when a signal ended it) with its stdout and
// stderr. Relative paths in `command` name files in that directory.
Result RunCommand(const std::string& command) {
  const fs::path dir = test::TestTempDir();
  const std::string script =
      "cd " + Quote(dir.string()) + " && PATH=" +
      Quote(std::string(CNV_EXAMPLES_DIR) + ":" + CNV_BENCH_DIR) +
      ":\"$PATH\" && GOLDEN=" + Quote(CNV_GOLDEN_DIR) + " && S1=\"$GOLDEN/" +
      "s1_context_loss_opi.log\" && { " + command +
      "\n} > .stdout 2> .stderr";
  const int ws = std::system(script.c_str());
  Result r;
  if (WIFEXITED(ws)) r.status = WEXITSTATUS(ws);
  if (WIFSIGNALED(ws)) r.status = 128 + WTERMSIG(ws);
  r.out = ReadFile(dir / ".stdout");
  r.err = ReadFile(dir / ".stderr");
  return r;
}

// Runs `command` and requires exit status 0.
std::string RunOk(const std::string& command) {
  const Result r = RunCommand(command);
  EXPECT_EQ(r.status, 0) << command << "\nstderr:\n" << r.err;
  return r.out;
}

// chaos_campaign's header names the job count and its trailer the output
// directory; every other line must not depend on either.
std::string StripCampaignHeader(const std::string& text) {
  std::istringstream in(text);
  std::string kept;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("chaos campaign:", 0) == 0 || line.rfind("wrote ", 0) == 0) {
      continue;
    }
    kept += line + "\n";
  }
  return kept;
}

std::map<std::string, std::string> ReadTree(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (e.is_regular_file()) {
      files[fs::relative(e.path(), root).string()] = ReadFile(e.path());
    }
  }
  return files;
}

// The two directories hold the same file names with the same bytes.
void ExpectSameTree(const std::string& a, const std::string& b) {
  const fs::path dir = test::TestTempDir();
  const auto ta = ReadTree(dir / a);
  const auto tb = ReadTree(dir / b);
  ASSERT_FALSE(ta.empty()) << a << " is empty";
  for (const auto& [name, bytes] : ta) {
    const auto it = tb.find(name);
    ASSERT_NE(it, tb.end()) << name << " is missing from " << b;
    EXPECT_TRUE(it->second == bytes) << name << " differs between " << a
                                     << " and " << b;
  }
  EXPECT_EQ(ta.size(), tb.size()) << b << " holds files " << a << " lacks";
}

// ---------------------------------------------------------------------------
// Byte-identity contracts.

constexpr const char* kTelemetryPlans =
    "chaos_campaign 3 "
    "s2-attach-disruption,mme-crash-restart,mass-attach-storm,"
    "adversarial-nas-storm --storm-scale 0.1 --metrics-json ";

TEST(ChaosCampaignCli, MetricsExportRepeatsByteForByte) {
  RunOk(std::string(kTelemetryPlans) + "out");
  RunOk(std::string(kTelemetryPlans) + "out-again");
  EXPECT_TRUE(fs::exists(test::TestTempDir() / "out" / "spans.trace.json"));
  ExpectSameTree("out", "out-again");
}

TEST(ChaosCampaignCli, StdoutRepeatsByteForByte) {
  const std::string first = RunOk("chaos_campaign 3 findings");
  EXPECT_EQ(first, RunOk("chaos_campaign 3 findings"));
}

TEST(ChaosCampaignCli, OutputIndependentOfJobs) {
  const std::string cmd =
      "chaos_campaign 3 s2-attach-disruption,mme-crash-restart --jobs ";
  const std::string serial = RunOk(cmd + "1 --metrics-json out-serial");
  const std::string par = RunOk(cmd + "4 --metrics-json out-par");
  EXPECT_EQ(StripCampaignHeader(serial), StripCampaignHeader(par));
  ExpectSameTree("out-serial", "out-par");
}

TEST(ChaosCampaignCli, StormSweepIndependentOfJobs) {
  const std::string cmd =
      "chaos_campaign 2 storms --admission off,unbounded,reject,shed "
      "--storm-scale 0.1 --jobs ";
  const std::string serial = RunOk(cmd + "1 --metrics-json out-storm");
  const std::string par = RunOk(cmd + "4 --metrics-json out-storm-par");
  EXPECT_EQ(StripCampaignHeader(serial), StripCampaignHeader(par));
  ExpectSameTree("out-storm", "out-storm-par");
}

// Exit 0 asserts zero unexplained divergences across 64 seeds x both
// carrier profiles; exit 1 means the models and the stack disagree.
TEST(ConformanceCli, SweepIndependentOfJobs) {
  const std::string serial =
      RunOk("conformance --seeds 64 --jobs 1 --json conf-serial.json");
  const std::string par =
      RunOk("conformance --seeds 64 --jobs 4 --json conf-par.json");
  EXPECT_EQ(serial, par);
  const fs::path dir = test::TestTempDir();
  EXPECT_EQ(ReadFile(dir / "conf-serial.json"), ReadFile(dir / "conf-par.json"));
}

TEST(WatchdogCli, ChunkedAlertLogsMatchWholeBuffer) {
  int goldens = 0;
  for (const auto& e : fs::directory_iterator(CNV_GOLDEN_DIR)) {
    if (e.path().extension() != ".log") continue;
    ++goldens;
    SCOPED_TRACE(e.path().filename().string());
    const std::string log = Quote(e.path().string());
    RunOk("watchdog " + log + " --chunk 1 --alert-log chunked.alerts --quiet");
    RunOk("watchdog " + log +
          " --chunk=1048576 --alert-log whole.alerts --quiet");
    const fs::path dir = test::TestTempDir();
    EXPECT_EQ(ReadFile(dir / "chunked.alerts"), ReadFile(dir / "whole.alerts"));
  }
  EXPECT_GT(goldens, 0);
}

TEST(GoldenTracesCli, RegenerationMatchesCommittedGoldens) {
  RunOk("golden_traces --out regen");
  int goldens = 0;
  for (const auto& e : fs::directory_iterator(CNV_GOLDEN_DIR)) {
    if (e.path().extension() != ".log") continue;
    ++goldens;
    EXPECT_TRUE(ReadFile(e.path()) ==
                ReadFile(test::TestTempDir() / "regen" / e.path().filename()))
        << e.path().filename() << " differs from a fresh regeneration";
  }
  EXPECT_GT(goldens, 0);
}

// ---------------------------------------------------------------------------
// Verdicts the reports must show.

TEST(WatchdogCli, S1GoldenRaisesS1Alert) {
  RunOk("watchdog \"$S1\" --alert-log s1.alerts");
  EXPECT_NE(ReadFile(test::TestTempDir() / "s1.alerts").find("[S1]"),
            std::string::npos);
}

// Full-scale mass attach (30k msgs): with no admission control the backlog
// takes ~90 s to drain (a degradation VIOLATION); with reject-backoff or
// priority-shed the queue stays bounded and the core degrades within the
// SLO.
TEST(ChaosCampaignCli, StormSweepDifferentiatesAdmissionPolicies) {
  const std::string out =
      RunOk("chaos_campaign 1 mass-attach-storm "
            "--admission unbounded,reject,shed");
  const std::map<std::string, std::string> expected = {
      {"unbounded", "VIOLATION"},
      {"reject-backoff", "degraded-within-SLO"},
      {"priority-shed", "degraded-within-SLO"}};
  // Each run block is the seed line, then detail lines; the "    storm"
  // line carries the degradation verdict.
  std::map<std::string, int> checked;
  std::istringstream in(out);
  std::string policy;
  for (std::string line; std::getline(in, line);) {
    const std::size_t at = line.find(" admission=");
    if (line.rfind("  seed=", 0) == 0 && at != std::string::npos) {
      const std::size_t begin = at + 11;
      policy = line.substr(begin, line.find(' ', begin) - begin);
    } else if (line.rfind("    storm ", 0) == 0 && !policy.empty()) {
      ASSERT_EQ(expected.count(policy), 1u) << line;
      EXPECT_NE(line.find(expected.at(policy)), std::string::npos) << line;
      ++checked[policy];
      policy.clear();
    }
  }
  for (const auto& [name, verdict] : expected) {
    EXPECT_EQ(checked[name], 2) << name;  // OP-I and OP-II
  }
}

// On the legacy core a storm burst is a tally: its keys are reserved and one
// event waits at the last of them, so storm memory is O(1) per burst. A 300x
// mass attach (9M reserved, 200k injected before the 600 s run ends) fits in
// 1 GiB of address space.
TEST(ChaosCampaignCli, MassAttachStorm300xRunsIn1GiB) {
  if (kSanitized) GTEST_SKIP() << "sanitizer shadow memory needs the space";
  const std::string out = RunOk(
      "ulimit -v 1048576 && "
      "chaos_campaign 1 mass-attach-storm --storm-scale 300");
  int injected = 0;
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("    storm ", 0) == 0 &&
        line.find(" injected=200001 ") != std::string::npos) {
      ++injected;
    }
  }
  EXPECT_EQ(injected, 2) << out;
}

// The quick sweep checks every size serial against parallel and exits 1 on
// a digest mismatch.
TEST(PerfCityCli, QuickSweepIsDeterministic) {
  RunOk("perf_city --quick --bench-json city.json");
  const std::string json = ReadFile(test::TestTempDir() / "city.json");
  EXPECT_NE(json.find("\"determinism_ok\": true"), std::string::npos);
  EXPECT_EQ(json.find("\"determinism_ok\": false"), std::string::npos);
}

// A capacity-starved busy hour tapped live into the watchdog. At 10k UEs,
// the sweep's smallest size, it raises OVERLOAD alerts; at 2k it raises
// none.
TEST(PerfCityCli, WatchdogTapRaisesOverload) {
  RunOk("perf_city --ues 10000 --overload --emit-trace"
        " | watchdog - --quiet --alert-log city.alerts");
  EXPECT_NE(ReadFile(test::TestTempDir() / "city.alerts").find("[OVERLOAD]"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Exit statuses. Exit 2 is a usage error, rejected before any work starts
// (so before any pool of --jobs threads exists); exit 1 a run that failed.

struct ExitRow {
  const char* suite;
  const char* name;
  int status;
  const char* command;
};

constexpr ExitRow kExitRows[] = {
    // Every example CLI and the bench binaries with fixed constants once on
    // a small input; under ASan + UBSan an out-of-bounds read on the CLI
    // surface fails here instead of printing a plausible report.
    {"CliSmoke", "Quickstart", 0, "quickstart"},
    {"CliSmoke", "CsfbCallFlow", 0, "csfb_call_flow"},
    {"CliSmoke", "DriveTest", 0, "drive_test"},
    {"CliSmoke", "GoldenTraces", 0, "golden_traces --out goldens"},
    {"CliSmoke", "ModelExplorerCombined2Ues", 0,
     "model_explorer --model combined --ues 2 --por --symmetry"},
    {"CliSmoke", "ModelExplorerCombined3Ues", 0,
     "model_explorer --model combined --ues 3 --por --symmetry"},
    {"CliSmoke", "ModelExplorerCombined4Ues", 0,
     "model_explorer --model combined --ues 4 --por --symmetry"},
    {"CliSmoke", "Screening", 0, "screening --walks 4"},
    {"CliSmoke", "Conformance", 0, "conformance --seeds 2"},
    {"CliSmoke", "ChaosCampaignFindings", 0, "chaos_campaign 1 findings"},
    // The robust stack: every NAS procedure's retry/backoff/T3346 path.
    {"CliSmoke", "ChaosCampaignRobust", 0, "chaos_campaign 1 all --robust"},
    // Under admission off the background storms are tallies and only the
    // adversarial storm is a series; under unbounded, reject and shed every
    // storm is a series whose handlers schedule back into the kernel.
    {"CliSmoke", "ChaosCampaignStorms", 0,
     "chaos_campaign 1 storms --admission off,unbounded,reject,shed "
     "--storm-scale 0.1"},
    {"CliSmoke", "ChaosCampaignStormsJobs4", 0,
     "chaos_campaign 2 mass-attach-storm,paging-flood-storm "
     "--admission reject,shed --storm-scale 0.1 --jobs 4"},
    {"CliSmoke", "Table5UserStudy", 0, "table5_user_study"},
    {"CliSmoke", "Table6StuckDuration", 0, "table6_stuck_duration"},
    {"CliSmoke", "PerfCity2000Ues", 0,
     "perf_city --ues 2000 --bench-json city.json"},
    {"CliSmoke", "Diagnose", 0, "diagnose \"$S1\""},
    {"CliSmoke", "Watchdog", 0, "watchdog \"$S1\" --quiet"},

    {"ChaosCampaignCli", "MisspelledJobsExits2", 2,
     "chaos_campaign 3 findings --jbos 4"},
    {"ChaosCampaignCli", "NonNumericJobsExits2", 2,
     "chaos_campaign 3 findings --jobs four"},
    {"ChaosCampaignCli", "NegativeJobsExits2", 2,
     "chaos_campaign 3 findings --jobs -2"},
    {"ChaosCampaignCli", "Jobs2147483647Exits2", 2,
     "chaos_campaign 3 findings --jobs 2147483647"},
    // Nothing is checkpointed: --resume is an unknown flag.
    {"ChaosCampaignCli", "ResumeExits2", 2, "chaos_campaign 3 findings --resume"},
    // A seed count past the bound is a usage error, not a wrap to 0 or 1
    // seeds.
    {"ChaosCampaignCli", "SeedCount3000000000Exits2", 2,
     "chaos_campaign 3000000000 s2-attach-disruption"},
    {"ChaosCampaignCli", "SeedCount4294967297Exits2", 2,
     "chaos_campaign 4294967297 s2-attach-disruption"},
    // A storm scale whose scaled count overflows int is a usage error, not
    // a silently wrapped 1-message storm; a NaN never reaches the
    // double-to-int conversion.
    {"ChaosCampaignCli", "StormScale1e300Exits2", 2,
     "chaos_campaign 1 all --storm-scale 1e300"},
    {"ChaosCampaignCli", "StormScale1e6Exits2", 2,
     "chaos_campaign 1 all --storm-scale 1e6"},
    {"ChaosCampaignCli", "StormScaleNegativeNanExits2", 2,
     "chaos_campaign 1 mass-attach-storm --storm-scale -nan"},
    // The retired process fleet's flags are unknown flags now, not silently
    // ignored ones, on every sweep CLI.
    {"ChaosCampaignCli", "BackendExits2", 2,
     "chaos_campaign 3 findings --backend thread"},
    {"ChaosCampaignCli", "WorkersExits2", 2,
     "chaos_campaign 3 findings --workers 2"},
    {"ChaosCampaignCli", "HeartbeatExits2", 2,
     "chaos_campaign 3 findings --heartbeat-ms 500"},
    {"ChaosCampaignCli", "QuarantineExits2", 2,
     "chaos_campaign 3 findings --quarantine-after 2"},

    {"ConformanceCli", "BackendExits2", 2, "conformance --seeds 2 --backend thread"},
    {"ConformanceCli", "WorkersExits2", 2, "conformance --seeds 2 --workers 2"},
    {"ConformanceCli", "HeartbeatExits2", 2,
     "conformance --seeds 2 --heartbeat-ms 500"},
    {"ConformanceCli", "QuarantineExits2", 2,
     "conformance --seeds 2 --quarantine-after 2"},
    {"ConformanceCli", "ReduceExits2", 2, "conformance --seeds 2 --reduce"},
    {"ConformanceCli", "Jobs2147483647Exits2", 2,
     "conformance --seeds 2 --jobs 2147483647"},
    // --seeds is bounded to [1, 1000000] and a seed range may not wrap past
    // 2^64 - 1: no cell count wrapped to 0.
    {"ConformanceCli", "Seeds2305843009213693952Exits2", 2,
     "conformance --seeds 2305843009213693952"},
    {"ConformanceCli", "Seeds1000001Exits2", 2, "conformance --seeds 1000001"},
    {"ConformanceCli", "WrappingSeedBaseExits2", 2,
     "conformance --seeds 2 --seed-base 18446744073709551615"},
    // --walks is bounded to [0, 1000000] on both walk-sampling CLIs, checked
    // at parse time: a larger count is a usage error, not a run that never
    // ends.
    {"ConformanceCli", "Walks1000001Exits2", 2,
     "conformance --seeds 1 --walks 1000001"},
    {"ConformanceCli", "Walks18446744073709551615Exits2", 2,
     "conformance --seeds 1 --walks 18446744073709551615"},
    // A --json path conformance cannot write fails the run (exit 1) after
    // the text report; it is not a usage error.
    {"ConformanceCli", "UnwritableJsonExits1", 1,
     "conformance --seeds 1 --json /dev/null/x.json"},

    // screening and model_explorer explore on one thread and define no
    // --jobs; screening defines no --reduce.
    {"ScreeningCli", "BackendExits2", 2, "screening --backend thread"},
    {"ScreeningCli", "WorkersExits2", 2, "screening --workers 2"},
    {"ScreeningCli", "HeartbeatExits2", 2, "screening --heartbeat-ms 500"},
    {"ScreeningCli", "QuarantineExits2", 2, "screening --quarantine-after 2"},
    {"ScreeningCli", "ReduceExits2", 2, "screening --reduce"},
    {"ScreeningCli", "JobsExits2", 2, "screening --jobs 2147483647"},
    {"ScreeningCli", "Walks1000001Exits2", 2, "screening --walks 1000001"},
    {"ScreeningCli", "Walks18446744073709551615Exits2", 2,
     "screening --walks 18446744073709551615"},
    // SIGTERM ends a batch run inside a long cell: `timeout` reports 124
    // when its TERM did the job, 137 when it had to follow up with KILL. The
    // largest walk count runs for tens of seconds (about 3 s per cell).
    {"ScreeningCli", "SigtermEndsALongCell", 124,
     "timeout -k 5 -s TERM 1 screening --walks 1000000"},

    {"ModelExplorerCli", "BackendExits2", 2,
     "model_explorer --model combined --backend thread"},
    {"ModelExplorerCli", "WorkersExits2", 2,
     "model_explorer --model combined --workers 2"},
    {"ModelExplorerCli", "HeartbeatExits2", 2,
     "model_explorer --model combined --heartbeat-ms 500"},
    {"ModelExplorerCli", "QuarantineExits2", 2,
     "model_explorer --model combined --quarantine-after 2"},
    {"ModelExplorerCli", "JobsExits2", 2,
     "model_explorer --model combined --jobs 2147483647"},
    // The combined model holds 2 to 4 UEs.
    {"ModelExplorerCli", "FiveUesExits2", 2, "model_explorer --model combined --ues 5"},
    {"ModelExplorerCli", "OneUeExits2", 2, "model_explorer --model combined --ues 1"},

    // The chunk size is bounded above: a huge value is a usage error, not an
    // impossible allocation.
    {"WatchdogCli", "HugeChunkExits2", 2,
     "watchdog \"$S1\" --chunk 9223372036854775807"},
    // The gateway runs inline: it has no ring to size and no drop policy.
    {"WatchdogCli", "RingFlagExits2", 2, "watchdog \"$S1\" --ring 16384"},
    {"WatchdogCli", "PolicyFlagExits2", 2, "watchdog \"$S1\" --policy drop"},
    // --snapshot-every refreshes --metrics-json; without it there is nothing
    // to refresh.
    {"WatchdogCli", "SnapshotEveryWithoutMetricsJsonExits2", 2,
     "watchdog \"$S1\" --snapshot-every 5"},
    // An output file the watchdog cannot write is a failure, also when the
    // write fails only as the buffered bytes are flushed (/dev/full accepts
    // the open).
    {"WatchdogCli", "UnwritableAlertLogExits1", 1,
     "watchdog \"$S1\" --alert-log /dev/null/alerts.log"},
    {"WatchdogCli", "UnwritableMetricsJsonExits1", 1,
     "watchdog \"$S1\" --metrics-json /dev/null/m.json"},
    {"WatchdogCli", "FullDeviceAlertLogExits1", 1,
     "watchdog \"$S1\" --quiet --alert-log /dev/full"},
    // A source that fails to read (a directory: EISDIR) is not an empty
    // trace.
    {"WatchdogCli", "UnreadableSourceExits1", 1, "watchdog \"$GOLDEN\""},

    // perf_city bounds --ues to [1, 10000000] and parses --seed and --jobs
    // strictly: no wrap to 4 billion UEs, no silent sweep.
    {"PerfCityCli", "NegativeUesExits2", 2, "perf_city --ues -1"},
    {"PerfCityCli", "NonNumericUesExits2", 2, "perf_city --ues abc"},
    {"PerfCityCli", "ZeroUesExits2", 2, "perf_city --ues 0"},
    {"PerfCityCli", "Ues10000001Exits2", 2, "perf_city --ues 10000001"},
    {"PerfCityCli", "NonNumericSeedExits2", 2, "perf_city --seed abc"},
    {"PerfCityCli", "NegativeSeedExits2", 2, "perf_city --seed -1"},
    {"PerfCityCli", "Jobs2147483647Exits2", 2, "perf_city --jobs 2147483647"},
    {"PerfCityCli", "UnknownFlagExits2", 2, "perf_city --bogus"},

    {"PerfStormCli", "UnknownFlagExits2", 2, "perf_storm --bogus"},
    {"PerfStormCli", "BenchJsonWithoutValueExits2", 2, "perf_storm --bench-json"},
};

class ExitStatusTest : public ::testing::Test {
 public:
  explicit ExitStatusTest(const ExitRow& row) : row_(row) {}
  void TestBody() override {
    const Result r = RunCommand(row_.command);
    EXPECT_EQ(r.status, row_.status) << row_.command << "\nstderr:\n" << r.err;
  }

 private:
  const ExitRow& row_;
};

// One test per row, named <suite>.<name>. The factory returns the base type
// so these suites may also hold the TEST()s above.
[[maybe_unused]] const bool kExitRowsRegistered = [] {
  for (const ExitRow& row : kExitRows) {
    ::testing::RegisterTest(
        row.suite, row.name, nullptr, nullptr, __FILE__, __LINE__,
        [&row]() -> ::testing::Test* { return new ExitStatusTest(row); });
  }
  return true;
}();

}  // namespace
}  // namespace cnv
