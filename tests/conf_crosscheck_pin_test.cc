// Pins the rendered reports of the three S1–S4 consumers of the screening
// models: the DiffSweep (text and JSON), the conformance runner and the
// screening catalog. Each report is hashed with FNV-1a, so any change to a
// verdict, a note, a counterexample or a cell name shows up as a digest
// mismatch naming the report. Screening lines that carry wall-clock figures
// are dropped before hashing. On an intentional change, the failure message
// prints the replacement digest.
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "conf/diff.h"
#include "core/conformance.h"
#include "core/screening.h"
#include "digest.h"
#include "stack/carrier.h"

namespace cnv {
namespace {

std::string DropWallLines(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("wall") == std::string::npos) out += line + '\n';
  }
  return out;
}

void ExpectDigest(const std::string& what, const std::string& bytes,
                  std::uint64_t pinned) {
  const std::uint64_t got = testutil::Fnv1a64(bytes);
  EXPECT_EQ(got, pinned) << what << ": replace the pin with 0x" << std::hex
                         << got << "ull";
}

struct DiffPin {
  std::uint64_t seed_base;
  std::uint64_t text;
  std::uint64_t json;
};

// Base 1 is the CLI default; base 65 is the first perfbench pipeline seed
// (seed_base = 1 + seed * 64).
constexpr DiffPin kDiffPins[] = {
    {1, 0xad0fc282e278ed8dull, 0x2d726f9687c8886full},
    {65, 0x04e60893e1d04cf1ull, 0xc0f0156994df770cull},
};

TEST(CrossCheckPinTest, DiffSweepReports) {
  for (const auto& pin : kDiffPins) {
    conf::DiffOptions opt;
    opt.seeds = 64;
    opt.seed_base = pin.seed_base;
    const auto report = conf::DifferentialDriver(opt).Run();
    const std::string tag = "base " + std::to_string(pin.seed_base);
    ExpectDigest("FormatText " + tag,
                 conf::DifferentialDriver::FormatText(report), pin.text);
    ExpectDigest("FormatJson " + tag,
                 conf::DifferentialDriver::FormatJson(report), pin.json);
  }
}

enum class Remedies { kNone, kStack, kModel };

struct ConformancePin {
  const char* carrier;
  std::uint64_t seed;
  Remedies remedies;
  std::uint64_t digest;
};

constexpr ConformancePin kConformancePins[] = {
    {"OP-I", 1, Remedies::kNone, 0xcd9b44f3b5f7448bull},
    {"OP-I", 1, Remedies::kStack, 0x8fe8ce8e0f48e9eeull},
    {"OP-I", 1, Remedies::kModel, 0xe488511fb41f8a56ull},
    {"OP-I", 2, Remedies::kNone, 0xcd9b44f3b5f7448bull},
    {"OP-I", 2, Remedies::kStack, 0x8fe8ce8e0f48e9eeull},
    {"OP-I", 2, Remedies::kModel, 0xe488511fb41f8a56ull},
    {"OP-II", 1, Remedies::kNone, 0x4719f75cf86a3240ull},
    {"OP-II", 1, Remedies::kStack, 0xeeaac8bb1dd54d23ull},
    {"OP-II", 1, Remedies::kModel, 0xa8445ed80b548eacull},
    {"OP-II", 2, Remedies::kNone, 0x4719f75cf86a3240ull},
    {"OP-II", 2, Remedies::kStack, 0xeeaac8bb1dd54d23ull},
    {"OP-II", 2, Remedies::kModel, 0xa8445ed80b548eacull},
};

TEST(CrossCheckPinTest, ConformanceRunnerReports) {
  for (const auto& pin : kConformancePins) {
    core::ConformanceOptions opt;
    opt.seed = pin.seed;
    if (pin.remedies == Remedies::kStack) {
      opt.solutions.reactivate_bearer = true;  // S1
      opt.solutions.shim_layer = true;         // S2
      opt.solutions.mm_decoupled = true;       // S4
    }
    opt.model_solutions = pin.remedies == Remedies::kModel;
    const stack::CarrierProfile profile =
        std::string(pin.carrier) == "OP-I" ? stack::OpI() : stack::OpII();
    ASSERT_EQ(profile.name, pin.carrier);
    const auto results = core::ConformanceRunner(opt).RunAll(profile);
    ExpectDigest(std::string(pin.carrier) + " seed " +
                     std::to_string(pin.seed) + " remedies " +
                     std::to_string(static_cast<int>(pin.remedies)),
                 core::ConformanceRunner::Format(results), pin.digest);
  }
}

TEST(CrossCheckPinTest, ScreeningReports) {
  for (const bool fix : {false, true}) {
    core::ScreeningOptions opt;
    opt.with_solutions = fix;
    const auto report = core::ScreeningRunner(opt).RunAll();
    ExpectDigest(fix ? "screening with solutions" : "screening",
                 DropWallLines(core::ScreeningRunner::Format(report)),
                 fix ? 0x1ea8144107a85340ull : 0x74be5171839d47eaull);
  }
}

}  // namespace
}  // namespace cnv
