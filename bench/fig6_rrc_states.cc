// Regenerates Figure 6: (a) the RRC states each inter-system switching
// option can start from, enumerated from the S3 screening model; (b) the
// CSFB + high-rate-data trajectory that leaves the device pinned at DCH.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "mck/parallel_explorer.h"
#include "model/s3_model.h"

using namespace cnv;

namespace {

// Finds, for a policy, from which 3G RRC states the post-call switch back
// to 4G is enabled — by scanning every reachable state of the model.
void ReportPolicy(model::SwitchPolicy policy) {
  model::S3Model::Config cfg;
  cfg.policy = policy;
  model::S3Model m(cfg);

  bool from[3] = {false, false, false};
  // Enumerate reachable states by exhaustive exploration with a property
  // that never fails, then probe enabled() on each visited state. The
  // explorer does not expose its arena, so re-walk: collect states via a
  // recording property.
  std::vector<model::S3Model::State> seen;
  mck::PropertySet<model::S3Model::State> collect = {
      {"collect",
       [&seen](const model::S3Model::State& s) {
         seen.push_back(s);
         return true;
       },
       ""}};
  mck::Explore(m, collect);
  for (const auto& s : seen) {
    if (s.call != model::S3Model::Call::kEnded) continue;
    for (const auto& a : m.enabled(s)) {
      if (a.kind == model::S3Model::Kind::kSwitchBackTo4g) {
        from[static_cast<int>(s.rrc3g)] = true;
      }
    }
  }
  std::printf("%-38s starts from:", model::ToString(policy).c_str());
  const char* names[3] = {"IDLE", "FACH", "DCH"};
  bool any = false;
  for (int i = 0; i < 3; ++i) {
    if (from[i]) {
      std::printf(" %s", names[i]);
      any = true;
    }
  }
  if (!any) std::printf(" (never enabled in reachable states)");
  std::printf("\n");
}

}  // namespace

int main() {
  bench::Banner("RRC states in inter-system switching options",
                "Figure 6 (§5.3)");

  std::printf("(a) switch-back options and their admissible RRC states:\n");
  ReportPolicy(model::SwitchPolicy::kReleaseWithRedirect);
  ReportPolicy(model::SwitchPolicy::kHandover);
  ReportPolicy(model::SwitchPolicy::kCellReselection);

  std::printf("\n(b) CSFB + high-rate data trajectory:\n");
  model::S3Model m;
  auto s = m.initial();
  auto step = [&](model::S3Model::Action a) {
    s = m.apply(s, a);
    std::printf("  %-55s -> 3G-RRC %s, serving %s\n", m.describe(a).c_str(),
                model::ToString(s.rrc3g).c_str(),
                s.serving == model::S3Model::Sys::k3G ? "3G" : "4G");
  };
  step({model::S3Model::Kind::kStartData, model::DataRate::kHigh});
  step({model::S3Model::Kind::kMakeCsfbCall, {}});
  step({model::S3Model::Kind::kEndCall, {}});
  std::printf("  => stuck: %s (cell reselection needs IDLE; data pins DCH)\n",
              m.StuckIn3g(s) ? "YES" : "no");
  return 0;
}
