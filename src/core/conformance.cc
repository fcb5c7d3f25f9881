#include "core/conformance.h"

#include "conf/crosscheck.h"

namespace cnv::core {

ConformanceRunner::ConformanceRunner(ConformanceOptions options)
    : options_(std::move(options)) {}

conf::Verdict ConformanceRunner::Classify(bool model_violation,
                                          bool sim_observed, bool refined) {
  return conf::Classify(model_violation, sim_observed, refined);
}

ConformanceResult ConformanceRunner::CrossCheck(
    FindingId id, const stack::CarrierProfile& profile) const {
  ConformanceResult res;
  res.id = id;
  res.carrier = profile.name;
  if (id > FindingId::kS4) {
    res.detail = ToString(id) +
                 " is a validation-only finding (no screening model to "
                 "cross-check)";
    return res;
  }

  // S1..S4 share their order with conf::Scenario.
  const conf::ScenarioCheck check = conf::BuildScenarioCheck(
      static_cast<conf::Scenario>(id), profile.csfb_return_policy,
      options_.model_solutions);
  conf::ReplayOptions ropt;
  ropt.seed = options_.seed;
  ropt.solutions = options_.solutions;
  const conf::CrossCheckResult r = conf::CrossCheck(check, profile, ropt);
  res.verdict = r.verdict;
  res.model_violation = check.model_violation;
  res.probe_reproduced = r.probe;
  res.refined = r.refined;
  if (check.compiled.ok) res.counterexample = check.compiled.script.source;

  const std::string& property = check.property;
  switch (res.verdict) {
    case conf::Verdict::kConfirmed:
      res.detail = "model violates " + property +
                   "; replay reproduced the probe and the abstracted trace "
                   "refines the counterexample";
      break;
    case conf::Verdict::kAgreedAbsent:
      res.detail =
          "model holds " + property + " and the replay showed no probe";
      break;
    case conf::Verdict::kModelOnlyDivergence:
      res.detail = "model violates " + property +
                   " but the replay showed no probe" +
                   (r.outcome.awaits_satisfied
                        ? std::string()
                        : "; replay stalled at: " +
                              r.outcome.first_missed_await);
      break;
    case conf::Verdict::kSimOnlyDivergence:
      res.detail = "model holds " + property +
                   " but the replay reproduced the probe";
      break;
    default:
      res.detail = r.detail;
      break;
  }
  return res;
}

std::vector<ConformanceResult> ConformanceRunner::RunAll(
    const stack::CarrierProfile& profile) const {
  std::vector<ConformanceResult> out;
  for (const FindingId id :
       {FindingId::kS1, FindingId::kS2, FindingId::kS3, FindingId::kS4}) {
    out.push_back(CrossCheck(id, profile));
  }
  return out;
}

std::string ConformanceRunner::Format(
    const std::vector<ConformanceResult>& results) {
  std::string out = "=== CNetVerifier conformance phase ===\n";
  for (const auto& r : results) {
    out += "\n--- " + ToString(r.id) + " on " + r.carrier + " ---\n";
    out += "    verdict: " + conf::ToString(r.verdict) + "\n";
    out += "    " + r.detail + "\n";
    if (!r.counterexample.empty()) {
      out += "    " + r.counterexample;  // already multi-line, indented
    }
  }
  return out;
}

}  // namespace cnv::core
