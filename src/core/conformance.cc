#include "core/conformance.h"

#include "conf/abstract.h"
#include "conf/compile.h"
#include "conf/script.h"
#include "mck/parallel_explorer.h"
#include "model/s1_model.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"

namespace cnv::core {

namespace {

template <typename M>
mck::PropertySet<typename M::State> PropsOf(const M& m) {
  if constexpr (requires { M::Properties(); }) {
    (void)m;
    return M::Properties();
  } else {
    return m.Properties();
  }
}

// Everything one scenario cross-check needs: the configured model (decides
// the model-side verdict), the baseline defect-enabled model (provides the
// canonical counterexample the script is compiled from), the property under
// check, and the scenario's compiler.
template <typename M>
struct ScenarioPlan {
  M configured;
  M baseline;
  std::string property;
  conf::CompileResult (*compile)(const M&, const mck::Violation<M>&);
};

template <typename M>
ConformanceResult CrossCheckImpl(FindingId id, conf::Scenario scenario,
                                 const ScenarioPlan<M>& plan,
                                 const ConformanceOptions& options,
                                 const stack::CarrierProfile& profile) {
  ConformanceResult res;
  res.id = id;
  res.carrier = profile.name;

  mck::ExploreOptions eopt;
  eopt.reduction = options.reduction;
  res.model_violation =
      !mck::Explore(plan.configured, PropsOf(plan.configured), eopt)
           .Holds(plan.property);

  // The canonical counterexample always comes from the baseline model, so
  // the sim side can run (and catch sim-only divergences) even when the
  // configured model holds.
  const auto baseline_result =
      mck::Explore(plan.baseline, PropsOf(plan.baseline), eopt);
  const auto* violation = baseline_result.FindViolation(plan.property);
  if (violation == nullptr) {
    res.verdict = conf::Verdict::kBadCounterexample;
    res.detail = "baseline model produced no counterexample for " +
                 plan.property;
    return res;
  }
  mck::Violation<M> candidate = *violation;
  if (options.truncate_trace > 0 &&
      candidate.trace.size() > options.truncate_trace) {
    candidate.trace.resize(options.truncate_trace);
  }

  const conf::CompileResult compiled = plan.compile(plan.baseline, candidate);
  if (!compiled.ok) {
    res.verdict = conf::Verdict::kBadCounterexample;
    res.detail = compiled.error;
    return res;
  }
  res.counterexample = compiled.script.source;

  // Reproduction is only expected on a carrier whose policy admits the
  // counterexample (S3's stuck state needs cell reselection).
  if (res.model_violation && compiled.script.required_policy &&
      *compiled.script.required_policy != profile.csfb_return_policy) {
    res.verdict = conf::Verdict::kCarrierMismatch;
    res.detail = "counterexample requires the " +
                 model::ToString(*compiled.script.required_policy) +
                 " return policy; " + profile.name + " uses " +
                 model::ToString(profile.csfb_return_policy);
    return res;
  }

  conf::ReplayOptions ropt;
  ropt.seed = options.seed;
  ropt.solutions = options.solutions;
  const conf::ReplayOutcome outcome =
      conf::Replay(compiled.script, profile, ropt);
  res.probe_reproduced = outcome.HasProbe(scenario);
  const conf::RefinementCheck refinement = conf::CheckRefinement(
      conf::AbstractTrace(outcome.records), compiled.script.expected);
  res.refined = refinement.refines;
  res.verdict = ConformanceRunner::Classify(res.model_violation,
                                            res.probe_reproduced, res.refined);

  switch (res.verdict) {
    case conf::Verdict::kConfirmed:
      res.detail = "model violates " + plan.property +
                   "; replay reproduced the probe and the abstracted trace "
                   "refines the counterexample";
      break;
    case conf::Verdict::kAgreedAbsent:
      res.detail = "model holds " + plan.property +
                   " and the replay showed no probe";
      break;
    case conf::Verdict::kModelOnlyDivergence:
      res.detail = "model violates " + plan.property +
                   " but the replay showed no probe" +
                   (outcome.awaits_satisfied
                        ? std::string()
                        : "; replay stalled at: " + outcome.first_missed_await);
      break;
    case conf::Verdict::kSimOnlyDivergence:
      res.detail = "model holds " + plan.property +
                   " but the replay reproduced the probe";
      break;
    case conf::Verdict::kRefinementMismatch: {
      res.detail =
          "probe reproduced, but the abstracted trace is missing, in order:";
      for (const auto k : refinement.missing) {
        res.detail += " " + conf::ToString(k);
      }
      break;
    }
    default:
      break;
  }
  return res;
}

}  // namespace

ConformanceRunner::ConformanceRunner(ConformanceOptions options)
    : options_(std::move(options)) {}

conf::Verdict ConformanceRunner::Classify(bool model_violation,
                                          bool sim_observed, bool refined) {
  if (model_violation && sim_observed) {
    return refined ? conf::Verdict::kConfirmed
                   : conf::Verdict::kRefinementMismatch;
  }
  if (model_violation) return conf::Verdict::kModelOnlyDivergence;
  if (sim_observed) return conf::Verdict::kSimOnlyDivergence;
  return conf::Verdict::kAgreedAbsent;
}

ConformanceResult ConformanceRunner::CrossCheck(
    FindingId id, const stack::CarrierProfile& profile) const {
  switch (id) {
    case FindingId::kS1: {
      ScenarioPlan<model::S1Model> plan;
      model::S1Model::Config cfg;
      cfg.fix_keep_context = options_.model_solutions;
      cfg.fix_reactivate_bearer = options_.model_solutions;
      plan.configured = model::S1Model(cfg);
      plan.baseline = model::S1Model();
      plan.property = model::kPacketServiceOk;
      plan.compile = &conf::CompileS1;
      return CrossCheckImpl(id, conf::Scenario::kS1, plan, options_, profile);
    }
    case FindingId::kS2: {
      ScenarioPlan<model::S2Model> plan;
      model::S2Model::Config cfg;
      cfg.reliable_shim = options_.model_solutions;
      plan.configured = model::S2Model(cfg);
      plan.baseline = model::S2Model();
      plan.property = model::kPacketServiceOk;
      plan.compile = &conf::CompileS2;
      return CrossCheckImpl(id, conf::Scenario::kS2, plan, options_, profile);
    }
    case FindingId::kS3: {
      ScenarioPlan<model::S3Model> plan;
      model::S3Model::Config cfg;
      cfg.policy = options_.s3_policy.value_or(profile.csfb_return_policy);
      cfg.fix_csfb_tag = options_.model_solutions;
      plan.configured = model::S3Model(cfg);
      model::S3Model::Config base;
      base.policy = model::SwitchPolicy::kCellReselection;
      plan.baseline = model::S3Model(base);
      plan.property = model::kMmOk;
      plan.compile = &conf::CompileS3;
      return CrossCheckImpl(id, conf::Scenario::kS3, plan, options_, profile);
    }
    case FindingId::kS4: {
      ScenarioPlan<model::S4Model> plan;
      model::S4Model::Config cfg;
      cfg.decoupled = options_.model_solutions;
      plan.configured = model::S4Model(cfg);
      plan.baseline = model::S4Model();
      plan.property = model::kCallServiceOk;
      plan.compile = &conf::CompileS4;
      return CrossCheckImpl(id, conf::Scenario::kS4, plan, options_, profile);
    }
    default: {
      ConformanceResult res;
      res.id = id;
      res.carrier = profile.name;
      res.verdict = conf::Verdict::kAgreedAbsent;
      res.detail = ToString(id) +
                   " is a validation-only finding (no screening model to "
                   "cross-check)";
      return res;
    }
  }
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
