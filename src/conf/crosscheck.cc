#include "conf/crosscheck.h"

#include <utility>

#include "mck/parallel_explorer.h"
#include "mck/random_walk.h"

namespace cnv::conf {

namespace {

template <typename M>
ScenarioCheck MakeCheck(Scenario s, M configured, const M& baseline,
                        std::string property,
                        CompileResult (*compile)(const M&,
                                                 const mck::Violation<M>&)) {
  ScenarioCheck check;
  check.scenario = s;
  check.property = property;
  check.model_violation =
      !mck::Explore(configured, configured.Properties()).Holds(property);
  const auto base = mck::Explore(baseline, baseline.Properties());
  if (const auto* v = base.FindViolation(property)) {
    check.compiled = compile(baseline, *v);
  } else {
    check.compiled.error =
        "baseline model produced no counterexample for " + property;
  }
  check.walk = [m = std::move(configured), property = std::move(property)](
                   Rng& rng, std::uint64_t walks) {
    mck::WalkOptions wopt;
    wopt.walks = walks;
    wopt.max_steps_per_walk = 64;
    return !mck::RandomWalk(m, m.Properties(), rng, wopt).Holds(property);
  };
  return check;
}

}  // namespace

Verdict Classify(bool model_violation, bool sim_observed, bool refined) {
  if (model_violation && sim_observed) {
    return refined ? Verdict::kConfirmed : Verdict::kRefinementMismatch;
  }
  if (model_violation) return Verdict::kModelOnlyDivergence;
  if (sim_observed) return Verdict::kSimOnlyDivergence;
  return Verdict::kAgreedAbsent;
}

ScenarioCheck BuildScenarioCheck(Scenario s, model::SwitchPolicy csfb_policy,
                                 bool model_solutions) {
  switch (s) {
    case Scenario::kS1: {
      model::S1Model::Config cfg;
      cfg.fix_keep_context = model_solutions;
      cfg.fix_reactivate_bearer = model_solutions;
      return MakeCheck(s, model::S1Model(cfg), model::S1Model(),
                       model::kPacketServiceOk, &CompileS1);
    }
    case Scenario::kS2: {
      model::S2Model::Config cfg;
      cfg.reliable_shim = model_solutions;
      return MakeCheck(s, model::S2Model(cfg), model::S2Model(),
                       model::kPacketServiceOk, &CompileS2);
    }
    case Scenario::kS3: {
      // The carrier's CSFB return policy decides whether the stuck-in-3G
      // state is reachable at all. The script encodes the user behaviour
      // (data session, CSFB call, hang-up), so it always comes from the
      // cell-reselection model and is replayed on every carrier.
      model::S3Model::Config cfg;
      cfg.policy = csfb_policy;
      cfg.fix_csfb_tag = model_solutions;
      model::S3Model::Config base;
      base.policy = model::SwitchPolicy::kCellReselection;
      return MakeCheck(s, model::S3Model(cfg), model::S3Model(base),
                       model::kMmOk, &CompileS3);
    }
    case Scenario::kS4: {
      model::S4Model::Config cfg;
      cfg.decoupled = model_solutions;
      return MakeCheck(s, model::S4Model(cfg), model::S4Model(),
                       model::kCallServiceOk, &CompileS4);
    }
  }
  return {};
}

CrossCheckResult CrossCheck(const ScenarioCheck& check,
                            const stack::CarrierProfile& carrier,
                            const ReplayOptions& options) {
  CrossCheckResult r;
  const ScenarioScript& script = check.compiled.script;
  if (!check.compiled.ok) {
    r.verdict = Verdict::kBadCounterexample;
    r.detail = check.compiled.error;
    return r;
  }
  // Reproduction is only expected on a carrier whose policy admits the
  // counterexample (S3's stuck state needs cell reselection).
  if (check.model_violation && script.required_policy &&
      *script.required_policy != carrier.csfb_return_policy) {
    r.verdict = Verdict::kCarrierMismatch;
    r.detail = "counterexample requires the " +
               model::ToString(*script.required_policy) +
               " return policy; " + carrier.name + " uses " +
               model::ToString(carrier.csfb_return_policy);
    return r;
  }

  r.outcome = Replay(script, carrier, options);
  r.probe = r.outcome.HasProbe(check.scenario);
  const RefinementCheck refinement =
      CheckRefinement(AbstractTrace(r.outcome.records), script.expected);
  r.refined = refinement.refines;
  r.verdict = Classify(check.model_violation, r.probe, r.refined);
  if (r.verdict == Verdict::kRefinementMismatch) {
    r.detail =
        "probe reproduced, but the abstracted trace is missing, in order:";
    for (const auto k : refinement.missing) r.detail += " " + ToString(k);
  }
  return r;
}

}  // namespace cnv::conf
