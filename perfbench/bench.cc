// perfbench: the repository benchmark program. One process runs one workload
// and prints one JSON object as its last stdout line; perfbench/run.py
// builds this binary, attaches units from BENCHMARK.json and prints the
// human-readable report.
//
//   perfbench --workload pipeline|city|watchdog|model_check --seed N
//             --seconds S --trace 0|1 [--quick] [--expect-wrong]
//             [--spans PATH]
//
// --trace 0 measures the end-to-end metrics: the workload is set up 5 times
// (setup_s is the median), then runs closed-loop operations for S seconds;
// every timed figure is the median over those operations.
//
// --trace 1 records spans (name, start, end, parent, operation id) around
// the calls the benchmark makes into each layer's public functions, keeps
// them in memory and writes them at exit. A layer's self time is its span
// time minus the time its child spans cover. The traced run alternates
// untraced and traced operations of the named workload for S seconds (the
// difference is reported as the tracing overhead), then runs one traced
// operation of every other workload and the one-off layer probes, so each
// per-layer metric is always measured on the workload it belongs to.
//
// Every operation checks its outputs; an operation with any failed check
// counts toward `failed`. --expect-wrong corrupts one expected value per
// workload (digest, alert count, ...) so the self-test can prove that the
// checks bite.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "conf/abstract.h"
#include "conf/compile.h"
#include "conf/diff.h"
#include "conf/golden.h"
#include "conf/script.h"
#include "core/conformance.h"
#include "core/screening.h"
#include "core/validation.h"
#include "dist/executor.h"
#include "fault/campaign.h"
#include "fault/plan.h"
#include "mck/explorer.h"
#include "mck/parallel_explorer.h"
#include "model/combined_model.h"
#include "par/pool.h"
#include "rtv/gateway.h"
#include "rtv/monitors.h"
#include "stack/carrier.h"
#include "stack/city.h"
#include "trace/qxdm.h"

namespace cnv::perfbench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Every parallel leg uses half the hardware threads (at most 2), so a leg
// whose workers meet at barriers is not stalled whenever another process
// takes one of the cores.
int Jobs() { return std::max(1, std::min(par::HardwareJobs(), 4) / 2); }

// ---------------------------------------------------------------------------
// Tracing

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  std::uint64_t NewOp() { return ++op_; }

  int Open(const char* name) {
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, Now(), 0, stack_.empty() ? -1 : stack_.back(), op_});
    stack_.push_back(idx);
    return idx;
  }
  void Close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end = Now();
    stack_.pop_back();
  }

  // Self seconds per span name, summed over the spans of operation `op`.
  std::map<std::string, double> SelfSeconds(std::uint64_t op) const {
    std::vector<double> self(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].op != op) continue;
      const double d = spans_[i].end - spans_[i].start;
      self[i] += d;
      if (spans_[i].parent >= 0) self[static_cast<std::size_t>(spans_[i].parent)] -= d;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].op == op) out[spans_[i].name] += self[i];
    }
    return out;
  }

  // Median over operations of each span name's per-operation self time.
  std::map<std::string, double> MedianSelf(
      const std::vector<std::uint64_t>& ops) const {
    std::map<std::string, std::vector<double>> per_name;
    for (const auto op : ops) {
      for (const auto& [name, s] : SelfSeconds(op)) per_name[name].push_back(s);
    }
    std::map<std::string, double> out;
    for (auto& [name, v] : per_name) {
      v.resize(ops.size(), 0.0);  // an operation without the span spent 0
      out[name] = Median(v);
    }
    return out;
  }

  bool WriteJsonLines(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    char buf[512];
    for (const auto& s : spans_) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                    "\"parent\":%d,\"op\":%llu}\n",
                    s.name.c_str(), s.start, s.end, s.parent,
                    static_cast<unsigned long long>(s.op));
      f << buf;
    }
    return static_cast<bool>(f);
  }

 private:
  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

// Records one span for its scope when tracing is on; free otherwise.
class Span {
 public:
  explicit Span(const char* name)
      : idx_(GlobalTracer().enabled() ? GlobalTracer().Open(name) : -1) {}
  ~Span() {
    if (idx_ >= 0) GlobalTracer().Close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int idx_;
};

// ---------------------------------------------------------------------------
// Output checks and metric values

// Collects the failed output checks of one operation.
class Checker {
 public:
  explicit Checker(std::string where) : where_(std::move(where)) {}
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failures_;
    static int printed = 0;  // keep a run that fails every check readable
    if (++printed <= 10) {
      std::fprintf(stderr, "perfbench: %s: check failed: %s\n", where_.c_str(),
                   what.c_str());
    }
  }
  bool ok() const { return failures_ == 0; }

 private:
  std::string where_;
  int failures_ = 0;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Add(const Checker& c) {
    ++attempted;
    if (!c.ok()) ++failed;
  }
};

using Values = std::vector<std::pair<std::string, double>>;

double Get(const Values& v, const std::string& key) {
  for (const auto& [k, x] : v) {
    if (k == key) return x;
  }
  return 0;
}

// Median of each key over a list of per-operation values, in first-seen
// key order.
Values MedianByKey(const std::vector<Values>& samples) {
  Values out;
  if (samples.empty()) return out;
  for (const auto& [key, unused] : samples.front()) {
    (void)unused;
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(Get(s, key));
    out.emplace_back(key, Median(std::move(v)));
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  bool expect_wrong = false;
  std::string spans_path;
};

// One benchmark workload. Construction is free; everything that happens
// before the first timed operation lives in Setup() and counts toward
// setup_s.
class Workload {
 public:
  virtual ~Workload() = default;
  // Inputs, pools, reference outputs and one warm-up operation.
  virtual void Setup() = 0;
  // One closed-loop operation; values keyed by metric name, and always an
  // "op_s" entry with the operation's wall time.
  virtual Values Op(Checker& check) = 0;
  // Traced run only: the per-layer metrics, from the spans of the traced
  // operations `ops` (whose values are `samples`) plus one-off probes.
  virtual void Layers(const std::vector<std::uint64_t>& ops,
                      const std::vector<Values>& samples, Values& out,
                      Checker& check) = 0;
};

constexpr core::FindingId kScreenedFindings[] = {
    core::FindingId::kS1, core::FindingId::kS2, core::FindingId::kS3,
    core::FindingId::kS4};

// ---------------------------------------------------------------------------
// pipeline: screening -> DiffSweep -> validation -> chaos campaign ->
// offline diagnose of every campaign trace.

// One conformance cross-check through the public conf functions, mirroring
// core::ConformanceRunner::CrossCheck with default options.
template <typename M>
conf::Verdict CrossCheck(const M& configured, const M& baseline,
                         const std::string& property,
                         conf::CompileResult (*compile)(const M&,
                                                        const mck::Violation<M>&),
                         conf::Scenario scenario,
                         const stack::CarrierProfile& profile,
                         std::uint64_t seed) {
  Span span("conf.crosscheck");
  bool model_violation = false;
  std::vector<mck::Violation<M>> baseline_violations;
  {
    Span s("mck.explore");
    model_violation =
        !mck::Explore(configured, configured.Properties()).Holds(property);
    baseline_violations =
        mck::Explore(baseline, baseline.Properties()).violations;
  }
  const mck::Violation<M>* violation = nullptr;
  for (const auto& v : baseline_violations) {
    if (v.property == property) violation = &v;
  }
  if (violation == nullptr) return conf::Verdict::kBadCounterexample;
  conf::CompileResult compiled;
  {
    Span s("conf.compile");
    compiled = compile(baseline, *violation);
  }
  if (!compiled.ok) return conf::Verdict::kBadCounterexample;
  if (model_violation && compiled.script.required_policy &&
      *compiled.script.required_policy != profile.csfb_return_policy) {
    return conf::Verdict::kCarrierMismatch;
  }
  conf::ReplayOutcome outcome;
  {
    Span s("conf.replay");
    conf::ReplayOptions ropt;
    ropt.seed = seed;
    outcome = conf::Replay(compiled.script, profile, ropt);
  }
  std::vector<conf::AbstractEvent> abstracted;
  {
    Span s("conf.abstract");
    abstracted = conf::AbstractTrace(outcome.records);
  }
  bool refined = false;
  {
    Span s("conf.refine");
    refined =
        conf::CheckRefinement(abstracted, compiled.script.expected).refines;
  }
  return core::ConformanceRunner::Classify(
      model_violation, outcome.HasProbe(scenario), refined);
}

conf::Verdict CrossCheck(core::FindingId id,
                         const stack::CarrierProfile& profile,
                         std::uint64_t seed) {
  switch (id) {
    case core::FindingId::kS1:
      return CrossCheck(model::S1Model(), model::S1Model(),
                        model::kPacketServiceOk, &conf::CompileS1,
                        conf::Scenario::kS1, profile, seed);
    case core::FindingId::kS2:
      return CrossCheck(model::S2Model(), model::S2Model(),
                        model::kPacketServiceOk, &conf::CompileS2,
                        conf::Scenario::kS2, profile, seed);
    case core::FindingId::kS3: {
      model::S3Model::Config configured;
      configured.policy = profile.csfb_return_policy;
      model::S3Model::Config base;
      base.policy = model::SwitchPolicy::kCellReselection;
      return CrossCheck(model::S3Model(configured), model::S3Model(base),
                        model::kMmOk, &conf::CompileS3, conf::Scenario::kS3,
                        profile, seed);
    }
    default:
      return CrossCheck(model::S4Model(), model::S4Model(),
                        model::kCallServiceOk, &conf::CompileS4,
                        conf::Scenario::kS4, profile, seed);
  }
}

class Pipeline final : public Workload {
 public:
  explicit Pipeline(const Options& o) : o_(o) {}

  void Setup() override {
    jobs_ = Jobs();
    sopt_.seed = o_.seed;
    sopt_.jobs = jobs_;
    dopt_.seeds = o_.quick ? 2 : 64;
    dopt_.seed_base = 1 + o_.seed * dopt_.seeds;
    dopt_.jobs = jobs_;
    vopt_.seed = o_.seed;
    const std::uint64_t campaign_seeds = o_.quick ? 1 : 8;
    ccfg_.seeds.clear();
    for (std::uint64_t i = 0; i < campaign_seeds; ++i) {
      ccfg_.seeds.push_back(1 + o_.seed * campaign_seeds + i);
    }
    ccfg_.plans = fault::plans::All();
    ccfg_.profiles = {stack::OpI(), stack::OpII()};
    ccfg_.parallelism = jobs_;
    campaign_cells_ =
        ccfg_.seeds.size() * ccfg_.plans.size() * ccfg_.profiles.size();
    diff_cells_ = dopt_.seeds * 4 * 2;

    Checker warm("pipeline warm-up");
    Op(warm);
    summary_ref_ = summary_;
    if (o_.expect_wrong) summary_ref_ += "!";
  }

  Values Op(Checker& c) override {
    Span root("pipeline");
    const double t0 = Now();
    {
      Span s("core.screen");
      const auto report = core::ScreeningRunner(sopt_).RunAll();
      for (const auto id : kScreenedFindings) {
        c.Expect(report.Found(id), "screening misses " + core::ToString(id));
      }
      screen_states_ = report.total_states;
    }
    const double t1 = Now();
    {
      Span s("conf.diff");
      const auto diff = conf::DifferentialDriver(dopt_).Run();
      c.Expect(diff.complete && diff.cells.size() == diff_cells_,
               "DiffSweep ran " + std::to_string(diff.cells.size()) + " of " +
                   std::to_string(diff_cells_) + " cells");
      c.Expect(diff.unexplained_divergences == 0,
               std::to_string(diff.unexplained_divergences) +
                   " unexplained DiffSweep divergences");
      unexplained_ = diff.unexplained_divergences;
    }
    const double t2 = Now();
    {
      Span s("core.validate");
      const core::ValidationRunner runner(vopt_);
      for (const auto& profile : ccfg_.profiles) {
        c.Expect(runner.RunAll(profile).size() == 6,
                 "validation did not run six experiments on " + profile.name);
      }
    }
    const double t3 = Now();
    fault::CampaignResult campaign;
    {
      Span s("fault.campaign");
      campaign = fault::CampaignRunner(ccfg_, /*keep_traces=*/true).Run();
    }
    const double t4 = Now();
    std::set<std::string> reproduced;
    for (const auto& run : campaign.runs) {
      for (const auto& f : run.report.findings) reproduced.insert(f.id);
    }
    c.Expect(campaign.complete && campaign.quarantined.empty() &&
                 campaign.runs.size() == campaign_cells_,
             "campaign incomplete or quarantined cells");
    for (const char* id : {"S1", "S2", "S3", "S4", "S5", "S6"}) {
      c.Expect(reproduced.count(id) == 1,
               std::string("campaign does not reproduce ") + id);
    }
    summary_ = campaign.Summary();
    if (!summary_ref_.empty()) {
      c.Expect(summary_ == summary_ref_,
               "campaign Summary() differs from the first iteration");
    }
    std::size_t skipped = 0;
    std::size_t alerts = 0;
    campaign_records_ = 0;
    {
      Span s("diagnose");
      for (const auto& run : campaign.runs) {
        trace::ParseLogStats stats;
        std::vector<trace::TraceRecord> records;
        {
          Span p("trace.parse");
          records = trace::ParseLogStrict(run.trace_log, &stats);
        }
        skipped += stats.skipped;
        campaign_records_ += records.size();
        Span d("rtv.diagnose");
        rtv::FindingMonitors monitors;
        std::vector<rtv::Alert> out;
        std::uint64_t ordinal = 0;
        for (const auto& r : records) monitors.Step(r, ordinal++, &out);
        alerts += out.size();
      }
    }
    const double t5 = Now();
    c.Expect(skipped == 0,
             "diagnose skipped " + std::to_string(skipped) + " lines");
    c.Expect(alerts > 0, "diagnose raised no alerts on the campaign traces");
    return {{"op_s", t5 - t0},
            {"conformance_cells_per_s",
             static_cast<double>(diff_cells_) / (t2 - t1)},
            {"campaign_cells_per_s",
             static_cast<double>(campaign_cells_) / (t4 - t3)}};
  }

  void Layers(const std::vector<std::uint64_t>& ops,
              const std::vector<Values>& samples, Values& out,
              Checker& c) override {
    (void)samples;
    const auto self = GlobalTracer().MedianSelf(ops);
    auto at = [](const std::map<std::string, double>& m, const char* k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    out.emplace_back("core.screen_s", at(self, "core.screen"));
    out.emplace_back("core.validate_s", at(self, "core.validate"));
    out.emplace_back("conf.diff_s", at(self, "conf.diff"));
    out.emplace_back("fault.campaign_s", at(self, "fault.campaign"));
    out.emplace_back("trace.parse_s", at(self, "trace.parse"));
    out.emplace_back("rtv.diagnose_s", at(self, "rtv.diagnose"));

    // One cross-check per S1-S4 x carrier through the public conf
    // functions; verdicts must equal ConformanceRunner's.
    const std::uint64_t xop = GlobalTracer().NewOp();
    core::ConformanceOptions copt;
    copt.seed = o_.seed;
    const core::ConformanceRunner conformance(copt);
    for (const auto& profile : ccfg_.profiles) {
      std::vector<core::ConformanceResult> expected;
      {
        Span s("core.conformance");
        expected = conformance.RunAll(profile);
      }
      for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto id = kScreenedFindings[i];
        const conf::Verdict v = CrossCheck(id, profile, o_.seed);
        c.Expect(v == expected[i].verdict,
                 "cross-check " + core::ToString(id) + " on " + profile.name +
                     ": " + conf::ToString(v) + " vs runner " +
                     conf::ToString(expected[i].verdict));
      }
    }
    const auto xself = GlobalTracer().SelfSeconds(xop);
    out.emplace_back("mck.explore_s", at(xself, "mck.explore"));
    out.emplace_back("conf.compile_s", at(xself, "conf.compile"));
    out.emplace_back("conf.replay_s", at(xself, "conf.replay"));
    out.emplace_back("conf.abstract_s", at(xself, "conf.abstract"));
    out.emplace_back("conf.refine_s", at(xself, "conf.refine"));

    // Every campaign cell timed serially through RunOne.
    GlobalTracer().NewOp();
    const fault::CampaignRunner runner(ccfg_, /*keep_traces=*/true);
    std::vector<double> cells;
    for (const auto seed : ccfg_.seeds) {
      for (const auto& plan : ccfg_.plans) {
        for (const auto& profile : ccfg_.profiles) {
          Span s("fault.cell");
          const double t = Now();
          const auto run = runner.RunOne(seed, plan, profile);
          cells.push_back(Now() - t);
          c.Expect(!run.trace_log.empty(), "RunOne kept no trace");
        }
      }
    }
    double cell_sum = 0;
    for (const double x : cells) cell_sum += x;
    out.emplace_back("fault.cell_s_p50", Median(cells));
    out.emplace_back("fault.cell_s_max",
                     *std::max_element(cells.begin(), cells.end()));
    out.emplace_back("dist.efficiency",
                     cell_sum / (jobs_ * at(self, "fault.campaign")));
    out.emplace_back("fault.cells", static_cast<double>(campaign_cells_));
    out.emplace_back("conf.cells", static_cast<double>(diff_cells_));
    out.emplace_back("conf.unexplained", static_cast<double>(unexplained_));
    out.emplace_back("mck.screen_states", static_cast<double>(screen_states_));
    out.emplace_back("trace.campaign_records",
                     static_cast<double>(campaign_records_));
  }

 private:
  const Options o_;
  int jobs_ = 1;
  core::ScreeningOptions sopt_;
  conf::DiffOptions dopt_;
  core::ValidationOptions vopt_;
  fault::CampaignConfig ccfg_;
  std::size_t campaign_cells_ = 0;
  std::size_t diff_cells_ = 0;
  std::string summary_;
  std::string summary_ref_;
  std::uint64_t screen_states_ = 0;
  std::uint64_t unexplained_ = 0;
  std::uint64_t campaign_records_ = 0;
};

// ---------------------------------------------------------------------------
// city: CityEngine busy hour, serial and at N jobs, plus a small city
// serially. The N-job leg waits at 12,000 window barriers, so on a shared VM
// its wall time follows the host's CPU steal (it doubled within one run while
// the serial leg moved by a fifth); its throughput is therefore a per-layer
// figure, and the generic figures come from the two serial legs: the large
// city and a small one whose working set fits the caches far better.

// The perf_city busy-hour configuration.
stack::CityConfig CityConfigFor(std::uint32_t ues, std::uint64_t seed) {
  stack::CityConfig cfg;
  cfg.ues = ues;
  cfg.cells = std::max<std::uint32_t>(16, ues / 250);
  cfg.horizon = Minutes(10);
  cfg.seed = seed;
  cfg.activity_mean_s = 30.0;
  cfg.paging_mean_s = 45.0;
  cfg.dwell_mean_s = 60.0;
  cfg.sample_every = std::max<std::uint32_t>(1, ues / 64);
  return cfg;
}

class City final : public Workload {
 public:
  explicit City(const Options& o) : o_(o) {}

  void Setup() override {
    jobs_ = Jobs();
    cfg_ = CityConfigFor(o_.quick ? 2'000 : 50'000, o_.seed);
    small_cfg_ = CityConfigFor(o_.quick ? 1'000 : 10'000, o_.seed);
    pool_ = std::make_unique<par::WorkerPool>(jobs_);
    // A cold first run is much slower than later ones (fresh arena pages),
    // so the warm-up runs belong to set-up. They run serially, like the
    // legs behind the generic figures, so setup_s does not follow host CPU
    // steal either.
    stack::CityEngine warm(cfg_, stack::CityKernelMode::kWheel);
    expected_digest_ = warm.Run(nullptr).digest;
    stack::CityEngine small(small_cfg_, stack::CityKernelMode::kWheel);
    expected_small_digest_ = small.Run(nullptr).digest;
    if (o_.expect_wrong) expected_digest_ ^= 1;
  }

  Values Op(Checker& c) override {
    double serial_wall = 0;
    double parallel_wall = 0;
    {
      stack::CityEngine engine(cfg_, stack::CityKernelMode::kWheel);
      Span s("city.serial");
      const double t = Now();
      serial_ = engine.Run(nullptr);
      serial_wall = Now() - t;
    }
    {
      stack::CityEngine engine(cfg_, stack::CityKernelMode::kWheel);
      Span s("city.parallel");
      const double t = Now();
      parallel_ = engine.Run(pool());
      parallel_wall = Now() - t;
    }
    double small_wall = 0;
    stack::CityReport small;
    {
      stack::CityEngine engine(small_cfg_, stack::CityKernelMode::kWheel);
      Span s("city.small_serial");
      const double t = Now();
      small = engine.Run(nullptr);
      small_wall = Now() - t;
    }
    c.Expect(serial_.digest == parallel_.digest &&
                 serial_.events_executed == parallel_.events_executed &&
                 serial_.trace_emitted == parallel_.trace_emitted,
             "serial and parallel city runs differ");
    c.Expect(parallel_.digest == expected_digest_,
             "city digest differs from the warm-up run");
    c.Expect(serial_.attaches_completed == cfg_.ues &&
                 parallel_.attaches_completed == cfg_.ues,
             "attaches_completed " +
                 std::to_string(parallel_.attaches_completed) + " != UEs " +
                 std::to_string(cfg_.ues));
    c.Expect(small.digest == expected_small_digest_ &&
                 small.attaches_completed == small_cfg_.ues,
             "small city differs from its warm-up run");
    const auto productive =
        static_cast<double>(parallel_.events_executed - parallel_.stale_events);
    const auto small_productive =
        static_cast<double>(small.events_executed - small.stale_events);
    return {{"op_s", serial_wall + small_wall},
            {"city_serial_events_per_s", productive / serial_wall},
            {"city_small_events_per_s", small_productive / small_wall},
            {"city_events_per_s", productive / parallel_wall},
            {"serial_wall_s", serial_wall},
            {"parallel_wall_s", parallel_wall}};
  }

  void Layers(const std::vector<std::uint64_t>& ops,
              const std::vector<Values>& samples, Values& out,
              Checker& c) override {
    (void)ops;
    (void)c;
    const Values med = MedianByKey(samples);
    const double serial_wall = Get(med, "serial_wall_s");
    const double parallel_wall = Get(med, "parallel_wall_s");

    // Barrier cost from outside: an empty ParallelEach over the cells.
    GlobalTracer().NewOp();
    const int reps = o_.quick ? 200 : 2000;
    double barrier_s = 0;
    {
      Span s("par.barrier");
      const double t = Now();
      for (int i = 0; i < reps; ++i) {
        pool_->ParallelEach(cfg_.cells, [](int, std::size_t) {});
      }
      barrier_s = (Now() - t) / reps;
    }
    const auto& r = parallel_;
    const auto& w = serial_.wheel;
    out.emplace_back("city.parallel_events_per_s",
                     Get(med, "city_events_per_s"));
    out.emplace_back("city.speedup", serial_wall / parallel_wall);
    out.emplace_back("par.barrier_us", barrier_s * 1e6);
    out.emplace_back("city.barrier_share",
                     static_cast<double>(r.windows) * barrier_s / parallel_wall);
    out.emplace_back("city.windows", static_cast<double>(r.windows));
    out.emplace_back("city.shard_stalls", static_cast<double>(r.shard_stalls));
    out.emplace_back("city.stall_ratio",
                     static_cast<double>(r.shard_stalls) /
                         (static_cast<double>(r.windows) * cfg_.cells));
    out.emplace_back("city.cross_cell_messages",
                     static_cast<double>(r.cross_cell_messages));
    out.emplace_back("city.events_executed",
                     static_cast<double>(serial_.events_executed));
    out.emplace_back("city.stale_events",
                     static_cast<double>(serial_.stale_events));
    out.emplace_back("sim.wheel.reaped", static_cast<double>(w.reaped));
    out.emplace_back("sim.wheel.cascaded", static_cast<double>(w.cascaded));
    out.emplace_back("sim.wheel.sorted_ticks",
                     static_cast<double>(w.sorted_ticks));
    out.emplace_back("sim.reap_ratio",
                     static_cast<double>(w.reaped) /
                         static_cast<double>(w.reaped + serial_.stale_events));
    out.emplace_back("city.bytes_per_ue", serial_.bytes_per_ue);
  }

 private:
  par::WorkerPool* pool() { return jobs_ > 1 ? pool_.get() : nullptr; }

  const Options o_;
  int jobs_ = 1;
  stack::CityConfig cfg_;
  stack::CityConfig small_cfg_;
  std::unique_ptr<par::WorkerPool> pool_;
  std::uint64_t expected_digest_ = 0;
  std::uint64_t expected_small_digest_ = 0;
  stack::CityReport serial_;
  stack::CityReport parallel_;
};

// ---------------------------------------------------------------------------
// watchdog: the golden S1-S6 corpus repeated to ~500k records through the
// rtv gateway, on one stream and split over four.

class Watchdog final : public Workload {
 public:
  explicit Watchdog(const Options& o) : o_(o) {}

  void Setup() override {
    corpus_.clear();
    for (const auto& scenario : conf::GoldenScenarios()) {
      corpus_ += scenario.generate();
    }
    parsed_ = trace::ParseLog(corpus_);
    const std::size_t target = o_.quick ? 20'000 : 500'000;
    reps_ = (target + parsed_.size() - 1) / parsed_.size();
    records_ = reps_ * parsed_.size();
    // Balanced round-robin over four streams, in a seeded order: whole
    // repetitions, so every stream still sees complete scenarios.
    streams_.resize(reps_);
    for (std::size_t i = 0; i < reps_; ++i) {
      streams_[i] = static_cast<std::uint32_t>(i % 4);
    }
    std::uint64_t state = o_.seed * 0x9E3779B97F4A7C15ull + 1;
    for (std::size_t i = reps_; i > 1; --i) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      std::swap(streams_[i - 1], streams_[state % i]);
    }
    expected_alerts_ = 9 * reps_ + (o_.expect_wrong ? 1 : 0);
    // References: the inline gateway on the same bytes.
    ref_one_ = Feed(/*threaded=*/false, /*four=*/false).log;
    ref_four_ = Feed(/*threaded=*/false, /*four=*/true).log;
  }

  Values Op(Checker& c) override {
    const double t0 = Now();
    Run one;
    Run four;
    {
      Span s("rtv.gateway_x1");
      one = Feed(/*threaded=*/true, /*four=*/false);
    }
    {
      Span s("rtv.gateway_x4");
      four = Feed(/*threaded=*/true, /*four=*/true);
    }
    const double t1 = Now();
    c.Expect(one.log == ref_one_, "1-stream alert log differs from inline");
    c.Expect(four.log == ref_four_, "4-stream alert log differs from inline");
    c.Expect(one.stats.alerts == expected_alerts_ &&
                 four.stats.alerts == expected_alerts_,
             "alert count " + std::to_string(one.stats.alerts) + " != " +
                 std::to_string(expected_alerts_));
    c.Expect(one.stats.records_processed == records_ &&
                 four.stats.records_processed == records_,
             "gateway processed " +
                 std::to_string(one.stats.records_processed) + " of " +
                 std::to_string(records_) + " records");
    last_one_ = one;
    const auto n = static_cast<double>(records_);
    return {{"op_s", t1 - t0},
            {"watchdog_records_per_s", n / one.wall},
            {"watchdog_records_per_s_x4", n / four.wall},
            {"x1_wall_s", one.wall},
            {"x4_wall_s", four.wall}};
  }

  void Layers(const std::vector<std::uint64_t>& ops,
              const std::vector<Values>& samples, Values& out,
              Checker& c) override {
    (void)ops;
    const Values med = MedianByKey(samples);
    const auto n = static_cast<double>(records_);
    const std::uint64_t op = GlobalTracer().NewOp();
    double inline_wall = 0;
    {
      Span s("rtv.gateway_inline");
      const Run inline_run = Feed(/*threaded=*/false, /*four=*/false);
      inline_wall = inline_run.wall;
      c.Expect(inline_run.log == ref_one_, "inline gateway is not repeatable");
    }
    std::size_t parsed = 0;
    {
      Span s("trace.parse");
      for (std::size_t i = 0; i < reps_; ++i) {
        parsed += trace::ParseLog(corpus_).size();
      }
    }
    c.Expect(parsed == records_, "ParseLog record count changed");
    // Step abstracts each record itself, so the monitors' own cost is Step
    // minus MatchAbstractKind. The two loops alternate in slices so that
    // machine drift during the probe lands on both alike.
    std::size_t hits = 0;
    std::vector<rtv::Alert> alerts;
    rtv::FindingMonitors monitors;
    std::uint64_t ordinal = 0;
    constexpr std::size_t kSlices = 8;
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
      const std::size_t begin = reps_ * slice / kSlices;
      const std::size_t end = reps_ * (slice + 1) / kSlices;
      {
        Span s("conf.abstract");
        for (std::size_t i = begin; i < end; ++i) {
          for (const auto& r : parsed_) {
            hits += conf::MatchAbstractKind(r).has_value() ? 1 : 0;
          }
        }
      }
      Span s("rtv.step");
      for (std::size_t i = begin; i < end; ++i) {
        for (const auto& r : parsed_) monitors.Step(r, ordinal++, &alerts);
      }
    }
    c.Expect(alerts.size() == expected_alerts_,
             "FindingMonitors raised " + std::to_string(alerts.size()) +
                 " alerts");
    const auto self = GlobalTracer().SelfSeconds(op);
    const double abstract_s = self.at("conf.abstract");
    out.emplace_back("trace.parse_ns_per_record",
                     self.at("trace.parse") / n * 1e9);
    out.emplace_back("conf.abstract_ns_per_record", abstract_s / n * 1e9);
    out.emplace_back("conf.abstract_hit_ratio", static_cast<double>(hits) / n);
    out.emplace_back("rtv.monitor_ns_per_record",
                     (self.at("rtv.step") - abstract_s) / n * 1e9);
    out.emplace_back("rtv.ring_handoff_ns_per_record",
                     (Get(med, "x1_wall_s") - inline_wall) / n * 1e9);
    out.emplace_back(
        "rtv.stream_overhead_ns_per_record",
        (Get(med, "x4_wall_s") - Get(med, "x1_wall_s")) / n * 1e9);
    out.emplace_back("rtv.queue_peak",
                     static_cast<double>(last_one_.stats.queue_peak));
    out.emplace_back("rtv.latency_p50_us", last_one_.p50_us);
    out.emplace_back("rtv.latency_p99_us", last_one_.p99_us);
    out.emplace_back("rtv.records", n);
    out.emplace_back("rtv.alerts", static_cast<double>(alerts.size()));
  }

 private:
  struct Run {
    double wall = 0;
    std::string log;
    rtv::GatewayStats stats;
    double p50_us = 0;
    double p99_us = 0;
  };

  // Feeds every repetition in 64 KiB chunks; times Feed through Finish.
  Run Feed(bool threaded, bool four) {
    constexpr std::size_t kChunk = 64 * 1024;
    rtv::GatewayConfig cfg;
    cfg.threaded = threaded;
    rtv::Gateway gw(cfg);
    gw.Start();
    const double t0 = Now();
    const std::string_view bytes(corpus_);
    for (std::size_t rep = 0; rep < reps_; ++rep) {
      const std::uint32_t stream = four ? streams_[rep] : 0;
      for (std::size_t off = 0; off < bytes.size(); off += kChunk) {
        gw.Feed(stream, bytes.substr(off, kChunk));
      }
    }
    gw.Finish();
    Run out;
    out.wall = Now() - t0;
    out.stats = gw.stats();
    out.log = gw.AlertLog();
    auto& reg = gw.registry();
    if (reg.Has("rtv.record_latency_us")) {
      const auto& h = reg.GetHistogram("rtv.record_latency_us");
      if (h.Count() > 0) {
        out.p50_us = h.Percentile(50);
        out.p99_us = h.Percentile(99);
      }
    }
    return out;
  }

  const Options o_;
  std::string corpus_;
  std::vector<trace::TraceRecord> parsed_;
  std::size_t reps_ = 0;
  std::size_t records_ = 0;
  std::vector<std::uint32_t> streams_;
  std::size_t expected_alerts_ = 0;
  std::string ref_one_;
  std::string ref_four_;
  Run last_one_;
};

// ---------------------------------------------------------------------------
// model_check: the combined CSFB+LU+PDP model at 4 UEs, explored three ways.

template <typename R>
std::set<std::string> Violated(const R& result) {
  std::set<std::string> out;
  for (const auto& v : result.violations) out.insert(v.property);
  return out;
}

class ModelCheck final : public Workload {
 public:
  explicit ModelCheck(const Options& o) : o_(o) {}

  void Setup() override {
    jobs_ = Jobs();
    model::CombinedModel::Config cfg;
    // 4 is CombinedModel::kMaxUes, the largest size the model supports.
    cfg.ues = o_.quick ? 3 : 4;
    model_ = model::CombinedModel(cfg);
    props_ = model_.Properties();
    exec_ = std::make_unique<dist::Executor>(jobs_);
    // One exploration takes milliseconds; ten warm-ups let the allocator
    // and the pool settle, and keep setup_s long enough to measure.
    Checker warm("model_check warm-up");
    for (int i = 0; i < 10; ++i) Op(warm);
    expected_states_ = serial_.states_visited + (o_.expect_wrong ? 1 : 0);
  }

  Values Op(Checker& c) override {
    const double t0 = Now();
    std::set<std::string> full_violated;
    {
      Span s("mck.full_serial");
      const auto r = mck::Explore(model_, props_);
      serial_ = r.stats;
      full_violated = Violated(r);
    }
    const double t1 = Now();
    mck::ExploreStats parallel;
    {
      Span s("mck.full_parallel");
      mck::ParallelExploreOptions popt;
      popt.jobs = jobs_;
      const auto r = mck::ParallelExplore(model_, props_, popt, exec_.get());
      parallel = r.stats;
      par_ = r.par;
      c.Expect(Violated(r) == full_violated,
               "parallel run violates a different property set");
    }
    const double t2 = Now();
    {
      Span s("mck.reduced");
      mck::ParallelExploreOptions popt;
      popt.jobs = 1;
      popt.base.reduction.por = true;
      popt.base.reduction.symmetry = true;
      const auto r = mck::ParallelExplore(model_, props_, popt);
      reduced_ = r.stats;
      c.Expect(Violated(r) == full_violated,
               "reduced run violates a different property set");
    }
    const double t3 = Now();
    c.Expect(mck::DeterministicView(serial_, false) ==
                 mck::DeterministicView(parallel, false),
             "serial and parallel exploration stats differ: " +
                 mck::ToString(mck::DeterministicView(serial_, false)) +
                 " vs " + mck::ToString(mck::DeterministicView(parallel, false)));
    if (expected_states_ != 0) {
      c.Expect(serial_.states_visited == expected_states_,
               "explored " + std::to_string(serial_.states_visited) +
                   " states, expected " + std::to_string(expected_states_));
    }
    // The parallel leg's wall follows host CPU steal (its N workers meet at
    // every BFS wave), so op_s counts the two single-threaded explorations.
    const auto states = static_cast<double>(serial_.states_visited);
    return {{"op_s", (t1 - t0) + (t3 - t2)},
            {"explore_states_per_s", states / (t1 - t0)},
            {"explore_reduced_states_per_s",
             static_cast<double>(reduced_.states_visited) / (t3 - t2)},
            {"explore_parallel_states_per_s", states / (t2 - t1)},
            {"explore_reduced_s", t3 - t2},
            {"serial_wall_s", t1 - t0},
            {"parallel_wall_s", t2 - t1}};
  }

  void Layers(const std::vector<std::uint64_t>& ops,
              const std::vector<Values>& samples, Values& out,
              Checker& c) override {
    (void)ops;
    (void)c;
    const Values med = MedianByKey(samples);
    out.emplace_back("mck.states", static_cast<double>(serial_.states_visited));
    out.emplace_back("mck.transitions",
                     static_cast<double>(serial_.transitions));
    out.emplace_back("mck.frontier_peak",
                     static_cast<double>(serial_.frontier_peak));
    out.emplace_back("mck.hash_occupancy", serial_.hash_occupancy);
    out.emplace_back("mck.parallel_states_per_s",
                     Get(med, "explore_parallel_states_per_s"));
    out.emplace_back("mck.waves", static_cast<double>(par_.waves));
    out.emplace_back("mck.par_utilization", par_.utilization);
    out.emplace_back("mck.par_slowdown",
                     Get(med, "parallel_wall_s") / Get(med, "serial_wall_s"));
    out.emplace_back("mck.reduced_states",
                     static_cast<double>(reduced_.states_visited));
    out.emplace_back("mck.ample_states",
                     static_cast<double>(reduced_.ample_states));
    out.emplace_back("mck.reduction_factor",
                     static_cast<double>(serial_.states_visited) /
                         static_cast<double>(reduced_.states_visited));
  }

 private:
  const Options o_;
  int jobs_ = 1;
  model::CombinedModel model_;
  mck::PropertySet<model::CombinedModel::State> props_;
  std::unique_ptr<dist::Executor> exec_;
  std::uint64_t expected_states_ = 0;
  mck::ExploreStats serial_;
  mck::ExploreStats reduced_;
  mck::ParallelExploreStats par_;
};

// ---------------------------------------------------------------------------
// Entry point

constexpr const char* kWorkloads[] = {"pipeline", "city", "watchdog",
                                      "model_check"};

std::unique_ptr<Workload> Make(const std::string& name, const Options& o) {
  if (name == "pipeline") return std::make_unique<Pipeline>(o);
  if (name == "city") return std::make_unique<City>(o);
  if (name == "watchdog") return std::make_unique<Watchdog>(o);
  return std::make_unique<ModelCheck>(o);
}

// setup_s is the median of this many set-ups.
constexpr int kSetups = 5;

Values EndToEnd(const Options& o, Tally& tally) {
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < kSetups; ++k) {
    w.reset();
    const double t = Now();
    w = Make(o.workload, o);
    w->Setup();
    setups.push_back(Now() - t);
  }
  std::vector<Values> samples;
  const double t0 = Now();
  do {
    Checker c(o.workload);
    samples.push_back(w->Op(c));
    tally.Add(c);
  } while (Now() - t0 < o.seconds);

  Values out;
  out.emplace_back("setup_s", Median(setups));
  out.emplace_back("peak_rss_mb", PeakRssMb());
  for (const auto& kv : MedianByKey(samples)) out.push_back(kv);
  out.emplace_back("operations", static_cast<double>(samples.size()));
  return out;
}

Values Traced(const Options& o, Tally& tally) {
  std::vector<std::string> order = {o.workload};
  for (const char* name : kWorkloads) {
    if (name != o.workload) order.push_back(name);
  }
  Tracer& tracer = GlobalTracer();
  Values out;
  for (const auto& name : order) {
    auto w = Make(name, o);
    w->Setup();
    // Untraced and traced operations alternate, so drift hits both alike.
    const double budget = name == o.workload ? o.seconds : 0;
    std::vector<double> untraced;
    std::vector<Values> traced;
    std::vector<std::uint64_t> ops;
    const double t0 = Now();
    do {
      Checker a(name);
      untraced.push_back(Get(w->Op(a), "op_s"));
      tally.Add(a);
      tracer.set_enabled(true);
      ops.push_back(tracer.NewOp());
      Checker b(name + " traced");
      traced.push_back(w->Op(b));
      tally.Add(b);
      tracer.set_enabled(false);
    } while (Now() - t0 < budget);
    Checker probes(name + " probes");
    tracer.set_enabled(true);
    w->Layers(ops, traced, out, probes);
    tally.Add(probes);
    tracer.set_enabled(false);
    std::vector<double> traced_s;
    for (const auto& v : traced) traced_s.push_back(Get(v, "op_s"));
    out.emplace_back("bench." + name + ".trace_overhead_s",
                     Median(traced_s) - Median(untraced));
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload pipeline|city|watchdog|model_check"
               " --seed N --seconds S --trace 0|1 [--quick] [--expect-wrong]"
               " [--spans PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--expect-wrong") {
      o.expect_wrong = true;
    } else {
      return Usage();
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
          std::end(kWorkloads) ||
      !(o.seconds > 0)) {
    return Usage();
  }

  Tally tally;
  const Values metrics = o.trace ? Traced(o, tally) : EndToEnd(o, tally);
  if (!o.spans_path.empty() && o.trace &&
      !GlobalTracer().WriteJsonLines(o.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_path.c_str());
  }

  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].second);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": " + buf;
  }
  json += "}, \"meta\": {\"cores\": " + std::to_string(par::HardwareJobs()) +
          ", \"jobs\": " + std::to_string(Jobs()) +
          ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace cnv::perfbench

int main(int argc, char** argv) { return cnv::perfbench::Main(argc, argv); }
