// Experiment harness: one UE plus the 3G/4G network side of one carrier,
// wired together over radio and backhaul links — the stand-in for the
// paper's phone-plus-two-carriers validation testbed (§3.3, §9). Radio legs
// are unreliable (UDP in the paper's prototype); backhaul legs are reliable
// (TCP). All fault-injection hooks used by the experiments live on the
// links and network elements this class exposes.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/channel.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "solution/shim.h"
#include "stack/carrier.h"
#include "stack/hss.h"
#include "stack/network.h"
#include "stack/overload.h"
#include "stack/storm.h"
#include "stack/ue.h"
#include "trace/collector.h"
#include "util/rng.h"

namespace cnv::stack {

struct TestbedConfig {
  CarrierProfile profile = OpI();
  SolutionConfig solutions;
  std::uint64_t seed = 1;
  // Baseline loss probability on the (unreliable) radio legs.
  double radio_loss = 0.0;
  // The robust stack (UE retries/backoff, core queue-and-replay); default
  // off so the baseline reproduces the S1-S6 defects.
  bool robust = false;
  // Core overload control (bounded signalling queues + admission policy);
  // default disabled = the legacy unbounded core.
  OverloadConfig overload = {};
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulator& sim() { return sim_; }
  Rng& rng() { return rng_; }
  trace::Collector& traces() { return trace_; }
  UeDevice& ue() { return *ue_; }
  Mme& mme() { return *mme_; }
  Msc& msc() { return *msc_; }
  Sgsn& sgsn() { return *sgsn_; }
  Hss& hss() { return *hss_; }
  StormGenerator& storm() { return *storm_; }
  nas::Imsi imsi() const { return kImsi; }
  sim::SharedChannel& channel3g() { return channel3g_; }
  const CarrierProfile& profile() const { return config_.profile; }

  // Links, exposed for fault injection (drop / defer / duplicate / reorder
  // / corrupt hooks).
  sim::Link& ul4g() { return *ul4g_; }
  sim::Link& dl4g() { return *dl4g_; }
  sim::Link& ul3g_cs() { return *ul3g_cs_; }
  sim::Link& dl3g_cs() { return *dl3g_cs_; }
  sim::Link& ul3g_ps() { return *ul3g_ps_; }
  sim::Link& dl3g_ps() { return *dl3g_ps_; }

  // Shim endpoints (§8 layer extension); null unless solutions.shim_layer.
  solution::ShimEndpoint* ue_shim() { return ue_shim_.get(); }
  solution::ShimEndpoint* mme_shim() { return mme_shim_.get(); }

  // Live trace tap: every record the testbed collects is also handed to
  // `tap` the moment it happens, so an online consumer — typically the
  // runtime-verification gateway, via rtv::FeedRecord — can watch the run
  // instead of post-processing traces().records(). Pass nullptr to detach.
  void TapTraces(trace::Collector::Tap tap) { trace_.SetTap(std::move(tap)); }

  // Advances simulated time by `d`.
  void Run(SimDuration d) { sim_.RunUntil(sim_.now() + d); }

 private:
  TestbedConfig config_;
  sim::Simulator sim_;
  Rng rng_;
  trace::Collector trace_;
  sim::SharedChannel channel3g_;

  std::unique_ptr<sim::Link> ul4g_;
  std::unique_ptr<sim::Link> dl4g_;
  std::unique_ptr<sim::Link> ul3g_cs_;
  std::unique_ptr<sim::Link> dl3g_cs_;
  std::unique_ptr<sim::Link> ul3g_ps_;
  std::unique_ptr<sim::Link> dl3g_ps_;

  static constexpr nas::Imsi kImsi{310'150'123'456'789ULL};

  std::unique_ptr<Hss> hss_;
  std::unique_ptr<Mme> mme_;
  std::unique_ptr<Msc> msc_;
  std::unique_ptr<Sgsn> sgsn_;
  std::unique_ptr<UeDevice> ue_;
  std::unique_ptr<StormGenerator> storm_;

  std::unique_ptr<solution::ShimEndpoint> ue_shim_;
  std::unique_ptr<solution::ShimEndpoint> mme_shim_;
};

}  // namespace cnv::stack
