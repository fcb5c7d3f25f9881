#include "stack/testbed.h"

#include "nas/timers.h"

namespace cnv::stack {

namespace {
// One-way latency of a UE <-> core-element path: radio leg + backhaul leg.
constexpr SimDuration kPathDelay =
    nas::timers::kRadioLegDelay + nas::timers::kCoreLegDelay;
}  // namespace

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      trace_(sim_),
      channel3g_(config_.profile.channel_policy) {
  const sim::Link::Params radio{.delay = kPathDelay,
                                .loss_prob = config_.radio_loss,
                                .reliable = false,
                                .jitter = Millis(5)};

  ul4g_ = std::make_unique<sim::Link>(sim_, rng_, radio, "UE->MME");
  dl4g_ = std::make_unique<sim::Link>(sim_, rng_, radio, "MME->UE");
  ul3g_cs_ = std::make_unique<sim::Link>(sim_, rng_, radio, "UE->MSC");
  dl3g_cs_ = std::make_unique<sim::Link>(sim_, rng_, radio, "MSC->UE");
  ul3g_ps_ = std::make_unique<sim::Link>(sim_, rng_, radio, "UE->SGSN");
  dl3g_ps_ = std::make_unique<sim::Link>(sim_, rng_, radio, "SGSN->UE");

  hss_ = std::make_unique<Hss>(sim_);
  hss_->Provision({.imsi = kImsi});
  mme_ = std::make_unique<Mme>(sim_, rng_, config_.profile,
                               config_.solutions.mme_lu_recovery);
  msc_ = std::make_unique<Msc>(sim_, rng_, config_.profile);
  sgsn_ = std::make_unique<Sgsn>(sim_, rng_, config_.profile);
  mme_->SetHss(hss_.get(), kImsi);
  msc_->SetHss(hss_.get(), kImsi);
  if (config_.robust) {
    mme_->set_queue_while_down(true);
    msc_->set_queue_while_down(true);
    sgsn_->set_queue_while_down(true);
    hss_->set_queue_while_down(true);
  }
  mme_->ConfigureOverload(config_.overload);
  msc_->ConfigureOverload(config_.overload);
  sgsn_->ConfigureOverload(config_.overload);
  hss_->ConfigureOverload(config_.overload);
  mme_->SetTrace(&trace_);
  msc_->SetTrace(&trace_);
  sgsn_->SetTrace(&trace_);
  ue_ = std::make_unique<UeDevice>(sim_, rng_, trace_, config_.profile,
                                   config_.solutions, channel3g_,
                                   config_.robust);
  storm_ = std::make_unique<StormGenerator>(sim_, trace_, *mme_, *msc_,
                                            *sgsn_);

  mme_->SetDownlink(dl4g_.get());
  mme_->SetMsc(msc_.get());
  mme_->SetSgsn(sgsn_.get());
  msc_->SetDownlink(dl3g_cs_.get());
  sgsn_->SetDownlink(dl3g_ps_.get());

  ue_->SetUplink4g(ul4g_.get());
  ue_->SetUplink3gCs(ul3g_cs_.get());
  ue_->SetUplink3gPs(ul3g_ps_.get());

  // NAS routing. The 4G leg optionally runs through the §8 reliable shim.
  if (config_.solutions.shim_layer) {
    ue_shim_ = std::make_unique<solution::ShimEndpoint>(sim_, "UE-shim");
    mme_shim_ = std::make_unique<solution::ShimEndpoint>(sim_, "MME-shim");
    ue_shim_->SetTransmit([this](const nas::Message& m) { ul4g_->Send(m); });
    ue_shim_->SetDeliver(
        [this](const nas::Message& m) { ue_->OnDownlink4g(m); });
    mme_shim_->SetTransmit([this](const nas::Message& m) { dl4g_->Send(m); });
    mme_shim_->SetDeliver(
        [this](const nas::Message& m) { mme_->OnUplink(m); });
    ue_->SetEmmTransport(
        [this](const nas::Message& m) { ue_shim_->Send(m); });
    mme_->SetTransport([this](const nas::Message& m) { mme_shim_->Send(m); });
    ul4g_->SetReceiver(
        [this](const nas::Message& m) { mme_shim_->OnRaw(m); });
    dl4g_->SetReceiver([this](const nas::Message& m) { ue_shim_->OnRaw(m); });
  } else {
    ul4g_->SetReceiver([this](const nas::Message& m) { mme_->OnUplink(m); });
    dl4g_->SetReceiver([this](const nas::Message& m) { ue_->OnDownlink4g(m); });
  }
  ul3g_cs_->SetReceiver([this](const nas::Message& m) { msc_->OnUplink(m); });
  dl3g_cs_->SetReceiver(
      [this](const nas::Message& m) { ue_->OnDownlink3gCs(m); });
  ul3g_ps_->SetReceiver([this](const nas::Message& m) { sgsn_->OnUplink(m); });
  dl3g_ps_->SetReceiver(
      [this](const nas::Message& m) { ue_->OnDownlink3gPs(m); });

  // Cross-element glue the harness provides in place of S1AP/SGs plumbing.
  mme_->SetCsfbRedirectHandler([this] {
    // The redirect command travels BS -> UE over the radio.
    sim_.ScheduleIn(nas::timers::kRadioLegDelay,
                    [this] { ue_->OnCsfbRedirectTo3g(); });
  });
  ue_->SetSwitchAwayHandler([this](const nas::PdpContext& pdp) {
    if (pdp.active) sgsn_->StoreMigratedContext(pdp);
    mme_->ReleaseBearerOnSwitchAway();
  });
  ue_->SetCsfbReturnHandler([this] { mme_->ArmCsfbReturnUpdate(); });
}

}  // namespace cnv::stack
