#include "stack/ue.h"

#include <algorithm>
#include <stdexcept>

#include "nas/timers.h"
#include "sim/radio.h"
#include "util/log.h"
#include "util/strings.h"

namespace cnv::stack {

namespace {
// Data demand at or above this holds the 3G DCH state (the paper's S3
// experiments use 200 kbps UDP, which stays on DCH).
constexpr double kDchDemandMbps = 0.15;
// RRC state forced by the §8 CSFB-tag remedy right after the call ends.
constexpr SimDuration kCsfbTagSwitchDelay = Millis(300);

nas::Message Request(nas::MsgKind kind, nas::Protocol protocol) {
  nas::Message m;
  m.kind = kind;
  m.protocol = protocol;
  return m;
}

// Capped exponential: `base` doubled per cycle, at most kNasBackoffCap.
SimDuration BackoffDelay(SimDuration base, int cycle) {
  SimDuration d = base;
  for (int i = 0; i < cycle && d < nas::timers::kNasBackoffCap; ++i) d *= 2;
  return std::min(d, nas::timers::kNasBackoffCap);
}
}  // namespace

std::string ToString(UeDevice::EmmState s) {
  switch (s) {
    case UeDevice::EmmState::kDeregistered:
      return "EMM-DEREGISTERED";
    case UeDevice::EmmState::kWaitAttachAccept:
      return "EMM-REGISTERED-INITIATED";
    case UeDevice::EmmState::kRegistered:
      return "EMM-REGISTERED";
    case UeDevice::EmmState::kWaitTauAccept:
      return "EMM-TRACKING-AREA-UPDATING-INITIATED";
    case UeDevice::EmmState::kOutOfService:
      return "EMM-DEREGISTERED (out of service)";
  }
  return "?";
}

std::string ToString(UeDevice::CallState s) {
  switch (s) {
    case UeDevice::CallState::kNone:
      return "no call";
    case UeDevice::CallState::kPending:
      return "call pending";
    case UeDevice::CallState::kWaitCmAccept:
      return "awaiting CM service accept";
    case UeDevice::CallState::kWaitConnect:
      return "awaiting connect";
    case UeDevice::CallState::kActive:
      return "call active";
  }
  return "?";
}

UeDevice::UeDevice(sim::Simulator& sim, Rng& rng, trace::Collector& trace,
                   const CarrierProfile& profile, SolutionConfig solutions,
                   sim::SharedChannel& channel3g, bool robust)
    : sim_(sim),
      rng_(rng),
      trace_(trace),
      profile_(profile),
      solutions_(solutions),
      robust_(robust),
      channel3g_(channel3g),
      mm_wait_timer_(sim, "MM-WAIT-FOR-NET-CMD"),
      rrc_demote_(sim, "3G-RRC inactivity"),
      periodic_(sim, "periodic-update"),
      attach_proc_(sim, kAttach),
      tau_proc_(sim, kTau),
      lu_proc_(sim, kLu),
      gmm_proc_(sim, kGprsAttach),
      pdp_proc_(sim, kPdp),
      cm_proc_(sim, kCm),
      attach_backoff_(sim, "T3411"),
      t3346_(sim, "T3346") {
  attach_proc_.backoff = &attach_backoff_;
  for (NasProc* emm : {&attach_proc_, &tau_proc_}) {
    emm->t3346 = &t3346_;
    emm->t3346_cycles = &t3346_cycles_;
  }
  channel3g_.set_decoupled(solutions_.domain_decoupled);
}

// ---------------------------------------------------------- procedures ---

const UeDevice::NasProcSpec UeDevice::kAttach{
    .timer = "T3410",
    .system = nas::System::k4G,
    .module = "EMM",
    .guard = nas::timers::kT3410AttachGuard,
    .always_guarded = true,
    .quick_retries = nas::timers::kMaxAttachAttempts - 1,
    .expiry = "T3410 expiry",
    .backing_off = "maximum attach attempts reached; re-attach backoff armed",
    .shows_pause = true,
    .giving_up = "maximum attach attempts reached; device stays out of service",
    .deferred = "attach",
    .awaiting =
        [](const UeDevice& ue) {
          return ue.emm_ == EmmState::kWaitAttachAccept;
        },
    .retransmit = [](UeDevice& ue) { ue.StartAttach(); },
    .abandon = [](UeDevice& ue) { ue.emm_ = EmmState::kOutOfService; },
    .may_restart =
        [](const UeDevice& ue) {
          return ue.emm_ == EmmState::kOutOfService;
        },
    .restart = [](UeDevice& ue) { ue.StartAttach(); },
};

// Running out of TAU retransmissions falls back to the registered state;
// the next trigger restarts the procedure.
const UeDevice::NasProcSpec UeDevice::kTau{
    .timer = "T3430",
    .system = nas::System::k4G,
    .module = "EMM",
    .guard = nas::timers::kT3430TauGuard,
    .always_guarded = true,
    .expiry = "T3430 expiry; TAU retransmitted",
    .deferred = "TAU",
    .awaiting =
        [](const UeDevice& ue) {
          return ue.emm_ == EmmState::kWaitTauAccept;
        },
    .retransmit = [](UeDevice& ue) { ue.StartTau(); },
    .abandon = [](UeDevice& ue) { ue.emm_ = EmmState::kRegistered; },
    .may_restart =
        [](const UeDevice& ue) { return ue.emm_ == EmmState::kRegistered; },
    .restart = [](UeDevice& ue) { ue.StartTau(); },
};

const UeDevice::NasProcSpec UeDevice::kLu{
    .timer = "T3210",
    .system = nas::System::k3G,
    .module = "MM",
    .guard = nas::timers::kT3210LuGuard,
    .expiry = "T3210 expiry; Location Updating Request retransmitted",
    .backing_off = "location update abandoned; exponential backoff armed",
    .deferred = "location update",
    .awaiting =
        [](const UeDevice& ue) {
          return ue.serving_ == nas::System::k3G &&
                 ue.mm_ == MmState::kLuInProgress;
        },
    .retransmit =
        [](UeDevice& ue) {
          ue.SendCs(Request(nas::MsgKind::kLocationUpdateRequest,
                            nas::Protocol::kMm));
          ue.ArmGuard(ue.lu_proc_);
        },
    .abandon =
        [](UeDevice& ue) {
          ue.mm_ = MmState::kIdle;
          ue.lau_started_at_.reset();
        },
    .may_restart = [](const UeDevice& ue) { return !ue.mm_registered_; },
    .restart = [](UeDevice& ue) { ue.StartLau(); },
};

// GPRS attach and RAU share T3330 and its counters; the record runs
// whichever variant started (or was rejected) last.
const UeDevice::NasProcSpec UeDevice::kGprsAttach{
    .timer = "T3330",
    .system = nas::System::k3G,
    .module = "GMM",
    .guard = nas::timers::kT3330RauGuard,
    .expiry = "T3330 expiry; GPRS Attach Request retransmitted",
    .backing_off = "GMM procedure abandoned; exponential backoff armed",
    .deferred = "GPRS attach",
    .awaiting =
        [](const UeDevice& ue) {
          return ue.serving_ == nas::System::k3G &&
                 ue.gmm_ == GmmState::kRauInProgress;
        },
    .retransmit =
        [](UeDevice& ue) {
          ue.SendPs(Request(nas::MsgKind::kGprsAttachRequest,
                            nas::Protocol::kGmm));
          ue.ArmGuard(ue.gmm_proc_);
        },
    .abandon =
        [](UeDevice& ue) {
          ue.gmm_ = GmmState::kIdle;
          ue.rau_started_at_.reset();
        },
    .may_restart = [](const UeDevice& ue) { return !ue.gmm_attached_; },
    .restart = [](UeDevice& ue) { ue.StartGprsAttach(); },
};

const UeDevice::NasProcSpec UeDevice::kRau = [] {
  NasProcSpec s = kGprsAttach;
  s.expiry = "T3330 expiry; Routing Area Update Request retransmitted";
  s.deferred = "RAU";
  s.retransmit = [](UeDevice& ue) {
    ue.SendPs(Request(nas::MsgKind::kRauRequest, nas::Protocol::kGmm));
    ue.ArmGuard(ue.gmm_proc_);
  };
  s.may_restart = [](const UeDevice& ue) { return ue.gmm_attached_; };
  s.restart = [](UeDevice& ue) { ue.StartRau(); };
  return s;
}();

// An "insufficient resources" reject is SM's congestion reject.
const UeDevice::NasProcSpec UeDevice::kPdp{
    .timer = "T3380",
    .system = nas::System::k3G,
    .module = "SM",
    .guard = nas::timers::kT3380PdpGuard,
    .expiry = "T3380 expiry; Activate PDP Context Request retransmitted",
    .backing_off = "PDP activation abandoned; exponential backoff armed",
    .hold = "SM backoff",
    .deferred = "PDP activation",
    .awaiting =
        [](const UeDevice& ue) {
          return ue.serving_ == nas::System::k3G && !ue.pdp_.active &&
                 ue.data_enabled_;
        },
    .retransmit =
        [](UeDevice& ue) {
          nas::Message m =
              Request(nas::MsgKind::kPdpActivateRequest, nas::Protocol::kSm);
          m.pdp = ue.pdp_;
          ue.SendPs(m);
          ue.ArmGuard(ue.pdp_proc_);
        },
    .may_restart =
        [](const UeDevice& ue) {
          return ue.data_enabled_ && !ue.pdp_.active &&
                 (ue.data_session_ || ue.pdp_activation_pending_);
        },
    .restart = [](UeDevice& ue) { ue.ActivatePdp(); },
};

// CM service never backs off: the call is abandoned instead.
const UeDevice::NasProcSpec UeDevice::kCm{
    .timer = "T3230",
    .system = nas::System::k3G,
    .module = "MM",
    .guard = nas::timers::kT3230CmGuard,
    .expiry = "T3230 expiry; CM Service Request re-requested",
    .giving_up = "CM service abandoned after bounded re-requests",
    .awaiting =
        [](const UeDevice& ue) {
          return ue.serving_ == nas::System::k3G &&
                 ue.call_ == CallState::kWaitCmAccept;
        },
    .retransmit =
        [](UeDevice& ue) {
          ue.SendCs(Request(nas::MsgKind::kCmServiceRequest,
                            nas::Protocol::kMm));
          ue.ArmGuard(ue.cm_proc_);
        },
    .abandon =
        [](UeDevice& ue) {
          ++ue.cm_abandoned_;
          ue.call_ = CallState::kNone;
          ue.dialed_at_.reset();
        },
};

SimDuration UeDevice::Scaled(SimDuration d) const {
  if (timer_scale_ == 1.0) return d;
  const auto scaled =
      static_cast<SimDuration>(static_cast<double>(d) * timer_scale_);
  return std::max<SimDuration>(scaled, Millis(1));
}

void UeDevice::ArmGuard(NasProc& p) {
  if (!robust_ && !p.spec->always_guarded) return;
  p.guard.Start(Scaled(p.spec->guard), [this, &p] { OnGuardExpiry(p); });
}

void UeDevice::OnGuardExpiry(NasProc& p) {
  const NasProcSpec& s = *p.spec;
  if (!s.awaiting(*this)) return;
  if (p.attempts < s.quick_retries) {
    ++p.attempts;
    ++p.retries;
    trace_.Event(s.system, s.module, s.expiry);
    s.retransmit(*this);
    return;
  }
  p.attempts = 0;
  if (s.abandon != nullptr) s.abandon(*this);
  if (robust_ && s.backing_off != nullptr) {
    BackOff(p, s.backing_off);
  } else if (s.giving_up != nullptr) {
    trace_.Event(s.system, s.module, s.giving_up);
  }
}

void UeDevice::BackOff(NasProc& p, const char* why) {
  const SimDuration pause = Scaled(BackoffDelay(
      nas::timers::kT3411AttachRetry, p.backoff_cycles++));
  std::string text = why;
  if (p.spec->shows_pause) text += Format(" (%.0f s)", ToSeconds(pause));
  trace_.Event(p.spec->system, p.spec->module, std::move(text));
  p.backoff->Start(pause, [this, &p] { Restart(p); });
}

void UeDevice::OnCongestionReject(NasProc& p, const nas::Message& m) {
  const NasProcSpec& s = *p.spec;
  p.guard.Stop();
  p.attempts = 0;
  ++congestion_rejects_;
  ++congestion_backoffs_;
  const SimDuration base =
      m.backoff > 0 ? m.backoff : nas::timers::kT3346CongestionBackoff;
  const SimDuration pause =
      Scaled(BackoffDelay(base, (*p.t3346_cycles)++));
  trace_.Event(s.system, s.module,
               std::string(s.hold) + " armed (" + FormatDuration(pause) +
                   "); " + s.deferred + " retry deferred");
  p.t3346->Start(pause, [this, &p] { Restart(p); });
}

void UeDevice::Restart(NasProc& p) {
  const NasProcSpec& s = *p.spec;
  if (powered_ && serving_ == s.system && s.may_restart(*this)) {
    s.restart(*this);
  }
}

void UeDevice::Completed(NasProc& p) {
  p.guard.Stop();
  p.attempts = 0;
  *p.t3346_cycles = 0;
}

// ------------------------------------------------------------- transmit ---

void UeDevice::SendEmm(nas::Message m) {
  if (serving_ != nas::System::k4G) {
    CNV_LOG_WARN << "UE: EMM send while not on 4G, dropped";
    return;
  }
  if (emm_transport_) {
    emm_transport_(m);
    return;
  }
  if (ul4g_ == nullptr) throw std::logic_error("UE: 4G uplink not wired");
  ul4g_->Send(m);
}

void UeDevice::SendCs(nas::Message m) {
  if (serving_ != nas::System::k3G) {
    CNV_LOG_WARN << "UE: CS send while not on 3G, dropped";
    return;
  }
  if (ul3g_cs_ == nullptr) throw std::logic_error("UE: 3G CS uplink not wired");
  ul3g_cs_->Send(m);
}

void UeDevice::SendPs(nas::Message m) {
  if (serving_ != nas::System::k3G) {
    CNV_LOG_WARN << "UE: PS send while not on 3G, dropped";
    return;
  }
  if (ul3g_ps_ == nullptr) throw std::logic_error("UE: 3G PS uplink not wired");
  ul3g_ps_->Send(m);
}

// ------------------------------------------------------------ user ops ---

void UeDevice::PowerOn(nas::System system) {
  if (powered_) return;
  powered_ = true;
  serving_ = system;
  trace_.Event(system, "UE", "device powers on");
  if (system == nas::System::k4G) {
    rrc4g_ = model::Rrc4g::kConnected;
    trace_.State(nas::System::k4G, "4G-RRC", "RRC IDLE -> CONNECTED");
    attach_proc_.attempts = 0;
    StartAttach();
  } else {
    Promote3g(model::Rrc3g::kFach);
    StartLau();
    if (!gmm_attached_) StartGprsAttach();
  }
}

void UeDevice::PowerOff() {
  if (!powered_) return;
  trace_.Event(serving_, "UE", "device powers off");
  if (serving_ == nas::System::k4G && emm_ == EmmState::kRegistered) {
    trace_.Msg(nas::System::k4G, "EMM", "Detach Request sent (switch off)");
    SendEmm(Request(nas::MsgKind::kDetachRequest, nas::Protocol::kEmm));
  } else if (serving_ == nas::System::k3G && mm_registered_) {
    trace_.Msg(nas::System::k3G, "MM", "IMSI Detach Indication sent");
    SendCs(Request(nas::MsgKind::kImsiDetach, nas::Protocol::kMm));
  }
  powered_ = false;
  serving_ = nas::System::kNone;
  emm_ = EmmState::kDeregistered;
  mm_ = MmState::kIdle;
  gmm_ = GmmState::kIdle;
  call_ = CallState::kNone;
  mm_registered_ = false;
  gmm_attached_ = false;
  eps_.active = false;
  pdp_.active = false;
  data_session_ = false;
  in_csfb_ = false;
  reselect_pending_ = false;
  attach_proc_.guard.Stop();
  tau_proc_.guard.Stop();
  mm_wait_timer_.Stop();
  rrc_demote_.Stop();
  for (NasProc* p : {&lu_proc_, &gmm_proc_, &pdp_proc_, &cm_proc_}) {
    p->guard.Stop();
  }
  attach_backoff_.Stop();
  t3346_.Stop();
  rrc3g_ = model::Rrc3g::kIdle;
  rrc4g_ = model::Rrc4g::kIdle;
}

void UeDevice::Dial() {
  if (!powered_ || call_ != CallState::kNone) return;
  dialed_at_ = sim_.now();
  if (serving_ == nas::System::k4G && profile_.volte_enabled) {
    // VoLTE: carrier-grade voice over PS in 4G — no fallback, no shared
    // 3G channel, hence none of the CSFB-specific defects (§2).
    call_ = CallState::kWaitConnect;
    trace_.Msg(nas::System::k4G, "EMM", "VoLTE call setup (PS voice in 4G)");
    sim_.ScheduleIn(FromSeconds(rng_.Uniform(1.5, 3.0)), [this] {
      if (call_ != CallState::kWaitConnect ||
          serving_ != nas::System::k4G) {
        return;
      }
      call_ = CallState::kActive;
      ++calls_connected_;
      call_connected_at_ = sim_.now();
      current_call_has_data_ = false;  // no 3G shared-channel coupling
      if (dialed_at_) call_setup_s_.Add(ToSeconds(sim_.now() - *dialed_at_));
      trace_.Msg(nas::System::k4G, "EMM", "VoLTE call established");
    });
    return;
  }
  if (serving_ == nas::System::k4G) {
    // CSFB: the 4G network has no CS domain; fall back to 3G (TS 23.272).
    in_csfb_ = true;
    call_ = CallState::kPending;
    trace_.Msg(nas::System::k4G, "EMM",
               "Extended Service Request (CSFB) sent");
    SendEmm(
        Request(nas::MsgKind::kExtendedServiceRequest, nas::Protocol::kEmm));
    return;
  }
  trace_.Event(nas::System::k3G, "CM/CC", "user dials an outgoing call");
  call_ = CallState::kPending;
  TryServePendingCall();
}

void UeDevice::TryServePendingCall() {
  if (call_ != CallState::kPending || serving_ != nas::System::k3G) return;
  if (!solutions_.mm_decoupled && mm_ != MmState::kIdle) {
    // TS 24.008: MM may defer (or reject) the CM service request while a
    // location update runs — the S4 head-of-line blocking.
    ++deferred_service_requests_;
    ++deferred_call_requests_;
    trace_.Event(nas::System::k3G, "MM",
                 "CM service request deferred: location update in progress");
    return;
  }
  call_ = CallState::kWaitCmAccept;
  Promote3g(model::Rrc3g::kFach);
  trace_.Msg(nas::System::k3G, "MM", "CM Service Request sent");
  SendCs(Request(nas::MsgKind::kCmServiceRequest, nas::Protocol::kMm));
  cm_proc_.attempts = 0;
  ArmGuard(cm_proc_);
}

void UeDevice::HangUp() {
  if (call_ == CallState::kNone) return;
  if (serving_ == nas::System::k3G) {
    trace_.Msg(nas::System::k3G, "CM/CC", "Disconnect sent (call ends)");
    SendCs(Request(nas::MsgKind::kCallDisconnect, nas::Protocol::kCm));
  }
  const bool was_active = call_ == CallState::kActive;
  if (was_active && call_connected_at_) {
    const double duration_s = ToSeconds(sim_.now() - *call_connected_at_);
    call_durations_s_.Add(duration_s);
    if (current_call_has_data_) {
      // Data volume transferred while the call was up (the Table 5
      // "affected data" metric): bounded by both the session's demand and
      // the degraded shared-channel rate.
      const double rate_mbps =
          std::min(data_demand_mbps_,
                   channel3g_.PsThroughputMbps(sim::Direction::kDownlink,
                                               sim::TimeOfDayLoad(12)));
      affected_call_data_mb_.Add(rate_mbps * duration_s / 8.0);
    }
  }
  call_connected_at_.reset();
  current_call_has_data_ = false;
  call_ = CallState::kNone;
  dialed_at_.reset();
  if (channel3g_.cs_call_active()) {
    channel3g_.SetCsCallActive(false);
    trace_.Msg(nas::System::k3G, "3G-RRC",
               "RRC Channel Config: 64QAM re-enabled after voice call");
  }
  Reevaluate3gPinning();
  if (!was_active || !in_csfb_ || serving_ != nas::System::k3G) return;

  // CSFB post-call handling: the device should move back to 4G (§5.3).
  csfb_call_ended_at_ = sim_.now();
  if (csfb_lu_deferred_pending_) {
    // OP-I defers the first 3G location update until the call completes.
    csfb_lu_deferred_pending_ = false;
    trace_.Event(nas::System::k3G, "MM",
                 "deferred CSFB location update starts");
    StartLau();
  }
  if (solutions_.csfb_tag) {
    // §8 domain decoupling: the BS tagged this RRC connection as
    // CSFB-induced and forces a proper state for the switch back.
    trace_.Event(nas::System::k3G, "3G-RRC",
                 "CSFB tag: BS forces RRC state for inter-system switch");
    sim_.ScheduleIn(kCsfbTagSwitchDelay, [this] { ReturnTo4gAfterCsfb(); });
    return;
  }
  switch (profile_.csfb_return_policy) {
    case model::SwitchPolicy::kReleaseWithRedirect:
    case model::SwitchPolicy::kHandover:
      sim_.ScheduleIn(profile_.csfb_return_latency.Sample(rng_),
                      [this] { ReturnTo4gAfterCsfb(); });
      break;
    case model::SwitchPolicy::kCellReselection:
      // Works only from RRC IDLE: the device reselects once the inactivity
      // demotions bring RRC down — which ongoing data prevents (S3).
      reselect_pending_ = true;
      trace_.Event(nas::System::k3G, "3G-RRC",
                   "awaiting RRC IDLE for inter-system cell reselection");
      Reevaluate3gPinning();
      TryCellReselection();
      break;
  }
}

void UeDevice::EnableData(bool on) {
  if (on == data_enabled_) return;
  data_enabled_ = on;
  if (!on) {
    trace_.Event(serving_, "UE", "user disables mobile data");
    data_session_ = false;
    if (serving_ == nas::System::k3G && pdp_.active) {
      // Observed phone behaviour (§5.1.3): all PDP contexts deactivated.
      nas::Message m =
          Request(nas::MsgKind::kPdpDeactivateRequest, nas::Protocol::kSm);
      m.pdp_cause = nas::PdpDeactCause::kRegularDeactivation;
      trace_.Msg(nas::System::k3G, "SM",
                 "Deactivate PDP Context Request sent (regular deactivation)");
      SendPs(m);
      pdp_.active = false;
    }
    Reevaluate3gPinning();
  } else {
    trace_.Event(serving_, "UE", "user enables mobile data");
    if (serving_ == nas::System::k3G && gmm_attached_) ActivatePdp();
  }
}

void UeDevice::StartDataSession(double demand_mbps) {
  if (!powered_ || !data_enabled_) return;
  data_session_ = true;
  data_demand_mbps_ = demand_mbps;
  trace_.Event(serving_, "UE",
               Format("data session starts (%.2f Mbps demand)", demand_mbps));
  if (serving_ == nas::System::k3G) {
    if (!pdp_.active) ActivatePdp();
    Reevaluate3gPinning();
  } else if (serving_ == nas::System::k4G && !eps_.active &&
             emm_ == EmmState::kRegistered) {
    trace_.Msg(nas::System::k4G, "ESM", "Activate EPS Bearer Request sent");
    SendEmm(Request(nas::MsgKind::kEsmActivateBearerRequest,
                    nas::Protocol::kEsm));
  }
}

void UeDevice::StopDataSession() {
  if (!data_session_) return;
  data_session_ = false;
  trace_.Event(serving_, "UE", "data session ends");
  Reevaluate3gPinning();
}

void UeDevice::CrossAreaBoundary() {
  if (!powered_) return;
  if (serving_ == nas::System::k3G) {
    trace_.Event(nas::System::k3G, "UE", "crossed location/routing area");
    StartLau();
    if (gmm_attached_) StartRau();
  } else if (serving_ == nas::System::k4G &&
             emm_ == EmmState::kRegistered) {
    trace_.Event(nas::System::k4G, "UE", "crossed tracking area");
    StartTau();
  }
}

void UeDevice::EnablePeriodicUpdates(SimDuration interval) {
  periodic_interval_ = interval;
  periodic_.Stop();
  if (interval <= 0) return;
  periodic_.Start(interval, [this] {
    if (powered_) {
      if (serving_ == nas::System::k3G) {
        trace_.Event(nas::System::k3G, "UE", "periodic location refresh");
        StartLau();
        if (gmm_attached_) StartRau();
      } else if (serving_ == nas::System::k4G &&
                 emm_ == EmmState::kRegistered) {
        trace_.Event(nas::System::k4G, "UE", "periodic tracking area update");
        StartTau();
      }
    }
    EnablePeriodicUpdates(periodic_interval_);  // re-arm
  });
}

void UeDevice::SetRssi(double dbm) {
  rssi_dbm_ = dbm;
  const double loss = sim::LossFromRssi(dbm);
  if (ul4g_ != nullptr) ul4g_->set_loss_prob(loss);
  if (ul3g_cs_ != nullptr) ul3g_cs_->set_loss_prob(loss);
  if (ul3g_ps_ != nullptr) ul3g_ps_->set_loss_prob(loss);
}

// ------------------------------------------------------ system switches ---

void UeDevice::MigrateContextsTo3g() {
  // EPS bearer -> PDP context translation (§5.1.1); 4G resources released.
  if (eps_.active && data_enabled_) {
    pdp_ = nas::ToPdpContext(eps_);
    trace_.Event(nas::System::k3G, "SM",
                 "EPS bearer context migrated to PDP context");
  } else {
    pdp_.active = false;
  }
  eps_.active = false;
  if (on_switch_away_from_4g_) on_switch_away_from_4g_(pdp_);
}

void UeDevice::SwitchTo3g(model::SwitchReason reason) {
  if (!powered_ || serving_ != nas::System::k4G) return;
  trace_.Event(nas::System::k3G, "UE",
               "4G->3G switch (" + model::ToString(reason) + ")");
  attach_proc_.guard.Stop();
  tau_proc_.guard.Stop();
  attach_backoff_.Stop();
  rrc4g_ = model::Rrc4g::kIdle;
  trace_.State(nas::System::k4G, "4G-RRC", "RRC CONNECTED -> IDLE");
  MigrateContextsTo3g();
  serving_ = nas::System::k3G;
  emm_ = EmmState::kDeregistered;  // single-radio: 4G context parked
  Promote3g(pdp_.active && data_session_ &&
                    data_demand_mbps_ >= kDchDemandMbps
                ? model::Rrc3g::kDch
                : model::Rrc3g::kFach);

  const bool csfb = reason == model::SwitchReason::kCsfbCall;
  if (csfb && profile_.defer_csfb_lu) {
    csfb_lu_deferred_pending_ = true;
    trace_.Event(nas::System::k3G, "MM",
                 "location update deferred until the CSFB call completes");
  } else {
    StartLau();
  }
  if (!gmm_attached_) {
    StartGprsAttach();
  } else if (pdp_.active) {
    StartRau();
  }
  if (csfb) TryServePendingCall();
}

void UeDevice::OnCsfbRedirectTo3g() {
  if (serving_ != nas::System::k4G) return;
  trace_.Msg(nas::System::k4G, "4G-RRC",
             "RRC Connection Release (redirect to 3G) received");
  SwitchTo3g(model::SwitchReason::kCsfbCall);
}

void UeDevice::ReturnTo4gAfterCsfb() {
  if (serving_ != nas::System::k3G || !in_csfb_) return;
  if (csfb_call_ended_at_) {
    stuck_in_3g_s_.Add(ToSeconds(sim_.now() - *csfb_call_ended_at_));
    csfb_call_ended_at_.reset();
  }
  if (data_session_ && !solutions_.csfb_tag &&
      profile_.csfb_return_policy ==
          model::SwitchPolicy::kReleaseWithRedirect) {
    ++data_disruptions_;
    trace_.Event(nas::System::k3G, "3G-RRC",
                 "ongoing data session disrupted by RRC connection release");
  }
  in_csfb_ = false;
  reselect_pending_ = false;
  SwitchTo4g();
  // The MME will perform the network-side SGs location update after the
  // tracking area update completes (§6.3).
  if (on_csfb_return_) on_csfb_return_();
}

void UeDevice::SwitchTo4g() {
  if (!powered_ || serving_ != nas::System::k3G) return;
  trace_.Event(nas::System::k4G, "UE", "3G->4G switch");
  if (mm_ == MmState::kLuInProgress) {
    trace_.Event(nas::System::k3G, "MM",
                 "location update disrupted by inter-system switch");
    lau_started_at_.reset();
  }
  mm_ = MmState::kIdle;
  gmm_ = GmmState::kIdle;
  mm_wait_timer_.Stop();
  rrc_demote_.Stop();
  for (NasProc* p : {&lu_proc_, &gmm_proc_, &pdp_proc_, &cm_proc_}) {
    p->guard.Stop();
  }
  if (rrc3g_ != model::Rrc3g::kIdle) {
    trace_.State(nas::System::k3G, "3G-RRC",
                 model::ToString(rrc3g_) + " -> IDLE (leaving 3G)");
    rrc3g_ = model::Rrc3g::kIdle;
  }
  serving_ = nas::System::k4G;
  // The PDP context is handed to the network side for migration into the
  // EPS bearer context during the TAU (§5.1.1); it no longer lives on the
  // 3G side of the device.
  pdp_.active = false;
  rrc4g_ = model::Rrc4g::kConnected;
  trace_.State(nas::System::k4G, "4G-RRC", "RRC IDLE -> CONNECTED");
  StartTau();
}

// ----------------------------------------------------------- EMM / ESM ---

void UeDevice::StartAttach() {
  if (!powered_ || serving_ != nas::System::k4G) return;
  emm_ = EmmState::kWaitAttachAccept;
  if (!attach_started_at_) attach_started_at_ = sim_.now();
  ++attach_attempts_total_;
  trace_.Msg(nas::System::k4G, "EMM",
             attach_proc_.attempts == 0 ? "Attach Request sent"
                                        : "Attach Request retransmitted");
  ArmGuard(attach_proc_);
  SendEmm(Request(nas::MsgKind::kAttachRequest, nas::Protocol::kEmm));
}

void UeDevice::StartTau() {
  if (serving_ != nas::System::k4G) return;
  emm_ = EmmState::kWaitTauAccept;
  ArmGuard(tau_proc_);
  trace_.Msg(nas::System::k4G, "EMM", "Tracking Area Update Request sent");
  nas::Message m = Request(nas::MsgKind::kTauRequest, nas::Protocol::kEmm);
  // §8 cross-system coordination: piggy-back a request to activate a fresh
  // EPS bearer instead of being detached when no context can be migrated.
  m.eps.active = solutions_.reactivate_bearer;
  SendEmm(m);
}

void UeDevice::HandleDetach(nas::EmmCause cause, const std::string& who) {
  trace_.State(nas::System::k4G, "EMM",
               "detached by network via " + who + " (cause: " +
                   nas::ToString(cause) + ")");
  switch (cause) {
    case nas::EmmCause::kNoEpsBearerContextActive:
      ++detaches_no_eps_bearer_;
      break;
    case nas::EmmCause::kImplicitlyDetached:
      ++detaches_implicit_;
      break;
    case nas::EmmCause::kMscTemporarilyNotReachable:
      ++detaches_msc_unreachable_;
      break;
    default:
      break;
  }
  emm_ = EmmState::kOutOfService;
  eps_.active = false;
  ++oos_events_;
  if (!recovery_started_at_) recovery_started_at_ = sim_.now();
  // Observed phone behaviour (§5.1.3): immediately try to re-register; the
  // re-attach completion is mostly operator-controlled (Figure 4).
  attach_proc_.attempts = 0;
  StartAttach();
}

void UeDevice::OnDownlink4g(const nas::Message& m) {
  if (serving_ != nas::System::k4G) return;  // stale: device left 4G
  switch (m.kind) {
    case nas::MsgKind::kAttachAccept:
      // Accepted while registered happens when the MME reprocesses a stale
      // duplicate Attach Request (§5.2.1): the bearer is rebuilt by
      // completing the procedure again.
      if (emm_ != EmmState::kWaitAttachAccept &&
          emm_ != EmmState::kRegistered) {
        break;
      }
      Completed(attach_proc_);
      attach_backoff_.Stop();
      t3346_.Stop();
      emm_ = EmmState::kRegistered;
      eps_ = m.eps;
      if (attach_started_at_) {
        attach_latency_s_.Add(ToSeconds(sim_.now() - *attach_started_at_));
        attach_started_at_.reset();
      }
      trace_.Msg(nas::System::k4G, "EMM", "Attach Accept received");
      trace_.State(nas::System::k4G, "EMM", "EMM-REGISTERED");
      trace_.State(nas::System::k4G, "ESM", "EPS bearer context activated");
      trace_.Msg(nas::System::k4G, "EMM", "Attach Complete sent");
      SendEmm(Request(nas::MsgKind::kAttachComplete, nas::Protocol::kEmm));
      if (recovery_started_at_) {
        recovery_s_.Add(ToSeconds(sim_.now() - *recovery_started_at_));
        recovery_started_at_.reset();
        trace_.Event(nas::System::k4G, "EMM",
                     "service recovered: re-attach succeeded");
      }
      break;

    case nas::MsgKind::kAttachReject:
      trace_.Msg(nas::System::k4G, "EMM",
                 "Attach Reject received (cause: " +
                     nas::ToString(m.emm_cause) + ")");
      attach_proc_.guard.Stop();
      if (m.emm_cause == nas::EmmCause::kCongestion) {
        // T3346: the network is overloaded, not rejecting the subscriber.
        // Hold off instead of treating this as a detach; service is
        // degraded meanwhile.
        emm_ = EmmState::kOutOfService;
        if (!recovery_started_at_) recovery_started_at_ = sim_.now();
        OnCongestionReject(attach_proc_, m);
        break;
      }
      HandleDetach(m.emm_cause, "Attach Reject");
      break;

    case nas::MsgKind::kTauAccept:
      if (emm_ != EmmState::kWaitTauAccept) break;
      Completed(tau_proc_);
      emm_ = EmmState::kRegistered;
      eps_ = m.eps;
      trace_.Msg(nas::System::k4G, "EMM",
                 "Tracking Area Update Accept received");
      break;

    case nas::MsgKind::kTauReject:
      trace_.Msg(nas::System::k4G, "EMM",
                 "Tracking Area Update Reject received (cause: " +
                     nas::ToString(m.emm_cause) + ")");
      if (m.emm_cause == nas::EmmCause::kCongestion) {
        // T3346 for mobility management: stay registered with the old
        // tracking area and retry the TAU once the backoff expires.
        emm_ = EmmState::kRegistered;
        OnCongestionReject(tau_proc_, m);
        break;
      }
      HandleDetach(m.emm_cause, "Tracking Area Update Reject");
      break;

    case nas::MsgKind::kDetachRequest:
      trace_.Msg(nas::System::k4G, "EMM",
                 "Detach Request received (cause: " +
                     nas::ToString(m.emm_cause) + ")");
      HandleDetach(m.emm_cause, "network Detach Request");
      break;

    case nas::MsgKind::kEsmActivateBearerAccept:
      eps_ = m.eps;
      trace_.Msg(nas::System::k4G, "ESM",
                 "Activate EPS Bearer Accept received");
      trace_.State(nas::System::k4G, "ESM", "EPS bearer context activated");
      break;

    default:
      CNV_LOG_WARN << "UE(4G): unexpected " << m.Describe();
      break;
  }
}

// ------------------------------------------------------------- MM / CM ---

void UeDevice::StartLau() {
  if (serving_ != nas::System::k3G || mm_ == MmState::kLuInProgress) return;
  mm_wait_timer_.Stop();
  mm_ = MmState::kLuInProgress;
  lau_started_at_ = sim_.now();
  Promote3g(model::Rrc3g::kFach);
  trace_.Msg(nas::System::k3G, "MM", "Location Updating Request sent");
  SendCs(Request(nas::MsgKind::kLocationUpdateRequest, nas::Protocol::kMm));
  lu_proc_.attempts = 0;
  ArmGuard(lu_proc_);
}

void UeDevice::OnDownlink3gCs(const nas::Message& m) {
  if (serving_ != nas::System::k3G) return;
  switch (m.kind) {
    case nas::MsgKind::kLocationUpdateAccept:
      if (mm_ != MmState::kLuInProgress) break;
      trace_.Msg(nas::System::k3G, "MM", "Location Updating Accept received");
      Completed(lu_proc_);
      mm_registered_ = true;
      if (lau_started_at_) {
        lau_duration_s_.Add(ToSeconds(sim_.now() - *lau_started_at_));
        lau_started_at_.reset();
      }
      // Chain effect (§6.1.2): MM keeps processing MM/RRC commands before
      // serving anything else.
      mm_ = MmState::kWaitNetCmd;
      trace_.State(nas::System::k3G, "MM", "MM-WAIT-FOR-NET-CMD");
      mm_wait_timer_.Start(profile_.mm_wait_net_cmd, [this] {
        mm_ = MmState::kIdle;
        trace_.State(nas::System::k3G, "MM", "MM-IDLE");
        TryServePendingCall();
      });
      if (solutions_.mm_decoupled) TryServePendingCall();
      break;

    case nas::MsgKind::kLocationUpdateReject:
      trace_.Msg(nas::System::k3G, "MM",
                 "Location Updating Reject received (cause: " +
                     nas::ToString(m.mm_cause) + ")");
      mm_ = MmState::kIdle;
      mm_registered_ = false;
      if (m.mm_cause == nas::MmCause::kCongestion) {
        // T3346 (TS 24.008 §4.1.1.7): honoured on every device, robust or
        // not — congestion backoff is mandated behaviour.
        OnCongestionReject(lu_proc_, m);
      }
      break;

    case nas::MsgKind::kCmServiceAccept:
      if (call_ != CallState::kWaitCmAccept) break;
      Completed(cm_proc_);
      trace_.Msg(nas::System::k3G, "MM", "CM Service Accept received");
      call_ = CallState::kWaitConnect;
      trace_.Msg(nas::System::k3G, "CM/CC", "Setup sent");
      SendCs(Request(nas::MsgKind::kCallSetup, nas::Protocol::kCm));
      break;

    case nas::MsgKind::kPagingRequest:
      // Mobile-terminated call: answer the page (§2, "MSC pages and
      // establishes CS services").
      if (call_ != CallState::kNone) break;
      trace_.Msg(nas::System::k3G, "MM", "Paging Request received");
      trace_.Msg(nas::System::k3G, "MM", "Paging Response sent");
      Promote3g(model::Rrc3g::kFach);
      SendCs(Request(nas::MsgKind::kPagingResponse, nas::Protocol::kMm));
      call_ = CallState::kWaitConnect;
      break;

    case nas::MsgKind::kCallSetup:
      // MT leg: the network set up the incoming call; ring, then answer.
      if (call_ != CallState::kWaitConnect) break;
      trace_.Msg(nas::System::k3G, "CM/CC", "Setup received (incoming call)");
      sim_.ScheduleIn(FromSeconds(rng_.Uniform(1.5, 4.0)), [this] {
        if (call_ != CallState::kWaitConnect || serving_ != nas::System::k3G) {
          return;
        }
        trace_.Msg(nas::System::k3G, "CM/CC",
                   "Connect sent (incoming call answered)");
        SendCs(Request(nas::MsgKind::kCallConnect, nas::Protocol::kCm));
        OnCallConnected();
      });
      break;

    case nas::MsgKind::kCmServiceReject:
      trace_.Msg(nas::System::k3G, "MM",
                 m.mm_cause == nas::MmCause::kNone
                     ? "CM Service Reject received"
                     : "CM Service Reject received (cause: " +
                           nas::ToString(m.mm_cause) + ")");
      if (m.mm_cause == nas::MmCause::kCongestion) ++congestion_rejects_;
      Completed(cm_proc_);
      call_ = CallState::kNone;
      dialed_at_.reset();
      break;

    case nas::MsgKind::kCallConnect:
      if (call_ != CallState::kWaitConnect) break;
      trace_.Msg(nas::System::k3G, "CM/CC", "a call is established");
      if (dialed_at_) call_setup_s_.Add(ToSeconds(sim_.now() - *dialed_at_));
      OnCallConnected();
      break;

    default:
      CNV_LOG_WARN << "UE(3G-CS): unexpected " << m.Describe();
      break;
  }
}

// The CS call is up, mobile-originated or answered: the S5 bookkeeping and
// the shared-channel reconfiguration.
void UeDevice::OnCallConnected() {
  call_ = CallState::kActive;
  ++calls_connected_;
  call_connected_at_ = sim_.now();
  current_call_has_data_ = data_session_ && pdp_.active;
  if (current_call_has_data_) ++calls_with_data_;
  Promote3g(model::Rrc3g::kDch);
  channel3g_.SetCsCallActive(true);
  trace_.Msg(nas::System::k3G, "3G-RRC",
             solutions_.domain_decoupled
                 ? "RRC Channel Config: dedicated CS channel assigned; PS "
                   "keeps 64QAM"
                 : "RRC Channel Config: 64QAM disabled during CS voice call "
                   "(16QAM)");
}

// ------------------------------------------------------------ GMM / SM ---

void UeDevice::StartGprsAttach() {
  if (serving_ != nas::System::k3G || gmm_attached_) return;
  gmm_ = GmmState::kRauInProgress;
  rau_started_at_ = sim_.now();
  trace_.Msg(nas::System::k3G, "GMM", "GPRS Attach Request sent");
  SendPs(Request(nas::MsgKind::kGprsAttachRequest, nas::Protocol::kGmm));
  gmm_proc_.spec = &kGprsAttach;
  gmm_proc_.attempts = 0;
  ArmGuard(gmm_proc_);
}

void UeDevice::StartRau() {
  if (serving_ != nas::System::k3G || gmm_ != GmmState::kIdle ||
      !gmm_attached_) {
    return;
  }
  gmm_ = GmmState::kRauInProgress;
  rau_started_at_ = sim_.now();
  Promote3g(model::Rrc3g::kFach);
  trace_.Msg(nas::System::k3G, "GMM", "Routing Area Update Request sent");
  SendPs(Request(nas::MsgKind::kRauRequest, nas::Protocol::kGmm));
  gmm_proc_.spec = &kRau;
  gmm_proc_.attempts = 0;
  ArmGuard(gmm_proc_);
}

void UeDevice::ActivatePdp() {
  if (serving_ != nas::System::k3G || pdp_.active || !data_enabled_) return;
  if (!solutions_.mm_decoupled && gmm_ != GmmState::kIdle) {
    // S4, PS flavour: the SM request waits behind the routing area update.
    ++deferred_service_requests_;
    trace_.Event(nas::System::k3G, "GMM",
                 "SM request deferred: routing area update in progress");
    pdp_activation_pending_ = true;
    return;
  }
  pdp_activation_pending_ = false;
  trace_.Msg(nas::System::k3G, "SM", "Activate PDP Context Request sent");
  nas::Message m =
      Request(nas::MsgKind::kPdpActivateRequest, nas::Protocol::kSm);
  m.pdp = pdp_;
  SendPs(m);
  pdp_proc_.attempts = 0;
  ArmGuard(pdp_proc_);
}

void UeDevice::OnDownlink3gPs(const nas::Message& m) {
  if (serving_ != nas::System::k3G) return;
  switch (m.kind) {
    case nas::MsgKind::kGprsAttachAccept:
      gmm_attached_ = true;
      gmm_ = GmmState::kIdle;
      Completed(gmm_proc_);
      trace_.Msg(nas::System::k3G, "GMM", "GPRS Attach Accept received");
      if (rau_started_at_) {
        rau_duration_s_.Add(ToSeconds(sim_.now() - *rau_started_at_));
        rau_started_at_.reset();
      }
      if ((data_session_ || pdp_activation_pending_) && data_enabled_ &&
          !pdp_.active) {
        ActivatePdp();
      }
      break;

    case nas::MsgKind::kRauAccept:
      if (gmm_ != GmmState::kRauInProgress) break;
      gmm_ = GmmState::kIdle;
      Completed(gmm_proc_);
      trace_.Msg(nas::System::k3G, "GMM",
                 "Routing Area Update Accept received");
      if (rau_started_at_) {
        rau_duration_s_.Add(ToSeconds(sim_.now() - *rau_started_at_));
        rau_started_at_.reset();
      }
      if (pdp_activation_pending_) ActivatePdp();
      break;

    case nas::MsgKind::kPdpActivateAccept:
      pdp_ = m.pdp;
      Completed(pdp_proc_);
      trace_.Msg(nas::System::k3G, "SM", "Activate PDP Context Accept received");
      trace_.State(nas::System::k3G, "SM", "PDP context activated");
      Reevaluate3gPinning();
      break;

    case nas::MsgKind::kPdpDeactivateRequest:
      // Network-initiated deactivation (Table 3 causes) — the S1 trigger.
      pdp_.active = false;
      trace_.Msg(nas::System::k3G, "SM",
                 "Deactivate PDP Context Request received (cause: " +
                     nas::ToString(m.pdp_cause) + ")");
      trace_.State(nas::System::k3G, "SM", "PDP context deactivated");
      SendPs(Request(nas::MsgKind::kPdpDeactivateAccept, nas::Protocol::kSm));
      Reevaluate3gPinning();
      break;

    case nas::MsgKind::kGprsAttachReject:
      trace_.Msg(nas::System::k3G, "GMM",
                 "GPRS Attach Reject received (cause: " +
                     nas::ToString(m.mm_cause) + ")");
      gmm_ = GmmState::kIdle;
      gmm_proc_.guard.Stop();
      rau_started_at_.reset();
      if (m.mm_cause == nas::MmCause::kCongestion) {
        gmm_proc_.spec = &kGprsAttach;
        OnCongestionReject(gmm_proc_, m);
      }
      break;

    case nas::MsgKind::kRauReject:
      if (gmm_ != GmmState::kRauInProgress) break;
      trace_.Msg(nas::System::k3G, "GMM",
                 "Routing Area Update Reject received (cause: " +
                     nas::ToString(m.mm_cause) + ")");
      gmm_ = GmmState::kIdle;
      gmm_proc_.guard.Stop();
      rau_started_at_.reset();
      if (m.mm_cause == nas::MmCause::kCongestion) {
        gmm_proc_.spec = &kRau;
        OnCongestionReject(gmm_proc_, m);
      }
      break;

    case nas::MsgKind::kPdpActivateReject:
      trace_.Msg(nas::System::k3G, "SM",
                 "Activate PDP Context Reject received (cause: " +
                     nas::ToString(m.pdp_cause) + ")");
      pdp_proc_.guard.Stop();
      if (m.pdp_cause == nas::PdpDeactCause::kInsufficientResources) {
        OnCongestionReject(pdp_proc_, m);
      }
      break;

    case nas::MsgKind::kPdpDeactivateAccept:
      break;  // answer to a UE-initiated deactivation

    default:
      CNV_LOG_WARN << "UE(3G-PS): unexpected " << m.Describe();
      break;
  }
}

// ----------------------------------------------------------------- RRC ---

void UeDevice::Promote3g(model::Rrc3g at_least) {
  if (serving_ != nas::System::k3G) return;
  if (static_cast<int>(rrc3g_) < static_cast<int>(at_least)) {
    trace_.State(nas::System::k3G, "3G-RRC",
                 model::ToString(rrc3g_) + " -> " + model::ToString(at_least));
    rrc3g_ = at_least;
  }
  Reevaluate3gPinning();
}

model::Rrc3g UeDevice::PinnedLevel() const {
  // What pins the RRC state: an active (or in-setup) call pins DCH; a
  // high-rate data session pins DCH; any data session pins at least FACH.
  if (call_ == CallState::kActive || call_ == CallState::kWaitConnect ||
      (data_session_ && pdp_.active &&
       data_demand_mbps_ >= kDchDemandMbps)) {
    return model::Rrc3g::kDch;
  }
  if (data_session_ && pdp_.active) return model::Rrc3g::kFach;
  return model::Rrc3g::kIdle;
}

void UeDevice::Reevaluate3gPinning() {
  if (serving_ != nas::System::k3G) return;
  const model::Rrc3g pinned = PinnedLevel();
  if (static_cast<int>(rrc3g_) < static_cast<int>(pinned)) {
    trace_.State(nas::System::k3G, "3G-RRC",
                 model::ToString(rrc3g_) + " -> " + model::ToString(pinned));
    rrc3g_ = pinned;
  }
  if (static_cast<int>(rrc3g_) > static_cast<int>(pinned)) {
    // Above the pinned level: arm the inactivity demotion.
    if (!rrc_demote_.IsRunning()) {
      const SimDuration d = rrc3g_ == model::Rrc3g::kDch
                                ? profile_.rrc_dch_to_fach
                                : profile_.rrc_fach_to_idle;
      rrc_demote_.Start(d, [this] { On3gDemoteTimer(); });
    }
  } else {
    rrc_demote_.Stop();
  }
}

void UeDevice::On3gDemoteTimer() {
  if (serving_ != nas::System::k3G || rrc3g_ == model::Rrc3g::kIdle) return;
  if (static_cast<int>(rrc3g_) <= static_cast<int>(PinnedLevel())) {
    // Activity resumed since the timer was armed: no demotion.
    Reevaluate3gPinning();
    return;
  }
  const model::Rrc3g next = rrc3g_ == model::Rrc3g::kDch
                                ? model::Rrc3g::kFach
                                : model::Rrc3g::kIdle;
  trace_.State(nas::System::k3G, "3G-RRC",
               model::ToString(rrc3g_) + " -> " + model::ToString(next) +
                   " (inactivity)");
  rrc3g_ = next;
  Reevaluate3gPinning();
  TryCellReselection();
}

void UeDevice::TryCellReselection() {
  if (!reselect_pending_ || serving_ != nas::System::k3G ||
      rrc3g_ != model::Rrc3g::kIdle) {
    return;
  }
  trace_.Event(nas::System::k3G, "3G-RRC",
               "inter-system cell reselection to 4G");
  ReturnTo4gAfterCsfb();
}

// ------------------------------------------------------------- queries ---

double UeDevice::CurrentPsRateMbps(sim::Direction dir, int hour_of_day) const {
  if (!powered_ || !data_enabled_) return 0.0;
  const double load = sim::TimeOfDayLoad(hour_of_day);
  if (serving_ == nas::System::k3G) {
    if (!pdp_.active) return 0.0;
    return channel3g_.PsThroughputMbps(dir, load);
  }
  if (serving_ == nas::System::k4G) {
    if (!eps_.active || emm_ != EmmState::kRegistered) return 0.0;
    // LTE-class rates; the experiments only use these as a baseline.
    return (dir == sim::Direction::kDownlink ? 25.0 : 8.0) * load;
  }
  return 0.0;
}

}  // namespace cnv::stack
