// The user device: a dual-mode (3G/4G) phone running the full control-plane
// stack of Table 2 — EMM/ESM towards the MME, MM/CM towards the MSC,
// GMM/SM towards the SGSN, and RRC state machines for both radios. One
// radio is active at a time (§3.2.1: "the phone device uses at most one
// network at a time"), so inter-system switches retune the device.
//
// The §8 solution modules are toggled through SolutionConfig; with all of
// them off the device and network reproduce the standards-mandated (and
// carrier-practiced) behaviours behind findings S1-S6.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "model/vocab.h"
#include "nas/context.h"
#include "nas/messages.h"
#include "nas/timers.h"
#include "sim/channel.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "stack/carrier.h"
#include "trace/collector.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cnv::stack {

// §8 remedies, one knob per module.
struct SolutionConfig {
  bool shim_layer = false;         // reliable EMM<->RRC transfer (S2)
  bool mm_decoupled = false;       // parallel LU / service threads (S4)
  bool domain_decoupled = false;   // per-domain channels+modulation (S5)
  bool csfb_tag = false;           // forced post-CSFB switch state (S3)
  bool reactivate_bearer = false;  // no detach on missing PDP context (S1)
  bool mme_lu_recovery = false;    // absorb 3G LU failures in the core (S6)
};

// The robust device (`robust` = true) adds what the paper's §8 implies but
// the standards-mandated baseline lacks: every NAS procedure retransmits on
// guard expiry, backs off exponentially and restarts; CM service requests
// are re-requested a bounded number of times; and the Testbed's core
// elements queue and replay uplinks while down. Off by default, so the
// baseline reproduces the S1-S6 defect behaviours; the chaos campaigns
// switch it on to assert that the three user-visible properties recover
// within bounded time.

class UeDevice {
 public:
  enum class EmmState : std::uint8_t {
    kDeregistered,
    kWaitAttachAccept,
    kRegistered,
    kWaitTauAccept,
    kOutOfService,  // involuntarily detached; recovery in progress
  };
  enum class MmState : std::uint8_t { kIdle, kLuInProgress, kWaitNetCmd };
  enum class GmmState : std::uint8_t { kIdle, kRauInProgress };
  enum class CallState : std::uint8_t {
    kNone,
    kPending,        // dialed, CM service request not yet sent (HOL block)
    kWaitCmAccept,
    kWaitConnect,
    kActive,
  };

  UeDevice(sim::Simulator& sim, Rng& rng, trace::Collector& trace,
           const CarrierProfile& profile, SolutionConfig solutions,
           sim::SharedChannel& channel3g, bool robust = false);

  // --- wiring (done by the Testbed)
  void SetUplink4g(sim::Link* l) { ul4g_ = l; }
  // Optional interposer for EMM/ESM uplink traffic; the Testbed routes it
  // through the §8 reliable shim layer when that solution is enabled.
  void SetEmmTransport(std::function<void(const nas::Message&)> t) {
    emm_transport_ = std::move(t);
  }
  void SetUplink3gCs(sim::Link* l) { ul3g_cs_ = l; }
  void SetUplink3gPs(sim::Link* l) { ul3g_ps_ = l; }
  // Invoked when the device leaves 4G with an active EPS bearer so the
  // network side can migrate contexts (MME -> SGSN).
  void SetSwitchAwayHandler(std::function<void(const nas::PdpContext&)> h) {
    on_switch_away_from_4g_ = std::move(h);
  }
  // Invoked when the device returns to 4G after a CSFB call so the MME can
  // run the network-initiated SGs location update (§6.3).
  void SetCsfbReturnHandler(std::function<void()> h) {
    on_csfb_return_ = std::move(h);
  }

  // --- downlink entry points (receivers of the per-domain links)
  void OnDownlink4g(const nas::Message& m);
  void OnDownlink3gCs(const nas::Message& m);
  void OnDownlink3gPs(const nas::Message& m);

  // --- user / environment operations
  void PowerOn(nas::System system);
  void PowerOff();
  void Dial();    // outgoing call; in 4G this is a CSFB call
  void HangUp();
  void EnableData(bool on);  // the mobile-data switch
  void StartDataSession(double demand_mbps);
  void StopDataSession();
  void CrossAreaBoundary();  // roaming: triggers LAU/RAU (3G) or TAU (4G)
  // Periodic refresh without mobility (Table 4: T3212 / T3312 class
  // timers): every `interval` the device refreshes its location in the
  // serving system. Pass 0 to disable.
  void EnablePeriodicUpdates(SimDuration interval);
  void SwitchTo3g(model::SwitchReason reason);  // network/mobility-initiated
  void SwitchTo4g();                            // mobility-initiated return
  void SetRssi(double dbm);

  // Fault hook (timer skew): scales every NAS guard/backoff duration the
  // device arms from now on. 1.0 is nominal; >1 slows the device's clock.
  void set_timer_scale(double s) { timer_scale_ = s; }
  double timer_scale() const { return timer_scale_; }

  // CSFB fallback command (RRC connection release with redirect), issued by
  // the MME through the 4G BS.
  void OnCsfbRedirectTo3g();

  // --- queries for experiments and tests
  nas::System serving() const { return serving_; }
  EmmState emm_state() const { return emm_; }
  MmState mm_state() const { return mm_; }
  CallState call_state() const { return call_; }
  model::Rrc3g rrc3g() const { return rrc3g_; }
  // True from the involuntary detach until the re-attach completes: the
  // paper counts the whole recovery window as out of service (§5.1.3).
  bool out_of_service() const {
    return emm_ == EmmState::kOutOfService || recovery_started_at_.has_value();
  }
  bool eps_bearer_active() const { return eps_.active; }
  bool pdp_active() const { return pdp_.active; }
  bool data_session_active() const { return data_session_; }
  bool in_csfb_call() const { return in_csfb_; }
  bool awaiting_cell_reselection() const { return reselect_pending_; }

  // Effective PS throughput right now (Mbps) for a saturating transfer.
  double CurrentPsRateMbps(sim::Direction dir, int hour_of_day) const;

  // Measurement series collected over the device's lifetime.
  const Samples& call_setup_seconds() const { return call_setup_s_; }
  const Samples& lau_duration_seconds() const { return lau_duration_s_; }
  const Samples& rau_duration_seconds() const { return rau_duration_s_; }
  const Samples& recovery_seconds() const { return recovery_s_; }
  const Samples& stuck_in_3g_seconds() const { return stuck_in_3g_s_; }
  std::uint64_t oos_events() const { return oos_events_; }
  std::uint64_t attach_attempts_total() const { return attach_attempts_total_; }
  std::uint64_t data_disruptions() const { return data_disruptions_; }
  std::uint64_t deferred_service_requests() const {
    return deferred_service_requests_;
  }
  std::uint64_t deferred_call_requests() const {
    return deferred_call_requests_;
  }
  // Robustness-machinery bookkeeping (all zero unless the device is robust).
  std::uint64_t lu_retries() const { return lu_proc_.retries; }
  std::uint64_t gmm_retries() const { return gmm_proc_.retries; }
  std::uint64_t pdp_retries() const { return pdp_proc_.retries; }
  std::uint64_t cm_retries() const { return cm_proc_.retries; }
  std::uint64_t cm_abandoned() const { return cm_abandoned_; }
  std::uint64_t attach_backoff_cycles() const {
    return static_cast<std::uint64_t>(attach_proc_.backoff_cycles);
  }
  // Congestion-control bookkeeping (T3346): rejects with cause "congestion"
  // received, and backoff waits the device honoured before retrying.
  std::uint64_t congestion_rejects() const { return congestion_rejects_; }
  std::uint64_t congestion_backoffs() const { return congestion_backoffs_; }
  // Completed attach procedure durations (first request to accept) — the
  // storm campaigns report their p99 as a degradation SLO.
  const Samples& attach_latency_seconds() const { return attach_latency_s_; }
  // Detach causes, split so the user study can attribute events to findings
  // (S1: missing bearer context; S6: propagated 3G LU failures).
  std::uint64_t detaches_no_eps_bearer() const {
    return detaches_no_eps_bearer_;
  }
  std::uint64_t detaches_implicit() const { return detaches_implicit_; }
  std::uint64_t detaches_msc_unreachable() const {
    return detaches_msc_unreachable_;
  }
  // Call bookkeeping for the S5 rows of Table 5.
  std::uint64_t calls_connected() const { return calls_connected_; }
  std::uint64_t calls_with_data() const { return calls_with_data_; }
  const Samples& affected_call_data_mb() const {
    return affected_call_data_mb_;
  }
  const Samples& call_durations_seconds() const { return call_durations_s_; }

 private:
  // One NAS procedure discipline. Each guarded procedure (attach, TAU, LU,
  // GPRS attach/RAU, PDP activation, CM service) is a NasProc record run by
  // the same two paths: a guard expiry retransmits the request up to
  // `quick_retries` times, then either backs off and restarts (on the
  // robust device) or gives up (OnGuardExpiry); a congestion reject holds
  // off for T3346 and then restarts (OnCongestionReject). A NasProcSpec
  // holds what makes one procedure itself: its timer, trace strings and
  // the hooks that read or change the device's state.
  struct NasProcSpec {
    const char* timer;  // the guard timer (T3410, T3210, ...)
    nas::System system;
    const char* module;  // trace module
    SimDuration guard;
    bool always_guarded = false;  // else guarded on the robust device only
    int quick_retries = nas::timers::kMaxNasQuickRetries;
    const char* expiry;  // traced before each retransmission
    // Traced when the quick retries run out and the robust device backs
    // off (nullptr: it never backs off), optionally with the pause.
    const char* backing_off = nullptr;
    bool shows_pause = false;
    const char* giving_up = nullptr;  // traced when it stops for good
    const char* hold = "T3346";       // the congestion backoff, as traced
    const char* deferred = nullptr;   // what the congestion backoff defers
    bool (*awaiting)(const UeDevice&);  // the guard's expiry still matters
    void (*retransmit)(UeDevice&);
    void (*abandon)(UeDevice&) = nullptr;  // state reset on running out
    // Besides "powered on in the procedure's system".
    bool (*may_restart)(const UeDevice&) = nullptr;
    void (*restart)(UeDevice&) = nullptr;
  };
  static const NasProcSpec kAttach, kTau, kLu, kGprsAttach, kRau, kPdp, kCm;

  struct NasProc {
    NasProc(sim::Simulator& sim, const NasProcSpec& s)
        : spec(&s), guard(sim, s.timer) {}
    const NasProcSpec* spec;  // GPRS attach and RAU share one record
    sim::Timer guard;  // doubles as backoff and T3346 unless pointed away
    sim::Timer* backoff = &guard;
    sim::Timer* t3346 = &guard;
    int* t3346_cycles = &backoff_cycles;
    int attempts = 0;  // retransmissions in the current run
    int backoff_cycles = 0;
    std::uint64_t retries = 0;
  };

  void ArmGuard(NasProc& p);
  void OnGuardExpiry(NasProc& p);
  // Post-retry backoff: a capped exponential from T3411, then Restart.
  void BackOff(NasProc& p, const char* why);
  // Congestion reject (TS 24.301 §5.3.5 / TS 24.008 §4.1.1.7): the granted
  // (or default) T3346, doubled per consecutive reject, then Restart.
  void OnCongestionReject(NasProc& p, const nas::Message& m);
  void Restart(NasProc& p);
  void Completed(NasProc& p);  // the network answered: stop and reset
  SimDuration Scaled(SimDuration d) const;

  // EMM / ESM (4G)
  void StartAttach();
  void StartTau();
  void SendEmm(nas::Message m);
  void HandleDetach(nas::EmmCause cause, const std::string& who);

  // MM / CM (3G CS)
  void StartLau();
  void TryServePendingCall();
  void OnCallConnected();
  void SendCs(nas::Message m);

  // GMM / SM (3G PS)
  void StartGprsAttach();
  void StartRau();
  void ActivatePdp();
  void SendPs(nas::Message m);

  // RRC helpers
  model::Rrc3g PinnedLevel() const;
  void Promote3g(model::Rrc3g at_least);
  void Reevaluate3gPinning();
  void On3gDemoteTimer();
  void TryCellReselection();
  void ReturnTo4gAfterCsfb();

  void MigrateContextsTo3g();

  sim::Simulator& sim_;
  Rng& rng_;
  trace::Collector& trace_;
  const CarrierProfile& profile_;
  SolutionConfig solutions_;
  bool robust_;
  sim::SharedChannel& channel3g_;

  sim::Link* ul4g_ = nullptr;
  std::function<void(const nas::Message&)> emm_transport_;
  sim::Link* ul3g_cs_ = nullptr;
  sim::Link* ul3g_ps_ = nullptr;
  std::function<void(const nas::PdpContext&)> on_switch_away_from_4g_;
  std::function<void()> on_csfb_return_;

  // Device state.
  bool powered_ = false;
  nas::System serving_ = nas::System::kNone;
  EmmState emm_ = EmmState::kDeregistered;
  MmState mm_ = MmState::kIdle;
  GmmState gmm_ = GmmState::kIdle;
  CallState call_ = CallState::kNone;
  model::Rrc3g rrc3g_ = model::Rrc3g::kIdle;
  model::Rrc4g rrc4g_ = model::Rrc4g::kIdle;
  bool gmm_attached_ = false;  // GPRS-attached in 3G PS
  bool mm_registered_ = false;
  bool data_enabled_ = true;
  bool data_session_ = false;
  bool pdp_activation_pending_ = false;
  double data_demand_mbps_ = 0;
  nas::EpsBearerContext eps_;
  nas::PdpContext pdp_;
  double rssi_dbm_ = -70.0;

  // CSFB bookkeeping.
  bool in_csfb_ = false;
  bool csfb_lu_deferred_pending_ = false;
  bool reselect_pending_ = false;
  std::optional<SimTime> csfb_call_ended_at_;

  // Timers.
  sim::Timer mm_wait_timer_; // MM-WAIT-FOR-NET-CMD dwell
  sim::Timer rrc_demote_;    // 3G RRC inactivity demotion
  sim::Timer periodic_;      // periodic location refresh (T3212/T3312 class)
  SimDuration periodic_interval_ = 0;
  double timer_scale_ = 1.0;

  // NAS procedures. Attach backs off on T3411 and shares T3346 (and its
  // cycle count) with TAU; the 3G procedures run all three on their guard.
  NasProc attach_proc_;
  NasProc tau_proc_;
  NasProc lu_proc_;
  NasProc gmm_proc_;
  NasProc pdp_proc_;
  NasProc cm_proc_;
  sim::Timer attach_backoff_;  // T3411/T3402 class (re-attach cycles)
  sim::Timer t3346_;           // congestion backoff (4G attach/TAU)
  int t3346_cycles_ = 0;
  std::uint64_t cm_abandoned_ = 0;
  std::uint64_t congestion_rejects_ = 0;
  std::uint64_t congestion_backoffs_ = 0;

  // Measurements.
  std::optional<SimTime> recovery_started_at_;
  std::optional<SimTime> dialed_at_;
  std::optional<SimTime> attach_started_at_;
  Samples attach_latency_s_;
  std::optional<SimTime> lau_started_at_;
  std::optional<SimTime> rau_started_at_;
  Samples call_setup_s_;
  Samples lau_duration_s_;
  Samples rau_duration_s_;
  Samples recovery_s_;
  Samples stuck_in_3g_s_;
  std::uint64_t oos_events_ = 0;
  std::uint64_t attach_attempts_total_ = 0;
  std::uint64_t data_disruptions_ = 0;
  std::uint64_t deferred_service_requests_ = 0;
  std::uint64_t deferred_call_requests_ = 0;
  std::uint64_t detaches_no_eps_bearer_ = 0;
  std::uint64_t detaches_implicit_ = 0;
  std::uint64_t detaches_msc_unreachable_ = 0;
  std::uint64_t calls_connected_ = 0;
  std::uint64_t calls_with_data_ = 0;
  bool current_call_has_data_ = false;
  std::optional<SimTime> call_connected_at_;
  Samples affected_call_data_mb_;
  Samples call_durations_s_;
};

std::string ToString(UeDevice::EmmState s);
std::string ToString(UeDevice::CallState s);

}  // namespace cnv::stack
