// Network-side protocol entities for the validation phase: the 4G MME, the
// 3G MSC (CS domain) and the 3G SGSN / gateways (PS domain). Base-station
// behaviour is split between the lossy radio Links (relaying, deferral under
// load) and the SharedChannel (modulation configuration); the redirect
// commands that a BS would transmit are issued through the MME/MSC paths
// that trigger them, which is sufficient for every experiment in the paper.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "nas/causes.h"
#include "nas/ids.h"
#include "nas/context.h"
#include "nas/messages.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "stack/carrier.h"
#include "stack/overload.h"
#include "trace/collector.h"
#include "util/rng.h"

namespace cnv::stack {

class Hss;
class Msc;
class Sgsn;

// Availability plumbing shared by the core elements (fault injection:
// element outage + restart with state loss). While an element is down, its
// uplink traffic is silently lost — unless queue-and-replay is enabled
// (graceful degradation), in which case the transport in front of the
// element buffers the uplinks and replays them in order on restart.
// Replies an element had scheduled before going down are also lost: every
// downlink send funnels through the element's Send(), which checks
// available().
//
// On top of the outage machinery sits overload control: an ingress screen
// (malformed/truncated NAS refused with "semantically incorrect", duplicate
// uids caught by a replay cache) and an optional bounded signalling queue
// with a configurable admission policy (see stack/overload.h). Under
// AdmissionPolicy::kOff (default) every screened uplink dispatches
// immediately — the legacy behaviour all pre-storm tests and goldens
// depend on.
//
// Synthetic storm load aimed at a kOff element changes nothing but its
// counters, so it is tallied rather than stepped (TallyBackground): the
// kernel reserves the burst's event keys, and the element works out how
// many of them have passed whenever its counters are read or its
// availability changes.
class CoreElement {
 public:
  bool available() const { return available_; }
  void set_queue_while_down(bool q) {
    Settle();
    queue_while_down_ = q;
  }
  // Uplinks buffered for replay, tallied storm load included.
  std::size_t queued_while_down() const {
    Settle();
    return pending_.size() + pending_background_;
  }

  // Element goes down (crash / maintenance). Uplinks stop being processed.
  void BeginOutage() {
    Settle();
    available_ = false;
  }

  // Element comes back. With `lose_state`, all volatile protocol state
  // (registrations, contexts) is forgotten first — the restart-with-state-
  // loss scenario. Buffered uplinks (if any) replay in arrival order.
  void Restart(bool lose_state);

  // --- overload control
  // Throws std::logic_error while a tallied burst is still arriving: its
  // steps were counted under the policy they were offered to.
  void ConfigureOverload(const OverloadConfig& cfg);
  AdmissionPolicy admission() const { return overload_.policy; }
  // Settles the tallied storm load first.
  const OverloadStats& overload_stats() const {
    Settle();
    return stats_;
  }
  // Optional collector for overload / adversarial-rejection trace records
  // (only events outside legacy behaviour are traced, so attaching a
  // collector never perturbs existing golden traces).
  void SetTrace(trace::Collector* t) { trace_ = t; }
  std::size_t queue_depth() const { return queue_.size(); }
  // First instant at or after `t` when the service queue was empty, or -1
  // when the backlog present at `t` never cleared. The fault monitor
  // derives time-to-drain after a storm from this.
  SimTime DrainedAfter(SimTime t) const;

  // Uplink entry point: outage absorption, integrity + replay screening,
  // then admission per the configured policy.
  void OnUplink(const nas::Message& m);

  // Offers `count` synthetic uplinks at start + i * spacing to a kOff
  // element in closed form. Each would pass the screen and, under kOff,
  // only count as served, buffered or lost, so none is stepped: the burst
  // is a Simulator::ScheduleBlock whose passed keys are settled into the
  // counters when they are read and before availability changes. A step
  // served while the element is up counts as background_served; while it
  // is down, it joins the replay buffer under queue-and-replay (served on
  // Restart) and is lost otherwise. Returns the block, so the caller can
  // count the steps offered so far. Throws std::logic_error unless the
  // policy is kOff.
  sim::Simulator::KeyBlock TallyBackground(SimTime start, std::size_t count,
                                           SimDuration spacing);

 protected:
  CoreElement(sim::Simulator& sim, nas::System system, std::string module);
  ~CoreElement() = default;

  // Clears the element's volatile protocol state on a lossy restart.
  virtual void OnStateLoss() = 0;
  // Processes one admitted message in the element's protocol FSMs.
  virtual void Dispatch(const nas::Message& m) = 0;
  // Builds the element-specific congestion reject for an overflowed
  // request into `*r`; returns false when `m.kind` has no reject
  // counterpart (the overflow is shed instead).
  virtual bool MakeCongestionReject(const nas::Message& m,
                                    nas::Message* r) const = 0;
  // Downlink transmission (subclass-owned transport).
  virtual void Send(nas::Message m) = 0;

  // Returns true when the element should process `m` now; false when the
  // outage absorbed it (lost, or buffered for replay).
  bool Admit(const nas::Message& m);

  sim::Simulator& sim_;

 private:
  // True when the ingress screen passed `m` (well-formed, not a replay).
  bool Screen(const nas::Message& m);
  void Enqueue(const nas::Message& m);
  void Overflow(const nas::Message& m);
  void Shed(const nas::Message& victim, const std::string& how);
  void EnsureDraining();
  void DrainOne();
  void TraceEvent(std::string description);
  // Folds the tallied steps that have passed since the last call into the
  // counters, under the current availability. Const, because reading a
  // counter settles it; the state it updates is mutable for that reason.
  void Settle() const;

  // A tallied burst and how many of its steps are already counted.
  struct Tally {
    sim::Simulator::KeyBlock keys;
    std::size_t settled = 0;
  };

  nas::System system_;
  std::string module_;
  bool available_ = true;
  bool queue_while_down_ = false;
  std::vector<nas::Message> pending_;
  // Tallied bursts with steps still to come, and tallied steps buffered
  // while down.
  mutable std::vector<Tally> tallies_;
  mutable std::uint64_t pending_background_ = 0;

  OverloadConfig overload_;
  mutable OverloadStats stats_;  // settled on read (see Settle)
  trace::Collector* trace_ = nullptr;
  std::deque<nas::Message> queue_;
  bool draining_ = false;
  // Completed busy periods: {start of backlog, instant it emptied}. Small
  // (one entry per burst), deterministic, and enough to reconstruct "when
  // did the queue first catch up after time t".
  std::vector<std::pair<SimTime, SimTime>> busy_periods_;
  SimTime busy_since_ = 0;
  std::unordered_set<std::uint64_t> seen_uids_;
};

// --- SGSN / 3G gateways: GPRS attach, routing area updates, PDP contexts.
class Sgsn : public CoreElement {
 public:
  Sgsn(sim::Simulator& sim, Rng& rng, const CarrierProfile& profile);

  void SetDownlink(sim::Link* to_ue) { downlink_ = to_ue; }

  // MME <-> SGSN context transfer (inter-system switch, §5.1.1).
  void StoreMigratedContext(const nas::PdpContext& pdp);
  std::optional<nas::PdpContext> TakeContextFor4g();

  // Network-initiated PDP deactivation (Table 3 causes).
  void DeactivatePdp(nas::PdpDeactCause cause);

  bool registered() const { return registered_; }
  bool pdp_active() const { return pdp_.active; }
  const nas::PdpContext& pdp() const { return pdp_; }

 protected:
  void OnStateLoss() override;
  void Dispatch(const nas::Message& m) override;
  bool MakeCongestionReject(const nas::Message& m,
                            nas::Message* r) const override;
  void Send(nas::Message m) override;

 private:
  Rng& rng_;
  const CarrierProfile& profile_;
  sim::Link* downlink_ = nullptr;
  bool registered_ = false;
  nas::PdpContext pdp_;
  std::uint32_t next_ip_ = 0x0A00'0001;
};

// --- MSC: location updates, CM service, call control (3G CS domain).
class Msc : public CoreElement {
 public:
  Msc(sim::Simulator& sim, Rng& rng, const CarrierProfile& profile);

  void SetDownlink(sim::Link* to_ue) { downlink_ = to_ue; }
  void SetHss(Hss* hss, nas::Imsi imsi) {
    hss_ = hss;
    imsi_ = imsi;
  }

  // SGs interface: the MME relays the post-CSFB location update (§6.3).
  // Returns the MM cause (kNone on success).
  nas::MmCause OnSgsLocationUpdate(bool first_update_completed);

  // §8 remedy path: the MME re-runs the update with the MSC on the
  // device's behalf after a failure; always succeeds.
  void RecoverLocationUpdate();

  // Experiment hook: the next location update is disrupted mid-flight
  // (OP-I's S6 mode) — the accept is never sent and the incomplete status
  // is reported to whoever asks via `first_update_completed`.
  void DisruptNextLocationUpdate() { disrupt_next_lu_ = true; }

  // Mobile-terminated call: pages the device. Returns false when the MSC
  // has no valid registration — without a completed location update the
  // network cannot route incoming calls (§6.1.1, §6.3), so the call is
  // missed.
  bool PageForIncomingCall();

  bool registered() const { return registered_; }
  bool last_lu_completed() const { return last_lu_completed_; }
  bool call_active() const { return call_active_; }
  std::uint64_t missed_incoming_calls() const {
    return missed_incoming_calls_;
  }

  // Latency of CS call establishment at the network (paging the callee,
  // trunk setup, ...). Dominates the paper's 11.4 s average setup time.
  void set_call_setup_latency(LatencyDist d) { call_setup_latency_ = d; }

 protected:
  void OnStateLoss() override;
  void Dispatch(const nas::Message& m) override;
  bool MakeCongestionReject(const nas::Message& m,
                            nas::Message* r) const override;
  void Send(nas::Message m) override;

 private:
  Rng& rng_;
  const CarrierProfile& profile_;
  sim::Link* downlink_ = nullptr;
  Hss* hss_ = nullptr;
  nas::Imsi imsi_;
  bool registered_ = false;
  bool call_active_ = false;
  bool disrupt_next_lu_ = false;
  bool last_lu_completed_ = false;
  std::uint64_t missed_incoming_calls_ = 0;
  LatencyDist call_setup_latency_{.median_s = 10.8, .sigma = 0.07,
                                  .min_s = 8.5, .max_s = 14.0};
};

// --- MME: 4G attach/detach, tracking area updates, CSFB triggering.
class Mme : public CoreElement {
 public:
  enum class EmmState : std::uint8_t {
    kDeregistered,
    kWaitComplete,  // Attach Accept sent, waiting for Attach Complete
    kRegistered,
  };

  // `on_csfb_redirect` is invoked when the MME orders the 4G BS to release
  // the UE's RRC connection with redirection to 3G (the CSFB fallback).
  Mme(sim::Simulator& sim, Rng& rng, const CarrierProfile& profile,
      bool lu_recovery_fix);

  void SetDownlink(sim::Link* to_ue) { downlink_ = to_ue; }
  // Optional interposer for downlink NAS traffic (the §8 shim layer).
  void SetTransport(std::function<void(const nas::Message&)> t) {
    transport_ = std::move(t);
  }
  void SetSgsn(Sgsn* sgsn) { sgsn_ = sgsn; }
  void SetMsc(Msc* msc) { msc_ = msc; }
  void SetHss(Hss* hss, nas::Imsi imsi) {
    hss_ = hss;
    imsi_ = imsi;
  }
  void SetCsfbRedirectHandler(std::function<void()> h) {
    on_csfb_redirect_ = std::move(h);
  }

  // Arms the network-initiated post-CSFB location update over SGs (§6.3):
  // it runs shortly after the next tracking area update is accepted.
  // Whether the race that makes it fail is hit is drawn from the carrier's
  // lu_failure_prob.
  void ArmCsfbReturnUpdate() { pending_sgs_ = true; }

  // Runs the SGs update now; `race_hit` forces the §6.3 failure condition
  // (exposed for deterministic tests and fault-injection benches).
  void RunSgsLocationUpdate(bool race_hit);

  // Test/bench hook: forces the outcome of reprocessing a duplicate Attach
  // Request (TS 24.301 allows both); unset = random 50/50.
  void set_duplicate_attach_rejects(std::optional<bool> v) {
    duplicate_attach_rejects_ = v;
  }

  // Fault hook: the next SGs location update hits the §6.3 race regardless
  // of the carrier's lu_failure_prob (chaos plans reproduce S6 on demand).
  void ForceNextSgsRace() { force_sgs_race_ = true; }

  // Releases 4G-side resources when the UE migrates to 3G (§5.1.1).
  void ReleaseBearerOnSwitchAway();

  EmmState state() const { return state_; }
  bool bearer_active() const { return bearer_.active; }
  std::uint64_t detaches_sent() const { return detaches_sent_; }
  std::uint64_t bearer_reactivations() const { return bearer_reactivations_; }
  std::uint64_t lu_recoveries() const { return lu_recoveries_; }
  // Detaches caused by stale/duplicated attach signaling (the S2 defect):
  // duplicate Attach Request rejects plus TAUs hitting an attach the MME
  // believes never completed.
  std::uint64_t stale_attach_detaches() const {
    return stale_attach_detaches_;
  }
  // SGs location updates that engaged the §6.3 race and failed (S6).
  std::uint64_t sgs_update_failures() const { return sgs_update_failures_; }

 protected:
  void OnStateLoss() override;
  void Dispatch(const nas::Message& m) override;
  bool MakeCongestionReject(const nas::Message& m,
                            nas::Message* r) const override;
  void Send(nas::Message m) override;

 private:
  void DetachUe(nas::EmmCause cause);

  Rng& rng_;
  const CarrierProfile& profile_;
  bool lu_recovery_fix_;
  sim::Link* downlink_ = nullptr;
  std::function<void(const nas::Message&)> transport_;
  Sgsn* sgsn_ = nullptr;
  Msc* msc_ = nullptr;
  Hss* hss_ = nullptr;
  nas::Imsi imsi_;
  std::function<void()> on_csfb_redirect_;

  EmmState state_ = EmmState::kDeregistered;
  nas::EpsBearerContext bearer_;
  bool pending_sgs_ = false;
  std::optional<bool> duplicate_attach_rejects_;
  // Operator-controlled extra latency for the next attach handling; armed
  // when the MME detaches the UE (Figure 4's recovery time).
  SimDuration next_attach_delay_ = 0;
  std::uint32_t next_ip_ = 0x0A01'0001;
  std::uint64_t detaches_sent_ = 0;
  std::uint64_t bearer_reactivations_ = 0;
  std::uint64_t lu_recoveries_ = 0;
  std::uint64_t stale_attach_detaches_ = 0;
  std::uint64_t sgs_update_failures_ = 0;
  bool force_sgs_race_ = false;
};

}  // namespace cnv::stack
