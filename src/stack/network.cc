#include "stack/network.h"

#include <stdexcept>
#include <utility>

#include "stack/hss.h"

#include "nas/timers.h"
#include "util/log.h"

namespace cnv::stack {

namespace {
// Core-network processing time for simple request/answer exchanges.
constexpr SimDuration kCoreProcessing = Millis(50);
}  // namespace

// --------------------------------------------------------- CoreElement ---

CoreElement::CoreElement(sim::Simulator& sim, nas::System system,
                         std::string module)
    : sim_(sim), system_(system), module_(std::move(module)) {}

bool CoreElement::Admit(const nas::Message& m) {
  if (available_) return true;
  if (queue_while_down_) {
    pending_.push_back(m);
  } else {
    CNV_LOG_DEBUG << "core element down: uplink lost (" << m.Describe() << ")";
  }
  return false;
}

void CoreElement::Restart(bool lose_state) {
  available_ = true;
  if (lose_state) OnStateLoss();
  // Buffered uplinks live in the transport in front of the element, so they
  // survive even a lossy restart and replay in arrival order.
  std::vector<nas::Message> pending = std::move(pending_);
  pending_.clear();
  for (const auto& m : pending) OnUplink(m);
  // Signalling that was already in the service queue resumes draining.
  EnsureDraining();
}

void CoreElement::TraceEvent(std::string description) {
  if (trace_ != nullptr) {
    trace_->Event(system_, module_, std::move(description));
  }
}

bool CoreElement::Screen(const nas::Message& m) {
  if (m.integrity != nas::MsgIntegrity::kOk) {
    // Adversarial NAS: refuse without touching any FSM state. TS 24.301
    // §7.x / TS 24.008 §8: semantically incorrect messages are rejected
    // with cause "semantically incorrect message".
    ++stats_.integrity_rejected;
    if (!m.synthetic) {
      TraceEvent("Rejected " + ToString(m.integrity) + " " +
                 ToString(m.kind) +
                 " (cause: semantically incorrect message)");
    }
    return false;
  }
  if (m.uid != 0) {
    // Replay cache: normal stack traffic never stamps uids, so only
    // adversarial duplicates can hit this path.
    if (!seen_uids_.insert(m.uid).second) {
      ++stats_.replay_dropped;
      if (!m.synthetic) {
        TraceEvent("Dropped replayed " + ToString(m.kind) +
                   " (duplicate uid)");
      }
      return false;
    }
  }
  return true;
}

void CoreElement::OnUplink(const nas::Message& m) {
  if (!Admit(m)) return;
  if (!Screen(m)) return;
  if (overload_.policy == AdmissionPolicy::kOff) {
    // Legacy zero-queueing core: dispatch immediately. Synthetic storm
    // load is still "served" (it consumes nothing here — exactly why an
    // unmodeled core cannot degrade gracefully).
    if (m.synthetic) {
      ++stats_.background_served;
      return;
    }
    ++stats_.admitted;
    Dispatch(m);
    return;
  }
  if (overload_.policy != AdmissionPolicy::kUnbounded &&
      queue_.size() >= overload_.queue_capacity) {
    Overflow(m);
    return;
  }
  Enqueue(m);
}

void CoreElement::Enqueue(const nas::Message& m) {
  if (queue_.empty()) busy_since_ = sim_.now();
  queue_.push_back(m);
  if (queue_.size() > stats_.queue_peak) stats_.queue_peak = queue_.size();
  EnsureDraining();
}

SimTime CoreElement::DrainedAfter(SimTime t) const {
  for (const auto& [start, emptied] : busy_periods_) {
    if (emptied < t) continue;
    // The first busy period reaching past t: either it started after t
    // (the queue was already empty at t) or it emptied the backlog.
    return start > t ? t : emptied;
  }
  if (queue_.empty()) return t;        // empty ever since the last record
  return busy_since_ > t ? t : -1;     // ongoing backlog spans t: not drained
}

void CoreElement::Overflow(const nas::Message& m) {
  if (overload_.policy == AdmissionPolicy::kRejectBackoff) {
    nas::Message r;
    if (MakeCongestionReject(m, &r)) {
      r.backoff = overload_.t3346_backoff;
      ++stats_.rejected_congestion;
      if (!m.synthetic) {
        TraceEvent("Overload reject: " + r.Describe() + " [backoff " +
                   FormatDuration(r.backoff) + "]");
        Send(r);
      }
    } else {
      // No reject counterpart for this kind: the overflow is shed.
      ++stats_.shed;
      if (!m.synthetic) TraceEvent("Overload shed: " + ToString(m.kind));
    }
    return;
  }
  // Priority shed: drop the least important message, favouring the newest
  // among equals, so emergency and paging traffic survives bulk attach
  // floods deterministically.
  const MsgPriority incoming = PriorityOf(m.kind);
  std::size_t victim = queue_.size();  // sentinel: shed the incoming message
  MsgPriority worst = incoming;
  for (std::size_t i = queue_.size(); i-- > 0;) {
    const MsgPriority p = PriorityOf(queue_[i].kind);
    if (p > worst) {
      worst = p;
      victim = i;
    }
  }
  if (victim == queue_.size()) {
    Shed(m, "");
    return;
  }
  const nas::Message dropped = queue_[victim];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
  Shed(dropped, " (displaced by " + ToString(m.kind) + ")");
  Enqueue(m);
}

void CoreElement::Shed(const nas::Message& victim, const std::string& how) {
  ++stats_.shed;
  if (victim.synthetic) return;
  // Real devices get told about the shed when the procedure defines a
  // reject, so they back off instead of hammering their guard timers.
  nas::Message r;
  if (MakeCongestionReject(victim, &r)) {
    r.backoff = overload_.t3346_backoff;
    TraceEvent("Overload shed: " + ToString(victim.kind) + how +
               " [notified, backoff " + FormatDuration(r.backoff) + "]");
    Send(r);
  } else {
    TraceEvent("Overload shed: " + ToString(victim.kind) + how);
  }
}

void CoreElement::EnsureDraining() {
  if (draining_ || queue_.empty() || !available_) return;
  draining_ = true;
  sim_.ScheduleIn(overload_.service_time, [this] { DrainOne(); });
}

void CoreElement::DrainOne() {
  if (!available_) {
    // Outage mid-drain: the backlog stays queued; Restart resumes it.
    draining_ = false;
    return;
  }
  if (queue_.empty()) {
    draining_ = false;
    busy_periods_.emplace_back(busy_since_, sim_.now());
    return;
  }
  const nas::Message m = queue_.front();
  queue_.pop_front();
  if (m.synthetic) {
    ++stats_.background_served;
  } else {
    ++stats_.admitted;
    Dispatch(m);
  }
  if (queue_.empty()) {
    draining_ = false;
    busy_periods_.emplace_back(busy_since_, sim_.now());
    return;
  }
  sim_.ScheduleIn(overload_.service_time, [this] { DrainOne(); });
}

// ---------------------------------------------------------------- Sgsn ---

Sgsn::Sgsn(sim::Simulator& sim, Rng& rng, const CarrierProfile& profile)
    : CoreElement(sim, nas::System::k3G, "GMM"), rng_(rng),
      profile_(profile) {}

void Sgsn::Send(nas::Message m) {
  if (!available()) return;  // reply lost: element went down mid-processing
  if (downlink_ == nullptr) throw std::logic_error("Sgsn: no downlink");
  downlink_->Send(m);
}

void Sgsn::OnStateLoss() {
  registered_ = false;
  pdp_.active = false;
}

bool Sgsn::MakeCongestionReject(const nas::Message& m, nas::Message* r) const {
  switch (m.kind) {
    case nas::MsgKind::kGprsAttachRequest:
      r->kind = nas::MsgKind::kGprsAttachReject;
      r->protocol = nas::Protocol::kGmm;
      r->mm_cause = nas::MmCause::kCongestion;
      return true;
    case nas::MsgKind::kRauRequest:
      r->kind = nas::MsgKind::kRauReject;
      r->protocol = nas::Protocol::kGmm;
      r->mm_cause = nas::MmCause::kCongestion;
      return true;
    case nas::MsgKind::kPdpActivateRequest:
      r->kind = nas::MsgKind::kPdpActivateReject;
      r->protocol = nas::Protocol::kSm;
      r->pdp_cause = nas::PdpDeactCause::kInsufficientResources;
      return true;
    default:
      return false;
  }
}

void Sgsn::Dispatch(const nas::Message& m) {
  switch (m.kind) {
    case nas::MsgKind::kGprsAttachRequest: {
      registered_ = true;
      nas::Message r;
      r.kind = nas::MsgKind::kGprsAttachAccept;
      r.protocol = nas::Protocol::kGmm;
      sim_.ScheduleIn(kCoreProcessing, [this, r] { Send(r); });
      break;
    }
    case nas::MsgKind::kRauRequest: {
      registered_ = true;
      nas::Message r;
      r.kind = nas::MsgKind::kRauAccept;
      r.protocol = nas::Protocol::kGmm;
      sim_.ScheduleIn(profile_.rau_processing.Sample(rng_),
                      [this, r] { Send(r); });
      break;
    }
    case nas::MsgKind::kPdpActivateRequest: {
      pdp_ = m.pdp;
      pdp_.active = true;
      if (pdp_.ip_address == 0) pdp_.ip_address = next_ip_++;
      nas::Message r;
      r.kind = nas::MsgKind::kPdpActivateAccept;
      r.protocol = nas::Protocol::kSm;
      r.pdp = pdp_;
      sim_.ScheduleIn(kCoreProcessing, [this, r] { Send(r); });
      break;
    }
    case nas::MsgKind::kPdpDeactivateRequest: {
      // UE-initiated deactivation (e.g. mobile data disabled).
      pdp_.active = false;
      nas::Message r;
      r.kind = nas::MsgKind::kPdpDeactivateAccept;
      r.protocol = nas::Protocol::kSm;
      sim_.ScheduleIn(kCoreProcessing, [this, r] { Send(r); });
      break;
    }
    case nas::MsgKind::kPdpDeactivateAccept:
      break;  // UE confirmed a network-initiated deactivation
    default:
      CNV_LOG_WARN << "Sgsn: unexpected " << m.Describe();
      break;
  }
}

void Sgsn::StoreMigratedContext(const nas::PdpContext& pdp) {
  pdp_ = pdp;
  registered_ = true;
}

std::optional<nas::PdpContext> Sgsn::TakeContextFor4g() {
  if (!pdp_.active) return std::nullopt;
  nas::PdpContext out = pdp_;
  // Resources on the 3G side are released after the migration.
  pdp_.active = false;
  registered_ = false;
  return out;
}

void Sgsn::DeactivatePdp(nas::PdpDeactCause cause) {
  if (!pdp_.active) return;
  pdp_.active = false;
  nas::Message r;
  r.kind = nas::MsgKind::kPdpDeactivateRequest;
  r.protocol = nas::Protocol::kSm;
  r.pdp_cause = cause;
  Send(r);
}

// ----------------------------------------------------------------- Msc ---

Msc::Msc(sim::Simulator& sim, Rng& rng, const CarrierProfile& profile)
    : CoreElement(sim, nas::System::k3G, "MM"), rng_(rng),
      profile_(profile) {}

void Msc::Send(nas::Message m) {
  if (!available()) return;  // reply lost: element went down mid-processing
  if (downlink_ == nullptr) throw std::logic_error("Msc: no downlink");
  downlink_->Send(m);
}

void Msc::OnStateLoss() {
  registered_ = false;
  call_active_ = false;
  last_lu_completed_ = false;
  disrupt_next_lu_ = false;
}

bool Msc::MakeCongestionReject(const nas::Message& m, nas::Message* r) const {
  switch (m.kind) {
    case nas::MsgKind::kLocationUpdateRequest:
      r->kind = nas::MsgKind::kLocationUpdateReject;
      r->protocol = nas::Protocol::kMm;
      r->mm_cause = nas::MmCause::kCongestion;
      return true;
    case nas::MsgKind::kCmServiceRequest:
      r->kind = nas::MsgKind::kCmServiceReject;
      r->protocol = nas::Protocol::kMm;
      r->mm_cause = nas::MmCause::kCongestion;
      return true;
    default:
      return false;
  }
}

void Msc::Dispatch(const nas::Message& m) {
  switch (m.kind) {
    case nas::MsgKind::kLocationUpdateRequest: {
      if (disrupt_next_lu_) {
        // OP-I's S6 mode: the fast switch back to 4G cuts the deferred
        // update short. No accept is ever sent; the incomplete status is
        // later reported over SGs.
        disrupt_next_lu_ = false;
        last_lu_completed_ = false;
        break;
      }
      nas::Message r;
      r.kind = nas::MsgKind::kLocationUpdateAccept;
      r.protocol = nas::Protocol::kMm;
      sim_.ScheduleIn(profile_.lau_processing.Sample(rng_), [this, r] {
        registered_ = true;
        last_lu_completed_ = true;
        if (hss_ != nullptr) hss_->UpdateLocation(imsi_, nas::System::k3G);
        Send(r);
      });
      break;
    }
    case nas::MsgKind::kCmServiceRequest: {
      nas::Message r;
      r.kind = nas::MsgKind::kCmServiceAccept;
      r.protocol = nas::Protocol::kMm;
      sim_.ScheduleIn(kCoreProcessing, [this, r] {
        // Serving the outbound request implicitly refreshes the location.
        registered_ = true;
        Send(r);
      });
      break;
    }
    case nas::MsgKind::kCallSetup: {
      nas::Message r;
      r.kind = nas::MsgKind::kCallConnect;
      r.protocol = nas::Protocol::kCm;
      sim_.ScheduleIn(call_setup_latency_.Sample(rng_), [this, r] {
        call_active_ = true;
        Send(r);
      });
      break;
    }
    case nas::MsgKind::kCallDisconnect:
      call_active_ = false;
      break;
    case nas::MsgKind::kCallConnect:
      // MT call: the device answered.
      call_active_ = true;
      break;
    case nas::MsgKind::kPagingResponse: {
      // MT call setup: the device answered the page; connect the call.
      nas::Message r;
      r.kind = nas::MsgKind::kCallSetup;
      r.protocol = nas::Protocol::kCm;
      sim_.ScheduleIn(kCoreProcessing, [this, r] { Send(r); });
      break;
    }
    case nas::MsgKind::kImsiDetach:
      registered_ = false;
      if (hss_ != nullptr) hss_->PurgeLocation(imsi_);
      break;
    default:
      CNV_LOG_WARN << "Msc: unexpected " << m.Describe();
      break;
  }
}

void Msc::RecoverLocationUpdate() {
  registered_ = true;
  last_lu_completed_ = true;
  if (hss_ != nullptr) hss_->UpdateLocation(imsi_, nas::System::k3G);
}

bool Msc::PageForIncomingCall() {
  if (!registered_) {
    // No (valid) location: the incoming call cannot be routed.
    ++missed_incoming_calls_;
    return false;
  }
  nas::Message r;
  r.kind = nas::MsgKind::kPagingRequest;
  r.protocol = nas::Protocol::kMm;
  Send(r);
  return true;
}

nas::MmCause Msc::OnSgsLocationUpdate(bool first_update_completed) {
  if (profile_.lu_failure_mode == LuFailureMode::kFirstUpdateDisrupted &&
      !first_update_completed) {
    // The device-initiated first update never finished; the incomplete
    // status propagates (OP-I, §6.3).
    return nas::MmCause::kUpdateDisrupted;
  }
  if (profile_.lu_failure_mode == LuFailureMode::kSecondUpdateRejected &&
      first_update_completed && registered_) {
    // The first update already succeeded, so the MSC refuses the relayed
    // second one (OP-II, §6.3).
    return nas::MmCause::kMscTemporarilyNotReachable;
  }
  registered_ = true;
  return nas::MmCause::kNone;
}

// ----------------------------------------------------------------- Mme ---

Mme::Mme(sim::Simulator& sim, Rng& rng, const CarrierProfile& profile,
         bool lu_recovery_fix)
    : CoreElement(sim, nas::System::k4G, "EMM"), rng_(rng), profile_(profile),
      lu_recovery_fix_(lu_recovery_fix) {}

void Mme::Send(nas::Message m) {
  if (!available()) return;  // reply lost: element went down mid-processing
  if (transport_) {
    transport_(m);
    return;
  }
  if (downlink_ == nullptr) throw std::logic_error("Mme: no downlink");
  downlink_->Send(m);
}

void Mme::OnStateLoss() {
  // A crashed MME forgets its EMM contexts; the HSS keeps its (now stale)
  // view until the UE re-registers — exactly the mismatch the recovery
  // monitors are after.
  state_ = EmmState::kDeregistered;
  bearer_.active = false;
  pending_sgs_ = false;
  next_attach_delay_ = 0;
}

void Mme::DetachUe(nas::EmmCause cause) {
  state_ = EmmState::kDeregistered;
  bearer_.active = false;
  ++detaches_sent_;
  if (hss_ != nullptr) hss_->PurgeLocation(imsi_);
  // The re-registration that follows is operator-controlled and slow
  // (Figure 4): arm the extra processing for the next attach.
  next_attach_delay_ = profile_.reattach_delay.Sample(rng_);
  nas::Message r;
  r.kind = nas::MsgKind::kDetachRequest;
  r.protocol = nas::Protocol::kEmm;
  r.emm_cause = cause;
  Send(r);
}

bool Mme::MakeCongestionReject(const nas::Message& m, nas::Message* r) const {
  switch (m.kind) {
    case nas::MsgKind::kAttachRequest:
      r->kind = nas::MsgKind::kAttachReject;
      r->protocol = nas::Protocol::kEmm;
      r->emm_cause = nas::EmmCause::kCongestion;
      return true;
    case nas::MsgKind::kTauRequest:
      r->kind = nas::MsgKind::kTauReject;
      r->protocol = nas::Protocol::kEmm;
      r->emm_cause = nas::EmmCause::kCongestion;
      return true;
    default:
      return false;
  }
}

void Mme::Dispatch(const nas::Message& m) {
  switch (m.kind) {
    case nas::MsgKind::kAttachRequest: {
      if (state_ == EmmState::kRegistered) {
        // Duplicate attach at a registered MME (Figure 5b): TS 24.301 —
        // delete the bearer contexts and reprocess the request. Both
        // outcomes are allowed; rejecting is the damaging one.
        bearer_.active = false;
        const bool reject = duplicate_attach_rejects_.has_value()
                                ? *duplicate_attach_rejects_
                                : rng_.Bernoulli(0.5);
        if (reject) {
          nas::Message r;
          r.kind = nas::MsgKind::kAttachReject;
          r.protocol = nas::Protocol::kEmm;
          r.emm_cause = nas::EmmCause::kImplicitlyDetached;
          state_ = EmmState::kDeregistered;
          ++detaches_sent_;
          ++stale_attach_detaches_;
          if (hss_ != nullptr) hss_->PurgeLocation(imsi_);
          sim_.ScheduleIn(kCoreProcessing, [this, r] { Send(r); });
          break;
        }
      }
      const SimDuration delay = kCoreProcessing + next_attach_delay_;
      next_attach_delay_ = 0;
      nas::Message r;
      r.kind = nas::MsgKind::kAttachAccept;
      r.protocol = nas::Protocol::kEmm;
      bearer_.ip_address = next_ip_++;
      bearer_.active = false;  // staged until Attach Complete
      r.eps = bearer_;
      r.eps.active = true;
      sim_.ScheduleIn(delay, [this, r] {
        state_ = EmmState::kWaitComplete;
        Send(r);
      });
      break;
    }
    case nas::MsgKind::kAttachComplete:
      if (state_ == EmmState::kWaitComplete) {
        state_ = EmmState::kRegistered;
        bearer_.active = true;
        if (hss_ != nullptr) hss_->UpdateLocation(imsi_, nas::System::k4G);
      }
      break;
    case nas::MsgKind::kTauRequest: {
      if (state_ == EmmState::kWaitComplete ||
          state_ == EmmState::kDeregistered) {
        // §5.2.1: the MME believes the attach never completed; the update
        // is rejected with "implicitly detach".
        nas::Message r;
        r.kind = nas::MsgKind::kTauReject;
        r.protocol = nas::Protocol::kEmm;
        r.emm_cause = nas::EmmCause::kImplicitlyDetached;
        state_ = EmmState::kDeregistered;
        bearer_.active = false;
        ++detaches_sent_;
        ++stale_attach_detaches_;
        if (hss_ != nullptr) hss_->PurgeLocation(imsi_);
        next_attach_delay_ = profile_.reattach_delay.Sample(rng_);
        sim_.ScheduleIn(kCoreProcessing, [this, r] { Send(r); });
        break;
      }
      // Inter-system TAU: try to rebuild the EPS bearer context from the
      // 3G PDP context (§5.1.1).
      if (!bearer_.active) {
        std::optional<nas::PdpContext> pdp;
        if (sgsn_ != nullptr) pdp = sgsn_->TakeContextFor4g();
        if (pdp.has_value()) {
          const auto eps = nas::ToEpsBearerContext(*pdp);
          bearer_ = *eps;  // guaranteed active: TakeContextFor4g filters
        } else if (m.eps.active) {
          // §8 remedy on the UE side: the TAU carries a request to
          // activate a fresh default bearer instead of detaching.
          bearer_.ip_address = next_ip_++;
          bearer_.active = true;
          ++bearer_reactivations_;
        } else {
          // 4G mandates the context: reject and detach (S1).
          nas::Message r;
          r.kind = nas::MsgKind::kTauReject;
          r.protocol = nas::Protocol::kEmm;
          r.emm_cause = nas::EmmCause::kNoEpsBearerContextActive;
          state_ = EmmState::kDeregistered;
          ++detaches_sent_;
          if (hss_ != nullptr) hss_->PurgeLocation(imsi_);
          next_attach_delay_ = profile_.reattach_delay.Sample(rng_);
          sim_.ScheduleIn(kCoreProcessing, [this, r] { Send(r); });
          break;
        }
      }
      nas::Message r;
      r.kind = nas::MsgKind::kTauAccept;
      r.protocol = nas::Protocol::kEmm;
      r.eps = bearer_;
      if (hss_ != nullptr) hss_->UpdateLocation(imsi_, nas::System::k4G);
      sim_.ScheduleIn(kCoreProcessing, [this, r] { Send(r); });
      if (pending_sgs_) {
        // Post-CSFB: relay the location update to the 3G MSC over SGs
        // (§6.3) once the TAU has been answered.
        pending_sgs_ = false;
        const bool race_hit =
            force_sgs_race_ || rng_.Bernoulli(profile_.lu_failure_prob);
        force_sgs_race_ = false;
        sim_.ScheduleIn(kCoreProcessing + Millis(100), [this, race_hit] {
          RunSgsLocationUpdate(race_hit);
        });
      }
      break;
    }
    case nas::MsgKind::kExtendedServiceRequest:
      // CSFB: order the BS to release the RRC connection with redirection
      // to the 3G cell (TS 23.272).
      if (on_csfb_redirect_) {
        sim_.ScheduleIn(kCoreProcessing, [this] { on_csfb_redirect_(); });
      }
      break;
    case nas::MsgKind::kEsmActivateBearerRequest: {
      bearer_.ip_address = next_ip_++;
      bearer_.active = true;
      nas::Message r;
      r.kind = nas::MsgKind::kEsmActivateBearerAccept;
      r.protocol = nas::Protocol::kEsm;
      r.eps = bearer_;
      sim_.ScheduleIn(kCoreProcessing, [this, r] { Send(r); });
      break;
    }
    case nas::MsgKind::kDetachRequest:
      // UE-initiated detach (power off).
      state_ = EmmState::kDeregistered;
      bearer_.active = false;
      if (hss_ != nullptr) hss_->PurgeLocation(imsi_);
      break;
    default:
      CNV_LOG_WARN << "Mme: unexpected " << m.Describe();
      break;
  }
}

void Mme::RunSgsLocationUpdate(bool race_hit) {
  if (msc_ == nullptr) throw std::logic_error("Mme: no MSC for SGs");
  if (!race_hit) {
    // The common case: the relayed update simply completes.
    msc_->RecoverLocationUpdate();
    return;
  }
  // The §6.3 race engaged. The failure shape depends on the carrier: OP-I's
  // deferred first update was cut short (report it incomplete); OP-II's
  // first update completed, so the MSC refuses the relayed second one.
  const bool first_update_completed =
      profile_.lu_failure_mode == LuFailureMode::kSecondUpdateRejected;
  const nas::MmCause cause = msc_->OnSgsLocationUpdate(first_update_completed);
  if (cause == nas::MmCause::kNone) return;
  ++sgs_update_failures_;
  if (lu_recovery_fix_) {
    // §8 cross-system coordination: absorb the 3G failure inside the core
    // and redo the update on the device's behalf; never detach the UE.
    ++lu_recoveries_;
    msc_->RecoverLocationUpdate();
    return;
  }
  // Operational slip (S6): the 3G failure is propagated to the device.
  DetachUe(cause == nas::MmCause::kMscTemporarilyNotReachable
               ? nas::EmmCause::kMscTemporarilyNotReachable
               : nas::EmmCause::kImplicitlyDetached);
}

void Mme::ReleaseBearerOnSwitchAway() {
  // The 4G-side bearer reservation is released after the context migration
  // (§5.1.1); the EMM registration itself survives the inter-system switch.
  bearer_.active = false;
}

}  // namespace cnv::stack
