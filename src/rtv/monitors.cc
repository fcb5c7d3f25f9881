#include "rtv/monitors.h"

#include <string_view>

#include "util/strings.h"
#include "util/time.h"

namespace cnv::rtv {

std::string ToString(AlertKind k) {
  switch (k) {
    case AlertKind::kS1:
      return "S1";
    case AlertKind::kS2:
      return "S2";
    case AlertKind::kS3:
      return "S3";
    case AlertKind::kS4:
      return "S4";
    case AlertKind::kS5:
      return "S5";
    case AlertKind::kS6:
      return "S6";
    case AlertKind::kOverload:
      return "OVERLOAD";
  }
  return "?";
}

std::string FormatAlert(const Alert& a) {
  return FormatClock(a.time) + " [ALERT] [" + ToString(a.kind) + "] [stream " +
         std::to_string(a.stream) + "] " + a.detail;
}

std::string FormatAlertLog(const std::vector<Alert>& alerts) {
  std::string out;
  for (const auto& a : alerts) {
    out += FormatAlert(a);
    out += '\n';
  }
  return out;
}

Observation Observe(std::string_view module, std::string_view description,
                    SimTime time, std::string* text) {
  Observation o;
  o.time = time;
  if (const trace::EventRow* row = trace::Classify(module, description)) {
    o.kind = row->kind;
    o.facts = row->facts;
  }
  if (o.NeedsText()) text->assign(TrimView(description));
  return o;
}

void FindingMonitors::Step(const trace::TraceRecord& r, std::uint64_t ordinal,
                           std::vector<Alert>* out) {
  std::string text;
  const Observation o = Observe(r.module, r.description, r.time, &text);
  Step(o, text, ordinal, out);
}

void FindingMonitors::Step(const Observation& o, std::string_view text,
                           std::uint64_t ordinal, std::vector<Alert>* out) {
  // A power-on is a session boundary: whatever episode the previous capture
  // ended in (e.g. stranded in 3G after a CSFB call) must not bleed into
  // the new one.
  if (o.Has(Observation::kPowerOn)) {
    *this = FindingMonitors(stream_);
    return;
  }
  if (!o.kind) return;

  const auto emit = [&](AlertKind k, std::string detail) {
    out->push_back(Alert{k, stream_, o.time, ordinal, std::move(detail)});
  };

  using trace::AbstractKind;
  switch (*o.kind) {
    case AbstractKind::kCsfbFallback:
      in_3g_ = true;
      in_3g_csfb_ = true;
      csfb_call_ended_ = false;
      break;
    case AbstractKind::kSwitch4gTo3g:
      in_3g_ = true;
      in_3g_csfb_ = false;
      csfb_call_ended_ = false;
      break;
    case AbstractKind::kSwitch3gTo4g:
      if (pdp_lost_in_3g_) returned_after_loss_ = true;
      in_3g_ = false;
      in_3g_csfb_ = false;
      csfb_call_ended_ = false;
      break;

    case AbstractKind::kPdpDeactivated:
      if (in_3g_) pdp_lost_in_3g_ = true;
      break;

    case AbstractKind::kTauReject:
      if (returned_after_loss_ && o.Has(Observation::kNoEpsBearer)) {
        emit(AlertKind::kS1,
             "TAU rejected for the PDP context lost during the 3G visit; "
             "network detach imminent");
        pdp_lost_in_3g_ = false;
        returned_after_loss_ = false;
      }
      if (o.Has(Observation::kImplicitlyDetached)) {
        tau_implicit_reject_ = true;
      }
      break;

    case AbstractKind::kNetworkDetach:
      if (tau_implicit_reject_ && o.Has(Observation::kTauRejectDetach)) {
        emit(AlertKind::kS2,
             "network had already dropped the registration (lost Attach "
             "Complete): TAU Reject \"implicitly detached\"");
        tau_implicit_reject_ = false;
      }
      if (lu_disrupted_ && o.Has(Observation::kNetworkDetachRequest)) {
        emit(AlertKind::kS6,
             "implicit detach after the post-CSFB location update was "
             "disrupted by the inter-system switch");
        lu_disrupted_ = false;
      }
      break;

    case AbstractKind::kDataSessionStart:
      data_session_ = true;
      break;
    case AbstractKind::kDataSessionStop:
      data_session_ = false;
      break;

    case AbstractKind::kCallEnded:
      if (in_3g_csfb_) csfb_call_ended_ = true;
      dialed_cm_ = false;
      break;
    case AbstractKind::kAwaitReselection:
      if (csfb_call_ended_ && data_session_) {
        emit(AlertKind::kS3,
             "stranded in 3G after the CSFB call: active data session keeps "
             "the RRC channel, blocking reselection to 4G");
        csfb_call_ended_ = false;
      }
      break;

    case AbstractKind::kCallDialed:
      // Only a CM-layer dial can be HOL-blocked behind a location update;
      // a 4G dial surfaces as an EMM extended service request and rides
      // the CSFB path instead.
      if (o.Has(Observation::kCmLayerDial)) dialed_cm_ = true;
      break;
    case AbstractKind::kCmServiceRequest:
    case AbstractKind::kCallEstablished:
      dialed_cm_ = false;
      break;
    case AbstractKind::kCallDeferred:
      if (dialed_cm_) {
        emit(AlertKind::kS4,
             "outgoing call head-of-line blocked behind the in-progress "
             "location update");
        dialed_cm_ = false;
      }
      break;

    case AbstractKind::kChannelDegraded:
      if (data_session_ && !in_3g_csfb_) {
        emit(AlertKind::kS5,
             "CS voice call throttles the active data session (64QAM "
             "disabled on the shared channel)");
      }
      break;

    case AbstractKind::kLuDisrupted:
      lu_disrupted_ = true;
      break;

    case AbstractKind::kServiceRecovered:
      // Re-attach closes the mobility-management episode: stale partial
      // signatures must not bleed into the next one.
      pdp_lost_in_3g_ = false;
      returned_after_loss_ = false;
      tau_implicit_reject_ = false;
      lu_disrupted_ = false;
      break;

    case AbstractKind::kStormBegins:
      emit(AlertKind::kOverload, std::string(text));
      break;
    case AbstractKind::kCongestionBackoff:
      emit(AlertKind::kOverload,
           "UE entered congestion backoff: " + std::string(text));
      break;

    default:
      break;  // vocabulary the automata do not consume
  }
}

}  // namespace cnv::rtv
