#include "stack/overload.h"

namespace cnv::stack {

std::string ToString(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::kOff:
      return "off";
    case AdmissionPolicy::kUnbounded:
      return "unbounded";
    case AdmissionPolicy::kRejectBackoff:
      return "reject-backoff";
    case AdmissionPolicy::kPriorityShed:
      return "priority-shed";
  }
  return "?";
}

bool ParseAdmissionPolicy(const std::string& s, AdmissionPolicy* out) {
  const std::string name =
      s == "reject" ? "reject-backoff" : s == "shed" ? "priority-shed" : s;
  for (const AdmissionPolicy p :
       {AdmissionPolicy::kOff, AdmissionPolicy::kUnbounded,
        AdmissionPolicy::kRejectBackoff, AdmissionPolicy::kPriorityShed}) {
    if (name == ToString(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

MsgPriority PriorityOf(nas::MsgKind k) {
  switch (k) {
    // Paging and call-path traffic: the class graceful degradation must
    // preserve (missed pages = missed calls, §6.1.1).
    case nas::MsgKind::kPagingRequest:
    case nas::MsgKind::kPagingResponse:
    case nas::MsgKind::kCallSetup:
    case nas::MsgKind::kCallConnect:
    case nas::MsgKind::kCallDisconnect:
    case nas::MsgKind::kExtendedServiceRequest:  // CSFB call origination
      return MsgPriority::kEmergency;
    // Initial registrations are the storm bulk: shed first.
    case nas::MsgKind::kAttachRequest:
    case nas::MsgKind::kGprsAttachRequest:
      return MsgPriority::kBulk;
    default:
      return MsgPriority::kSignalling;
  }
}

}  // namespace cnv::stack
