#include "stack/hss.h"

namespace cnv::stack {

bool Hss::AdmitOp() {
  if (overload_.policy == AdmissionPolicy::kOff) {
    ++stats_.admitted;
    return true;
  }
  if (sim_.now() >= window_start_ + overload_.service_time) {
    window_start_ = sim_.now();
    ops_in_window_ = 0;
  }
  if (overload_.policy != AdmissionPolicy::kUnbounded &&
      ops_in_window_ >= overload_.queue_capacity) {
    ++stats_.shed;
    return false;
  }
  ++ops_in_window_;
  if (ops_in_window_ > stats_.queue_peak) stats_.queue_peak = ops_in_window_;
  ++stats_.admitted;
  return true;
}

void Hss::UpdateLocation(nas::Imsi imsi, nas::System system) {
  if (!available_) {
    if (queue_while_down_) pending_.push_back({imsi, system, false});
    return;
  }
  if (!AdmitOp()) return;
  ++updates_;
  auto& loc = locations_[imsi.value];
  if (loc.system == nas::System::kNone && system != nas::System::kNone) {
    loc.deregistered_total += sim_.now() - loc.since;
  }
  loc.system = system;
  loc.since = sim_.now();
}

void Hss::PurgeLocation(nas::Imsi imsi) {
  if (!available_) {
    if (queue_while_down_) pending_.push_back({imsi, nas::System::kNone, true});
    return;
  }
  if (!AdmitOp()) return;
  ++updates_;
  auto& loc = locations_[imsi.value];
  if (loc.system != nas::System::kNone) {
    loc.system = nas::System::kNone;
    loc.since = sim_.now();
  }
}

void Hss::Restart(bool lose_state) {
  available_ = true;
  if (lose_state) locations_.clear();
  std::vector<PendingOp> pending = std::move(pending_);
  pending_.clear();
  for (const auto& op : pending) {
    if (op.purge) {
      PurgeLocation(op.imsi);
    } else {
      UpdateLocation(op.imsi, op.system);
    }
  }
}

nas::System Hss::CurrentSystem(nas::Imsi imsi) const {
  const auto it = locations_.find(imsi.value);
  return it == locations_.end() ? nas::System::kNone : it->second.system;
}

SimDuration Hss::DeregisteredTime(nas::Imsi imsi) const {
  const auto it = locations_.find(imsi.value);
  if (it == locations_.end()) return sim_.now();  // never registered
  SimDuration total = it->second.deregistered_total;
  if (it->second.system == nas::System::kNone) {
    total += sim_.now() - it->second.since;
  }
  return total;
}

}  // namespace cnv::stack
