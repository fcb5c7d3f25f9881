// HSS (Home Subscriber Server): stores subscription data and the current
// registration of each subscriber (Figure 1 places one in each core
// network; they share the subscriber view). The MME and MSC report location
// updates here, which gives experiments a network-wide view of where the
// subscriber is registered — and of windows during which no system has a
// valid registration (the out-of-service windows of S1/S2/S6).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "nas/ids.h"
#include "sim/simulator.h"
#include "stack/overload.h"
#include "util/time.h"

namespace cnv::stack {

class Hss {
 public:
  explicit Hss(sim::Simulator& sim) : sim_(sim) {}

  struct Subscription {
    nas::Imsi imsi;
    bool data_plan = true;
    bool roaming_allowed = true;
  };

  void Provision(const Subscription& sub) {
    subscribers_[sub.imsi.value] = sub;
  }

  // Registration reports from the serving elements.
  void UpdateLocation(nas::Imsi imsi, nas::System system);
  void PurgeLocation(nas::Imsi imsi);

  // Fault hooks: element outage + restart. While down, registration
  // reports are lost — unless queue-and-replay is enabled, in which case
  // they buffer and replay in order on restart. A lossy restart forgets the
  // location registry (subscription data survives: it is provisioned, not
  // volatile).
  void BeginOutage() { available_ = false; }
  void Restart(bool lose_state);
  void set_queue_while_down(bool q) { queue_while_down_ = q; }
  bool available() const { return available_; }
  std::size_t queued_while_down() const { return pending_.size(); }

  // Current registration (kNone when deregistered everywhere).
  nas::System CurrentSystem(nas::Imsi imsi) const;

  // Accumulated time the subscriber spent deregistered from both systems —
  // the aggregate out-of-service exposure of the run.
  SimDuration DeregisteredTime(nas::Imsi imsi) const;

  std::uint64_t updates_processed() const { return updates_; }

  // Overload control: the HSS is op-based (location updates/purges), so its
  // bounded "queue" is an op budget of `queue_capacity` per `service_time`
  // window; over-budget ops are shed. Disabled = unlimited (legacy).
  void ConfigureOverload(const OverloadConfig& cfg) { overload_ = cfg; }
  const OverloadStats& overload_stats() const { return stats_; }

 private:
  // Charges one location op against the overload budget; false = shed.
  bool AdmitOp();

  struct LocationState {
    nas::System system = nas::System::kNone;
    SimTime since = 0;
    SimDuration deregistered_total = 0;
  };

  struct PendingOp {
    nas::Imsi imsi;
    nas::System system = nas::System::kNone;
    bool purge = false;
  };

  sim::Simulator& sim_;
  std::unordered_map<std::uint64_t, Subscription> subscribers_;
  std::unordered_map<std::uint64_t, LocationState> locations_;
  std::uint64_t updates_ = 0;
  bool available_ = true;
  bool queue_while_down_ = false;
  std::vector<PendingOp> pending_;
  OverloadConfig overload_;
  OverloadStats stats_;
  SimTime window_start_ = 0;
  std::size_t ops_in_window_ = 0;
};

}  // namespace cnv::stack
