// Signalling-storm workload generators. Each generator schedules a
// deterministic burst of background ("synthetic") or adversarial NAS
// messages straight into a core element's uplink path, modelling the crowd
// of other subscribers a congested cell serves: mass attach after an outage
// restart, tracking-area ping-pong, paging floods, and an adversarial UE
// replaying malformed/truncated/reordered NAS. No randomness is consumed —
// bursts are fixed (start, count, spacing) grids, so runs stay byte-
// identical per seed at any parallelism.
//
// A background burst aimed at a kOff (legacy) element is tallied, not
// stepped: on that core a synthetic uplink only bumps a counter, so the
// element counts the burst's passed steps in closed form
// (CoreElement::TallyBackground). Under admission control, and for the
// adversarial corpus, whose steps are traced, a burst is one
// Simulator::ScheduleSeries: a message's IMSI and replay uid derive from
// its step index, and a burst of any size holds one queue entry at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nas/messages.h"
#include "sim/simulator.h"
#include "trace/collector.h"
#include "util/time.h"

namespace cnv::stack {

class CoreElement;
class Mme;
class Msc;
class Sgsn;

class StormGenerator {
 public:
  StormGenerator(sim::Simulator& sim, trace::Collector& trace, Mme& mme,
                 Msc& msc, Sgsn& sgsn);
  StormGenerator(const StormGenerator&) = delete;
  StormGenerator& operator=(const StormGenerator&) = delete;

  // Mass attach (outage-restart stampede): `count` background subscribers
  // power on from `start`, one every `spacing`, each sending a bulk Attach
  // Request to the MME.
  void MassAttach(SimTime start, std::size_t count, SimDuration spacing);

  // Tracking-area ping-pong: devices on a cell border re-registering back
  // and forth, a burst of `count` TAU requests at the MME.
  void TaPingPong(SimTime start, std::size_t count, SimDuration spacing);

  // Paging flood: a burst of `count` paging responses at the MSC (the
  // emergency-priority class — admission control must not starve it).
  void PagingFlood(SimTime start, std::size_t count, SimDuration spacing);

  // Adversarial UE: cycles a deterministic corpus of malformed, truncated,
  // wrong-protocol and replayed NAS messages across MME/MSC/SGSN. These are
  // injected as foreground traffic (not synthetic) so the rejects and their
  // causes are visible in traces; every corpus entry is screened out or
  // dispatches as a state-safe no-op.
  void AdversarialNas(SimTime start, std::size_t count, SimDuration spacing);

  // Messages injected so far (replay duplicates count individually),
  // tallied steps included once their instant has passed.
  std::uint64_t injected() const;
  // Latest scheduled injection instant across all bursts (0 = no storm);
  // the recovery monitor measures time-to-drain from here.
  SimTime last_injection_at() const { return last_injection_at_; }

 private:
  void NoteBurst(SimTime start, std::size_t count, SimDuration spacing);
  // Traces "<what> (count=... spacing=...)" when the burst starts.
  void Announce(SimTime start, nas::System system, std::string what,
                std::size_t count, SimDuration spacing);
  // Offers `count` synthetic messages to `target`; `fill` sets step i's
  // kind and fields. Tallied on a kOff target, a series otherwise.
  void Background(CoreElement& target, SimTime start, std::size_t count,
                  SimDuration spacing,
                  std::function<void(std::size_t, nas::Message&)> fill);

  sim::Simulator& sim_;
  trace::Collector& trace_;
  Mme& mme_;
  Msc& msc_;
  Sgsn& sgsn_;
  std::uint64_t injected_ = 0;  // stepped messages
  std::vector<sim::Simulator::KeyBlock> tallied_;  // one per tallied burst
  SimTime last_injection_at_ = 0;
  std::uint64_t next_uid_ = 1;
  std::uint64_t next_bg_imsi_ = 901'000'000'000'001ULL;
};

}  // namespace cnv::stack
