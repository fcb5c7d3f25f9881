// Overload control for the core-network elements: bounded signalling queues
// with a configurable admission policy. The paper's findings are all
// stress-induced protocol interactions; this layer makes overload, shedding
// and backoff first-class deterministic behaviours so storm campaigns can
// compare how admission policies degrade (ROADMAP: congested-cell storms).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "nas/messages.h"
#include "nas/timers.h"
#include "util/time.h"

namespace cnv::stack {

// How a core element admits signalling. kOff is the legacy zero-queueing
// core; every other policy serializes signalling through a service queue
// and decides what happens when that queue is full.
enum class AdmissionPolicy : std::uint8_t {
  // No queue: every uplink is processed the instant it arrives (existing
  // tests and goldens rely on this byte-for-byte).
  kOff,
  // A service queue with no admission control: everything is accepted and
  // the backlog grows without limit (the storm baseline that blows past
  // the degradation SLOs).
  kUnbounded,
  // Reject the overflow with cause "congestion" plus a T3346-style backoff
  // grant; the UE must not retry before the timer expires (TS 24.301
  // §5.3.5). Kinds with no reject counterpart are dropped silently.
  kRejectBackoff,
  // Shed the lowest-priority message (queued or incoming), preserving
  // emergency and paging traffic while dropping bulk attach. Real (non-
  // synthetic) victims whose procedure defines a reject are notified with
  // cause "congestion" so they back off like under kRejectBackoff.
  kPriorityShed,
};

// "off", "unbounded", "reject-backoff", "priority-shed".
std::string ToString(AdmissionPolicy p);
// Parses what ToString prints, plus "reject" and "shed". Returns false on
// junk.
bool ParseAdmissionPolicy(const std::string& s, AdmissionPolicy* out);

// Scheduling class of a signalling message under priority shed. Lower value
// = more important = shed last.
enum class MsgPriority : std::uint8_t {
  kEmergency = 0,  // paging + call-path traffic: never shed before bulk
  kSignalling = 1, // mobility updates, session management, completes
  kBulk = 2,       // initial attach floods (the storm traffic)
};

MsgPriority PriorityOf(nas::MsgKind k);

struct OverloadConfig {
  AdmissionPolicy policy = AdmissionPolicy::kOff;
  // Bounded-queue depth (ignored under kOff and kUnbounded).
  std::size_t queue_capacity = 16;
  // Deterministic per-message service time while draining the queue
  // (ignored under kOff).
  SimDuration service_time = Millis(5);
  // Backoff granted with congestion rejects (Message::backoff).
  SimDuration t3346_backoff = nas::timers::kT3346CongestionBackoff;
};

// Per-element overload counters, harvested by obs and the fault monitor.
struct OverloadStats {
  std::uint64_t admitted = 0;             // dispatched to the protocol FSMs
  std::uint64_t rejected_congestion = 0;  // overflow answered with a reject
  std::uint64_t shed = 0;                 // overflow dropped without a reply
  std::uint64_t background_served = 0;    // synthetic storm load drained
  std::uint64_t integrity_rejected = 0;   // malformed/truncated NAS refused
  std::uint64_t replay_dropped = 0;       // duplicate uid caught by the cache
  std::size_t queue_peak = 0;             // high-water mark of the queue

  // Messages that asked for core capacity, by any outcome.
  std::uint64_t offered() const {
    return admitted + rejected_congestion + shed + background_served;
  }
  // Fraction of offered signalling that was turned away (reject or shed).
  double shed_fraction() const {
    const std::uint64_t off = offered();
    if (off == 0) return 0.0;
    return static_cast<double>(rejected_congestion + shed) /
           static_cast<double>(off);
  }
};

}  // namespace cnv::stack
