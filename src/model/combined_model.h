// Combined multi-UE protocol model — CSFB call setup, location update and
// PDP-context management running concurrently over N interchangeable UEs
// that share one MSC. Where the S1-S4 screening slices each isolate a
// single protocol interaction, this model composes the call (CM/CSFB),
// mobility (MM/LU) and data (SM/PDP) machines of every UE, so the
// cross-layer *and* cross-UE interactions of the paper are reachable in one
// state space:
//
//  * PacketService_OK — a CSFB fallback (or a 3G network-initiated PDP
//    deactivation) leaves the UE with no packet context; the switch back to
//    4G then detaches it (the S1 inter-system interaction).
//  * CallService_OK  — a UE that finished its location update finds the
//    shared MSC held by another UE's LU or call and abandons the call
//    (CSFB x LU contention; needs >= 2 UEs, unreachable in any slice).
//  * MM_OK           — with the network's switch-back disabled the UE stays
//    camped on 3G after the CSFB call ends (the stuck-in-3G interaction).
//
// The full product over N UEs is what the state-space reductions are for:
// UEs are symmetric (canonical form = sorted UE blocks) and their private
// actions are independent (single-UE ample sets), so the model declares a
// full ReductionSpec. Every violation reachable in the full product is
// reachable in the reduced one — pinned by tests/mck_por_test.cc and
// tests/mck_symmetry_test.cc.
//
// Solution knobs (§8):
//  * `fix_keep_context`      — retain the PDP context across the CSFB
//                              fallback (removes the main detach path);
//  * `fix_reactivate_bearer` — a context-less switch-back activates a fresh
//                              EPS bearer instead of detaching;
//  * `fix_queue_call`        — hold the call until the MSC frees up instead
//                              of abandoning it.
// With fix_reactivate_bearer and fix_queue_call set (and switch_back on,
// the default) the model is violation-free.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "mck/hash.h"
#include "mck/property.h"
#include "mck/reduction.h"
#include "model/vocab.h"

namespace cnv::model {

struct CombinedModel {
  static constexpr std::size_t kMaxUes = 4;

  struct Config {
    int ues = 2;  // active UEs, in [1, kMaxUes]
    bool fix_keep_context = false;
    bool fix_reactivate_bearer = false;
    bool fix_queue_call = false;
    // Whether the network returns the UE to 4G once its CSFB call ends;
    // disabling it models the stuck-in-3G misconfiguration (MM_OK).
    bool switch_back = true;
    std::uint8_t max_calls = 1;     // dial budget per UE
    std::uint8_t max_switches = 1;  // switch-back budget per UE
  };

  CombinedModel() = default;
  // Throws std::invalid_argument when config.ues is outside [1, kMaxUes]:
  // the state holds a fixed array of kMaxUes UE blocks.
  explicit CombinedModel(Config config) : config_(config) {
    if (config.ues < 1 || config.ues > static_cast<int>(kMaxUes)) {
      throw std::invalid_argument("CombinedModel: ues must be in [1, " +
                                  std::to_string(kMaxUes) + "], got " +
                                  std::to_string(config.ues));
    }
  }

  enum class Sys : std::uint8_t { k4G, k3G };
  // Mobility management: registered on 4G; after a fallback the UE owes the
  // 3G core a location update (pending -> running -> registered).
  enum class Mm : std::uint8_t { kReg4G, kLuPending, kLuRun, kReg3G };
  // Call management: one CSFB call lifecycle per dial.
  enum class Cm : std::uint8_t { kIdle, kWant, kActive, kDone };

  // Per-UE block. Ordered (not just equality-comparable) so symmetry
  // reduction can sort the blocks into a canonical representative.
  struct Ue {
    Sys serving = Sys::k4G;
    Mm mm = Mm::kReg4G;
    Cm cm = Cm::kIdle;
    bool ctx = true;  // packet context (EPS bearer on 4G / PDP on 3G)
    bool out_of_service = false;
    bool call_dropped = false;
    std::uint8_t calls = 0;
    std::uint8_t switches = 0;
    auto operator<=>(const Ue&) const = default;
  };

  struct State {
    std::array<Ue, kMaxUes> ue{};
    // The shared MSC/RNC resource: serves one location update or call setup
    // at a time. The only cross-UE coupling in the model.
    bool msc_busy = false;
    // Byte equality: the state has no padding (asserted in
    // combined_model.cc), so this is the memberwise comparison done as a
    // few word compares — it runs on every visited-table probe hit.
    bool operator==(const State& o) const {
      return std::memcmp(this, &o, sizeof(State)) == 0;
    }
  };

  enum class Kind : std::uint8_t {
    kDial,          // user asks for a voice call
    kCsfbFallback,  // 4G -> 3G circuit-switched fallback
    kLuStart,       // location update grabs the MSC
    kLuDone,        // location update completes, MSC freed
    kCallConnect,   // call setup grabs the MSC
    kCallGiveUp,    // MSC held by another UE: call abandoned
    kHangup,        // call ends, MSC freed
    kPdpDeact,      // 3G deactivates the PDP context (any Table 3 cause)
    kSwitchBack,    // network moves the idle UE back to 4G
    kReattach,      // user recovers an out-of-service UE
  };

  struct Action {
    Kind kind = Kind::kDial;
    std::uint8_t ue = 0;
  };

  State initial() const { return {}; }
  std::vector<Action> enabled(const State& s) const;
  State apply(const State& s, const Action& a) const;
  std::string describe(const Action& a) const;

  // PacketService_OK / CallService_OK / MM_OK over all active UEs (§3.2.2).
  // Member (not static): MM_OK depends on the switch_back knob.
  mck::PropertySet<State> Properties() const;

  // POR + symmetry spec: UEs are the components; the MSC is the only shared
  // state; UE blocks sort into the canonical form.
  mck::ReductionSpec<CombinedModel> reduction() const;

  const Config& config() const { return config_; }

 private:
  Config config_{};
};

std::size_t HashValue(const CombinedModel::State& s);

}  // namespace cnv::model
