#include "model/combined_model.h"

#include <cstddef>
#include <cstring>
#include <type_traits>

#include "mck/symmetry.h"

namespace cnv::model {

namespace {

using Sys = CombinedModel::Sys;
using Mm = CombinedModel::Mm;
using Cm = CombinedModel::Cm;
using Kind = CombinedModel::Kind;
using Ue = CombinedModel::Ue;

}  // namespace

std::vector<CombinedModel::Action> CombinedModel::enabled(
    const State& s) const {
  std::vector<Action> acts;
  // One action per UE from each of its call, mobility and data machines.
  acts.reserve(static_cast<std::size_t>(config_.ues) * 3);
  for (int i = 0; i < config_.ues; ++i) {
    const Ue& u = s.ue[static_cast<std::size_t>(i)];
    const std::uint8_t id = static_cast<std::uint8_t>(i);
    if (u.out_of_service) {
      acts.push_back({Kind::kReattach, id});
      continue;
    }
    if (u.cm == Cm::kIdle && u.calls < config_.max_calls) {
      acts.push_back({Kind::kDial, id});
    }
    if (u.cm == Cm::kWant && u.serving == Sys::k4G) {
      acts.push_back({Kind::kCsfbFallback, id});
    }
    if (u.serving == Sys::k3G && u.mm == Mm::kLuPending && !s.msc_busy) {
      acts.push_back({Kind::kLuStart, id});
    }
    if (u.mm == Mm::kLuRun) {
      acts.push_back({Kind::kLuDone, id});
    }
    if (u.serving == Sys::k3G && u.mm == Mm::kReg3G && u.cm == Cm::kWant) {
      if (!s.msc_busy) {
        acts.push_back({Kind::kCallConnect, id});
      } else if (!config_.fix_queue_call) {
        acts.push_back({Kind::kCallGiveUp, id});
      }
    }
    if (u.cm == Cm::kActive) {
      acts.push_back({Kind::kHangup, id});
    }
    if (u.serving == Sys::k3G && u.ctx) {
      acts.push_back({Kind::kPdpDeact, id});
    }
    if (config_.switch_back && u.serving == Sys::k3G && u.cm == Cm::kDone &&
        u.mm == Mm::kReg3G && u.switches < config_.max_switches) {
      acts.push_back({Kind::kSwitchBack, id});
    }
  }
  return acts;
}

CombinedModel::State CombinedModel::apply(const State& s,
                                          const Action& a) const {
  State next = s;
  Ue& u = next.ue[static_cast<std::size_t>(a.ue)];
  switch (a.kind) {
    case Kind::kDial:
      u.cm = Cm::kWant;
      ++u.calls;
      break;
    case Kind::kCsfbFallback:
      u.serving = Sys::k3G;
      u.mm = Mm::kLuPending;
      // The EPS bearer does not survive the fallback unless the §8
      // cross-system coordination keeps the translated PDP context alive.
      if (!config_.fix_keep_context) u.ctx = false;
      break;
    case Kind::kLuStart:
      next.msc_busy = true;
      u.mm = Mm::kLuRun;
      break;
    case Kind::kLuDone:
      next.msc_busy = false;
      u.mm = Mm::kReg3G;
      break;
    case Kind::kCallConnect:
      next.msc_busy = true;
      u.cm = Cm::kActive;
      break;
    case Kind::kCallGiveUp:
      u.cm = Cm::kDone;
      u.call_dropped = true;
      break;
    case Kind::kHangup:
      next.msc_busy = false;
      u.cm = Cm::kDone;
      break;
    case Kind::kPdpDeact:
      u.ctx = false;
      break;
    case Kind::kSwitchBack:
      ++u.switches;
      if (u.ctx || config_.fix_reactivate_bearer) {
        u.serving = Sys::k4G;
        u.mm = Mm::kReg4G;
        u.ctx = true;  // 4G mandates an active context
      } else {
        // The S1 interaction: TAU with no context to translate -> detach.
        u.serving = Sys::k4G;
        u.mm = Mm::kReg4G;
        u.ctx = false;
        u.out_of_service = true;
      }
      break;
    case Kind::kReattach:
      u.out_of_service = false;
      u.serving = Sys::k4G;
      u.mm = Mm::kReg4G;
      u.ctx = true;
      break;
  }
  return next;
}

std::string CombinedModel::describe(const Action& a) const {
  std::string who = "UE" + std::to_string(static_cast<int>(a.ue)) + ": ";
  switch (a.kind) {
    case Kind::kDial:
      return who + "dial";
    case Kind::kCsfbFallback:
      return who + "CSFB fallback 4G->3G";
    case Kind::kLuStart:
      return who + "location update starts (MSC busy)";
    case Kind::kLuDone:
      return who + "location update done (MSC free)";
    case Kind::kCallConnect:
      return who + "call connects (MSC busy)";
    case Kind::kCallGiveUp:
      return who + "call abandoned (MSC held by another UE)";
    case Kind::kHangup:
      return who + "hangup (MSC free)";
    case Kind::kPdpDeact:
      return who + "3G deactivates PDP context";
    case Kind::kSwitchBack:
      return who + "switch back 3G->4G";
    case Kind::kReattach:
      return who + "reattach";
  }
  return who + "?";
}

mck::PropertySet<CombinedModel::State> CombinedModel::Properties() const {
  const int n = config_.ues;
  const bool switch_back = config_.switch_back;
  return {
      {kPacketServiceOk,
       [n](const State& s) {
         for (int i = 0; i < n; ++i) {
           if (s.ue[static_cast<std::size_t>(i)].out_of_service) return false;
         }
         return true;
       },
       "no UE is involuntarily detached from packet service"},
      {kCallServiceOk,
       [n](const State& s) {
         for (int i = 0; i < n; ++i) {
           if (s.ue[static_cast<std::size_t>(i)].call_dropped) return false;
         }
         return true;
       },
       "no UE abandons a dialed call"},
      {kMmOk,
       [n, switch_back](const State& s) {
         if (switch_back) return true;
         for (int i = 0; i < n; ++i) {
           const Ue& u = s.ue[static_cast<std::size_t>(i)];
           if (u.cm == Cm::kDone && u.serving == Sys::k3G) return false;
         }
         return true;
       },
       "a UE whose CSFB call ended is not left camped on 3G"},
  };
}

mck::ReductionSpec<CombinedModel> CombinedModel::reduction() const {
  mck::ReductionSpec<CombinedModel> spec;
  spec.components = config_.ues;
  spec.owner = [](const State&, const Action& a) {
    return static_cast<int>(a.ue);
  };
  spec.local = [](const State&, const Action& a) {
    switch (a.kind) {
      // Guard and effect confined to the owning UE's block.
      case Kind::kDial:
      case Kind::kCsfbFallback:
      case Kind::kPdpDeact:
      case Kind::kSwitchBack:
      case Kind::kReattach:
        return true;
      // Reads or writes the shared MSC.
      default:
        return false;
    }
  };
  spec.visible = [](const State&, const Action& a) {
    switch (a.kind) {
      case Kind::kSwitchBack:  // may set out_of_service (PacketService_OK)
      case Kind::kReattach:    // clears out_of_service
      case Kind::kCallGiveUp:  // sets call_dropped (CallService_OK)
      case Kind::kHangup:      // cm -> kDone can flip MM_OK
        return true;
      default:
        return false;
    }
  };
  spec.unsafe = [](const State& s, int c) {
    // The MSC-guarded actions (kLuStart/kCallConnect when free, kCallGiveUp
    // when busy) are disabled-but-pending exactly in these control states;
    // another UE's grab or release of the MSC would enable them, so the
    // component may not be ample here.
    const Ue& u = s.ue[static_cast<std::size_t>(c)];
    return u.mm == Mm::kLuPending ||
           (u.cm == Cm::kWant && u.serving == Sys::k3G);
  };
  const int n = config_.ues;
  spec.canonicalize = [n](const State& s) {
    State c = s;
    mck::SortBlocks(c.ue, static_cast<std::size_t>(n));
    return c;
  };
  spec.orbit_size = [n](const State& s) {
    return mck::MultisetOrbitSize(s.ue, static_cast<std::size_t>(n));
  };
  return spec;
}

// Each UE block is eight one-byte fields with no padding, so it hashes as
// one 64-bit word: five mixes per state instead of one per field.
static_assert(sizeof(Ue) == 8 && std::has_unique_object_representations_v<Ue>,
              "CombinedModel::Ue must pack into one 64-bit hash word");
// State::operator== compares bytes, which is exact only without padding.
static_assert(std::has_unique_object_representations_v<CombinedModel::State>,
              "CombinedModel::State must have no padding bytes");

std::size_t HashValue(const CombinedModel::State& s) {
  mck::Hasher h;
  for (const Ue& u : s.ue) {
    std::uint64_t word = 0;
    std::memcpy(&word, &u, sizeof word);
    h.Mix(word);
  }
  h.Mix(s.msc_busy);
  return h.Digest();
}

}  // namespace cnv::model
