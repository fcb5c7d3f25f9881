#include "toy_models.h"

#include "mck/symmetry.h"

namespace cnv::mck::toys {

// --- CounterModel ---

std::vector<CounterModel::Action> CounterModel::enabled(const State& s) const {
  std::vector<Action> out;
  if (s.value < cap) out.push_back({1});
  if (buggy && s.value >= cap - 1 && s.value < cap + 1) out.push_back({2});
  return out;
}

CounterModel::State CounterModel::apply(const State& s,
                                        const Action& a) const {
  State next = s;
  next.value += a.amount;
  return next;
}

std::string CounterModel::describe(const Action& a) const {
  return "increment by " + std::to_string(a.amount);
}

std::size_t HashValue(const CounterModel::State& s) {
  return Hasher().Mix(s.value).Digest();
}

// --- PetersonModel ---

std::vector<PetersonModel::Action> PetersonModel::enabled(
    const State& s) const {
  std::vector<Action> out;
  for (int p = 0; p < 2; ++p) {
    const int other = 1 - p;
    switch (s.loc[static_cast<std::size_t>(p)]) {
      case Loc::kIdle:
      case Loc::kWantFlag:
      case Loc::kWantTurn:
        out.push_back({p});
        break;
      case Loc::kWait: {
        const bool may_enter =
            !s.flag[static_cast<std::size_t>(other)] ||
            (use_turn_variable ? s.turn != other : true);
        if (may_enter) out.push_back({p});
        break;
      }
      case Loc::kCrit:
        out.push_back({p});
        break;
    }
  }
  return out;
}

PetersonModel::State PetersonModel::apply(const State& s,
                                          const Action& a) const {
  State next = s;
  const auto p = static_cast<std::size_t>(a.process);
  switch (s.loc[p]) {
    case Loc::kIdle:
      next.loc[p] = Loc::kWantFlag;
      break;
    case Loc::kWantFlag:
      next.flag[p] = true;
      next.loc[p] = Loc::kWantTurn;
      break;
    case Loc::kWantTurn:
      next.turn = 1 - a.process;
      next.loc[p] = Loc::kWait;
      break;
    case Loc::kWait:
      next.loc[p] = Loc::kCrit;
      break;
    case Loc::kCrit:
      next.flag[p] = false;
      next.loc[p] = Loc::kIdle;
      break;
  }
  return next;
}

std::string PetersonModel::describe(const Action& a) const {
  return "process " + std::to_string(a.process) + " steps";
}

std::size_t HashValue(const PetersonModel::State& s) {
  return Hasher()
      .Mix(s.loc[0])
      .Mix(s.loc[1])
      .Mix(s.flag[0])
      .Mix(s.flag[1])
      .Mix(s.turn)
      .Digest();
}

// --- LossyPingModel ---

std::vector<LossyPingModel::Action> LossyPingModel::enabled(
    const State& s) const {
  std::vector<Action> out;
  if (s.sender_got_ack) return out;  // done
  const bool may_send = !s.ping_in_flight && !s.receiver_got_ping &&
                        (retransmit ? s.sends < 3 : s.sends < 1);
  if (may_send) out.push_back({Kind::kSend});
  if (s.ping_in_flight) {
    out.push_back({Kind::kDropPing});
    out.push_back({Kind::kDeliverPing});
  }
  if (s.receiver_got_ping && !s.ack_in_flight) out.push_back({Kind::kSendAck});
  if (s.ack_in_flight) out.push_back({Kind::kDeliverAck});
  return out;
}

LossyPingModel::State LossyPingModel::apply(const State& s,
                                            const Action& a) const {
  State next = s;
  switch (a.kind) {
    case Kind::kSend:
      next.ping_in_flight = true;
      ++next.sends;
      break;
    case Kind::kDropPing:
      next.ping_in_flight = false;
      break;
    case Kind::kDeliverPing:
      next.ping_in_flight = false;
      next.receiver_got_ping = true;
      break;
    case Kind::kSendAck:
      next.ack_in_flight = true;
      break;
    case Kind::kDeliverAck:
      next.ack_in_flight = false;
      next.sender_got_ack = true;
      break;
  }
  return next;
}

std::string LossyPingModel::describe(const Action& a) const {
  switch (a.kind) {
    case Kind::kSend:
      return "sender transmits PING";
    case Kind::kDropPing:
      return "channel drops PING";
    case Kind::kDeliverPing:
      return "receiver gets PING";
    case Kind::kSendAck:
      return "receiver transmits ACK";
    case Kind::kDeliverAck:
      return "sender gets ACK";
  }
  return "?";
}

std::size_t HashValue(const LossyPingModel::State& s) {
  return Hasher()
      .Mix(s.ping_in_flight)
      .Mix(s.ack_in_flight)
      .Mix(s.receiver_got_ping)
      .Mix(s.sender_got_ack)
      .Mix(s.sends)
      .Digest();
}

// --- DeadlockModel ---

std::vector<DeadlockModel::Action> DeadlockModel::enabled(
    const State& s) const {
  std::vector<Action> out;
  for (int p = 0; p < 2; ++p) {
    // Process p takes lock p first, then lock 1-p; holding both it releases
    // and restarts. A step is enabled iff the next lock is free.
    const auto prog = s.progress[static_cast<std::size_t>(p)];
    if (prog == 0 && s.holder[static_cast<std::size_t>(p)] == -1) {
      out.push_back({p});
    } else if (prog == 1 &&
               s.holder[static_cast<std::size_t>(1 - p)] == -1) {
      out.push_back({p});
    } else if (prog == 2) {
      out.push_back({p});
    }
  }
  return out;
}

DeadlockModel::State DeadlockModel::apply(const State& s,
                                          const Action& a) const {
  State next = s;
  const auto p = static_cast<std::size_t>(a.process);
  const auto first = p;
  const auto second = 1 - p;
  switch (s.progress[p]) {
    case 0:
      next.holder[first] = a.process;
      next.progress[p] = 1;
      break;
    case 1:
      next.holder[second] = a.process;
      next.progress[p] = 2;
      break;
    case 2:
      next.holder[first] = -1;
      next.holder[second] = -1;
      next.progress[p] = 0;
      break;
    default:
      break;
  }
  return next;
}

std::string DeadlockModel::describe(const Action& a) const {
  return "process " + std::to_string(a.process) + " advances";
}

std::size_t HashValue(const DeadlockModel::State& s) {
  return Hasher()
      .Mix(s.holder[0])
      .Mix(s.holder[1])
      .Mix(s.progress[0])
      .Mix(s.progress[1])
      .Digest();
}

// --- IndepWorkersModel ---

std::vector<IndepWorkersModel::Action> IndepWorkersModel::enabled(
    const State& s) const {
  std::vector<Action> out;
  for (int w = 0; w < workers; ++w) {
    if (s.count[static_cast<std::size_t>(w)] < steps) out.push_back({w});
  }
  return out;
}

IndepWorkersModel::State IndepWorkersModel::apply(const State& s,
                                                  const Action& a) const {
  State next = s;
  ++next.count[static_cast<std::size_t>(a.worker)];
  return next;
}

std::string IndepWorkersModel::describe(const Action& a) const {
  return "worker " + std::to_string(a.worker) + " steps";
}

ReductionSpec<IndepWorkersModel> IndepWorkersModel::reduction() const {
  ReductionSpec<IndepWorkersModel> spec;
  spec.components = workers;
  spec.owner = [](const State&, const Action& a) { return a.worker; };
  spec.local = [](const State&, const Action&) { return true; };
  spec.visible = [](const State&, const Action&) { return false; };
  // No unsafe oracle: every guard reads only the worker's own counter.
  const std::size_t n = static_cast<std::size_t>(workers);
  spec.canonicalize = [n](const State& s) {
    State c = s;
    SortBlocks(c.count, n);
    return c;
  };
  spec.orbit_size = [n](const State& s) {
    return MultisetOrbitSize(s.count, n);
  };
  return spec;
}

std::size_t HashValue(const IndepWorkersModel::State& s) {
  Hasher h;
  for (const std::uint8_t c : s.count) h.Mix(c);
  return h.Digest();
}

}  // namespace cnv::mck::toys
