// Quickstart: the two halves of the CNetVerifier API in ~100 lines.
//
//  1. Screening — write a protocol-interaction model (here: a tiny custom
//     two-message handshake over a lossy radio), state the property a user
//     cares about, and let the explorer produce a counterexample.
//  2. Validation — run a scenario on the simulated carrier testbed and read
//     the modem-style trace the device collected.
//
// Build and run:  ./quickstart
#include <cstdio>
#include <string>
#include <vector>

#include "mck/hash.h"
#include "mck/parallel_explorer.h"
#include "stack/testbed.h"
#include "trace/qxdm.h"

using namespace cnv;

// --- 1. A custom screening model -----------------------------------------
// A device sends REQ and expects ACK; the radio may drop either; the device
// gives up after two tries. Property: "the device never ends up giving up"
// — which a lossy radio obviously violates, and the explorer shows how.
struct HandshakeModel {
  struct State {
    bool req_in_flight = false;
    bool ack_in_flight = false;
    bool served = false;
    bool gave_up = false;
    int sends = 0;
    bool operator==(const State&) const = default;
  };
  enum class Kind { kSend, kDropReq, kDeliverReq, kDropAck, kDeliverAck, kGiveUp };
  struct Action {
    Kind kind = Kind::kSend;
  };

  State initial() const { return {}; }

  std::vector<Action> enabled(const State& s) const {
    std::vector<Action> out;
    if (s.served || s.gave_up) return out;
    if (!s.req_in_flight && !s.ack_in_flight && s.sends < 2) {
      out.push_back({Kind::kSend});
    }
    if (!s.req_in_flight && !s.ack_in_flight && s.sends >= 2) {
      out.push_back({Kind::kGiveUp});
    }
    if (s.req_in_flight) {
      out.push_back({Kind::kDropReq});
      out.push_back({Kind::kDeliverReq});
    }
    if (s.ack_in_flight) {
      out.push_back({Kind::kDropAck});
      out.push_back({Kind::kDeliverAck});
    }
    return out;
  }

  State apply(const State& s, const Action& a) const {
    State n = s;
    switch (a.kind) {
      case Kind::kSend:      n.req_in_flight = true; ++n.sends; break;
      case Kind::kDropReq:   n.req_in_flight = false; break;
      case Kind::kDeliverReq: n.req_in_flight = false; n.ack_in_flight = true; break;
      case Kind::kDropAck:   n.ack_in_flight = false; break;
      case Kind::kDeliverAck: n.ack_in_flight = false; n.served = true; break;
      case Kind::kGiveUp:    n.gave_up = true; break;
    }
    return n;
  }

  std::string describe(const Action& a) const {
    switch (a.kind) {
      case Kind::kSend:       return "device sends REQ";
      case Kind::kDropReq:    return "radio drops REQ";
      case Kind::kDeliverReq: return "network gets REQ, sends ACK";
      case Kind::kDropAck:    return "radio drops ACK";
      case Kind::kDeliverAck: return "device gets ACK (served)";
      case Kind::kGiveUp:     return "device gives up";
    }
    return "?";
  }
};

std::size_t HashValue(const HandshakeModel::State& s) {
  return mck::Hasher()
      .Mix(s.req_in_flight).Mix(s.ack_in_flight)
      .Mix(s.served).Mix(s.gave_up).Mix(s.sends)
      .Digest();
}

int main() {
  std::printf("--- 1. screening a custom model ---\n");
  HandshakeModel model;
  mck::PropertySet<HandshakeModel::State> props = {
      {"Service_OK",
       [](const HandshakeModel::State& s) { return !s.gave_up; },
       "the device is always eventually served"}};
  const auto result = mck::Explore(model, props);
  std::printf("explored %llu states, %llu transitions\n",
              (unsigned long long)result.stats.states_visited,
              (unsigned long long)result.stats.transitions);
  if (const auto* v = result.FindViolation("Service_OK")) {
    std::printf("%s\n", mck::FormatTrace(model, *v).c_str());
  }

  std::printf("--- 2. validating on the simulated testbed ---\n");
  stack::Testbed tb({});  // defaults: carrier OP-I, no solutions
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(3));
  std::printf("device attached: %s, EPS bearer: %s\n\n",
              tb.ue().emm_state() == stack::UeDevice::EmmState::kRegistered
                  ? "yes" : "no",
              tb.ue().eps_bearer_active() ? "active" : "inactive");
  std::printf("collected modem trace:\n%s",
              trace::FormatLog(tb.traces().records()).c_str());
  return 0;
}
