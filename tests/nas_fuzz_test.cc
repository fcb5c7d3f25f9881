// NAS ingress fuzzing: randomized bit-flipped / truncated / wrong-protocol
// / replayed / reordered messages blasted at every core element under every
// admission policy. The properties under test: no crash, the accounting
// identity holds (everything offered is admitted, rejected, shed, screened
// or replay-dropped), the service queue always drains, and an already
// registered foreground session is never corrupted by the garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stack/testbed.h"
#include "util/rng.h"

namespace cnv::stack {
namespace {

constexpr int kKinds = static_cast<int>(nas::MsgKind::kHssUpdateLocationAck);
constexpr int kProtocols = static_cast<int>(nas::Protocol::kRrc4g);

nas::Message RandomMessage(Rng& rng, std::uint64_t* next_uid) {
  nas::Message m;
  m.kind = static_cast<nas::MsgKind>(rng.UniformInt(0, kKinds));
  m.protocol = static_cast<nas::Protocol>(rng.UniformInt(0, kProtocols));
  m.imsi = nas::Imsi{static_cast<std::uint64_t>(
      rng.UniformInt(901'000'000'000'000LL, 901'000'000'000'999LL))};
  switch (rng.UniformInt(0, 3)) {
    case 0:
      m.integrity = nas::MsgIntegrity::kMalformed;  // bit flips
      break;
    case 1:
      m.integrity = nas::MsgIntegrity::kTruncated;
      break;
    case 2:
      m.integrity = nas::MsgIntegrity::kWrongProtocol;
      break;
    default:
      m.integrity = nas::MsgIntegrity::kOk;
      break;
  }
  // Half of the valid-integrity messages carry a uid so replays are
  // detectable (and re-sending them below actually exercises the cache).
  if (m.integrity == nas::MsgIntegrity::kOk && rng.Bernoulli(0.5)) {
    m.uid = ++*next_uid;
  }
  // The fuzzer is an adversarial *background* UE: synthetic keeps the core
  // from pushing replies at the foreground device's links.
  m.synthetic = true;
  return m;
}

class NasIngressFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NasIngressFuzz, GarbageNeverCrashesNorCorruptsTheSession) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kUnbounded, AdmissionPolicy::kRejectBackoff,
        AdmissionPolicy::kPriorityShed}) {
    TestbedConfig cfg;
    cfg.profile = OpI();
    cfg.seed = seed;
    // Also fuzz the legacy core.
    cfg.overload.policy = (seed % 2) == 0 ? policy : AdmissionPolicy::kOff;
    cfg.overload.queue_capacity = 4;
    cfg.overload.service_time = Millis(2);
    Testbed tb(cfg);

    // A healthy registered session first; the fuzz must not disturb it.
    tb.ue().PowerOn(nas::System::k4G);
    tb.Run(Seconds(5));
    ASSERT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);

    // Generate a batch, then deliver it in a random order (reordering) with
    // random replays (duplicate uids) at randomized instants.
    Rng rng(seed * 1'000'003 + static_cast<std::uint64_t>(policy));
    std::uint64_t next_uid = 0;
    std::vector<nas::Message> batch;
    for (int i = 0; i < 400; ++i) batch.push_back(RandomMessage(rng, &next_uid));
    for (int i = static_cast<int>(batch.size()) - 1; i > 0; --i) {
      std::swap(batch[static_cast<std::size_t>(i)],
                batch[static_cast<std::size_t>(rng.UniformInt(0, i))]);
    }
    const SimTime t0 = tb.sim().now();
    for (const nas::Message& m : batch) {
      const SimTime at = t0 + Millis(rng.UniformInt(1, 2000));
      const int replays = m.uid != 0 && rng.Bernoulli(0.3) ? 2 : 1;
      for (int r = 0; r < replays; ++r) {
        tb.sim().ScheduleAt(at + Millis(r), [&tb, m, &rng] {
          switch (rng.UniformInt(0, 2)) {
            case 0: tb.mme().OnUplink(m); break;
            case 1: tb.msc().OnUplink(m); break;
            default: tb.sgsn().OnUplink(m); break;
          }
        });
      }
    }
    tb.Run(Seconds(60));

    // Queues fully drained, and every injected message is accounted for:
    // screened out or offered to the admission layer.
    std::uint64_t accounted = 0;
    for (const CoreElement* e :
         {static_cast<const CoreElement*>(&tb.mme()),
          static_cast<const CoreElement*>(&tb.msc()),
          static_cast<const CoreElement*>(&tb.sgsn())}) {
      EXPECT_EQ(e->queue_depth(), 0u);
      const OverloadStats& s = e->overload_stats();
      accounted += s.offered() + s.integrity_rejected + s.replay_dropped;
    }
    // >= because the foreground session's own signalling counts too.
    EXPECT_GE(accounted, 400u);
    // The foreground session survived 400+ garbage messages untouched.
    EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered)
        << "policy=" << ToString(policy) << " seed=" << seed;
    EXPECT_EQ(tb.ue().serving(), nas::System::k4G);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NasIngressFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace cnv::stack
