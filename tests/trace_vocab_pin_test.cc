// Pins what the three readers of the trace-event vocabulary make of the
// corpus in tests/trace_corpus.h: the conformance abstraction
// (AbstractTrace), the procedure spans (StitchSpans) and the runtime
// monitors' alert log (FindingMonitors). Each is hashed per trace with
// FNV-1a, so any change to how a record is classified shows up as a digest
// mismatch naming the trace and the reader. On an intentional change, the
// failure message prints the replacement row.
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/io.h"
#include "conf/abstract.h"
#include "obs/span.h"
#include "rtv/alert.h"
#include "rtv/monitors.h"
#include "trace_corpus.h"

namespace cnv {
namespace {

std::uint64_t AbstractDigest(const std::vector<trace::TraceRecord>& records) {
  std::string bytes;
  for (const auto& e : conf::AbstractTrace(records)) {
    bytes += std::to_string(static_cast<int>(e.kind)) + ' ' +
             std::to_string(e.record_index) + '\n';
  }
  return ckpt::Fnv1a64(bytes);
}

std::uint64_t SpanDigest(const std::vector<trace::TraceRecord>& records) {
  std::string bytes;
  for (const auto& s : obs::StitchSpans(records)) {
    bytes += std::to_string(static_cast<int>(s.kind)) + ' ' +
             std::to_string(s.start) + ' ' + std::to_string(s.end) + ' ' +
             std::to_string(static_cast<int>(s.outcome)) + ' ' +
             std::to_string(s.retries) + ' ' + s.detail + '\n';
  }
  return ckpt::Fnv1a64(bytes);
}

std::uint64_t AlertDigest(const std::vector<trace::TraceRecord>& records) {
  rtv::FindingMonitors monitors;
  std::vector<rtv::Alert> alerts;
  std::uint64_t ordinal = 0;
  for (const auto& r : records) monitors.Step(r, ordinal++, &alerts);
  return ckpt::Fnv1a64(rtv::FormatAlertLog(alerts));
}

struct Pin {
  const char* trace;
  std::uint64_t abstract;
  std::uint64_t spans;
  std::uint64_t alerts;
};

// clang-format off
const Pin kPins[] = {
    {"s1_context_loss_opi", 0xb31093a117192908ULL, 0x7b3d522dc5a903dcULL, 0xcfa16e228ece3ec6ULL},
    {"s2_lost_attach_complete_opi", 0xf71e29a20c083122ULL, 0x21a1531d66967cf4ULL, 0x736ecfe3a17f6731ULL},
    {"s3_stuck_in_3g_opii", 0x745cb816a5092d3bULL, 0x2220019d7e673707ULL, 0xd758d30cd65183a8ULL},
    {"s4_hol_blocking_opi", 0x14fdeca852e500cfULL, 0x4b83b6242c40aed6ULL, 0x60e913f331fbcf03ULL},
    {"s5_call_data_coupling_opi", 0x435e3821db6d2281ULL, 0xaeb7c97fc0f99414ULL, 0xaaccf0d811571ea3ULL},
    {"s6_lu_failure_detach_opi", 0xbe5562afba3fa529ULL, 0xa5c80c8b4c8e26e3ULL, 0xf3d9d3e86f79780bULL},
    {"congestion_attach_storm_opi", 0x4943d93c8be91649ULL, 0x2cd07cd111608583ULL, 0x1d93f86dcd1a93aaULL},
    {"s1-missing-bearer-context@OP-I", 0x1c92b278c0f0e37aULL, 0x8cb7f93233b57cf3ULL, 0xb257660d36446dafULL},
    {"s1-missing-bearer-context@OP-II", 0xd678fe838fca8eb3ULL, 0xd926a826d3b2f5a3ULL, 0x424df04f7260ed09ULL},
    {"s2-attach-disruption@OP-I", 0x1895f9856387b223ULL, 0xc9b49e70fb74d63fULL, 0x24e0e495cd0b820dULL},
    {"s2-attach-disruption@OP-II", 0xcf737ce1efcd24c9ULL, 0xd99f44dc677cec98ULL, 0xe7ad600327a53360ULL},
    {"s3-stuck-in-3g@OP-I", 0x0585ceee1bddff8fULL, 0x0831e12df11ae260ULL, 0x2c35b42d9de4927dULL},
    {"s3-stuck-in-3g@OP-II", 0x539a5291d423bf96ULL, 0xd0a5616b056afcf7ULL, 0xe7ad600327a53360ULL},
    {"s4-mm-hol-blocking@OP-I", 0x90920d70fb3be811ULL, 0xd78a098706756991ULL, 0x2c35b42d9de4927dULL},
    {"s4-mm-hol-blocking@OP-II", 0x7e74eac52554a075ULL, 0x5311edc16f5d6c37ULL, 0xe7ad600327a53360ULL},
    {"s5-shared-channel-drop@OP-I", 0x0585ceee1bddff8fULL, 0x0831e12df11ae260ULL, 0x2c35b42d9de4927dULL},
    {"s5-shared-channel-drop@OP-II", 0x539a5291d423bf96ULL, 0xd0a5616b056afcf7ULL, 0xe7ad600327a53360ULL},
    {"s6-lu-failure-propagation@OP-I", 0xaf9189caff668decULL, 0xaedf914977b20b6dULL, 0x1784866cefa261baULL},
    {"s6-lu-failure-propagation@OP-II", 0x90cdb4145d343efaULL, 0xd0a5616b056afcf7ULL, 0xe7ad600327a53360ULL},
    {"mme-crash-restart@OP-I", 0x960b70480eb8a900ULL, 0x170806b1747c88abULL, 0xe99dc0e5310388caULL},
    {"mme-crash-restart@OP-II", 0x05a72754245918dfULL, 0x10190c4b45358b01ULL, 0xe7ad600327a53360ULL},
    {"msc-outage@OP-I", 0x8aa7faaf1765c082ULL, 0xd343ebe27e778a6fULL, 0xcbf29ce484222325ULL},
    {"msc-outage@OP-II", 0xd7eda8c76c62e9e2ULL, 0xd69ba1c8397d15a9ULL, 0xea1c6bc93d083be5ULL},
    {"sgsn-flap@OP-I", 0xe7e24a49b0e87fa2ULL, 0x0831e12df11ae260ULL, 0x2c35b42d9de4927dULL},
    {"sgsn-flap@OP-II", 0x9ae86b8f8cef20a4ULL, 0xd0a5616b056afcf7ULL, 0xe7ad600327a53360ULL},
    {"hss-blackout@OP-I", 0xcc9efa56cef0e823ULL, 0x0831e12df11ae260ULL, 0x2c35b42d9de4927dULL},
    {"hss-blackout@OP-II", 0xdc84e81d0cac16a1ULL, 0xd0a5616b056afcf7ULL, 0xe7ad600327a53360ULL},
    {"radio-burst-loss@OP-I", 0x8bf71922957f78afULL, 0x0831e12df11ae260ULL, 0x2c35b42d9de4927dULL},
    {"radio-burst-loss@OP-II", 0x075a2bc7bbf26e38ULL, 0xd0a5616b056afcf7ULL, 0xe7ad600327a53360ULL},
    {"backhaul-degradation@OP-I", 0x8afa121d73d1163eULL, 0x70f018db48596b8eULL, 0x2c35b42d9de4927dULL},
    {"backhaul-degradation@OP-II", 0xd2c16e0a432f564cULL, 0x658b678eec9ea24aULL, 0xe7ad600327a53360ULL},
    {"timer-skew@OP-I", 0xccd64d7d6a7b509bULL, 0x0831e12df11ae260ULL, 0x2c35b42d9de4927dULL},
    {"timer-skew@OP-II", 0x36e47fe41fb66435ULL, 0xd0a5616b056afcf7ULL, 0xe7ad600327a53360ULL},
    {"attach-interference@OP-I", 0xd175e7283615e4deULL, 0x692bd27bc93de7fdULL, 0xcbf29ce484222325ULL},
    {"attach-interference@OP-II", 0x3c5e2382a5ebc40bULL, 0xa4ceb4232679ec1cULL, 0xe7ad600327a53360ULL},
    {"mass-attach-storm@OP-I", 0xde5b5300690c1898ULL, 0x0831e12df11ae260ULL, 0xce90e6793a5ea02cULL},
    {"mass-attach-storm@OP-II", 0x6438331519c65161ULL, 0xd0a5616b056afcf7ULL, 0x2040852699c5705dULL},
    {"ta-ping-pong-storm@OP-I", 0xde5b5300690c1898ULL, 0x0831e12df11ae260ULL, 0x7bcab5e2ab29d416ULL},
    {"ta-ping-pong-storm@OP-II", 0x6438331519c65161ULL, 0xd0a5616b056afcf7ULL, 0xae9300e800d4f551ULL},
    {"paging-flood-storm@OP-I", 0xab2f85f7dce4dd4cULL, 0x0831e12df11ae260ULL, 0xc0c303eb202c53dcULL},
    {"paging-flood-storm@OP-II", 0xa8ea8c5d41629dfaULL, 0xd0a5616b056afcf7ULL, 0xe0941a9404d38dcbULL},
    {"adversarial-nas-storm@OP-I", 0xc4de714bf65d3efeULL, 0x0831e12df11ae260ULL, 0xff20a3dac6bf6936ULL},
    {"adversarial-nas-storm@OP-II", 0x9f5d3cc027ab5c1eULL, 0xd0a5616b056afcf7ULL, 0x977416c93e9388ddULL},
    {"signalling-storm-mix@OP-I", 0x3b504fe039a638abULL, 0x0831e12df11ae260ULL, 0x0261e885bd0ee5deULL},
    {"signalling-storm-mix@OP-II", 0x8d404811e016ce32ULL, 0xd0a5616b056afcf7ULL, 0xa005ffe0daaf54afULL},
};
// clang-format on

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(TraceVocabPinTest, EveryReaderMatchesItsPinnedDigest) {
  const auto& corpus = testing::VocabCorpus();
  ASSERT_EQ(corpus.size(), std::size(kPins));
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& t = corpus[i];
    const Pin& pin = kPins[i];
    ASSERT_EQ(t.name, pin.trace);
    const std::uint64_t abstract = AbstractDigest(t.records);
    const std::uint64_t spans = SpanDigest(t.records);
    const std::uint64_t alerts = AlertDigest(t.records);
    const std::string row = "{\"" + t.name + "\", " + Hex(abstract) + ", " +
                            Hex(spans) + ", " + Hex(alerts) + "},";
    EXPECT_EQ(abstract, pin.abstract) << "AbstractTrace changed: " << row;
    EXPECT_EQ(spans, pin.spans) << "StitchSpans changed: " << row;
    EXPECT_EQ(alerts, pin.alerts) << "FindingMonitors changed: " << row;
  }
}

TEST(TraceVocabPinTest, CorpusIsTheGoldensPlusTheSeedOneChaosGrid) {
  const auto& corpus = testing::VocabCorpus();
  ASSERT_EQ(corpus.size(), 7u + 38u);
  for (const auto& t : corpus) {
    EXPECT_FALSE(t.records.empty()) << t.name;
  }
}

}  // namespace
}  // namespace cnv
