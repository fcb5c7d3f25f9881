// End-to-end tests of the runtime-verification gateway: byte-stream ingest
// through the online monitors, the determinism contract (same bytes =>
// byte-identical alert log at any chunking), pins of its output on the
// goldens, and the metrics/snapshot surface.
#include "rtv/gateway.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "digest.h"
#include "test_dirs.h"
#include "trace/qxdm.h"

namespace cnv::rtv {
namespace {

std::string ReadGolden(const std::string& name) {
  const std::string path = std::string(CNV_GOLDEN_DIR) + "/" + name + ".log";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden: " << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string AllGoldens() {
  std::string all;
  for (const char* name :
       {"s1_context_loss_opi", "s2_lost_attach_complete_opi",
        "s3_stuck_in_3g_opii", "s4_hol_blocking_opi",
        "s5_call_data_coupling_opi", "s6_lu_failure_detach_opi",
        "congestion_attach_storm_opi"}) {
    all += ReadGolden(name);
  }
  return all;
}

void FeedChunked(Gateway& gw, const std::string& bytes, std::size_t chunk) {
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    gw.Feed(0, std::string_view(bytes).substr(off, chunk));
  }
}

std::string RunChunked(const std::string& bytes, std::size_t chunk,
                       GatewayConfig config = {}) {
  Gateway gw(config);
  gw.Start();
  FeedChunked(gw, bytes, chunk);
  gw.Finish();
  return gw.AlertLog();
}

TEST(GatewayTest, ThreadedEndToEndRaisesTheExpectedAlerts) {
  const std::string log = ReadGolden("s1_context_loss_opi");
  Gateway gw;
  int callbacks = 0;
  gw.set_alert_callback([&](const Alert& a) {
    EXPECT_EQ(a.kind, AlertKind::kS1);
    ++callbacks;
  });
  gw.Start();
  gw.Feed(0, log);
  gw.Finish();
  ASSERT_EQ(gw.alerts().size(), 1u);
  EXPECT_EQ(gw.alerts()[0].kind, AlertKind::kS1);
  EXPECT_EQ(callbacks, 1);
  const auto stats = gw.stats();
  EXPECT_EQ(stats.records_in, trace::ParseLog(log).size());
  EXPECT_EQ(stats.records_processed, stats.records_in);
  EXPECT_EQ(stats.alerts, 1u);
  EXPECT_EQ(stats.streams, 1u);
}

TEST(GatewayTest, AlertLogIsByteIdenticalAtAnyChunking) {
  const std::string bytes = AllGoldens();
  const std::string whole = RunChunked(bytes, bytes.size());
  EXPECT_FALSE(whole.empty());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    EXPECT_EQ(RunChunked(bytes, chunk), whole) << "chunk=" << chunk;
  }
}

TEST(GatewayTest, InlineModeMatchesThreadedMode) {
  const std::string bytes = AllGoldens();
  GatewayConfig inline_cfg;
  inline_cfg.threaded = false;
  EXPECT_EQ(RunChunked(bytes, 333, inline_cfg), RunChunked(bytes, 333));
}

// Every golden on its own stream (the storm golden on stream 0), fed
// round-robin in `chunk`-byte pieces.
void FeedInterleaved(Gateway& gw, std::size_t chunk) {
  std::vector<std::string> logs;
  for (const char* name :
       {"congestion_attach_storm_opi", "s1_context_loss_opi",
        "s2_lost_attach_complete_opi", "s3_stuck_in_3g_opii",
        "s4_hol_blocking_opi", "s5_call_data_coupling_opi",
        "s6_lu_failure_detach_opi"}) {
    logs.push_back(ReadGolden(name));
  }
  bool fed = true;
  for (std::size_t off = 0; fed; off += chunk) {
    fed = false;
    for (std::size_t s = 0; s < logs.size(); ++s) {
      if (off >= logs[s].size()) continue;
      gw.Feed(static_cast<std::uint32_t>(s),
              std::string_view(logs[s]).substr(off, chunk));
      fed = true;
    }
  }
}

std::string RunInterleaved(std::size_t chunk, GatewayConfig config) {
  Gateway gw(config);
  gw.Start();
  FeedInterleaved(gw, chunk);
  gw.Finish();
  return gw.AlertLog();
}

// What a default-config gateway run pins: an FNV-1a digest of its alert log
// and its record and alert counts.
struct Pin {
  std::uint64_t log_digest = 0;
  std::uint64_t records_in = 0;
  std::uint64_t records_processed = 0;
  std::uint64_t alerts = 0;
  bool operator==(const Pin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pin& p) {
  return os << "{" << p.log_digest << "ull, " << p.records_in << ", "
            << p.records_processed << ", " << p.alerts << "}";
}

template <typename FeedFn>
Pin PinRun(FeedFn feed) {
  Gateway gw;
  gw.Start();
  feed(gw);
  gw.Finish();
  const GatewayStats stats = gw.stats();
  return {testutil::Fnv1a64(gw.AlertLog()), stats.records_in,
          stats.records_processed, stats.alerts};
}

TEST(GatewayPinTest, EachGoldenAtAnyChunking) {
  const struct {
    const char* golden;
    Pin pin;
  } kPins[] = {
      {"s1_context_loss_opi", {14961360531805322950ull, 28, 28, 1}},
      {"s2_lost_attach_complete_opi", {8317814138373891889ull, 17, 17, 1}},
      {"s3_stuck_in_3g_opii", {15517384568193778600ull, 29, 29, 1}},
      {"s4_hol_blocking_opi", {6983134632451231491ull, 18, 18, 1}},
      {"s5_call_data_coupling_opi", {12307476692491247267ull, 21, 21, 1}},
      {"s6_lu_failure_detach_opi", {17571308416418805771ull, 40, 40, 1}},
      {"congestion_attach_storm_opi", {2131320199152571306ull, 21, 21, 3}},
  };
  for (const auto& [golden, pin] : kPins) {
    const std::string bytes = ReadGolden(golden);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{4096}, bytes.size()}) {
      EXPECT_EQ(PinRun([&](Gateway& gw) { FeedChunked(gw, bytes, chunk); }),
                pin)
          << golden << " chunk=" << chunk;
    }
  }
}

TEST(GatewayPinTest, InterleavedGoldens) {
  const struct {
    std::size_t chunk;
    Pin pin;
  } kPins[] = {
      {1, {13662833342449662239ull, 174, 174, 9}},
      {61, {13662833342449662239ull, 174, 174, 9}},
      {65536, {11553608364466226673ull, 174, 174, 9}},
  };
  for (const auto& [chunk, pin] : kPins) {
    EXPECT_EQ(PinRun([&](Gateway& gw) { FeedInterleaved(gw, chunk); }), pin)
        << "chunk=" << chunk;
  }
}

TEST(GatewayTest, ThreadedMatchesInlineOnInterleavedStreams) {
  GatewayConfig inline_cfg;
  inline_cfg.threaded = false;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{61},
                                  std::size_t{1} << 16}) {
    const std::string want = RunInterleaved(chunk, inline_cfg);
    // The overload alerts quote their records' descriptions.
    EXPECT_NE(want.find("[OVERLOAD] [stream 0] Mass attach storm begins"),
              std::string::npos);
    EXPECT_NE(want.find("UE entered congestion backoff: T3346 armed"),
              std::string::npos);
    EXPECT_EQ(RunInterleaved(chunk, {}), want) << "chunk=" << chunk;
  }
}

TEST(GatewayTest, EachFeedPublishesItsRecords) {
  // A live feed sends one line per Feed and waits for nothing: the record
  // reaches the monitors, and its alert the callback, before Feed returns.
  Gateway gw;
  int alerts = 0;
  gw.set_alert_callback([&](const Alert&) { ++alerts; });
  gw.Start();
  gw.Feed(0,
          "00:00:00.010 [EVENT] [4G] [STORM] Mass attach storm begins "
          "(count=3 spacing=2ms)\n");
  EXPECT_EQ(alerts, 1);
  gw.Finish();
}

TEST(GatewayTest, StreamsAreMonitoredIndependently) {
  // Interleave two goldens chunk-by-chunk on two streams: each stream
  // raises exactly its own finding, tagged with its stream id.
  const std::string a = ReadGolden("s1_context_loss_opi");
  const std::string b = ReadGolden("s2_lost_attach_complete_opi");
  Gateway gw;
  gw.Start();
  constexpr std::size_t kChunk = 64;
  for (std::size_t off = 0; off < a.size() || off < b.size();
       off += kChunk) {
    if (off < a.size()) {
      gw.Feed(1, std::string_view(a).substr(off, kChunk));
    }
    if (off < b.size()) {
      gw.Feed(2, std::string_view(b).substr(off, kChunk));
    }
  }
  gw.Finish();
  ASSERT_EQ(gw.alerts().size(), 2u);
  for (const auto& alert : gw.alerts()) {
    if (alert.stream == 1) {
      EXPECT_EQ(alert.kind, AlertKind::kS1);
    } else {
      EXPECT_EQ(alert.stream, 2u);
      EXPECT_EQ(alert.kind, AlertKind::kS2);
    }
  }
  EXPECT_EQ(gw.stats().streams, 2u);
}

TEST(GatewayTest, RegistryExportsCountersGaugesAndLatency) {
  Gateway gw;
  gw.Start();
  gw.Feed(0, AllGoldens());
  gw.Finish();
  const std::string json = gw.registry().ToJson(gw.last_record_time());
  for (const char* name :
       {"rtv.bytes_in", "rtv.lines_in", "rtv.records_in",
        "rtv.records_processed", "rtv.alerts", "rtv.alerts.S1",
        "rtv.streams"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(gw.stats().lines_skipped, 0u);
}

TEST(GatewayTest, RegistryNamesOnlyWhatHappened) {
  // Registry handles are resolved on first use: a run that raises only S1
  // names no other alert counter.
  Gateway gw;
  gw.Start();
  gw.Feed(0, ReadGolden("s1_context_loss_opi"));
  gw.Finish();
  const std::string json = gw.registry().ToJson(gw.last_record_time());
  EXPECT_NE(json.find("\"rtv.alerts.S1\""), std::string::npos);
  for (const char* absent :
       {"rtv.alerts.S2", "rtv.alerts.OVERLOAD"}) {
    EXPECT_EQ(json.find(absent), std::string::npos) << absent;
  }
}

TEST(GatewayTest, PeriodicSnapshotWritesJson) {
  const std::string path = (test::TestTempDir() / "snapshot.json").string();
  GatewayConfig config;
  config.snapshot_every = 50;
  config.snapshot_path = path;
  Gateway gw(config);
  gw.Start();
  gw.Feed(0, AllGoldens());
  gw.Finish();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "no snapshot written to " << path;
  const std::string json(std::istreambuf_iterator<char>(in), {});
  EXPECT_NE(json.find("rtv.records_processed"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GatewayTest, MalformedLinesAreCountedNotFatal) {
  Gateway gw;
  gw.Start();
  gw.Feed(0, "complete garbage\n");
  gw.Feed(0, ReadGolden("s4_hol_blocking_opi"));
  gw.Feed(0, "more garbage with no newline");
  gw.Finish();
  const auto stats = gw.stats();
  EXPECT_EQ(stats.lines_skipped, 2u);
  ASSERT_EQ(gw.alerts().size(), 1u);
  EXPECT_EQ(gw.alerts()[0].kind, AlertKind::kS4);
}

}  // namespace
}  // namespace cnv::rtv
