// End-to-end tests of the runtime-verification gateway: byte-stream ingest
// through the SPSC ring to the online monitors, the determinism contract
// (same bytes => byte-identical alert log at any chunking), backpressure
// accounting, the live testbed tap, and the metrics/snapshot surface.
#include "rtv/gateway.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "conf/abstract.h"
#include "rtv/monitors.h"
#include "stack/testbed.h"
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

std::string RunChunked(const std::string& bytes, std::size_t chunk,
                       GatewayConfig config = {}) {
  Gateway gw(config);
  gw.Start();
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    gw.Feed(0, std::string_view(bytes).substr(off, chunk));
  }
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
  EXPECT_EQ(stats.records_dropped, 0u);
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
std::string RunInterleaved(std::size_t chunk, GatewayConfig config) {
  std::vector<std::string> logs;
  for (const char* name :
       {"congestion_attach_storm_opi", "s1_context_loss_opi",
        "s2_lost_attach_complete_opi", "s3_stuck_in_3g_opii",
        "s4_hol_blocking_opi", "s5_call_data_coupling_opi",
        "s6_lu_failure_detach_opi"}) {
    logs.push_back(ReadGolden(name));
  }
  Gateway gw(config);
  gw.Start();
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
  gw.Finish();
  return gw.AlertLog();
}

TEST(GatewayTest, ThreadedMatchesInlineOnInterleavedStreams) {
  GatewayConfig inline_cfg;
  inline_cfg.threaded = false;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{61},
                                  std::size_t{1} << 16}) {
    const std::string want = RunInterleaved(chunk, inline_cfg);
    // Overload details travel on the text side ring; they must arrive.
    EXPECT_NE(want.find("[OVERLOAD] [stream 0] Mass attach storm begins"),
              std::string::npos);
    EXPECT_NE(want.find("UE entered congestion backoff: T3346 armed"),
              std::string::npos);
    EXPECT_EQ(RunInterleaved(chunk, {}), want) << "chunk=" << chunk;
    GatewayConfig small_ring;
    small_ring.ring_capacity = 2;
    EXPECT_EQ(RunInterleaved(chunk, small_ring), want) << "chunk=" << chunk;
  }
}

TEST(GatewayTest, DropNewestKeepsOverloadTextWithItsRecord) {
  // A 2-slot ring in drop mode sheds most of a repeated storm corpus. The
  // overload text rides a side ring; whatever survives must still carry its
  // own record's description, never a neighbour's.
  const std::string storm = ReadGolden("congestion_attach_storm_opi");
  const auto records = trace::ParseLog(storm);
  GatewayConfig config;
  config.ring_capacity = 2;
  config.backpressure = Backpressure::kDropNewest;
  Gateway gw(config);
  gw.Start();
  constexpr int kReps = 200;
  for (int rep = 0; rep < kReps; ++rep) gw.Feed(0, storm);
  gw.Finish();

  const auto stats = gw.stats();
  EXPECT_EQ(stats.records_in, records.size() * kReps);
  EXPECT_EQ(stats.records_dropped + stats.records_processed,
            stats.records_in);
  std::size_t overload = 0;
  for (const Alert& a : gw.alerts()) {
    if (a.kind != AlertKind::kOverload) continue;
    ++overload;
    const auto& r = records[a.record_index % records.size()];
    const auto kind = conf::MatchAbstractKind(r);
    ASSERT_TRUE(kind.has_value());
    if (*kind == conf::AbstractKind::kStormBegins) {
      EXPECT_EQ(a.detail, r.description);
    } else {
      EXPECT_EQ(a.detail, "UE entered congestion backoff: " + r.description);
    }
  }
  EXPECT_GT(overload, 0u);
}

TEST(GatewayTest, EachFeedPublishesItsRecords) {
  // A live tap feeds one line per Feed and waits for nothing: the record
  // must reach the monitor thread without a later Feed or Finish.
  Gateway gw;
  std::atomic<int> alerts{0};
  gw.set_alert_callback([&](const Alert&) { alerts.fetch_add(1); });
  gw.Start();
  gw.Feed(0,
          "00:00:00.010 [EVENT] [4G] [STORM] Mass attach storm begins "
          "(count=3 spacing=2ms)\n");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (alerts.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(alerts.load(), 1);
  gw.Finish();
}

TEST(GatewayTest, RingCapacityAboveTheMaximumIsRejected) {
  for (const std::size_t capacity :
       {Gateway::kMaxRingCapacity + 1,
        std::size_t{9223372036854775807ull}}) {
    GatewayConfig config;
    config.ring_capacity = capacity;
    EXPECT_THROW(Gateway{config}, std::invalid_argument) << capacity;
  }
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

TEST(GatewayTest, DropNewestCountsWhatItSheds) {
  // A tiny ring in drop mode with a consumer that cannot keep up: the
  // gateway must stay bounded and account for every dropped record.
  GatewayConfig config;
  config.ring_capacity = 4;
  config.backpressure = Backpressure::kDropNewest;
  Gateway gw(config);
  gw.Start();
  const std::string bytes = AllGoldens();
  for (std::size_t off = 0; off < bytes.size(); off += 4096) {
    gw.Feed(0, std::string_view(bytes).substr(off, 4096));
  }
  gw.Finish();
  const auto stats = gw.stats();
  EXPECT_EQ(stats.records_processed + stats.records_dropped,
            stats.records_in);
}

TEST(GatewayTest, LiveTapMatchesOfflineReplay) {
  // Tap a running testbed into the gateway (the rtv::FeedRecord glue) and
  // replay the same collected records offline: identical alert logs, and
  // every collected record crossed the byte-stream boundary.
  stack::TestbedConfig cfg;
  cfg.seed = 7;
  stack::Testbed tb(cfg);
  Gateway gw;
  gw.Start();
  tb.TapTraces([&gw](const trace::TraceRecord& r) { FeedRecord(gw, 0, r); });
  tb.storm().MassAttach(Millis(10), 50, Millis(2));
  tb.sim().ScheduleAt(Millis(100),
                      [&tb] { tb.ue().PowerOn(nas::System::k4G); });
  tb.Run(Seconds(5));
  tb.TapTraces(nullptr);
  gw.Finish();

  // The offline twin replays the same byte-stream representation the tap
  // produced (FormatRecord truncates to milliseconds), not the raw
  // collector records.
  FindingMonitors offline;
  std::vector<Alert> offline_alerts;
  std::uint64_t ordinal = 0;
  for (const auto& r :
       trace::ParseLog(trace::FormatLog(tb.traces().records()))) {
    offline.Step(r, ordinal++, &offline_alerts);
  }
  EXPECT_EQ(gw.AlertLog(), FormatAlertLog(offline_alerts));
  EXPECT_EQ(gw.stats().records_in, tb.traces().records().size());
  // The mass-attach storm must have tripped the overload monitor live.
  ASSERT_FALSE(gw.alerts().empty());
  EXPECT_EQ(gw.alerts()[0].kind, AlertKind::kOverload);
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
        "rtv.streams", "rtv.record_latency_us"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(gw.stats().lines_skipped, 0u);
}

TEST(GatewayTest, RegistryNamesOnlyWhatHappened) {
  // Registry handles are resolved on first use: a run that raises only S1
  // names no other alert counter, and a run too short to sample the queue
  // names no queue-depth gauge.
  Gateway gw;
  gw.Start();
  gw.Feed(0, ReadGolden("s1_context_loss_opi"));
  gw.Finish();
  const std::string json = gw.registry().ToJson(gw.last_record_time());
  EXPECT_NE(json.find("\"rtv.alerts.S1\""), std::string::npos);
  for (const char* absent :
       {"rtv.alerts.S2", "rtv.alerts.OVERLOAD", "rtv.queue_depth"}) {
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
