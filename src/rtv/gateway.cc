#include "rtv/gateway.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/export.h"
#include "trace/qxdm.h"

namespace cnv::rtv {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Monitor-latency buckets in microseconds: sub-microsecond steady state,
// tail capturing scheduler hiccups.
std::vector<double> LatencyMicrosBounds() {
  return {0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000};
}

std::size_t CheckedRingCapacity(std::size_t requested) {
  if (requested > Gateway::kMaxRingCapacity) {
    throw std::invalid_argument(
        "rtv::Gateway: ring_capacity " + std::to_string(requested) +
        " exceeds the maximum " + std::to_string(Gateway::kMaxRingCapacity));
  }
  return requested;
}

}  // namespace

Gateway::Gateway(GatewayConfig config)
    : config_(std::move(config)),
      ring_(CheckedRingCapacity(config_.ring_capacity)),
      text_ring_(config_.ring_capacity) {}

Gateway::~Gateway() { Finish(); }

void Gateway::Start() {
  if (started_ || !config_.threaded) return;
  started_ = true;
  consumer_ = std::thread([this] { ConsumeLoop(); });
}

void Gateway::Feed(std::uint32_t stream, std::string_view bytes) {
  auto [it, inserted] =
      parsers_.try_emplace(stream, config_.max_line_bytes);
  if (inserted) streams_.fetch_add(1, std::memory_order_relaxed);
  it->second.Feed(bytes,
                  [&](const trace::RecordView& r, std::uint64_t ordinal) {
                    Enqueue(stream, ordinal, r);
                  });
  ring_.Publish();
  MirrorIngestStats(stream, it->second);
}

void Gateway::CloseStream(std::uint32_t stream) {
  const auto it = parsers_.find(stream);
  if (it == parsers_.end()) return;
  it->second.Finish([&](const trace::RecordView& r, std::uint64_t ordinal) {
    Enqueue(stream, ordinal, r);
  });
  ring_.Publish();
  MirrorIngestStats(stream, it->second);
}

// Republishes this stream's (monotonic) parser totals into the shared
// atomics by adding the delta since the last mirror, so the consumer can
// snapshot ingest counters without touching the producer-owned parser map.
void Gateway::MirrorIngestStats(std::uint32_t stream,
                                const StreamParser& parser) {
  const auto& ps = parser.stats();
  StreamParser::Stats& prev = mirrored_[stream];
  bytes_in_.fetch_add(ps.bytes - prev.bytes, std::memory_order_relaxed);
  lines_in_.fetch_add(ps.lines - prev.lines, std::memory_order_relaxed);
  records_in_.fetch_add(ps.records - prev.records, std::memory_order_relaxed);
  lines_skipped_.fetch_add(ps.skipped - prev.skipped,
                           std::memory_order_relaxed);
  lines_overlong_.fetch_add(ps.overlong - prev.overlong,
                            std::memory_order_relaxed);
  prev = ps;
}

void Gateway::Enqueue(std::uint32_t stream, std::uint64_t ordinal,
                      const trace::RecordView& record) {
  Item item;
  item.stream = stream;
  item.ordinal = ordinal;
  item.observation =
      Observe(record.module, record.description, record.time, &text_);
  if (config_.latency_sample_every != 0 &&
      ordinal % config_.latency_sample_every == 0) {
    item.pushed_ns = NowNs();
  }
  if (!config_.threaded || !started_) {
    Process(item, text_);
    return;
  }
  const bool with_text = item.observation.NeedsText();
  if (config_.backpressure == Backpressure::kBlock) {
    // Publish before waiting: the consumer can only free what it can see.
    while (!ring_.HasRoom()) {
      ring_.Publish();
      std::this_thread::yield();
    }
    while (with_text && !text_ring_.TryPush(std::move(text_))) {
      ring_.Publish();
      std::this_thread::yield();
    }
  } else if (!ring_.HasRoom() ||
             (with_text && !text_ring_.TryPush(std::move(text_)))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    ring_.Publish();
    return;
  }
  // The text (if any) is already published, so it is visible by the time
  // the consumer can pop this item.
  ring_.TryStage(item);
  if (ring_.Unpublished() == kPublishEvery) ring_.Publish();
}

void Gateway::Process(const Item& item, std::string_view text) {
  const std::size_t before = alerts_.size();
  auto [it, inserted] = monitors_.try_emplace(item.stream, item.stream);
  it->second.Step(item.observation, text, item.ordinal, &alerts_);
  ++processed_;
  last_record_time_ = item.observation.time;
  for (std::size_t i = before; i < alerts_.size(); ++i) {
    if (alerts_total_ == nullptr) {
      alerts_total_ = &registry_.GetCounter(
          "rtv.alerts", "alerts emitted by the S1-S6 monitors");
    }
    alerts_total_->Increment();
    obs::Counter*& by_kind =
        alerts_by_kind_[static_cast<std::size_t>(alerts_[i].kind)];
    if (by_kind == nullptr) {
      by_kind = &registry_.GetCounter("rtv.alerts." + ToString(alerts_[i].kind),
                                      "alerts for one finding");
    }
    by_kind->Increment();
    if (on_alert_) on_alert_(alerts_[i]);
  }
  if (item.pushed_ns != 0) {
    if (latency_us_ == nullptr) {
      latency_us_ = &registry_.GetHistogram(
          "rtv.record_latency_us", LatencyMicrosBounds(),
          "sampled push-to-processed latency per record");
    }
    latency_us_->Observe(static_cast<double>(NowNs() - item.pushed_ns) /
                         1000.0);
  }
  if ((processed_ & 1023) == 0) {
    const std::size_t depth = ring_.SizeApprox();
    if (depth > queue_peak_) queue_peak_ = depth;
    if (queue_depth_ == nullptr) {
      queue_depth_ =
          &registry_.GetGauge("rtv.queue_depth", "ring occupancy, sampled");
    }
    queue_depth_->Set(static_cast<double>(depth));
  }
  MaybeSnapshot();
}

void Gateway::ConsumeLoop() {
  // Pops one item and, when it carries text, its text.
  Item item;
  std::string text;
  const auto pop = [&] {
    if (!ring_.TryPop(&item)) return false;
    if (item.observation.NeedsText()) {
      // Published before its item, so this succeeds at once.
      while (!text_ring_.TryPop(&text)) {
      }
    }
    return true;
  };
  for (;;) {
    if (pop()) {
      Process(item, text);
      continue;
    }
    if (done_.load(std::memory_order_acquire)) {
      // The producer has stopped pushing; drain whatever raced in between
      // the failed pop above and the flag read, then exit.
      while (pop()) Process(item, text);
      return;
    }
    // Idle: sleep rather than spin. A spinning monitor thread measurably
    // slows the ingest thread it waits for (by about as much as the
    // monitors cost), and the ingest thread is the bottleneck.
    std::this_thread::sleep_for(kIdleSleep);
  }
}

void Gateway::MaybeSnapshot() {
  if (config_.snapshot_every == 0 || config_.snapshot_path.empty()) return;
  if (processed_ % config_.snapshot_every != 0) return;
  FoldCountersIntoRegistry();
  ++snapshots_;
  obs::WriteFile(config_.snapshot_path, registry_.ToJson(last_record_time_));
}

void Gateway::FoldCountersIntoRegistry() {
  // Ingest-side totals live in plain counters on the producer; the consumer
  // reads them only through this fold, which either runs on the consumer
  // against monotonic values (snapshot: slightly stale is fine) or after
  // the join (exact). Counters are monotonic, so Set-style overwrite via
  // a gauge would lose the help text; instead recreate increments.
  const auto set_counter = [&](const std::string& name, std::uint64_t v,
                               const std::string& help) {
    auto& c = registry_.GetCounter(name, help);
    if (v >= c.value()) c.Increment(v - c.value());
  };
  GatewayStats s = stats();
  set_counter("rtv.bytes_in", s.bytes_in, "trace bytes ingested");
  set_counter("rtv.lines_in", s.lines_in, "log lines seen");
  set_counter("rtv.records_in", s.records_in, "records parsed");
  set_counter("rtv.lines_skipped", s.lines_skipped, "malformed lines");
  set_counter("rtv.lines_overlong", s.lines_overlong,
              "lines discarded at the length cap");
  set_counter("rtv.records_dropped", s.records_dropped,
              "records dropped by count-and-drop backpressure");
  set_counter("rtv.records_processed", s.records_processed,
              "records stepped through the monitors");
  registry_.GetGauge("rtv.streams", "distinct ingest streams")
      .Set(static_cast<double>(s.streams));
  registry_.GetGauge("rtv.queue_peak", "highest sampled ring occupancy")
      .Set(static_cast<double>(queue_peak_));
}

void Gateway::Finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& [stream, parser] : parsers_) {
    CloseStream(stream);
  }
  done_.store(true, std::memory_order_release);
  if (started_ && consumer_.joinable()) consumer_.join();
  started_ = false;
  FoldCountersIntoRegistry();
}

GatewayStats Gateway::stats() const {
  GatewayStats s;
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.lines_in = lines_in_.load(std::memory_order_relaxed);
  s.records_in = records_in_.load(std::memory_order_relaxed);
  s.lines_skipped = lines_skipped_.load(std::memory_order_relaxed);
  s.lines_overlong = lines_overlong_.load(std::memory_order_relaxed);
  s.streams = static_cast<std::size_t>(
      streams_.load(std::memory_order_relaxed));
  s.records_dropped = dropped_.load(std::memory_order_relaxed);
  s.records_processed = processed_;
  s.alerts = alerts_.size();
  s.snapshots = snapshots_;
  s.queue_peak = queue_peak_;
  return s;
}

void FeedRecord(Gateway& gw, std::uint32_t stream,
                const trace::TraceRecord& r) {
  std::string line = trace::FormatRecord(r);
  line += '\n';
  gw.Feed(stream, line);
}

}  // namespace cnv::rtv
