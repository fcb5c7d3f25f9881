#include "rtv/gateway.h"

#include <utility>

#include "obs/export.h"

namespace cnv::rtv {

Gateway::Gateway(GatewayConfig config) : config_(std::move(config)) {}

Gateway::~Gateway() { Finish(); }

void Gateway::Feed(std::uint32_t stream, std::string_view bytes) {
  StreamParser& parser =
      parsers_.try_emplace(stream, config_.max_line_bytes).first->second;
  FindingMonitors& monitors =
      monitors_.try_emplace(stream, stream).first->second;
  parser.Feed(bytes, [&](const trace::RecordView& r, std::uint64_t ordinal) {
    Process(monitors, ordinal, r);
  });
}

void Gateway::CloseStream(std::uint32_t stream) {
  const auto it = parsers_.find(stream);
  if (it == parsers_.end()) return;
  FindingMonitors& monitors =
      monitors_.try_emplace(stream, stream).first->second;
  it->second.Finish([&](const trace::RecordView& r, std::uint64_t ordinal) {
    Process(monitors, ordinal, r);
  });
}

void Gateway::Process(FindingMonitors& monitors, std::uint64_t ordinal,
                      const trace::RecordView& record) {
  const Observation observation =
      Observe(record.module, record.description, record.time, &text_);
  const std::size_t before = alerts_.size();
  monitors.Step(observation, text_, ordinal, &alerts_);
  ++processed_;
  last_record_time_ = observation.time;
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
  MaybeSnapshot();
}

void Gateway::MaybeSnapshot() {
  if (config_.snapshot_every == 0 || config_.snapshot_path.empty()) return;
  if (processed_ % config_.snapshot_every != 0) return;
  FoldCountersIntoRegistry();
  ++snapshots_;
  obs::WriteFile(config_.snapshot_path, registry_.ToJson(last_record_time_));
}

void Gateway::FoldCountersIntoRegistry() {
  // The totals are monotonic, so each fold raises its counter to the
  // current value (a gauge's overwrite would lose the counter type).
  const auto set_counter = [&](const std::string& name, std::uint64_t v,
                               const std::string& help) {
    auto& c = registry_.GetCounter(name, help);
    if (v >= c.value()) c.Increment(v - c.value());
  };
  const GatewayStats s = stats();
  set_counter("rtv.bytes_in", s.bytes_in, "trace bytes ingested");
  set_counter("rtv.lines_in", s.lines_in, "log lines seen");
  set_counter("rtv.records_in", s.records_in, "records parsed");
  set_counter("rtv.lines_skipped", s.lines_skipped, "malformed lines");
  set_counter("rtv.lines_overlong", s.lines_overlong,
              "lines discarded at the length cap");
  set_counter("rtv.records_processed", s.records_processed,
              "records stepped through the monitors");
  registry_.GetGauge("rtv.streams", "distinct ingest streams")
      .Set(static_cast<double>(s.streams));
}

void Gateway::Finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& [stream, parser] : parsers_) {
    CloseStream(stream);
  }
  FoldCountersIntoRegistry();
}

GatewayStats Gateway::stats() const {
  GatewayStats s;
  for (const auto& [stream, parser] : parsers_) {
    const StreamParser::Stats& ps = parser.stats();
    s.bytes_in += ps.bytes;
    s.lines_in += ps.lines;
    s.records_in += ps.records;
    s.lines_skipped += ps.skipped;
    s.lines_overlong += ps.overlong;
  }
  s.streams = parsers_.size();
  s.records_processed = processed_;
  s.alerts = alerts_.size();
  s.snapshots = snapshots_;
  return s;
}

}  // namespace cnv::rtv
