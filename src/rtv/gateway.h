// The online runtime-verification gateway: streaming trace ingest,
// per-stream incremental abstraction and the S1-S6 online monitors, with
// live counters in an obs::Registry and an optional periodic JSON snapshot.
//
//   bytes --Feed()--> StreamParser --> Observe --> FindingMonitors::Step
//         --> Alert callback / alert log + metrics
//
// Everything runs on the feeding thread: each record is parsed, abstracted
// and stepped through its stream's monitors before Feed returns, so an
// alert callback fires inside the Feed (or CloseStream/Finish) call that
// completed its signature. A second monitor thread behind a ring measured
// no faster than this (EXPERIMENTS.md, "Watchdog threading decision"):
// parsing dominates and the monitors cost a few percent of it.
//
// Determinism: the alert log is a pure function of the byte stream and the
// per-stream interleaving — byte-identical at any chunking.
//
// Memory is bounded by: per-stream parser carry-over (<= max_line_bytes
// each) + per-stream monitor state (a few flags), so a million idle UE
// streams cost only their map entries.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "rtv/alert.h"
#include "rtv/monitors.h"
#include "rtv/stream.h"

namespace cnv::rtv {

struct GatewayConfig {
  // No longer affects the gateway; perfbench/bench.cc still sets/reads it.
  bool threaded = true;
  std::size_t max_line_bytes = 64 * 1024;  // per-stream carry-over cap
  // When nonzero, every N processed records the registry is serialized to
  // `snapshot_path` (atomic rename), so an operator can poll live state.
  std::size_t snapshot_every = 0;
  std::string snapshot_path;
};

struct GatewayStats {
  std::uint64_t bytes_in = 0;
  std::uint64_t lines_in = 0;
  std::uint64_t records_in = 0;        // parsed
  std::uint64_t lines_skipped = 0;     // malformed lines
  std::uint64_t lines_overlong = 0;    // discarded at the line-length cap
  std::uint64_t records_processed = 0; // stepped through the monitors
  std::uint64_t alerts = 0;
  std::uint64_t snapshots = 0;
  // No longer affects the gateway; perfbench/bench.cc still sets/reads it.
  std::size_t queue_peak = 0;
  std::size_t streams = 0;
};

class Gateway {
 public:
  // Invoked on the feeding thread the moment an alert fires.
  using AlertCallback = std::function<void(const Alert&)>;

  explicit Gateway(GatewayConfig config = {});
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  // Optional; set before the first Feed().
  void set_alert_callback(AlertCallback cb) { on_alert_ = std::move(cb); }

  // No longer affects the gateway; perfbench/bench.cc still sets/reads it.
  void Start() {}

  // Feeds one chunk of QXDM-format bytes for `stream`.
  void Feed(std::uint32_t stream, std::string_view bytes);

  // Flushes a trailing unterminated line of `stream`.
  void CloseStream(std::uint32_t stream);

  // Closes every stream and folds the final counters into the registry.
  // Idempotent.
  void Finish();

  const std::vector<Alert>& alerts() const { return alerts_; }
  std::string AlertLog() const { return FormatAlertLog(alerts_); }
  GatewayStats stats() const;

  // Complete after Finish(); between snapshots the ingest counters lag.
  obs::Registry& registry() { return registry_; }

  // Simulated timestamp of the last processed record (0 before any).
  SimTime last_record_time() const { return last_record_time_; }

 private:
  void Process(FindingMonitors& monitors, std::uint64_t ordinal,
               const trace::RecordView& record);
  void MaybeSnapshot();
  void FoldCountersIntoRegistry();

  GatewayConfig config_;
  AlertCallback on_alert_;
  bool finished_ = false;

  std::unordered_map<std::uint32_t, StreamParser> parsers_;
  std::unordered_map<std::uint32_t, FindingMonitors> monitors_;
  std::string text_;  // the current record's overload text
  std::vector<Alert> alerts_;
  obs::Registry registry_;
  // Registry handles, each resolved on first use so the registry only
  // names what actually happened.
  obs::Counter* alerts_total_ = nullptr;
  std::array<obs::Counter*, kAlertKinds> alerts_by_kind_{};
  std::uint64_t processed_ = 0;
  std::uint64_t snapshots_ = 0;
  SimTime last_record_time_ = 0;
};

}  // namespace cnv::rtv
