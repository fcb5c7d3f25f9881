// The shared task-graph vocabulary of the distributed execution core: a
// *cell grid* is a set of independent (or chain-dependent) tasks with
// deterministic identity. The three sweep runners — fault::CampaignRunner,
// conf::DifferentialDriver and core::ScreeningRunner — implement CellGrid
// and hand dispatch, supervision, checkpointing and retry to one
// dist::RunGrid coordinator instead of each carrying their own loop.
//
// The determinism contract that makes parallel dispatch safe:
// RunCell(i, carry) is a pure function of (i, carry) — same index and
// carry-in, same outcome payload and carry-out bytes, on any thread, at any
// time. The coordinator merges outcomes *by cell index*, so the merged
// result is byte-identical between the serial run and the thread pool at
// any worker count, and across any kill-and-resume boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/io.h"
#include "ckpt/manifest.h"

namespace cnv::dist {

// Outcome of one cell attempt. `payload` is the encoded cell result (the
// grid's own codec; the coordinator never interprets it); `carry` is the
// chain token handed to the next cell of a chained grid (e.g. the screening
// runner's shared RNG stream state).
struct CellOutcome {
  bool ok = true;
  std::string payload;
  std::string carry;
  std::string error;  // set when !ok
};

class CellGrid {
 public:
  virtual ~CellGrid() = default;

  virtual std::size_t size() const = 0;

  // Stable human-readable identity, used in quarantine reports and logs.
  virtual std::string CellName(std::size_t index) const {
    return "cell " + std::to_string(index);
  }

  // True when cell i+1's input depends on cell i's carry-out. Chained grids
  // run strictly in index order; unchained grids fan out freely.
  virtual bool chained() const { return false; }

  // Carry-in for cell 0 of a chained grid.
  virtual std::string InitialCarry() const { return {}; }

  // Recovers the carry-out from a completed cell's payload, so a resumed
  // chained grid re-enters the chain exactly where the checkpoint left it.
  // Returns false when the payload does not decode (the cell then re-runs).
  virtual bool CarryFromPayload(std::string_view payload,
                                std::string* carry) const {
    (void)payload;
    carry->clear();
    return true;
  }

  // Runs the cell. Must be deterministic in (index, carry_in) and safe to
  // call from a pool thread.
  virtual CellOutcome RunCell(std::size_t index, std::string_view carry_in) = 0;
};

struct DistOptions {
  // Worker count: 0 = hardware concurrency, 1 = inline/serial.
  int workers = 1;
  // Per-cell post-hoc watchdog + bounded retries. A cell whose
  // 1 + retry.max_retries attempts all fail is quarantined into the report.
  ckpt::RetryPolicy retry;
  // Graceful drain: no new cells start once set; in-flight cells finish and are
  // checkpointed, the result is marked incomplete.
  const std::atomic<bool>* cancel = nullptr;
  // Checkpointing: when `store` is set, completed cells are persisted as
  // `cell_type` blobs with a manifest, and (with `resume`) completed cells
  // replay from their blobs exactly like an uninterrupted run.
  const ckpt::ManifestStore* store = nullptr;
  bool resume = false;
  ckpt::PayloadType cell_type = ckpt::PayloadType::kCampaignCell;
  // Resume-time semantic validation of a checksum-valid cell blob (e.g.
  // "does this decode as a RunOutcome?"). Returns false to discard the blob
  // and re-run the cell. Null accepts any blob the envelope check passed.
  std::function<bool(std::size_t index, std::string_view payload)>
      validate_payload;
};

enum class CellState : std::uint8_t {
  kPending = 0,     // never completed (drain interrupted the grid)
  kDone = 1,        // payload merged
  kQuarantined = 2  // poisoned: every attempt failed
};

struct QuarantineRecord {
  std::size_t index = 0;
  std::string name;
  std::uint32_t strikes = 0;  // failed attempts (1 + retry.max_retries)
  std::string last_error;     // last clean-failure message, if any
};

struct GridResult {
  // One entry per cell, merged by index; empty for pending/quarantined.
  std::vector<std::string> payloads;
  std::vector<CellState> states;
  std::vector<QuarantineRecord> quarantined;  // index order
  ckpt::ExecutionStats exec;
  bool complete = true;  // every cell done or quarantined

  bool Done(std::size_t i) const { return states[i] == CellState::kDone; }
};

}  // namespace cnv::dist
