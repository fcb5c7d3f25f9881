#include "dist/coordinator.h"

#include <exception>
#include <mutex>
#include <utility>

#include "dist/executor.h"

namespace cnv::dist {

namespace {

// Shared merge/checkpoint state. All mutation happens under `mu`.
struct Merge {
  CellGrid& grid;
  const DistOptions& options;
  GridResult& result;
  ckpt::Manifest manifest;
  std::mutex mu;

  Merge(CellGrid& g, const DistOptions& o, GridResult& r)
      : grid(g), options(o), result(r) {
    manifest.cells.resize(g.size());
  }

  // Commits a completed cell: merge by index, persist blob + manifest.
  // Caller holds no lock.
  void Commit(std::size_t i, std::string payload) {
    std::lock_guard<std::mutex> lock(mu);
    result.payloads[i] = std::move(payload);
    result.states[i] = CellState::kDone;
    ++result.exec.cells_run;
    manifest.cells[i].done = 1;
    if (options.store != nullptr &&
        options.store->SaveCell(i, options.cell_type, result.payloads[i])) {
      ++result.exec.checkpoints_written;
      manifest.cells[i].outcome_digest = ckpt::Fnv1a64(result.payloads[i]);
      options.store->SaveManifest(manifest);
    }
  }

  void Account(const ckpt::RetryOutcome& attempt) {
    std::lock_guard<std::mutex> lock(mu);
    result.exec.retries += attempt.retries;
    result.exec.watchdog_hits += attempt.watchdog_hits;
  }

  // Quarantines a cell whose every attempt failed.
  void Quarantine(std::size_t i, const ckpt::RetryOutcome& attempt,
                  std::string last_error) {
    QuarantineRecord q;
    q.index = i;
    q.name = grid.CellName(i);
    q.strikes = static_cast<std::uint32_t>(1 + attempt.retries);
    q.last_error = std::move(last_error);
    std::lock_guard<std::mutex> lock(mu);
    result.states[i] = CellState::kQuarantined;
    result.quarantined.push_back(std::move(q));
    // Deliberately NOT marked done in the manifest: a future resume gets
    // another chance at the cell (the poison may have been environmental).
  }
};

// One attempt of one cell, exception-safe: a throwing RunCell is a failed
// attempt like any other.
CellOutcome Attempt(CellGrid& grid, std::size_t i, std::string_view carry) {
  try {
    return grid.RunCell(i, carry);
  } catch (const std::exception& e) {
    CellOutcome out;
    out.ok = false;
    out.error = e.what();
    return out;
  } catch (...) {
    CellOutcome out;
    out.ok = false;
    out.error = "unknown exception";
    return out;
  }
}

bool Cancelled(const DistOptions& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

// Unchained: the historical campaign/diff loop — dynamic claiming with
// graceful drain, merge + checkpoint under the mutex.
void RunUnchained(Merge& m, const std::vector<std::size_t>& pending) {
  Executor exec(m.options.workers);
  exec.ParallelEachUntil(
      pending.size(),
      [&](int, std::size_t k) {
        const std::size_t i = pending[k];
        CellOutcome out;
        const ckpt::RetryOutcome attempt =
            ckpt::RunWithRetries(m.options.retry, [&] {
              out = Attempt(m.grid, i, {});
              return out.ok;
            });
        m.Account(attempt);
        // `out.ok` without `attempt.ok`: every attempt was functionally
        // fine but overran the cooperative watchdog. The outcome is
        // deterministic, just slow — keep the last attempt's result
        // (the historical RunWithRetries contract) instead of poisoning
        // the cell.
        if (attempt.ok || out.ok) {
          m.Commit(i, std::move(out.payload));
        } else {
          m.Quarantine(i, attempt, std::move(out.error));
        }
      },
      m.options.cancel);
}

// Chained: the historical screening loop — strict index order, carry
// threaded cell to cell, retries replaying the same carry-in.
void RunChained(Merge& m) {
  const std::size_t n = m.grid.size();
  std::string carry = m.grid.InitialCarry();
  for (std::size_t i = 0; i < n; ++i) {
    if (Cancelled(m.options)) break;
    if (m.result.states[i] == CellState::kDone) {
      // Resumed cell: fold its carry-out into the chain (validated during
      // the resume pass, so this cannot fail here).
      m.grid.CarryFromPayload(m.result.payloads[i], &carry);
      continue;
    }
    CellOutcome out;
    const ckpt::RetryOutcome attempt =
        ckpt::RunWithRetries(m.options.retry, [&] {
          out = Attempt(m.grid, i, carry);
          return out.ok;
        });
    m.Account(attempt);
    // As in the unchained loop: a slow-but-successful last attempt keeps
    // its outcome (and its carry, so the chain continues).
    if (!attempt.ok && !out.ok) {
      m.Quarantine(i, attempt, std::move(out.error));
      break;  // no carry-out: the chain cannot continue either way
    }
    carry = out.carry;
    m.Commit(i, std::move(out.payload));
  }
}

}  // namespace

GridResult RunGrid(CellGrid& grid, const DistOptions& options) {
  const std::size_t n = grid.size();
  GridResult result;
  result.payloads.resize(n);
  result.states.assign(n, CellState::kPending);
  result.exec.cells_total = n;

  Merge m(grid, options, result);

  // Resume: replay completed cells from their blobs; anything damaged,
  // stale or semantically invalid is discarded and re-runs.
  if (options.store != nullptr) {
    if (options.resume) {
      ckpt::Manifest loaded;
      if (options.store->LoadManifest(&loaded) == ckpt::LoadStatus::kOk &&
          loaded.cells.size() == n) {
        m.manifest = std::move(loaded);
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (m.manifest.cells[i].done == 0) continue;
        std::string blob;
        bool ok = options.store->LoadCell(i, options.cell_type,
                                          m.manifest.cells[i].outcome_digest,
                                          &blob) == ckpt::LoadStatus::kOk;
        if (ok && options.validate_payload) {
          ok = options.validate_payload(i, blob);
        }
        if (ok && grid.chained()) {
          std::string carry;
          ok = grid.CarryFromPayload(blob, &carry);
        }
        if (ok) {
          result.payloads[i] = std::move(blob);
          result.states[i] = CellState::kDone;
          ++result.exec.cells_resumed;
        } else {
          m.manifest.cells[i] = {};
          ++result.exec.corrupt_cells_discarded;
        }
      }
    }
    options.store->SaveManifest(m.manifest);
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < n; ++i) {
    if (result.states[i] == CellState::kPending) pending.push_back(i);
  }

  if (!pending.empty()) {
    if (grid.chained()) {
      RunChained(m);
    } else {
      RunUnchained(m, pending);
    }
  }

  if (Cancelled(options)) result.exec.interrupted = true;
  result.complete = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (result.states[i] == CellState::kPending) {
      result.complete = false;
      break;
    }
  }
  return result;
}

}  // namespace cnv::dist
