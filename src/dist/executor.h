// The one in-process dispatch implementation of the distributed execution
// core. The grid coordinator's thread backend dispatches through an
// Executor rather than wiring its own pool, so drain semantics and busy
// accounting live in exactly one place.
//
// The Executor wraps par::WorkerPool (the low-level thread primitive) and
// re-exports its dispatch: dynamically claimed indices (ParallelEach), with
// a graceful drain (ParallelEachUntil) — the shape for irregular cell
// grids, where results are merged by index so scheduling never shows.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "par/pool.h"

namespace cnv::dist {

class Executor {
 public:
  // jobs == 0 selects hardware concurrency; jobs == 1 runs inline with no
  // threads (byte-identical to the pre-pool serial code paths).
  explicit Executor(int jobs = 0) : pool_(jobs) {}

  int jobs() const { return pool_.jobs(); }

  void ParallelEach(std::size_t n,
                    const std::function<void(int, std::size_t)>& fn) {
    pool_.ParallelEach(n, fn);
  }

  // Once *stop becomes true, workers finish claimed indices and claim no
  // more; the call still barriers. stop == nullptr never drains.
  void ParallelEachUntil(std::size_t n,
                         const std::function<void(int, std::size_t)>& fn,
                         const std::atomic<bool>* stop) {
    pool_.ParallelEachUntil(n, fn, stop);
  }

  // Cumulative per-worker busy seconds; telemetry only.
  std::vector<double> BusySeconds() const { return pool_.BusySeconds(); }

 private:
  par::WorkerPool pool_;
};

}  // namespace cnv::dist
