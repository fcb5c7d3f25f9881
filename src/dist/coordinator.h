// The coordinator of the distributed execution core: one RunGrid() entry
// point that every sweep runner dispatches through instead of carrying its
// own loop. The coordinator owns, in one place:
//
//   resume        manifest + cell blobs load upfront; damaged or
//                 semantically invalid blobs are discarded and re-run
//   dispatch      the thread pool (dist::Executor, caller participates;
//                 workers == 1 runs inline, byte-identical to the old
//                 serial loops)
//   checkpointing every completed cell is persisted atomically and the
//                 manifest updated, so a coordinator crash resumes exactly
//                 like the single-process runners always have
//   retries       ckpt::RunWithRetries per cell
//   quarantine    a cell whose 1 + max_retries attempts all fail is
//                 quarantined into the GridResult instead of wedging the run
//   drain         cancel stops new work; in-flight cells finish and are
//                 checkpointed; the result is marked interrupted
//
// Determinism contract: GridResult::payloads is merged by cell index, so it
// is byte-identical at any worker count and across any kill-and-resume
// boundary.
#pragma once

#include "dist/grid.h"

namespace cnv::dist {

// Runs every cell of `grid` under `options`. Never throws grid exceptions
// out: a throwing cell is a failed attempt (retried, then quarantined).
GridResult RunGrid(CellGrid& grid, const DistOptions& options);

}  // namespace cnv::dist
