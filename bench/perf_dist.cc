// Distributed-core dispatch benchmark: the same synthetic cell grid through
// dist::RunGrid's thread pool at 1/2/4/8 workers, against the serial
// (workers=1 inline) baseline. Reports cells/sec and the per-cell dispatch
// overhead of each worker count.
//
// Every timed configuration is first verified byte-identical to the serial
// payload vector; a fast pool with wrong results would be meaningless.
//
// Usage:  ./perf_dist [--bench-json PATH] [--quick]
//   --bench-json PATH   also write a machine-readable report (default
//                       BENCH_dist.json in the working directory)
//   --quick             fewer cells / reps for smoke runs
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "dist/grid.h"
#include "obs/export.h"
#include "par/pool.h"

namespace cnv {
namespace {

// A cell is a fixed slab of FNV mixing — deterministic, CPU-bound, a stand-in
// for one campaign run. `iters` dials the per-cell cost so the dispatch
// overhead under measurement stays a small fraction of the work.
class MixGrid : public dist::CellGrid {
 public:
  MixGrid(std::size_t cells, std::uint64_t iters)
      : cells_(cells), iters_(iters) {}
  std::size_t size() const override { return cells_; }
  dist::CellOutcome RunCell(std::size_t i, std::string_view) override {
    std::uint64_t h = 0xcbf29ce484222325ull ^ (i * 0x9e3779b97f4a7c15ull);
    for (std::uint64_t k = 0; k < iters_; ++k) {
      h = (h ^ (h >> 29)) * 0x100000001b3ull;
    }
    dist::CellOutcome out;
    out.payload = "cell " + std::to_string(i) + " -> " + std::to_string(h);
    return out;
  }

 private:
  std::size_t cells_;
  std::uint64_t iters_;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = Now();
    fn();
    const double dt = Now() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

struct Row {
  int workers = 1;
  double seconds = 0;
  double cells_per_sec = 0;
  double per_cell_overhead_us = 0;  // vs ideal serial_seconds / workers
};

}  // namespace
}  // namespace cnv

int main(int argc, char** argv) {
  using namespace cnv;
  std::string json_path = "BENCH_dist.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--bench-json PATH] [--quick]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::size_t cells = quick ? 96 : 256;
  const std::uint64_t iters = 1'500'000;  // ~1 ms of mixing per cell
  const int reps = quick ? 2 : 3;
  MixGrid grid(cells, iters);

  const dist::GridResult serial = dist::RunGrid(grid, dist::DistOptions{});
  const double serial_seconds =
      TimeBest(reps, [&] { (void)dist::RunGrid(grid, dist::DistOptions{}); });
  std::printf(
      "dist dispatch benchmark: %zu cells x %llu mixes "
      "(hardware jobs: %d)\n\n",
      cells, static_cast<unsigned long long>(iters), par::HardwareJobs());
  std::printf("serial baseline: %8.4fs  (%.0f cells/s)\n\n", serial_seconds,
              static_cast<double>(cells) / serial_seconds);

  bool mismatch = false;
  std::vector<Row> rows;
  for (const int workers : {1, 2, 4, 8}) {
    dist::DistOptions opt;
    opt.workers = workers;
    const dist::GridResult check = dist::RunGrid(grid, opt);
    if (!check.complete || check.payloads != serial.payloads) {
      std::fprintf(stderr, "FATAL: workers=%d diverged from serial\n",
                   workers);
      mismatch = true;
    }
    Row row;
    row.workers = workers;
    row.seconds = TimeBest(reps, [&] { (void)dist::RunGrid(grid, opt); });
    row.cells_per_sec = static_cast<double>(cells) / row.seconds;
    // Overhead vs embarrassingly-parallel ideal: everything the pool spends
    // beyond serial_work / workers, amortized per cell.
    row.per_cell_overhead_us = (row.seconds - serial_seconds / workers) *
                               1e6 / static_cast<double>(cells);
    rows.push_back(row);
    std::printf("workers=%d  %8.4fs  %8.0f cells/s  overhead %7.1f us/cell\n",
                workers, row.seconds, row.cells_per_sec,
                row.per_cell_overhead_us);
  }

  std::string json = "{\n";
  json += "  \"cells\": " + std::to_string(cells) + ",\n";
  json += "  \"iters_per_cell\": " + std::to_string(iters) + ",\n";
  json += "  \"hardware_jobs\": " + std::to_string(par::HardwareJobs()) +
          ",\n";
  json += "  \"serial_seconds\": " + std::to_string(serial_seconds) + ",\n";
  json += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (i > 0) json += ",\n";
    json += "    {\"workers\": " + std::to_string(r.workers) + ", \"seconds\": " +
            std::to_string(r.seconds) + ", \"cells_per_sec\": " +
            std::to_string(r.cells_per_sec) + ", \"per_cell_overhead_us\": " +
            std::to_string(r.per_cell_overhead_us) + "}";
  }
  json += "\n  ]\n}\n";
  if (!obs::WriteFile(json_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return mismatch ? 1 : 0;
}
