// Coordinator tests on toy grids: serial/thread byte-identity, retry +
// quarantine on the thread pool, chained carry threading, checkpoint/resume
// with blob validation, and graceful drain.
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "dist/grid.h"
#include "gtest/gtest.h"

namespace cnv::dist {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / "dist_grid_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Unchained toy grid: payload is a pure function of the index.
class SquareGrid : public CellGrid {
 public:
  explicit SquareGrid(std::size_t n) : n_(n) {}
  std::size_t size() const override { return n_; }
  CellOutcome RunCell(std::size_t i, std::string_view) override {
    ++calls_;
    CellOutcome out;
    out.payload = "cell " + std::to_string(i) + " -> " + std::to_string(i * i);
    return out;
  }
  int calls() const { return calls_.load(); }

 private:
  std::size_t n_;
  std::atomic<int> calls_{0};
};

// Chained toy grid: the carry is a running sum, so any break in the chain
// (wrong order, lost carry) corrupts every later payload.
class SumChainGrid : public CellGrid {
 public:
  explicit SumChainGrid(std::size_t n) : n_(n) {}
  std::size_t size() const override { return n_; }
  bool chained() const override { return true; }
  std::string InitialCarry() const override { return "0"; }
  bool CarryFromPayload(std::string_view payload,
                        std::string* carry) const override {
    const std::size_t colon = payload.find(':');
    if (colon == std::string_view::npos) return false;
    *carry = std::string(payload.substr(colon + 1));
    return true;
  }
  CellOutcome RunCell(std::size_t i, std::string_view carry_in) override {
    CellOutcome out;
    const std::uint64_t sum =
        std::stoull(std::string(carry_in)) + (i + 1) * (i + 1);
    out.carry = std::to_string(sum);
    out.payload = "sum after " + std::to_string(i) + ":" + out.carry;
    return out;
  }

 private:
  std::size_t n_;
};

TEST(GridTest, SerialAndThreadBackendsAreByteIdentical) {
  SquareGrid serial_grid(16);
  DistOptions serial_opt;
  serial_opt.workers = 1;
  const GridResult serial = RunGrid(serial_grid, serial_opt);
  ASSERT_TRUE(serial.complete);
  EXPECT_EQ(serial.exec.cells_run, 16u);

  SquareGrid pooled_grid(16);
  DistOptions pooled_opt;
  pooled_opt.workers = 4;
  const GridResult pooled = RunGrid(pooled_grid, pooled_opt);
  ASSERT_TRUE(pooled.complete);
  EXPECT_EQ(serial.payloads, pooled.payloads);
  EXPECT_EQ(pooled_grid.calls(), 16);
}

TEST(GridTest, ChainedGridThreadsCarryInOrder) {
  SumChainGrid grid(8);
  DistOptions opt;
  opt.workers = 4;  // chained grids run in order regardless of workers
  const GridResult result = RunGrid(grid, opt);
  ASSERT_TRUE(result.complete);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    sum += (i + 1) * (i + 1);
    EXPECT_EQ(result.payloads[i],
              "sum after " + std::to_string(i) + ":" + std::to_string(sum));
  }
}

// Fails the first `failures` attempts of every cell, then succeeds.
class FlakyGrid : public CellGrid {
 public:
  FlakyGrid(std::size_t n, int failures) : n_(n), failures_(failures) {}
  std::size_t size() const override { return n_; }
  CellOutcome RunCell(std::size_t i, std::string_view) override {
    int seen;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seen = attempts_[i]++;
    }
    CellOutcome out;
    if (seen < failures_) {
      out.ok = false;
      out.error = "transient failure " + std::to_string(seen);
      return out;
    }
    out.payload = "cell " + std::to_string(i);
    return out;
  }

 private:
  std::size_t n_;
  int failures_;
  std::mutex mu_;
  std::map<std::size_t, int> attempts_;
};

TEST(GridTest, ThreadBackendRetriesCleanFailures) {
  FlakyGrid grid(6, 2);
  DistOptions opt;
  opt.workers = 3;
  opt.retry.max_retries = 2;
  opt.retry.sleep_ms_for_test = [](std::int64_t) {};
  const GridResult result = RunGrid(grid, opt);
  ASSERT_TRUE(result.complete);
  EXPECT_TRUE(result.quarantined.empty());
  EXPECT_EQ(result.exec.retries, 12u);  // 2 extra attempts per cell
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.payloads[i], "cell " + std::to_string(i));
  }
}

TEST(GridTest, ThreadBackendQuarantinesCellsThatExhaustRetries) {
  FlakyGrid grid(4, 100);  // never succeeds
  DistOptions opt;
  opt.workers = 2;
  opt.retry.max_retries = 1;
  opt.retry.sleep_ms_for_test = [](std::int64_t) {};
  const GridResult result = RunGrid(grid, opt);
  // Every cell quarantined: the grid is "complete" (nothing pending) but
  // nothing produced a payload.
  EXPECT_TRUE(result.complete);
  ASSERT_EQ(result.quarantined.size(), 4u);
  std::set<std::size_t> indices;
  for (const auto& q : result.quarantined) {
    indices.insert(q.index);
    EXPECT_EQ(q.strikes, 2u);  // 1 attempt + 1 retry
    EXPECT_FALSE(q.last_error.empty());
  }
  EXPECT_EQ(indices.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.states[i], CellState::kQuarantined);
    EXPECT_TRUE(result.payloads[i].empty());
  }
}

TEST(GridTest, ResumeReplaysCompletedCellsWithoutRerunning) {
  const std::string dir = TempDir("resume");
  ckpt::ManifestStore store(dir, /*config_digest=*/42);

  SquareGrid first(10);
  DistOptions opt;
  opt.workers = 2;
  opt.store = &store;
  const GridResult full = RunGrid(first, opt);
  ASSERT_TRUE(full.complete);
  EXPECT_EQ(full.exec.checkpoints_written, 10u);

  SquareGrid second(10);
  opt.resume = true;
  const GridResult resumed = RunGrid(second, opt);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.exec.cells_resumed, 10u);
  EXPECT_EQ(resumed.exec.cells_run, 0u);
  EXPECT_EQ(second.calls(), 0);
  EXPECT_EQ(resumed.payloads, full.payloads);
}

TEST(GridTest, ResumeDiscardsBlobsTheValidatorRejects) {
  const std::string dir = TempDir("validate");
  ckpt::ManifestStore store(dir, 42);

  SquareGrid first(6);
  DistOptions opt;
  opt.workers = 1;
  opt.store = &store;
  ASSERT_TRUE(RunGrid(first, opt).complete);

  SquareGrid second(6);
  opt.resume = true;
  opt.validate_payload = [](std::size_t index, std::string_view) {
    return index != 3;  // pretend cell 3's blob no longer decodes
  };
  const GridResult resumed = RunGrid(second, opt);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.exec.cells_resumed, 5u);
  EXPECT_EQ(resumed.exec.cells_run, 1u);
  EXPECT_EQ(resumed.exec.corrupt_cells_discarded, 1u);
  EXPECT_EQ(second.calls(), 1);
  EXPECT_EQ(resumed.payloads[3], "cell 3 -> 9");
}

TEST(GridTest, ChainedResumeReentersTheChainMidway) {
  const std::string dir = TempDir("chained_resume");
  ckpt::ManifestStore store(dir, 7);

  // Run the full chain once to populate the store.
  SumChainGrid first(8);
  DistOptions opt;
  opt.store = &store;
  const GridResult full = RunGrid(first, opt);
  ASSERT_TRUE(full.complete);

  // Truncate the manifest to "done through cell 4" by re-saving it with the
  // tail cleared; the resumed run must fold carries from the prefix blobs
  // and produce byte-identical tail payloads.
  ckpt::Manifest m;
  ASSERT_EQ(store.LoadManifest(&m), ckpt::LoadStatus::kOk);
  for (std::size_t i = 5; i < 8; ++i) m.cells[i] = {};
  ASSERT_TRUE(store.SaveManifest(m));

  SumChainGrid second(8);
  opt.resume = true;
  const GridResult resumed = RunGrid(second, opt);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.exec.cells_resumed, 5u);
  EXPECT_EQ(resumed.exec.cells_run, 3u);
  EXPECT_EQ(resumed.payloads, full.payloads);
}

TEST(GridTest, PreCancelledRunCompletesNothing) {
  SquareGrid grid(8);
  DistOptions opt;
  opt.workers = 2;
  std::atomic<bool> cancel{true};
  opt.cancel = &cancel;
  const GridResult result = RunGrid(grid, opt);
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.exec.interrupted);
  EXPECT_EQ(grid.calls(), 0);
}

TEST(GridTest, ChainedDrainStopsBetweenCells) {
  // Cancel after cell 2 completes: the chain must stop cleanly with the
  // completed prefix intact.
  class DrainingGrid : public SumChainGrid {
   public:
    DrainingGrid(std::size_t n, std::atomic<bool>* cancel)
        : SumChainGrid(n), cancel_(cancel) {}
    CellOutcome RunCell(std::size_t i, std::string_view carry) override {
      if (i == 2) cancel_->store(true);
      return SumChainGrid::RunCell(i, carry);
    }

   private:
    std::atomic<bool>* cancel_;
  };

  std::atomic<bool> cancel{false};
  DrainingGrid grid(8, &cancel);
  DistOptions opt;
  opt.cancel = &cancel;
  const GridResult result = RunGrid(grid, opt);
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.exec.interrupted);
  EXPECT_EQ(result.exec.cells_run, 3u);  // cells 0, 1, 2 finished
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(result.Done(i));
  for (std::size_t i = 3; i < 8; ++i) {
    EXPECT_EQ(result.states[i], CellState::kPending);
  }
}

}  // namespace
}  // namespace cnv::dist
