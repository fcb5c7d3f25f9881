// Kill-and-resume fuzzer: the tentpole invariant of the distributed core is
// that the merged grid output is byte-identical between the serial run and
// the thread pool at any worker count, across any kill-and-resume boundary.
// Each fuzz round "kills the coordinator" at a random point by cancelling a
// checkpointed run mid-grid, then resumes at a random worker count and
// byte-compares against the serial baseline.
#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "dist/grid.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace cnv::dist {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "dist_killfuzz_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Payloads mix the index into a few rounds of FNV so a merge bug (wrong
// index, truncated payload, doubled cell) cannot collide into a pass.
class HashGrid : public CellGrid {
 public:
  explicit HashGrid(std::size_t n) : n_(n) {}
  std::size_t size() const override { return n_; }
  CellOutcome RunCell(std::size_t i, std::string_view) override {
    std::uint64_t h = 0xcbf29ce484222325ull ^ (i * 0x9e3779b97f4a7c15ull);
    std::string payload = "cell " + std::to_string(i) + ":";
    for (int round = 0; round < 4; ++round) {
      h = (h ^ (h >> 29)) * 0x100000001b3ull;
      payload += " " + std::to_string(h);
    }
    CellOutcome out;
    out.payload = std::move(payload);
    return out;
  }

 private:
  std::size_t n_;
};

TEST(KillFuzzTest, CoordinatorKillPlusResumeIsByteIdenticalToSerial) {
  constexpr std::size_t kCells = 16;
  HashGrid grid(kCells);
  const DistOptions serial_opt;
  const GridResult serial = RunGrid(grid, serial_opt);

  Rng rng(4242);
  for (int round = 0; round < 4; ++round) {
    const std::string dir = TempDir("resume_round_" + std::to_string(round));
    ckpt::ManifestStore store(dir, 99);

    // Leg 1: "kill the coordinator" by cancelling after a random number of
    // merged results. The cancel lands mid-run, so an arbitrary subset of
    // cells is checkpointed.
    std::atomic<bool> cancel{false};
    std::atomic<std::uint64_t> merged{0};
    // Keep enough undone cells that in-flight stragglers (at most one per
    // worker) cannot finish the whole grid after the cancel lands.
    const std::uint64_t stop_after =
        static_cast<std::uint64_t>(rng.UniformInt(1, kCells - 6));
    class CountingGrid : public HashGrid {
     public:
      CountingGrid(std::size_t n, std::atomic<std::uint64_t>* merged,
                   std::atomic<bool>* cancel, std::uint64_t stop_after)
          : HashGrid(n),
            merged_(merged),
            cancel_(cancel),
            stop_after_(stop_after) {}
      CellOutcome RunCell(std::size_t i, std::string_view carry) override {
        CellOutcome out = HashGrid::RunCell(i, carry);
        if (merged_->fetch_add(1) + 1 >= stop_after_) cancel_->store(true);
        return out;
      }

     private:
      std::atomic<std::uint64_t>* merged_;
      std::atomic<bool>* cancel_;
      std::uint64_t stop_after_;
    };
    CountingGrid interrupted_grid(kCells, &merged, &cancel, stop_after);
    DistOptions first_opt;
    first_opt.workers = static_cast<int>(rng.UniformInt(1, 4));
    first_opt.cancel = &cancel;
    first_opt.store = &store;
    const GridResult first = RunGrid(interrupted_grid, first_opt);
    EXPECT_FALSE(first.complete);

    // Leg 2: resume at an independently drawn worker count.
    DistOptions second_opt;
    second_opt.workers = static_cast<int>(rng.UniformInt(1, 4));
    second_opt.store = &store;
    second_opt.resume = true;
    const GridResult resumed = RunGrid(grid, second_opt);
    ASSERT_TRUE(resumed.complete) << "round " << round;
    EXPECT_EQ(resumed.payloads, serial.payloads) << "round " << round;
    EXPECT_GT(resumed.exec.cells_resumed, 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace cnv::dist
