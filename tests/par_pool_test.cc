#include "par/pool.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

namespace cnv::par {
namespace {

TEST(WorkerPoolTest, HardwareJobsIsPositive) {
  EXPECT_GE(HardwareJobs(), 1);
  EXPECT_EQ(ResolveJobs(0), HardwareJobs());
  EXPECT_EQ(ResolveJobs(1), 1);
  EXPECT_EQ(ResolveJobs(-3), 1);
  EXPECT_EQ(ResolveJobs(7), 7);
}

TEST(WorkerPoolTest, ResolveJobsRejectsCountsAboveTheCeiling) {
  EXPECT_EQ(ResolveJobs(kMaxJobs), kMaxJobs);
  EXPECT_THROW(ResolveJobs(kMaxJobs + 1), std::invalid_argument);
  EXPECT_THROW(ResolveJobs(INT32_MAX), std::invalid_argument);
}

TEST(WorkerPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 3, 8}) {
    WorkerPool pool(jobs);
    ASSERT_EQ(pool.jobs(), jobs);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&](int worker, std::size_t begin, std::size_t end) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, jobs);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
    }
  }
}

TEST(WorkerPoolTest, ParallelForSlicesAreContiguousAndDeterministic) {
  // The slice split must depend only on (n, jobs): worker w owns
  // [n*w/jobs, n*(w+1)/jobs). The exploration engine's candidate keys rely
  // on this.
  WorkerPool pool(4);
  const std::size_t n = 10;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> slices(4, {0, 0});
  pool.ParallelFor(n, [&](int worker, std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    slices[static_cast<std::size_t>(worker)] = {begin, end};
  });
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(slices[static_cast<std::size_t>(w)].first, n * w / 4);
    EXPECT_EQ(slices[static_cast<std::size_t>(w)].second, n * (w + 1) / 4);
  }
}

TEST(WorkerPoolTest, ParallelEachCoversEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    WorkerPool pool(jobs);
    const std::size_t n = 257;
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelEach(n, [&](int, std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(WorkerPoolTest, PoolIsReusableAcrossDispatches) {
  WorkerPool pool(3);
  std::uint64_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.ParallelFor(100, [&](int, std::size_t begin, std::size_t end) {
      std::uint64_t local = 0;
      for (std::size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 50u * (99u * 100u / 2));
}

TEST(WorkerPoolTest, SingleJobRunsInlineOnCallingThread) {
  WorkerPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  pool.ParallelFor(10, [&](int worker, std::size_t, std::size_t) {
    EXPECT_EQ(worker, 0);
    seen.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
}

TEST(WorkerPoolTest, BusySecondsTracksEveryWorkerMonotonically) {
  WorkerPool pool(2);
  const std::vector<double> before = pool.BusySeconds();
  ASSERT_EQ(before.size(), 2u);
  pool.ParallelEach(64, [&](int, std::size_t) {
    volatile std::uint64_t x = 0;
    for (int i = 0; i < 1000; ++i) x += static_cast<std::uint64_t>(i);
  });
  const std::vector<double> after = pool.BusySeconds();
  ASSERT_EQ(after.size(), 2u);
  for (std::size_t w = 0; w < after.size(); ++w) {
    EXPECT_GE(after[w], before[w]);
  }
  const double total = std::accumulate(after.begin(), after.end(), 0.0);
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace cnv::par
