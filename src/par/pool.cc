#include "par/pool.h"

#include <chrono>
#include <stdexcept>
#include <string>

namespace cnv::par {

int HardwareJobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ResolveJobs(int jobs) {
  if (jobs > kMaxJobs) {
    throw std::invalid_argument("jobs " + std::to_string(jobs) +
                                " exceeds the maximum of " +
                                std::to_string(kMaxJobs));
  }
  if (jobs == 0) return HardwareJobs();
  return jobs < 1 ? 1 : jobs;
}

WorkerPool::WorkerPool(int jobs) : jobs_(ResolveJobs(jobs)) {
  busy_.assign(static_cast<std::size_t>(jobs_), 0.0);
  threads_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int w = 1; w < jobs_; ++w) {
    threads_.emplace_back([this, w] { WorkerMain(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::RunTimed(int worker, const std::function<void(int)>& body) {
  const auto start = std::chrono::steady_clock::now();
  body(worker);
  busy_[static_cast<std::size_t>(worker)] +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

void WorkerPool::WorkerMain(int worker) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::function<void(int)> body;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
      body = task_;
    }
    RunTimed(worker, body);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void WorkerPool::RunOnAll(const std::function<void(int)>& body) {
  if (jobs_ == 1) {
    RunTimed(0, body);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = body;
    pending_ = jobs_ - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  RunTimed(0, body);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
}

void WorkerPool::ParallelEach(std::size_t n,
                              const std::function<void(int, std::size_t)>& fn) {
  ParallelEachUntil(n, fn, nullptr);
}

void WorkerPool::ParallelEachUntil(
    std::size_t n, const std::function<void(int, std::size_t)>& fn,
    const std::atomic<bool>* stop) {
  if (n == 0) return;
  next_index_.store(0, std::memory_order_relaxed);
  RunOnAll([this, &fn, n, stop](int worker) {
    for (;;) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
      const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(worker, i);
    }
  });
}

std::vector<double> WorkerPool::BusySeconds() const { return busy_; }

}  // namespace cnv::par
