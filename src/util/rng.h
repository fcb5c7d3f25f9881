// Deterministic random number generation for scenario sampling and
// workload generation. Every experiment takes an explicit seed so that
// reported numbers are reproducible run to run.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace cnv {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Log-normal such that the underlying normal has the given parameters.
  // Used for heavy-tailed latencies (re-attach and update durations).
  double LogNormal(double mu, double sigma);

  // Exponential with the given mean (> 0). Used for inter-arrival times.
  double Exponential(double mean);

  // Picks one element uniformly. Requires a non-empty span.
  template <typename T>
  const T& Pick(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument("Rng::Pick: empty span");
    return items[static_cast<std::size_t>(
        UniformInt(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  template <typename T>
  const T& Pick(const std::vector<T>& items) {
    return Pick(std::span<const T>(items));
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace cnv
