#include "util/rng.h"

#include <algorithm>

namespace cnv {

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::UniformInt: lo > hi");
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  std::bernoulli_distribution d(p);
  return d(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

double Rng::LogNormal(double mu, double sigma) {
  std::lognormal_distribution<double> d(mu, sigma);
  return d(engine_);
}

double Rng::Exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("Rng::Exponential: mean <= 0");
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

}  // namespace cnv
