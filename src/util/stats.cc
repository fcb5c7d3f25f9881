#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace cnv {

Samples::Samples(std::vector<double> values) : values_(std::move(values)) {}

void Samples::Add(double v) {
  values_.push_back(v);
  sorted_valid_ = false;
}

void Samples::Clear() {
  values_.clear();
  sorted_.clear();
  sorted_valid_ = false;
}

void Samples::EnsureSorted() const {
  if (sorted_valid_) return;
  sorted_ = values_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Samples::Min() const {
  EnsureSorted();
  if (sorted_.empty()) throw std::logic_error("Samples::Min: empty");
  return sorted_.front();
}

double Samples::Max() const {
  EnsureSorted();
  if (sorted_.empty()) throw std::logic_error("Samples::Max: empty");
  return sorted_.back();
}

double Samples::Mean() const {
  if (values_.empty()) throw std::logic_error("Samples::Mean: empty");
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Samples::Percentile(double p) const {
  EnsureSorted();
  if (sorted_.empty()) throw std::logic_error("Samples::Percentile: empty");
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return sorted_[lo] + (sorted_[hi] - sorted_[lo]) * frac;
}

std::string SummaryLine(const Samples& s, const std::string& unit) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  if (s.Empty()) {
    os << "(no samples)";
    return os.str();
  }
  os << s.Min() << unit << " / " << s.Median() << unit << " / " << s.Max()
     << unit << " (90th " << s.Percentile(90.0) << unit << ", avg "
     << s.Mean() << unit << ")";
  return os.str();
}

}  // namespace cnv
