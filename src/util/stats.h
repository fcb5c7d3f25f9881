// Descriptive statistics used by the experiment harnesses: summaries
// (min / median / max / percentiles, as in the paper's Figure 4 and
// Table 6; Figure 8's CDFs are printed as percentiles).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cnv {

// Accumulates samples and answers order-statistic queries.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<double> values);

  void Add(double v);
  void Clear();

  std::size_t Count() const { return values_.size(); }
  bool Empty() const { return values_.empty(); }

  // Min/Max/Mean/Median/Percentile are order-statistic queries over
  // the accumulated samples; all of them throw std::logic_error when the
  // set is empty (there is no neutral answer to report into a table).
  double Min() const;
  double Max() const;
  double Mean() const;
  double Median() const { return Percentile(50.0); }

  // Linear-interpolated percentile; p is clamped to [0, 100]. Throws
  // std::logic_error on an empty sample set.
  double Percentile(double p) const;

  const std::vector<double>& Values() const { return values_; }

 private:
  void EnsureSorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

// "min / median / max (90th, avg)" rendering used in several tables.
std::string SummaryLine(const Samples& s, const std::string& unit);

}  // namespace cnv
