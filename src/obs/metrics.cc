#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"

namespace cnv::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  sum_ += v;
  samples_.Add(v);
}

std::vector<double> Histogram::LatencySecondsBounds() {
  return {0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60, 120, 300};
}

Counter& Registry::GetCounter(const std::string& name,
                              const std::string& help) {
  if (!help.empty()) help_.emplace(name, help);
  return counters_[name];
}

Gauge& Registry::GetGauge(const std::string& name, const std::string& help) {
  if (!help.empty()) help_.emplace(name, help);
  return gauges_[name];
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  std::vector<double> bounds,
                                  const std::string& help) {
  if (!help.empty()) help_.emplace(name, help);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(bounds))).first->second;
}

bool Registry::Has(const std::string& name) const {
  return counters_.contains(name) || gauges_.contains(name) ||
         histograms_.contains(name);
}

std::string Registry::ToJson(SimTime at) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("sim_time_us").Int(at);
  w.Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) w.Key(name).UInt(c.value());
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) w.Key(name).Double(g.value());
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    w.Key(name).BeginObject();
    w.Key("count").UInt(h.Count());
    w.Key("sum").Double(h.Sum());
    w.Key("bounds").BeginArray();
    for (const double b : h.bounds()) w.Double(b);
    w.EndArray();
    w.Key("bucket_counts").BeginArray();
    for (const std::uint64_t c : h.counts()) w.UInt(c);
    w.EndArray();
    if (h.Count() > 0) {
      w.Key("p50").Double(h.Percentile(50));
      w.Key("p95").Double(h.Percentile(95));
      w.Key("p99").Double(h.Percentile(99));
      w.Key("min").Double(h.samples().Min());
      w.Key("max").Double(h.samples().Max());
    }
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace cnv::obs
