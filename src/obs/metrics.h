// Session-scoped metrics registry: counters, gauges and fixed-bucket
// histograms that answer Samples-style percentile queries. One Registry per
// run (campaign run, bench iteration, explorer invocation); all values are
// derived from simulated time and deterministic counters unless a metric is
// explicitly labelled as wall-clock throughput, so an exported snapshot is
// byte-identical across replays of the same seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/stats.h"
#include "util/time.h"

namespace cnv::obs {

// Monotonically increasing event count (attach retries, messages sent, ...).
class Counter {
 public:
  void Increment(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Point-in-time level (queue depth, frontier size, occupancy, ...).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]; one
// implicit overflow bucket counts the rest. The raw observations are also
// retained in a util::Samples so percentile queries interpolate exactly
// instead of being quantized to bucket bounds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  // counts() has bounds().size() + 1 entries; the last is the overflow.
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t Count() const { return static_cast<std::uint64_t>(samples_.Count()); }
  double Sum() const { return sum_; }
  // Exact interpolated percentile over the raw observations; p in [0,100].
  // Requires at least one observation (Samples::Percentile throws on empty).
  double Percentile(double p) const { return samples_.Percentile(p); }
  const Samples& samples() const { return samples_; }

  // Default bounds for procedure latencies, in seconds.
  static std::vector<double> LatencySecondsBounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  double sum_ = 0;
  Samples samples_;
};

// Owns metrics by name. Lookup creates on first use; the name-sorted map
// ordering is what makes exports deterministic regardless of registration
// order. Metric names are dotted paths ("sim.events_executed",
// "stack.attach.latency_s"); an optional help string documents the metric
// in the human-readable summary.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  // `bounds` is used only on first creation of the histogram.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = Histogram::LatencySecondsBounds(),
                          const std::string& help = "");

  bool Has(const std::string& name) const;
  std::size_t Size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // One JSON snapshot object:
  //   {"sim_time_us":N,"counters":{...},"gauges":{...},"histograms":{...}}
  // Deterministic: name-sorted, fixed number formatting.
  std::string ToJson(SimTime at) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::string> help_;
};

}  // namespace cnv::obs
