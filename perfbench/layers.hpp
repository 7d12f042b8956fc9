// Per-layer tallies of one benchmark run, harvested from what the router
// already records in a RunContext: metrics counters and histograms, and
// the span events of a TraceLevel::Full trace (total and self time per
// span name). The benchmark adds the times it measures itself around its
// calls into each layer.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "run/run_context.hpp"

namespace perfbench {

class LayerTally {
 public:
  /// Adds ctx's counters, histograms and buffered span events. Call once
  /// per run of the context: a Session resets its context on every call.
  void harvest(const sadp::RunContext& ctx);
  /// Adds a figure the benchmark measured itself: a time around one of
  /// its calls, or a count read off a call's result.
  void add(const std::string& name, double v) { values_[name] += v; }

  std::int64_t counter(const std::string& name) const;
  double value(const std::string& name) const;   ///< from add()
  double spanMs(const std::string& name) const;  ///< summed span durations
  double selfMs(const std::string& name) const;  ///< minus direct children
  std::int64_t spanCount(const std::string& name) const;
  std::int64_t histSum(const std::string& name) const;
  /// Lower bound of the log2 bucket holding the median / largest sample.
  std::int64_t histP50Floor(const std::string& name) const;
  std::int64_t histMaxFloor(const std::string& name) const;

 private:
  using Buckets = std::array<std::int64_t, sadp::Histogram::kBuckets>;

  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> values_;
  std::map<std::string, std::int64_t> spanNs_;
  std::map<std::string, std::int64_t> selfNs_;
  std::map<std::string, std::int64_t> spanCount_;
  std::map<std::string, Buckets> hist_;
  std::map<std::string, std::int64_t> histSum_;
};

}  // namespace perfbench
