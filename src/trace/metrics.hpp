// Run metrics: named monotonic counters and log-bucketed histograms, plus
// the flat run-metrics JSON report.
//
// Counters are relaxed atomic adds and are ALWAYS live (no enable gate):
// an uncontended atomic increment is a few ns, far below every call site's
// own cost, and keeping them on means a metrics report never silently
// reads zero. Because every counted quantity is a property of the work
// itself (an iteration, a rip-up, a node expansion), counter totals are
// byte-identical across reruns and across concurrent runs -- the
// determinism contract of DESIGN.md §5.7.
// Timings (span aggregates, exported alongside) carry no such guarantee.
//
// A MetricsRegistry is an ordinary object so every run can own a fresh
// one (RunContext); instance() is the process-default registry that
// pre-context call sites and unbound threads fall back to. Counter and
// histogram references are stable for their registry's lifetime -- cache
// them in an object scoped to one run (a router, an engine), NEVER in a
// function-local static: a static would pin the first run's registry and
// silently alias every later run (the bug per-run registries exist to
// kill).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace sadp {

/// Monotonic named counter; add() is safe from any thread.
class Counter {
 public:
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram: bucket b >= 1 holds values v with
/// bit_width(v) == b, i.e. v in [2^(b-1), 2^b); bucket 0 holds v <= 0.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void add(std::int64_t v);
  std::int64_t count() const;
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t bucketCount(int b) const;
  /// Inclusive lower bound of bucket b's value range (0 for bucket 0).
  static std::int64_t bucketLo(int b);
  void reset();

 private:
  std::atomic<std::int64_t> buckets_[kBuckets] = {};
  std::atomic<std::int64_t> sum_{0};
};

/// One registered counter's (name, value) pair.
using CounterSample = std::pair<std::string, std::int64_t>;

/// Registry of named counters and histograms. References returned by
/// counter()/histogram() are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-default registry (the default-context shim).
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// (name, value) of every registered counter, sorted by name.
  std::vector<CounterSample> counterSnapshot() const;
  /// Registered histogram names, sorted.
  std::vector<std::string> histogramNames() const;
  /// Looks up an existing histogram (nullptr when never registered).
  const Histogram* findHistogram(const std::string& name) const;

  /// Zeroes every counter and histogram (names stay registered), so one
  /// registry can be reused across sequential runs without totals
  /// accumulating for the process lifetime.
  void reset();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Rebinds the calling thread's default registry (what metricsCounter and
/// the legacy writeMetricsJson resolve to); nullptr restores instance().
/// Returns the previous binding. RunContext::Scope is the intended caller.
MetricsRegistry* bindThreadMetricsRegistry(MetricsRegistry* r);

namespace metrics_detail {
/// null = instance(). constinit for the same reason as trace_detail::t_level.
extern constinit thread_local MetricsRegistry* t_registry;
}  // namespace metrics_detail

/// The calling thread's bound registry (instance() when unbound).
inline MetricsRegistry& currentMetrics() {
  MetricsRegistry* r = metrics_detail::t_registry;
  return r ? *r : MetricsRegistry::instance();
}

/// Convenience: the thread-bound registry's counter with this name. Do
/// not cache the result in a function-local static (see class comment).
inline Counter& metricsCounter(const std::string& name) {
  return currentMetrics().counter(name);
}

/// Flat run-metrics JSON report: {"schema", "counters" (sorted by name),
/// "histograms", "phases" (the given span wall-time aggregates), then
/// `extra` top-level pairs verbatim. `extra` values must already be valid
/// JSON fragments (numbers, quoted strings, ...). Only the "counters"
/// section is deterministic; "phases" holds wall-clock measurements.
void writeMetricsJson(
    std::ostream& os, const MetricsRegistry& m,
    const std::vector<SpanAggregate>& phases,
    const std::vector<std::pair<std::string, std::string>>& extra = {});

/// Legacy shim: the thread-bound registry and trace sink.
void writeMetricsJson(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& extra = {});

}  // namespace sadp
