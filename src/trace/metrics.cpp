#include "trace/metrics.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>

#include "trace/trace.hpp"

namespace sadp {

namespace metrics_detail {
constinit thread_local MetricsRegistry* t_registry = nullptr;
}  // namespace metrics_detail

void Histogram::add(std::int64_t v) {
  const int b =
      v <= 0 ? 0 : std::bit_width(static_cast<std::uint64_t>(v));
  buckets_[std::min(b, kBuckets - 1)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::int64_t Histogram::count() const {
  std::int64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

std::int64_t Histogram::bucketCount(int b) const {
  return buckets_[b].load(std::memory_order_relaxed);
}

std::int64_t Histogram::bucketLo(int b) {
  return b <= 0 ? 0 : std::int64_t(1) << (b - 1);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // deques: growth never moves existing elements, so references handed to
  // call sites stay valid while new names register.
  std::deque<std::pair<std::string, Counter>> counters;
  std::deque<std::pair<std::string, Histogram>> histograms;
  std::map<std::string, Counter*> counterIdx;
  std::map<std::string, Histogram*> histogramIdx;
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* r = new MetricsRegistry();  // leaked: process-wide
  return *r;
}

MetricsRegistry* bindThreadMetricsRegistry(MetricsRegistry* r) {
  MetricsRegistry* prev = metrics_detail::t_registry;
  metrics_detail::t_registry = r;
  return prev;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  const auto it = im.counterIdx.find(name);
  if (it != im.counterIdx.end()) return *it->second;
  im.counters.emplace_back(std::piecewise_construct,
                           std::forward_as_tuple(name),
                           std::forward_as_tuple());
  Counter* c = &im.counters.back().second;
  im.counterIdx.emplace(name, c);
  return *c;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  const auto it = im.histogramIdx.find(name);
  if (it != im.histogramIdx.end()) return *it->second;
  im.histograms.emplace_back(std::piecewise_construct,
                             std::forward_as_tuple(name),
                             std::forward_as_tuple());
  Histogram* h = &im.histograms.back().second;
  im.histogramIdx.emplace(name, h);
  return *h;
}

std::vector<CounterSample> MetricsRegistry::counterSnapshot() const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<CounterSample> out;
  out.reserve(im.counterIdx.size());
  for (const auto& [name, c] : im.counterIdx) {  // map: sorted by name
    out.emplace_back(name, c->value());
  }
  return out;
}

std::vector<std::string> MetricsRegistry::histogramNames() const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<std::string> out;
  for (const auto& [name, h] : im.histogramIdx) out.push_back(name);
  return out;
}

const Histogram* MetricsRegistry::findHistogram(
    const std::string& name) const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  const auto it = im.histogramIdx.find(name);
  return it == im.histogramIdx.end() ? nullptr : it->second;
}

void MetricsRegistry::reset() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c.reset();
  for (auto& [name, h] : im.histograms) h.reset();
}

namespace {

void escapeJson(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
}

}  // namespace

void writeMetricsJson(
    std::ostream& os, const MetricsRegistry& m,
    const std::vector<SpanAggregate>& phases,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  os << "{\n  \"schema\": 1,\n  \"counters\": {";
  const auto counters = m.counterSnapshot();
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? ",\n    \"" : "\n    \"");
    escapeJson(os, counters[i].first);
    os << "\": " << counters[i].second;
  }
  os << "\n  },\n  \"histograms\": {";
  const auto histNames = m.histogramNames();
  for (std::size_t i = 0; i < histNames.size(); ++i) {
    const Histogram* h = m.findHistogram(histNames[i]);
    os << (i ? ",\n    \"" : "\n    \"");
    escapeJson(os, histNames[i]);
    os << "\": {\"count\": " << h->count() << ", \"sum\": " << h->sum()
       << ", \"buckets\": [";
    bool first = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::int64_t n = h->bucketCount(b);
      if (n == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << "{\"lo\": " << Histogram::bucketLo(b) << ", \"count\": " << n
         << "}";
    }
    os << "]}";
  }
  // Span wall-time aggregates: the per-phase timing view. Only present
  // when tracing ran at Aggregate level or above; NOT deterministic
  // (wall clock).
  os << "\n  },\n  \"phases\": {";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    os << (i ? ",\n    \"" : "\n    \"");
    escapeJson(os, phases[i].name);
    os << "\": {\"count\": " << phases[i].count
       << ", \"wall_ns\": " << phases[i].wallNs << "}";
  }
  os << "\n  }";
  for (const auto& [key, value] : extra) {
    os << ",\n  \"";
    escapeJson(os, key);
    os << "\": " << value;
  }
  os << "\n}\n";
}

void writeMetricsJson(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  writeMetricsJson(os, currentMetrics(), spanAggregates(), extra);
}

}  // namespace sadp
