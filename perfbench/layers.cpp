#include "layers.hpp"

#include <vector>

namespace perfbench {

namespace {

template <typename Map>
auto lookup(const Map& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? typename Map::mapped_type{} : it->second;
}

}  // namespace

void LayerTally::harvest(const sadp::RunContext& ctx) {
  for (const auto& [name, v] : ctx.metrics().counterSnapshot()) {
    counters_[name] += v;
  }
  for (const std::string& name : ctx.metrics().histogramNames()) {
    const sadp::Histogram* h = ctx.metrics().findHistogram(name);
    Buckets& b = hist_[name];
    for (int i = 0; i < sadp::Histogram::kBuckets; ++i) {
      b[std::size_t(i)] += h->bucketCount(i);
    }
    histSum_[name] += h->sum();
  }

  // Events arrive sorted by (tid, start, -duration), so within one thread
  // a span's parent is the latest span seen one level up.
  const std::vector<sadp::TraceEvent> events = ctx.trace().collectEvents();
  std::vector<std::int64_t> childNs(events.size(), 0);
  std::vector<std::size_t> open;  // event index by depth, current thread
  int tid = -1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const sadp::TraceEvent& e = events[i];
    if (e.tid != tid) {
      tid = e.tid;
      open.clear();
    }
    open.resize(std::size_t(e.depth) + 1, events.size());
    open[std::size_t(e.depth)] = i;
    if (e.depth > 0 && open[std::size_t(e.depth) - 1] < events.size()) {
      childNs[open[std::size_t(e.depth) - 1]] += e.durNs;
    }
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const sadp::TraceEvent& e = events[i];
    spanNs_[e.name] += e.durNs;
    selfNs_[e.name] += e.durNs - childNs[i];
    spanCount_[e.name] += 1;
  }
}

std::int64_t LayerTally::counter(const std::string& name) const {
  return lookup(counters_, name);
}

double LayerTally::value(const std::string& name) const {
  return lookup(values_, name);
}

double LayerTally::spanMs(const std::string& name) const {
  return double(lookup(spanNs_, name)) / 1e6;
}

double LayerTally::selfMs(const std::string& name) const {
  return double(lookup(selfNs_, name)) / 1e6;
}

std::int64_t LayerTally::spanCount(const std::string& name) const {
  return lookup(spanCount_, name);
}

std::int64_t LayerTally::histSum(const std::string& name) const {
  return lookup(histSum_, name);
}

std::int64_t LayerTally::histP50Floor(const std::string& name) const {
  const Buckets b = lookup(hist_, name);
  std::int64_t total = 0;
  for (const std::int64_t n : b) total += n;
  std::int64_t seen = 0;
  for (int i = 0; i < sadp::Histogram::kBuckets; ++i) {
    seen += b[std::size_t(i)];
    if (total > 0 && 2 * seen >= total) return sadp::Histogram::bucketLo(i);
  }
  return 0;
}

std::int64_t LayerTally::histMaxFloor(const std::string& name) const {
  const Buckets b = lookup(hist_, name);
  for (int i = sadp::Histogram::kBuckets - 1; i >= 0; --i) {
    if (b[std::size_t(i)] > 0) return sadp::Histogram::bucketLo(i);
  }
  return 0;
}

}  // namespace perfbench
