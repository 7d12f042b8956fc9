#include "netlist/benchmark.hpp"

#include <cmath>
#include <random>
#include <stdexcept>
#include <unordered_set>

namespace sadp {

BenchmarkSpec BenchmarkSpec::scaled(double f) const {
  if (f <= 0.0 || f > 1.0) {
    throw std::invalid_argument("BenchmarkSpec::scaled: f must be in (0,1]");
  }
  BenchmarkSpec s = *this;
  s.netCount = std::max(1, int(std::lround(netCount * f)));
  const double edge = std::sqrt(f);
  s.width = std::max<Track>(16, Track(std::lround(width * edge)));
  s.height = std::max<Track>(16, Track(std::lround(height * edge)));
  return s;
}

std::vector<BenchmarkSpec> paperBenchmarks() {
  // Die sizes from Tables III/IV (µm) divided by the 40 nm pitch.
  // 6.8µm -> 170 tracks, 9.6 -> 240, 16 -> 400, 24 -> 600, 36 -> 900.
  std::vector<BenchmarkSpec> v;
  struct Row {
    const char* name;
    int nets;
    Track edge;
  };
  const Row rows[] = {{"Test1", 1500, 170},  {"Test2", 2700, 240},
                      {"Test3", 5500, 400},  {"Test4", 12000, 600},
                      {"Test5", 28000, 900}, {"Test6", 1500, 170},
                      {"Test7", 2700, 240},  {"Test8", 5500, 400},
                      {"Test9", 12000, 600}, {"Test10", 28000, 900}};
  std::uint64_t seed = 20140601;  // DAC-14 vintage; arbitrary but fixed
  for (int i = 0; i < 10; ++i) {
    BenchmarkSpec s;
    s.name = rows[i].name;
    s.netCount = rows[i].nets;
    s.width = s.height = rows[i].edge;
    s.layers = 3;
    s.pinCandidates = (i >= 5) ? 3 : 1;
    s.seed = seed + std::uint64_t(i) * 7919;
    v.push_back(std::move(s));
  }
  return v;
}

BenchmarkSpec paperBenchmark(const std::string& name) {
  for (BenchmarkSpec& s : paperBenchmarks()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown paper benchmark: " + name);
}

std::string designSizeError(std::int64_t width, std::int64_t height,
                            std::int64_t layers, std::int64_t nets) {
  if (width < 1 || height < 1 || layers < 1) {
    return "width, height and layers must be positive";
  }
  // Every factor is bounded before it is multiplied: nothing overflows.
  if (width > kMaxGridNodes || height > kMaxGridNodes ||
      layers > kMaxGridNodes || width * height > kMaxGridNodes ||
      width * height * layers > kMaxGridNodes) {
    return "width*height*layers must be at most " +
           std::to_string(kMaxGridNodes) + " grid nodes";
  }
  if (nets > width * height / 2) {
    return "nets must be at most width*height/2 = " +
           std::to_string(width * height / 2);
  }
  return {};
}

namespace {

struct NodeHash {
  std::size_t operator()(const GridNode& n) const {
    return (std::size_t(n.x) * 1000003u) ^ (std::size_t(n.y) * 97u) ^
           std::size_t(n.layer);
  }
};

}  // namespace

BenchmarkInstance makeBenchmark(const BenchmarkSpec& spec) {
  if (spec.netCount <= 0 || spec.width <= 0 || spec.height <= 0) {
    throw std::invalid_argument("makeBenchmark: bad spec");
  }
  DesignRules rules;  // paper's 10 nm-node instance
  RoutingGrid grid(spec.width, spec.height, spec.layers, rules);
  std::mt19937_64 rng(spec.seed);

  // Rectangular blockages on layer 0 (cell obstructions).
  const std::int64_t targetBlocked =
      std::int64_t(spec.blockageFraction * double(spec.width) * spec.height);
  std::int64_t blocked = 0;
  std::uniform_int_distribution<Track> bx(0, spec.width - 1);
  std::uniform_int_distribution<Track> by(0, spec.height - 1);
  std::uniform_int_distribution<Track> bsize(2, 8);
  while (blocked < targetBlocked) {
    const Track x = bx(rng), y = by(rng);
    const Track w = bsize(rng), h = bsize(rng);
    grid.blockBox(0, x, y, x + w, y + h);
    blocked += std::int64_t(w) * h;
  }

  // Pin placement: distinct free layer-0 nodes; local nets.
  Netlist nl;
  std::unordered_set<GridNode, NodeHash> used;
  std::uniform_int_distribution<Track> px(0, spec.width - 1);
  std::uniform_int_distribution<Track> py(0, spec.height - 1);
  // Net span distribution: mostly short nets, occasional long ones.
  // Calibrated so total demand is ~15% of routing capacity, typical of
  // standard-cell detailed routing (the paper's industrial benchmarks
  // reach 96-98% routability, which is impossible at stress densities).
  std::geometric_distribution<int> spanDist(0.3);
  std::uniform_int_distribution<int> signDist(0, 1);

  auto freeNode = [&](const GridNode& n) {
    return grid.inBounds(n) && !grid.isBlocked(n) && !used.count(n);
  };

  auto takeCandidates = [&](const GridNode& base, int k) -> Pin {
    Pin p;
    p.candidates.push_back(base);
    used.insert(base);
    // Extra candidates: nearby free nodes on the same layer.
    for (int step = 1; int(p.candidates.size()) < k && step <= 6; ++step) {
      const GridNode opts[4] = {{base.x + step, base.y, 0},
                                {base.x - step, base.y, 0},
                                {base.x, base.y + step, 0},
                                {base.x, base.y - step, 0}};
      for (const GridNode& o : opts) {
        if (int(p.candidates.size()) >= k) break;
        if (freeNode(o)) {
          p.candidates.push_back(o);
          used.insert(o);
        }
      }
    }
    return p;
  };

  for (int i = 0; i < spec.netCount; ++i) {
    GridNode a, b;
    bool placed = false;
    for (int attempt = 0; attempt < 400 && !placed; ++attempt) {
      a = {px(rng), py(rng), 0};
      if (!freeNode(a)) continue;
      const Track dx = Track((spanDist(rng) + 2) * (signDist(rng) ? 1 : -1));
      const Track dy = Track((spanDist(rng) + 2) * (signDist(rng) ? 1 : -1));
      b = {std::clamp<Track>(a.x + dx, 0, spec.width - 1),
           std::clamp<Track>(a.y + dy, 0, spec.height - 1), 0};
      if (b == a || !freeNode(b)) continue;
      placed = true;
    }
    if (!placed) continue;  // extremely dense corner; skip
    Pin src = takeCandidates(a, spec.pinCandidates);
    Pin tgt = takeCandidates(b, spec.pinCandidates);
    nl.add("n" + std::to_string(i), std::move(src), std::move(tgt));
  }

  return BenchmarkInstance{spec, std::move(grid), std::move(nl)};
}

}  // namespace sadp
