// Micro-benchmarks (google-benchmark) of the core kernels: scenario
// classification, parity union-find, A*-search, color-flipping DP, the
// bit-packed raster primitives, and mask synthesis. These back the
// complexity claims of §III-E and the kernel-performance trajectory in
// EXPERIMENTS.md.
//
// `--json <path>` (or `--json=<path>`) additionally writes the per-kernel
// ns/op results as machine-readable JSON (the BENCH_kernels.json schema),
// with a "host" object (CPU count and model) so a diff across machines
// shows as one; see tools/bench_smoke.sh.
// `--filter <regex>` (or `--filter=<regex>`) is shorthand for google-
// benchmark's --benchmark_filter= and restricts which kernels run.
// `--trace <path>` / `--metrics <path>` enable the run-trace subsystem for
// the benchmark process and dump its Chrome trace / metrics report — note
// that enabling either perturbs the timed kernels themselves.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "patterning/backend.hpp"
#include "patterning/flipping.hpp"
#include "netlist/benchmark.hpp"
#include "ocg/overlay_model.hpp"
#include "route/astar.hpp"
#include "route/router.hpp"
#include "run/run_context.hpp"
#include "sadp/bitmap.hpp"
#include "sadp/decompose.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace sadp {
namespace {

void BM_ClassifyPair(benchmark::State& state) {
  std::mt19937 rng(1);
  std::uniform_int_distribution<Track> d(0, 12);
  std::vector<std::pair<Fragment, Fragment>> pairs;
  for (int i = 0; i < 512; ++i) {
    Fragment a{d(rng), d(rng), Track(d(rng) + 13), Track(d(rng) + 13), 1};
    Fragment b{d(rng), d(rng), Track(d(rng) + 13), Track(d(rng) + 13), 2};
    pairs.emplace_back(a, b);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 511];
    benchmark::DoNotOptimize(classify(a, b));
  }
}
BENCHMARK(BM_ClassifyPair);

void BM_ParityDsuUnite(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  std::mt19937 rng(2);
  std::uniform_int_distribution<std::size_t> d(0, n - 1);
  // Operand pairs are pre-drawn (same sequence the distribution used to
  // produce inline) so the loop times the DSU, not the Mersenne twister.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ops(n);
  for (auto& p : ops) {
    p.first = std::uint32_t(d(rng));
    p.second = std::uint32_t(d(rng));
  }
  for (auto _ : state) {
    state.PauseTiming();
    ParityDsu dsu;
    dsu.ensure(n - 1);
    state.ResumeTiming();
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          dsu.unite(ops[i].first, ops[i].second, std::uint8_t(i & 1)));
    }
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(n));
}
BENCHMARK(BM_ParityDsuUnite)->Arg(1024)->Arg(16384);

void BM_AStarRoute(benchmark::State& state) {
  const Track size = Track(state.range(0));
  RoutingGrid grid(size, size, 3, DesignRules{});
  AStarEngine engine(grid);
  const AStarParams params{};
  // Fixed pool of endpoint pairs cycled per iteration: the per-op mean
  // must not depend on how many iterations the harness settles on, or
  // run-to-run numbers drift with the sampled route mix instead of the
  // code under test.
  std::mt19937 rng(3);
  std::uniform_int_distribution<Track> d(0, size - 1);
  constexpr std::size_t kPool = 64;
  std::vector<std::pair<GridNode, GridNode>> pool(kPool);
  for (auto& [s, t] : pool) {
    s = GridNode{d(rng), d(rng), 0};
    t = GridNode{d(rng), d(rng), 0};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pool[i];
    i = (i + 1) % kPool;
    benchmark::DoNotOptimize(engine.route(1, {&s, 1}, {&t, 1}, params));
  }
}
BENCHMARK(BM_AStarRoute)->Arg(64)->Arg(256);

void BM_ColorFlipChain(benchmark::State& state) {
  const int n = int(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    OverlayConstraintGraph g;
    for (int v = 1; v < n; ++v) {
      Classification c;
      c.type = ScenarioType::T3a;
      c.overlay = {1, 0, 0, 1};
      g.addScenario(v - 1, v, c);
    }
    for (int v = 0; v < n; ++v) g.setColor(v, Color::Core);
    state.ResumeTiming();
    benchmark::DoNotOptimize(colorFlip(g));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ColorFlipChain)->Arg(256)->Arg(4096);

/// Triple-patterning recolor (DESIGN.md §5.13) on a path-squared chain of
/// hard must-differ pairs: one connected class-graph component well past
/// the exhaustive cutoff, so this times the greedy + local-search path —
/// the k=3 analogue of BM_ColorFlipChain. Colors start all-first-mask, the
/// worst case the recolorer must untangle every iteration.
void BM_Flip3Color(benchmark::State& state) {
  const int n = int(state.range(0));
  const PatterningBackend& tpl = tpl3Backend();
  Classification c;
  c.type = ScenarioType::T1a;
  for (auto _ : state) {
    state.PauseTiming();
    OverlayConstraintGraph g(&tpl.spec());
    for (int v = 1; v < n; ++v) {
      g.addScenario(v - 1, v, c);
      if (v >= 2) g.addScenario(v - 2, v, c);
    }
    for (int v = 0; v < n; ++v) g.setColor(v, Color::Core);
    state.ResumeTiming();
    benchmark::DoNotOptimize(tpl.recolor(g));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Flip3Color)->Arg(256)->Arg(4096);

// ---- Bit-packed raster primitives -----------------------------------------

/// Pseudo-random layout-like raster: horizontal wire runs plus stub noise.
Bitmap wireRaster(int w, int h, std::uint32_t seed) {
  Bitmap b(w, h);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dx(0, w - 1), dy(0, h - 1),
      len(4, w / 2);
  for (int i = 0; i < (w * h) / 256; ++i) {
    const int x = dx(rng), y = dy(rng);
    b.fillRect(x, y, std::min(w, x + len(rng)), std::min(h, y + 2));
  }
  return b;
}

void BM_BitmapDilate(benchmark::State& state) {
  const int n = int(state.range(0));
  const Bitmap b = wireRaster(n, n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.dilated(2));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BitmapDilate)->Arg(256)->Arg(1024);

/// Same dilate with the AVX2 kernel table pinned (resolves to scalar on
/// CPUs without AVX2, so the entry is always present and comparable).
void BM_BitmapDilateAVX2(benchmark::State& state) {
  const int n = int(state.range(0));
  const Bitmap b = wireRaster(n, n, 7);
  setBitmapSimdLevel(SimdLevel::Avx2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.dilated(2));
  }
  setBitmapSimdLevel(SimdLevel::Auto);
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BitmapDilateAVX2)->Arg(256)->Arg(1024);

void BM_BitmapOpenAnchored(benchmark::State& state) {
  const int n = int(state.range(0));
  const Bitmap b = wireRaster(n, n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.openedAnchored(2));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BitmapOpenAnchored)->Arg(256)->Arg(1024);

/// Cut-spacing MRC kernel at the d_cut rule's 3 px on a fixed random
/// layout: wire-like metal, and cut shapes from a second wire raster
/// with the metal carved out.
void BM_NarrowGapFlags(benchmark::State& state) {
  const int n = int(state.range(0));
  const Bitmap target = wireRaster(n, n, 11);
  Bitmap cut = wireRaster(n, n, 12);
  cut.andNot(target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(narrowGapFlags(cut, target, 3));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_NarrowGapFlags)->Arg(256)->Arg(1024);

void BM_ComponentBoxes(benchmark::State& state) {
  const int n = int(state.range(0));
  const Bitmap b = wireRaster(n, n, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(componentBoxes(b));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ComponentBoxes)->Arg(256)->Arg(1024);

void BM_RasterToNmRects(benchmark::State& state) {
  const int n = int(state.range(0));
  const Bitmap b = wireRaster(n, n, 10);
  const Rect window{0, 0, n * 10, n * 10};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rasterToNmRects(b, window));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_RasterToNmRects)->Arg(256)->Arg(1024);

// ---- Mask synthesis -------------------------------------------------------

void BM_DecomposeLayer(benchmark::State& state) {
  const Track rowsN = Track(state.range(0));
  std::vector<ColoredFragment> frags;
  for (Track y = 0; y < rowsN; ++y) {
    frags.push_back({Fragment{0, Track(y * 2), 32, Track(y * 2 + 1),
                              NetId(y)},
                     (y % 2) ? Color::Second : Color::Core});
  }
  const DesignRules rules;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decomposeLayer(frags, rules));
  }
  state.SetItemsProcessed(state.iterations() * rowsN);
}
BENCHMARK(BM_DecomposeLayer)->Arg(16)->Arg(64);

// ---- Negotiated-congestion routing (PathFinder pre-phase, §5.14) -----------

/// Timing-driven run with the PathFinder negotiation pre-phase enabled:
/// STA over the estimated net graph, criticality-ordered serial pre-route
/// with present/history congestion costs iterated to zero overflow, then
/// the regular overlay-aware pass on the frozen history base field.
void BM_NegotiatedRoute(benchmark::State& state) {
  const BenchmarkSpec spec = paperBenchmark("Test2").scaled(0.15);
  for (auto _ : state) {
    state.PauseTiming();
    BenchmarkInstance inst = makeBenchmark(spec);
    RunContext ctx;
    RouterOptions ro;
    ro.negotiate = true;
    ro.timingDriven = true;
    state.ResumeTiming();
    OverlayAwareRouter router(inst.grid, inst.netlist, ro, &ctx);
    benchmark::DoNotOptimize(router.run());
  }
}
BENCHMARK(BM_NegotiatedRoute)->Unit(benchmark::kMillisecond);

// ---- Full-chip physical report --------------------------------------------

/// One routed multi-layer instance shared by the report benchmarks.
const OverlayAwareRouter& routedInstance() {
  static BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test2").scaled(0.3));
  static OverlayAwareRouter* router = [] {
    auto* r = new OverlayAwareRouter(inst.grid, inst.netlist);
    r->run();
    return r;
  }();
  return *router;
}

/// A repeated sign-off report on an unchanged router. Every layer matches
/// its whole-layer record, so this times what a request costs before any
/// decomposition: building and comparing the colored-fragment lists.
void BM_PhysicalReport(benchmark::State& state) {
  const OverlayAwareRouter& router = routedInstance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.physicalReport());
  }
}
BENCHMARK(BM_PhysicalReport);

/// maskFingerprint of one routed whole layer: what the mask cache pays to
/// store a sign-off summary. Most plane words are all-zero or all-one.
void BM_MaskFingerprint(benchmark::State& state) {
  const LayerDecomposition d = routedInstance().decompose(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(maskFingerprint(d));
  }
}
BENCHMARK(BM_MaskFingerprint);

// ---- JSON result collection ------------------------------------------------

/// The "model name" line of /proc/cpuinfo, or "unknown" where there is
/// none (non-Linux hosts, some ARM kernels).
std::string cpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

std::string jsonEscaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Console reporter that additionally collects per-benchmark adjusted
/// real/cpu ns and writes the BENCH_kernels.json schema consumed by
/// future-PR comparisons. (Collecting via the display reporter avoids
/// google-benchmark's requirement that file reporters pair with
/// --benchmark_out.)
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& r : report) {
      if (r.error_occurred) continue;
      // Adjusted times come in each benchmark's own display unit (ms for
      // the ->Unit(kMillisecond) routes); the file is ns throughout.
      const double toNs = 1e9 / benchmark::GetTimeUnitMultiplier(r.time_unit);
      results_.push_back({r.benchmark_name(), r.GetAdjustedRealTime() * toNs,
                          r.GetAdjustedCPUTime() * toNs});
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }

  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\n  \"bench\": \"bench_kernels\",\n  \"schema\": 1,\n"
      << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << jsonEscaped(cpuModel()) << "\"},\n"
      << "  \"unit\": \"ns\",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Result& r = results_[i];
      f << "    {\"name\": \"" << r.name << "\", \"real_ns\": " << r.realNs
        << ", \"cpu_ns\": " << r.cpuNs << "}"
        << (i + 1 < results_.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
    return bool(f);
  }

 private:
  struct Result {
    std::string name;
    double realNs = 0;
    double cpuNs = 0;
  };
  std::vector<Result> results_;
};

}  // namespace
}  // namespace sadp

int main(int argc, char** argv) {
  // Strip our flags before google-benchmark parses the rest.
  std::string jsonPath, tracePath, metricsPath;
  std::deque<std::string> rewritten;  // stable storage for rewritten flags
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (a.rfind("--json=", 0) == 0) {
      jsonPath = a.substr(7);
    } else if (a == "--filter" && i + 1 < argc) {
      rewritten.push_back(std::string("--benchmark_filter=") + argv[++i]);
      args.push_back(rewritten.back().data());
    } else if (a.rfind("--filter=", 0) == 0) {
      rewritten.push_back("--benchmark_filter=" + a.substr(9));
      args.push_back(rewritten.back().data());
    } else if (a == "--trace" && i + 1 < argc) {
      tracePath = argv[++i];
    } else if (a.rfind("--trace=", 0) == 0) {
      tracePath = a.substr(8);
    } else if (a == "--metrics" && i + 1 < argc) {
      metricsPath = argv[++i];
    } else if (a.rfind("--metrics=", 0) == 0) {
      metricsPath = a.substr(10);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!tracePath.empty()) {
    sadp::setTraceLevel(sadp::TraceLevel::Full);
  } else if (!metricsPath.empty()) {
    sadp::setTraceLevel(sadp::TraceLevel::Aggregate);
  }
  int filteredArgc = int(args.size());
  benchmark::Initialize(&filteredArgc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filteredArgc, args.data())) {
    return 1;
  }
  if (jsonPath.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    sadp::JsonCollector collector;
    benchmark::RunSpecifiedBenchmarks(&collector);
    if (!collector.write(jsonPath)) {
      std::fprintf(stderr, "bench_kernels: cannot write %s\n",
                   jsonPath.c_str());
      return 1;
    }
    std::fprintf(stderr, "bench_kernels: wrote %s\n", jsonPath.c_str());
  }
  if (!metricsPath.empty()) {
    std::ofstream mf(metricsPath);
    sadp::writeMetricsJson(mf);
    std::fprintf(stderr, "bench_kernels: wrote %s\n", metricsPath.c_str());
  }
  if (!tracePath.empty()) {
    std::ofstream tf(tracePath);
    sadp::writeChromeTrace(tf);
    std::fprintf(stderr, "bench_kernels: wrote %s\n", tracePath.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
