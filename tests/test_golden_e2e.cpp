// Golden end-to-end regression: route one small fixed benchmark, then
// compare the full eval CSV row (wall time pinned to 0) and the per-layer
// mask-plane fingerprints against the committed fixture in tests/golden/.
// This is the whole-pipeline version of the determinism contract
// (DESIGN.md §5.7). Regenerate fixtures with SADP_UPDATE_GOLDEN=1.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "eval/eval.hpp"
#include "netlist/benchmark.hpp"
#include "ocg/scenario.hpp"
#include "route/router.hpp"
#include "sadp/bitmap.hpp"
#include "sadp/decompose.hpp"

#ifndef SADP_GOLDEN_DIR
#error "SADP_GOLDEN_DIR must point at the tests/golden fixture directory"
#endif

namespace sadp {
namespace {

std::string hex16(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// Routes the fixture instance and renders its golden document: the eval
/// CSV (cpuSeconds is the only nondeterministic column, so it is pinned to
/// 0) followed by one fingerprint line per layer covering all six mask
/// planes of the decomposition.
std::string runPipeline() {
  const BenchmarkSpec spec = paperBenchmark("Test1").scaled(0.06);
  BenchmarkInstance inst = makeBenchmark(spec);
  OverlayAwareRouter router(inst.grid, inst.netlist, RouterOptions{});
  const RoutingStats stats = router.run();
  const OverlayReport phys = router.physicalReport();

  ExperimentRow row;
  row.circuit = spec.name;
  row.router = "ours";
  row.nets = int(inst.netlist.size());
  row.routability = stats.routability();
  row.overlayUnits = router.model().totalOverlayUnits() % kHardCost;
  row.overlayNm = phys.sideOverlayNm;
  row.conflicts = phys.cutConflicts();
  row.hardOverlays = phys.hardOverlays;
  row.cpuSeconds = 0;

  std::ostringstream doc;
  writeCsv(doc, {row});
  for (int layer = 0; layer < inst.grid.layers(); ++layer) {
    const LayerDecomposition d = router.decompose(layer);
    doc << "layer " << layer << " target=" << hex16(fingerprint(d.target))
        << " core=" << hex16(fingerprint(d.coreMask))
        << " spacer=" << hex16(fingerprint(d.spacer))
        << " cut=" << hex16(fingerprint(d.cut))
        << " assists=" << hex16(fingerprint(d.assists))
        << " bridges=" << hex16(fingerprint(d.bridges)) << "\n";
  }
  return doc.str();
}

TEST(GoldenE2E, MatchesCommittedFixture) {
  const std::string path =
      std::string(SADP_GOLDEN_DIR) + "/test1_s006.golden";
  const std::string fresh = runPipeline();
  if (std::getenv("SADP_UPDATE_GOLDEN")) {
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f) << "cannot write " << path;
    f << fresh;
    ASSERT_TRUE(bool(f)) << "short write to " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f) << "missing fixture " << path
                 << " -- regenerate with SADP_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(fresh, buf.str()) << "pipeline diverged from the fixture";
}

// Both SIMD dispatch levels must land on the committed document: the
// scalar bitmap kernels are byte-equivalent to the AVX2 ones (DESIGN.md
// §5.9.1), so neither may perturb routes, masks or the report.
TEST(GoldenE2E, SimdDispatchMatrixByteIdentical) {
  const std::string path =
      std::string(SADP_GOLDEN_DIR) + "/test1_s006.golden";
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f) << "missing fixture " << path
                 << " -- regenerate with SADP_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string golden = buf.str();
  const struct {
    SimdLevel simd;
    const char* name;
  } configs[] = {{SimdLevel::Auto, "auto"}, {SimdLevel::Scalar, "scalar"}};
  for (const auto& c : configs) {
    setBitmapSimdLevel(c.simd);
    EXPECT_EQ(runPipeline(), golden) << c.name << " diverged from the fixture";
  }
  setBitmapSimdLevel(SimdLevel::Auto);
}

/// A density-skewed layer: a dense block of short wires crammed into the
/// low-x words plus a few sparse wires stretching the window to ~15 words.
std::vector<ColoredFragment> skewedLayer() {
  std::vector<ColoredFragment> frags;
  NetId net = 1;
  // Dense block: 12 rows of staggered short wires within x < 20.
  for (int y = 0; y < 12; ++y) {
    const Track x0 = Track((y * 3) % 7);
    frags.push_back({Fragment{x0, Track(y), Track(x0 + 5 + y % 4),
                              Track(y + 1), net},
                     (y % 2) ? Color::Second : Color::Core});
    ++net;
    frags.push_back({Fragment{Track(x0 + 8), Track(y), Track(x0 + 13),
                              Track(y + 1), net},
                     (y % 3) ? Color::Core : Color::Second});
    ++net;
  }
  // Sparse tail: three long wires reaching x = 230 (~15 raster words).
  for (int k = 0; k < 3; ++k) {
    frags.push_back({Fragment{Track(30 + 60 * k), Track(2 + 4 * k),
                              Track(230), Track(3 + 4 * k), net},
                     k == 1 ? Color::Second : Color::Core});
    ++net;
  }
  return frags;
}

/// Golden document of one decomposition: the overlay report's fields, the
/// six plane fingerprints, and the cut mask's nm rectangles.
std::string decomposeDoc() {
  const DesignRules rules;
  const std::vector<ColoredFragment> frags = skewedLayer();
  const LayerDecomposition d = decomposeLayer(frags, rules);
  std::ostringstream doc;
  doc << "sideOverlayNm=" << d.report.sideOverlayNm
      << " sections=" << d.report.sideOverlaySections
      << " hard=" << d.report.hardOverlays << " tip=" << d.report.tipOverlays
      << " cutW=" << d.report.cutWidthConflicts
      << " cutS=" << d.report.cutSpaceConflicts
      << " spacerOverTarget=" << d.report.spacerOverTargetPx << "\n";
  doc << "target=" << hex16(fingerprint(d.target))
      << " core=" << hex16(fingerprint(d.coreMask))
      << " spacer=" << hex16(fingerprint(d.spacer))
      << " cut=" << hex16(fingerprint(d.cut))
      << " assists=" << hex16(fingerprint(d.assists))
      << " bridges=" << hex16(fingerprint(d.bridges)) << "\n";
  for (const Rect& r : rasterToNmRects(d.cut, d.windowNm))
    doc << "cut " << r.xlo << " " << r.ylo << " " << r.xhi << " " << r.yhi
        << "\n";
  return doc.str();
}

// ---------------------------------------------------------------------
// Congested-design timing fixture: one dense instance routed in three
// modes -- baseline one-shot rip-up, --timing (criticality ordering and
// weights), and --negotiate (PathFinder pre-phase) -- frozen as a single
// golden document. Beyond byte-stability the test holds the two live
// claims of the negotiation mode: it converges to zero overflow, and its
// worst slack is no worse than the one-shot baseline's (measured under
// the SAME estimate-derived period).
BenchmarkSpec congestedSpec() {
  BenchmarkSpec s;
  s.name = "congested";
  s.netCount = 120;
  s.width = 48;
  s.height = 48;
  return s;
}

/// Post-route worst slack of an already-routed design under the given
/// options' estimate-derived period (the external measurement used for
/// modes that do not compute slack themselves).
std::int64_t measuredWorstSlack(const OverlayAwareRouter& router,
                                const Netlist& nl, const TimingOptions& t) {
  std::vector<std::int64_t> delays = estimateNetDelays(nl, t);
  const std::vector<TimingEdge> edges =
      pruneTimingCycles(nl.size(), deriveTimingEdges(nl, t));
  const TimingResult pre = analyzeTiming(nl.size(), edges, delays, t);
  TimingOptions fixed = t;
  fixed.period = pre.analysis.period;
  for (const Net& net : nl.nets) {
    const NetRouteState& st = router.netStates()[std::size_t(net.id)];
    if (st.routed) {
      delays[std::size_t(net.id)] =
          pathDelay(st.wirelength, int(st.vias), fixed);
    }
  }
  return analyzeTiming(nl.size(), edges, delays, fixed).analysis.worstSlack;
}

TEST(GoldenE2E, CongestedTimingFixtureAndSlackClaims) {
  const std::string path =
      std::string(SADP_GOLDEN_DIR) + "/congested_timing.golden";
  struct Mode {
    const char* name;
    bool timing;
    bool negotiate;
  };
  const Mode modes[] = {{"baseline", false, false},
                        {"timing", true, false},
                        {"negotiate", true, true}};
  std::ostringstream doc;
  std::int64_t baselineSlack = 0;
  std::int64_t negotiateSlack = 0;
  for (const Mode& m : modes) {
    BenchmarkInstance inst = makeBenchmark(congestedSpec());
    RouterOptions ro;
    ro.timingDriven = m.timing;
    ro.negotiate = m.negotiate;
    OverlayAwareRouter router(inst.grid, inst.netlist, ro);
    const RoutingStats stats = router.run();
    const OverlayReport phys = router.physicalReport();
    const std::int64_t slack =
        measuredWorstSlack(router, inst.netlist, ro.timing);
    if (!m.timing) baselineSlack = slack;
    if (m.negotiate) {
      negotiateSlack = slack;
      EXPECT_EQ(stats.negotiateOverflow, 0)
          << "negotiation failed to converge on the congested fixture";
      EXPECT_EQ(slack, stats.worstSlack)
          << "router's own post-route slack disagrees with the external "
             "measurement";
    }
    doc << "mode=" << m.name << " routed=" << stats.routedNets
        << " wirelength=" << stats.wirelength << " vias=" << stats.vias
        << " ripups=" << stats.ripUps << " overlayNm=" << phys.sideOverlayNm
        << " conflicts=" << phys.cutConflicts()
        << " hard=" << phys.hardOverlays << " worst_slack=" << slack
        << " negotiate_iters=" << stats.negotiateIters
        << " negotiate_overflow=" << stats.negotiateOverflow << "\n";
    for (int layer = 0; layer < inst.grid.layers(); ++layer) {
      const LayerDecomposition d = router.decompose(layer);
      doc << "mode=" << m.name << " layer=" << layer
          << " target=" << hex16(fingerprint(d.target))
          << " cut=" << hex16(fingerprint(d.cut)) << "\n";
    }
  }
  // The headline trade-off claim (EXPERIMENTS.md): negotiation must not
  // end up timing-worse than the one-shot baseline on this fixture.
  EXPECT_GE(negotiateSlack, baselineSlack);

  const std::string fresh = doc.str();
  if (std::getenv("SADP_UPDATE_GOLDEN")) {
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f) << "cannot write " << path;
    f << fresh;
    ASSERT_TRUE(bool(f)) << "short write to " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f) << "missing fixture " << path
                 << " -- regenerate with SADP_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(fresh, buf.str())
      << "congested timing document diverged from the fixture";
}

// ---------------------------------------------------------------------
// Quarter-size Test1 (375 nets on 85²): large enough that cut rejects
// split hard classes on removal, flips span many OCG components, and
// repair re-routes nets -- the per-net router paths a byte-identity claim
// about rip-up, flipping and the cut check has to cover. One
// configuration only to keep the suite fast.
std::string quarterTest1Doc() {
  BenchmarkInstance inst = makeBenchmark(paperBenchmark("Test1").scaled(0.25));
  OverlayAwareRouter router(inst.grid, inst.netlist);
  const RoutingStats stats = router.run();
  const OverlayReport phys = router.physicalReport();
  // FNV-1a over every net's path and per-layer colors pins the routes and
  // the coloring, not only what the masks make of them.
  std::uint64_t routes = 1469598103934665603ull;
  const auto mix = [&routes](std::int64_t v) {
    routes = (routes ^ std::uint64_t(v)) * 1099511628211ull;
  };
  for (const Net& net : inst.netlist.nets) {
    const NetRouteState& st = router.netStates()[std::size_t(net.id)];
    mix(st.routed);
    mix(std::int64_t(st.path.size()));
    for (const GridNode& n : st.path) {
      mix(n.x);
      mix(n.y);
      mix(n.layer);
    }
    for (int layer = 0; layer < inst.grid.layers(); ++layer)
      mix(int(router.model().colorOf(net.id, layer)));
  }
  std::ostringstream doc;
  doc << "nets=" << inst.netlist.size() << " routed=" << stats.routedNets
      << " wirelength=" << stats.wirelength << " vias=" << stats.vias
      << " ripups=" << stats.ripUps
      << " overlay_units=" << router.model().totalOverlayUnits()
      << " overlayNm=" << phys.sideOverlayNm
      << " conflicts=" << phys.cutConflicts() << " hard=" << phys.hardOverlays
      << " routes=" << hex16(routes) << "\n";
  for (int layer = 0; layer < inst.grid.layers(); ++layer) {
    const LayerDecomposition d = router.decompose(layer);
    doc << "layer " << layer << " target=" << hex16(fingerprint(d.target))
        << " core=" << hex16(fingerprint(d.coreMask))
        << " spacer=" << hex16(fingerprint(d.spacer))
        << " cut=" << hex16(fingerprint(d.cut))
        << " assists=" << hex16(fingerprint(d.assists))
        << " bridges=" << hex16(fingerprint(d.bridges)) << "\n";
  }
  return doc.str();
}

TEST(GoldenE2E, QuarterScaleTest1Fixture) {
  const std::string path =
      std::string(SADP_GOLDEN_DIR) + "/test1_s025.golden";
  const std::string fresh = quarterTest1Doc();
  if (std::getenv("SADP_UPDATE_GOLDEN")) {
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f) << "cannot write " << path;
    f << fresh;
    ASSERT_TRUE(bool(f)) << "short write to " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f) << "missing fixture " << path
                 << " -- regenerate with SADP_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(fresh, buf.str())
      << "quarter-scale Test1 document diverged from the fixture";
}

TEST(GoldenE2E, SkewedDensityFixture) {
  const std::string path =
      std::string(SADP_GOLDEN_DIR) + "/skewed_layer.golden";
  const std::string fresh = decomposeDoc();
  if (std::getenv("SADP_UPDATE_GOLDEN")) {
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f) << "cannot write " << path;
    f << fresh;
    ASSERT_TRUE(bool(f)) << "short write to " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f) << "missing fixture " << path
                 << " -- regenerate with SADP_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(fresh, buf.str())
      << "skewed-layer decomposition diverged from the fixture";
}

}  // namespace
}  // namespace sadp
