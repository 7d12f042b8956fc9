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
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "eval/eval.hpp"
#include "netlist/benchmark.hpp"
#include "ocg/scenario.hpp"
#include "patterning/backend.hpp"
#include "route/router.hpp"
#include "run/run_context.hpp"
#include "sadp/bitmap.hpp"
#include "sadp/decompose.hpp"
#include "sadp/mask_cache.hpp"
#include "service/session.hpp"
#include "trace/metrics.hpp"

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

// ---------------------------------------------------------------------
// Identity ledger: the configurations a byte-identical change must leave
// untouched, each recorded as its per-layer mask fingerprints, the
// sadp_route_cli --csv row, every counter value, every histogram, and the
// name and count of every span (wall times are not deterministic and are
// left out). A refactor proves identity by leaving identity.golden
// unchanged; a change that means to move a counter regenerates the ledger
// with SADP_UPDATE_GOLDEN=1 and names the counters it moved.

/// Entry lines for one run's metrics registry and span aggregates, plus a
/// digest line folding them all.
void appendMetrics(std::vector<std::string>& lines, const std::string& tag,
                   const RunContext& ctx) {
  std::vector<std::string> out;
  for (const auto& [name, v] : ctx.metrics().counterSnapshot())
    out.push_back(tag + " counter " + name + " " + std::to_string(v));
  for (const std::string& name : ctx.metrics().histogramNames()) {
    const Histogram* h = ctx.metrics().findHistogram(name);
    std::ostringstream os;
    os << tag << " histogram " << name << " count=" << h->count()
       << " sum=" << h->sum() << " buckets=";
    for (int b = 0; b < Histogram::kBuckets; ++b)
      if (h->bucketCount(b) != 0) os << b << ':' << h->bucketCount(b) << ',';
    out.push_back(os.str());
  }
  for (const SpanAggregate& s : ctx.trace().aggregates())
    out.push_back(tag + " span " + s.name + " " + std::to_string(s.count));
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string& l : out)
    for (const char c : l) h = (h ^ std::uint8_t(c)) * 1099511628211ull;
  lines.insert(lines.end(), out.begin(), out.end());
  lines.push_back(tag + " digest " + hex16(h));
}

/// One cold route as sadp_route_cli runs it with --metrics: its own
/// context at Aggregate trace level, the design on `grid`.
void ledgerColdRoute(std::vector<std::string>& lines, const std::string& tag,
                     RoutingGrid grid, const Netlist& netlist,
                     const RouterOptions& opts) {
  RunContext ctx;
  ctx.setTraceLevel(TraceLevel::Aggregate);
  RunContext::Scope bind(ctx);
  OverlayAwareRouter router(grid, netlist, opts, &ctx);
  const RoutingStats stats = router.run();
  const OverlayReport report = router.physicalReport();
  lines.push_back(tag + " csv " + runCsvRow(stats, report));
  appendMetrics(lines, tag, ctx);
  for (int layer = 0; layer < grid.layers(); ++layer) {
    lines.push_back(tag + " layer " + std::to_string(layer) + " masks " +
                    hex16(maskFingerprint(router.decompose(layer))));
  }
}

/// `--seed-demo nets --width edge --height edge`: the generator's netlist on
/// a blockage-free grid.
void ledgerDemo(std::vector<std::string>& lines, const std::string& tag,
                int nets, Track edge, const RouterOptions& opts) {
  BenchmarkSpec spec;
  spec.name = "demo";
  spec.netCount = nets;
  spec.width = edge;
  spec.height = edge;
  const Netlist netlist = makeBenchmark(spec).netlist;
  ledgerColdRoute(lines, tag, RoutingGrid(edge, edge, 3, DesignRules{}),
                  netlist, opts);
}

/// 50 move_pin edits on a resident 250-net session with a mask cache. Each
/// edit nudges one pin of a pseudo-randomly chosen net by 1-2 tracks onto
/// an in-bounds, unblocked node no other pin uses.
void ledgerEditChain(std::vector<std::string>& lines) {
  BenchmarkSpec spec;
  spec.name = "eco_250";
  spec.netCount = 250;
  spec.width = 160;
  spec.height = 160;
  spec.seed = 4;
  const RoutingGrid blockages = makeBenchmark(spec).grid;
  MaskCache cache;
  Session session("ledger", spec, &cache);
  std::map<std::string, std::int64_t> totals;
  auto record = [&](const std::string& tag, const RouteOutcome& o) {
    std::ostringstream os;
    os << tag << " design_fp=" << hex16(o.designFp) << " csv=" << o.csvRow
       << " memo=" << o.memoHits << '/' << o.searches
       << " skips=" << o.verifySkips << " cache=" << o.cacheHits << '/'
       << o.cacheMisses << " dirty=" << o.netsDirty;
    lines.push_back(os.str());
    for (const auto& [name, v] : session.ctx().metrics().counterSnapshot())
      totals[name] += v;
  };
  record("eco prime", session.routeFull());

  std::vector<NetSpec> nets = session.netSpecs();
  std::set<std::size_t> used;
  for (const NetSpec& n : nets)
    for (const Pin& p : n.pins) used.insert(blockages.index(p.candidates[0]));
  std::uint64_t state = 0xec0;
  auto draw = [&state](std::uint64_t n) {
    state += 0x9e3779b97f4a7c15ull;  // splitmix64
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) % n;
  };
  for (int edit = 0; edit < 50; ++edit) {
    EditRequest e;
    for (;;) {
      NetSpec& net = nets[draw(nets.size())];
      const std::size_t pin = draw(net.pins.size());
      GridNode n = net.pins[pin].candidates[0];
      const Track d = Track(1 + draw(2)) * (draw(2) == 0 ? 1 : -1);
      (draw(2) == 0 ? n.x : n.y) += d;
      if (!blockages.inBounds(n) || blockages.isBlocked(n) ||
          used.count(blockages.index(n)) != 0) {
        continue;
      }
      used.erase(blockages.index(net.pins[pin].candidates[0]));
      used.insert(blockages.index(n));
      net.pins[pin] = Pin{{n}};
      e.net = net.name;
      e.pinIndex = int(pin);
      e.pins = {Pin{{n}}};
      break;
    }
    std::string err;
    const std::optional<RouteOutcome> o = session.applyEdit(e, &err);
    ASSERT_TRUE(o.has_value()) << "edit " << edit << ": " << err;
    record("eco edit " + std::to_string(edit), *o);
  }
  for (const auto& [name, v] : totals)
    lines.push_back("eco counter-total " + name + " " + std::to_string(v));
}

/// Replays one recorded search memo under options whose searches differ
/// from the recorded ones only in SearchMemoKey fields: the A* weights
/// (params), the T2b field (usedT2b) and the negotiation history the
/// rip-up field starts from (penaltyHistory). The footprint walk cannot
/// see those differences, so only the key keeps such a replay from reusing
/// a stale result; each line pins the replay's hits and masks.
void ledgerMemoKeys(std::vector<std::string>& lines) {
  BenchmarkSpec spec;
  spec.name = "memo";
  spec.netCount = 60;
  spec.width = 40;
  spec.height = 40;
  spec.seed = 9;
  const BenchmarkInstance inst = makeBenchmark(spec);
  std::vector<std::string> names;
  for (const Net& n : inst.netlist.nets) names.push_back(n.name);
  auto route = [&](const std::string& tag, SessionMemo memo,
                   RouterOptions ro) {
    RunContext ctx;
    RunContext::Scope bind(ctx);
    RoutingGrid grid = inst.grid;
    ro.memo = &memo;
    memo.beginRun(names);
    OverlayAwareRouter router(grid, inst.netlist, ro, &ctx);
    const RoutingStats stats = router.run();
    const OverlayReport report = router.physicalReport();
    memo.endRun(names);
    std::ostringstream os;
    os << tag << " csv=" << runCsvRow(stats, report)
       << " memo=" << memo.hits() << '/' << memo.misses() << " masks";
    for (int layer = 0; layer < grid.layers(); ++layer)
      os << ' ' << hex16(maskFingerprint(router.decompose(layer)));
    lines.push_back(os.str());
    return memo;
  };
  const SessionMemo plain = route("memo record", SessionMemo{}, {});
  RouterOptions weights;
  weights.astar.wrongWay = 2.5;
  route("memo params", plain, weights);
  RouterOptions noT2b;
  noT2b.enableT2bAvoidance = false;
  route("memo used_t2b", plain, noT2b);
  RouterOptions negotiate;
  negotiate.negotiate = true;
  const SessionMemo negotiated = route("memo negotiate", SessionMemo{},
                                       negotiate);
  negotiate.historyIncrement = 3.0f;
  route("memo penalty_history", negotiated, negotiate);
}

std::vector<std::string> identityLedger() {
  std::vector<std::string> lines;
  ledgerDemo(lines, "demo1000", 1000, 320, RouterOptions{});
  RouterOptions negotiate;
  negotiate.negotiate = true;
  negotiate.timingDriven = true;  // --negotiate implies --timing
  ledgerDemo(lines, "negotiate600", 600, 200, negotiate);
  RouterOptions timing;
  timing.timingDriven = true;
  ledgerDemo(lines, "timing600", 600, 200, timing);
  RouterOptions heap = negotiate;
  heap.historyIncrement = 10000.0f;  // drives the heap open list
  ledgerDemo(lines, "heap600", 600, 200, heap);
  RouterOptions tpl3;
  tpl3.backend = findPatterningBackend("tpl3");
  ledgerDemo(lines, "tpl3_1000", 1000, 320, tpl3);
  const BenchmarkInstance test6 =
      makeBenchmark(paperBenchmark("Test6").scaled(0.25));
  ledgerColdRoute(lines, "test6_quarter", test6.grid, test6.netlist,
                  RouterOptions{});
  ledgerEditChain(lines);
  ledgerMemoKeys(lines);
  return lines;
}

/// The first word of a ledger line (the entry tag) and the key that
/// identifies it within its entry, e.g. "heap600 counter astar.routes".
std::string ledgerKey(const std::string& line) {
  std::istringstream is(line);
  std::string a, b, c;
  is >> a >> b >> c;
  if (b == "counter" || b == "histogram" || b == "span" || b == "layer" ||
      b == "counter-total" || b == "edit")
    return a + " " + b + " " + c;
  return a + " " + b;
}

TEST(GoldenE2E, IdentityLedger) {
  const std::string path = std::string(SADP_GOLDEN_DIR) + "/identity.golden";
  const std::vector<std::string> fresh = identityLedger();
  if (std::getenv("SADP_UPDATE_GOLDEN")) {
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f) << "cannot write " << path;
    for (const std::string& l : fresh) f << l << "\n";
    ASSERT_TRUE(bool(f)) << "short write to " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f) << "missing fixture " << path
                 << " -- regenerate with SADP_UPDATE_GOLDEN=1";
  std::map<std::string, std::string> golden;
  for (std::string l; std::getline(f, l);) golden[ledgerKey(l)] = l;
  std::map<std::string, std::string> now;
  for (const std::string& l : fresh) now[ledgerKey(l)] = l;
  // Name every line that moved, so a diff reads as "these counters".
  std::vector<std::string> moved;
  for (const auto& [key, line] : golden) {
    const auto it = now.find(key);
    if (it == now.end()) {
      moved.push_back("gone:  " + line);
    } else if (it->second != line) {
      moved.push_back("was:   " + line + "\n  now:   " + it->second);
    }
  }
  for (const auto& [key, line] : now)
    if (golden.count(key) == 0) moved.push_back("new:   " + line);
  std::string report;
  for (const std::string& m : moved) report += "  " + m + "\n";
  EXPECT_TRUE(moved.empty()) << moved.size()
                             << " ledger lines differ from " << path << ":\n"
                             << report;
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
