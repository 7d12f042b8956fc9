// End-to-end tests for the overlay-aware detailed router (Algorithm 1).
#include "route/router.hpp"

#include <gtest/gtest.h>

#include "netlist/benchmark.hpp"
#include "run/run_context.hpp"
#include "sadp/mask_cache.hpp"
#include "trace/metrics.hpp"

namespace sadp {
namespace {

TEST(Router, RoutesTwoDisjointNets) {
  RoutingGrid grid(30, 30, 3, DesignRules{});
  Netlist nl;
  nl.add("a", Pin{{{2, 5, 0}}}, Pin{{{20, 5, 0}}});
  nl.add("b", Pin{{{2, 20, 0}}}, Pin{{{20, 20, 0}}});
  OverlayAwareRouter router(grid, nl);
  const RoutingStats s = router.run();
  EXPECT_EQ(s.routedNets, 2);
  EXPECT_DOUBLE_EQ(s.routability(), 100.0);
  EXPECT_EQ(s.vias, 0);
  EXPECT_EQ(s.wirelength, 18 * 2);
}

TEST(Router, AdjacentNetsGetOppositeColors) {
  RoutingGrid grid(30, 30, 3, DesignRules{});
  Netlist nl;
  nl.add("a", Pin{{{2, 5, 0}}}, Pin{{{20, 5, 0}}});
  nl.add("b", Pin{{{2, 6, 0}}}, Pin{{{20, 6, 0}}});
  OverlayAwareRouter router(grid, nl);
  router.run();
  EXPECT_NE(router.model().colorOf(0, 0), router.model().colorOf(1, 0));
  EXPECT_EQ(router.model().totalOverlayUnits(), 0);
}

TEST(Router, PhysicalReportCleanOnSimpleLayout) {
  RoutingGrid grid(30, 30, 3, DesignRules{});
  Netlist nl;
  nl.add("a", Pin{{{2, 5, 0}}}, Pin{{{20, 5, 0}}});
  nl.add("b", Pin{{{2, 6, 0}}}, Pin{{{20, 6, 0}}});
  nl.add("c", Pin{{{2, 8, 0}}}, Pin{{{20, 8, 0}}});
  OverlayAwareRouter router(grid, nl);
  router.run();
  const OverlayReport r = router.physicalReport();
  EXPECT_EQ(r.hardOverlays, 0);
  EXPECT_EQ(r.cutConflicts(), 0);
  EXPECT_EQ(r.spacerOverTargetPx, 0);
}

TEST(Router, UnroutableNetReported) {
  RoutingGrid grid(20, 20, 1, DesignRules{});
  // Wall with no door.
  for (Track y = 0; y < 20; ++y) grid.block({10, y, 0});
  Netlist nl;
  nl.add("a", Pin{{{2, 5, 0}}}, Pin{{{18, 5, 0}}});
  OverlayAwareRouter router(grid, nl);
  const RoutingStats s = router.run();
  EXPECT_EQ(s.routedNets, 0);
  EXPECT_EQ(s.totalNets, 1);
}

TEST(Router, MultiCandidatePinsCommitOne) {
  RoutingGrid grid(30, 30, 3, DesignRules{});
  Netlist nl;
  nl.add("a", Pin{{{2, 5, 0}, {2, 9, 0}}}, Pin{{{20, 9, 0}, {20, 5, 0}}});
  OverlayAwareRouter router(grid, nl);
  const RoutingStats s = router.run();
  EXPECT_EQ(s.routedNets, 1);
  const auto& path = router.netStates()[0].path;
  // Unchosen candidates must be free again.
  int reserved = 0;
  for (const GridNode& c :
       {GridNode{2, 5, 0}, GridNode{2, 9, 0}, GridNode{20, 9, 0},
        GridNode{20, 5, 0}}) {
    if (grid.owner(c) == 0) ++reserved;
  }
  EXPECT_EQ(reserved, int(path.size() == 0 ? 0 : 2))
      << "exactly the two chosen candidates stay owned";
}

TEST(Router, PathsNeverOverlap) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.05));
  RoutingGrid grid = inst.grid;
  OverlayAwareRouter router(grid, inst.netlist);
  router.run();
  // Grid occupancy is the invariant: every path node owned by its net.
  for (const Net& n : inst.netlist.nets) {
    for (const GridNode& node : router.netStates()[n.id].path) {
      EXPECT_EQ(grid.owner(node), n.id);
    }
  }
}

// Thresholds calibrated on the deterministic seed: the stress-density
// instance leaves a handful of residual nonzero metrics (documented in
// EXPERIMENTS.md); the test guards against regressions beyond them.
TEST(Router, SmallBenchmarkEndToEnd) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.05));
  RoutingGrid grid = inst.grid;
  OverlayAwareRouter router(grid, inst.netlist);
  const RoutingStats s = router.run();
  EXPECT_GT(s.routability(), 90.0);
  EXPECT_FALSE(router.model().hasHardViolation());
  const OverlayReport r = router.physicalReport();
  EXPECT_LE(r.hardOverlays, 3);
  EXPECT_LE(r.cutConflicts(), 12);
  EXPECT_LE(r.spacerOverTargetPx, 300);
  EXPECT_EQ(r.cutWidthConflicts, 0);
}

TEST(Router, ColorFlipDisabledStillRoutes) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.04));
  RoutingGrid grid = inst.grid;
  RouterOptions opts;
  opts.enableColorFlip = false;
  OverlayAwareRouter router(grid, inst.netlist, opts);
  const RoutingStats s = router.run();
  EXPECT_GT(s.routability(), 80.0);
}

TEST(Router, FlippingReducesOverlayOrEqual) {
  // Isolate the flipping effect: cut checks and repair flips disabled in
  // both runs (they may trade overlay for conflict removal).
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.06));
  RoutingGrid gridA = inst.grid;
  RouterOptions noFlip;
  noFlip.enableColorFlip = false;
  noFlip.enableCutCheck = false;
  noFlip.enableRepair = false;
  OverlayAwareRouter a(gridA, inst.netlist, noFlip);
  a.run();

  RoutingGrid gridB = inst.grid;
  RouterOptions flip;
  flip.enableCutCheck = false;
  flip.enableRepair = false;
  OverlayAwareRouter b(gridB, inst.netlist, flip);
  b.run();
  EXPECT_LE(b.model().totalOverlayUnits(), a.model().totalOverlayUnits());
}

// --- Whole-layer decomposition record ----------------------------------

std::int64_t counterValue(RunContext& ctx, const char* name) {
  return ctx.metrics().counter(name).value();
}

/// Sum of fresh, record-free decompositions of the router's current layers.
OverlayReport freshReport(const OverlayAwareRouter& router,
                          const DecomposeOptions& base = {}) {
  RunContext scratch;
  DecomposeOptions opts = base;
  opts.ctx = &scratch;
  OverlayReport total;
  for (int l = 0; l < router.grid().layers(); ++l) {
    total += decomposeLayer(router.coloredFragments(l), router.grid().rules(),
                            opts)
                 .report;
  }
  return total;
}

TEST(Router, WholeLayerRecordComputesEachLayerStateOnce) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.05));
  RoutingGrid grid = inst.grid;
  RouterOptions opts;
  opts.enableRepair = false;  // run() then makes no whole-layer request
  RunContext ctx;
  OverlayAwareRouter router(grid, inst.netlist, opts, &ctx);
  router.run();
  const int layers = grid.layers();
  auto calls = [&] { return counterValue(ctx, "decompose.calls"); };

  std::vector<std::uint64_t> freshFp;
  {
    RunContext scratch;
    DecomposeOptions o;
    o.ctx = &scratch;
    for (int l = 0; l < layers; ++l) {
      freshFp.push_back(maskFingerprint(
          decomposeLayer(router.coloredFragments(l), grid.rules(), o)));
    }
  }

  // physicalReport computes each layer once; decompose(l) then takes the
  // planes that computation kept, and a repeated report computes nothing.
  const std::int64_t c0 = calls();
  EXPECT_EQ(router.physicalReport(), freshReport(router));
  EXPECT_EQ(calls(), c0 + layers);
  for (int l = 0; l < layers; ++l) {
    EXPECT_EQ(maskFingerprint(router.decompose(l)), freshFp[l]) << l;
  }
  EXPECT_EQ(calls(), c0 + layers);
  router.physicalReport();
  EXPECT_EQ(calls(), c0 + layers);
  // The planes were moved out: asking again computes them again.
  EXPECT_EQ(maskFingerprint(router.decompose(0)), freshFp[0]);
  EXPECT_EQ(calls(), c0 + layers + 1);

  // A recolor changes one layer's list: only that layer is recomputed.
  const NetId net = router.coloredFragments(0).front().frag.net;
  OverlayConstraintGraph& g = router.model().graph(0);
  const Color before = g.colorOf(net);
  const Color printed = before == Color::Unassigned ? Color::Core : before;
  g.setColor(net, flippedColor(printed));
  std::int64_t c = calls();
  EXPECT_EQ(router.physicalReport(), freshReport(router));
  EXPECT_EQ(calls(), c + 1);
  g.setColor(net, before);
  c = calls();
  const OverlayReport restored = router.physicalReport();
  EXPECT_EQ(calls(), c + 1);
  EXPECT_EQ(restored, freshReport(router));
  EXPECT_EQ(maskFingerprint(router.decompose(0)), freshFp[0]);

  // Removing and re-adding a net recomputes every layer it has metal on.
  int netLayers = 0;
  for (int l = 0; l < layers; ++l) {
    netLayers += router.model().netFragments(net, l).empty() ? 0 : 1;
  }
  ASSERT_GT(netLayers, 0);
  router.physicalReport();
  router.model().removeNet(net);
  c = calls();
  EXPECT_EQ(router.physicalReport(), freshReport(router));
  EXPECT_EQ(calls(), c + netLayers);
  router.model().addNet(net, router.netStates()[std::size_t(net)].path);
  c = calls();
  EXPECT_EQ(router.physicalReport(), freshReport(router));
  EXPECT_EQ(calls(), c + netLayers);

  // Output-affecting options are part of the key; the context is not.
  DecomposeOptions noAssists;
  noAssists.insertAssists = false;
  c = calls();
  EXPECT_EQ(router.physicalReport(noAssists), freshReport(router, noAssists));
  EXPECT_EQ(calls(), c + layers);
  DecomposeOptions wide;
  wide.margin = 400;
  EXPECT_EQ(router.physicalReport(wide), freshReport(router, wide));
  EXPECT_EQ(calls(), c + 2 * layers);
  RunContext other;
  DecomposeOptions otherCtx = wide;
  otherCtx.ctx = &other;
  router.physicalReport(otherCtx);
  EXPECT_EQ(calls(), c + 2 * layers);
  EXPECT_EQ(counterValue(other, "decompose.calls"), 0);
}

TEST(Router, WholeLayerRecordReusesRepairDecompositions) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.05));
  RoutingGrid grid = inst.grid;
  RunContext ctx;
  OverlayAwareRouter router(grid, inst.netlist, {}, &ctx);
  router.run();
  const std::int64_t c0 = counterValue(ctx, "decompose.calls");
  EXPECT_EQ(router.physicalReport(), freshReport(router));
  RunContext scratch;
  DecomposeOptions o;
  o.ctx = &scratch;
  for (int l = 0; l < grid.layers(); ++l) {
    EXPECT_EQ(maskFingerprint(router.decompose(l)),
              maskFingerprint(
                  decomposeLayer(router.coloredFragments(l), grid.rules(), o)))
        << l;
  }
  // The repair's last pass left each layer's record: at most one
  // computation per layer between the sign-off report and the planes.
  EXPECT_LE(counterValue(ctx, "decompose.calls") - c0, grid.layers());
}

TEST(Router, WholeLayerRecordHitSkipsCacheLookup) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.05));
  RoutingGrid grid = inst.grid;
  MaskCache cache;
  RouterOptions opts;
  opts.maskCache = &cache;
  RunContext ctx;
  OverlayAwareRouter router(grid, inst.netlist, opts, &ctx);
  router.run();
  const int layers = grid.layers();
  std::vector<std::uint64_t> fps;
  for (int l = 0; l < layers; ++l) {
    const auto s = router.decomposeShared(l);
    ASSERT_TRUE(s->maskFp.has_value());
    fps.push_back(*s->maskFp);
  }
  const MaskCacheStats s0 = cache.stats();
  const std::int64_t calls0 = counterValue(ctx, "decompose.calls");
  const std::int64_t hits0 = counterValue(ctx, "mask_cache.hits");
  EXPECT_EQ(router.physicalReport(), freshReport(router));
  EXPECT_EQ(counterValue(ctx, "decompose.calls"), calls0);
  EXPECT_EQ(counterValue(ctx, "mask_cache.hits"), hits0);
  EXPECT_EQ(cache.stats().entries, s0.entries);
  // A cached record keeps no planes; they are computed, and match the
  // fingerprint the cache entry carries.
  for (int l = 0; l < layers; ++l) {
    EXPECT_EQ(maskFingerprint(router.decompose(l)), fps[l]) << l;
  }
  EXPECT_EQ(counterValue(ctx, "decompose.calls"), calls0 + layers);
  // decompose() recorded cacheless states, which carry no fingerprint: a
  // cached request is another key and goes back to the cache, which hits.
  for (int l = 0; l < layers; ++l) {
    const auto s = router.decomposeShared(l);
    ASSERT_TRUE(s->maskFp.has_value());
    EXPECT_EQ(*s->maskFp, fps[l]) << l;
  }
  EXPECT_EQ(counterValue(ctx, "decompose.calls"), calls0 + layers);
  EXPECT_EQ(counterValue(ctx, "mask_cache.hits"), hits0 + layers);
}

}  // namespace
}  // namespace sadp
