// Tests for the post-routing violation-repair machinery.
#include <gtest/gtest.h>

#include "netlist/benchmark.hpp"
#include "route/router.hpp"

namespace sadp {
namespace {

TEST(Repair, ReducesOrHoldsViolations) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.08));
  // Route without repair, measure, then repair explicitly.
  RoutingGrid grid = inst.grid;
  RouterOptions o;
  o.enableRepair = false;
  OverlayAwareRouter router(grid, inst.netlist, o);
  router.run();
  int before = 0;
  for (int l = 0; l < grid.layers(); ++l) {
    const LayerDecomposition d = router.decompose(l);
    before += d.report.cutConflicts() + d.report.hardOverlays;
  }
  router.repairViolations();
  const OverlayReport r = router.physicalReport();
  const int after = r.cutConflicts() + r.hardOverlays;
  EXPECT_LE(after, before);
}

TEST(Repair, KeepsRoutedPathsConsistent) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.08));
  RoutingGrid grid = inst.grid;
  OverlayAwareRouter router(grid, inst.netlist);
  const RoutingStats s = router.run();  // includes repair passes
  // Occupancy/bookkeeping invariants must survive reroutes and rollbacks.
  std::int64_t wl = 0;
  int vias = 0, routed = 0;
  for (const Net& n : inst.netlist.nets) {
    const NetRouteState& st = router.netStates()[n.id];
    if (!st.routed) continue;
    ++routed;
    for (const GridNode& node : st.path) {
      ASSERT_EQ(grid.owner(node), n.id) << n.name;
    }
    for (std::size_t i = 1; i < st.path.size(); ++i) {
      if (st.path[i].layer != st.path[i - 1].layer) {
        ++vias;
      } else {
        ++wl;
      }
    }
  }
  EXPECT_EQ(routed, s.routedNets);
  EXPECT_EQ(wl, s.wirelength);
  EXPECT_EQ(vias, s.vias);
}

TEST(Repair, SacrificeModeNeverIncreasesViolations) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test2").scaled(0.06));
  RoutingGrid gridA = inst.grid;
  OverlayAwareRouter base(gridA, inst.netlist);
  base.run();
  int baseViol = 0;
  for (int l = 0; l < gridA.layers(); ++l) {
    const LayerDecomposition d = base.decompose(l);
    baseViol += d.report.cutConflicts() + d.report.hardOverlays;
  }

  RoutingGrid gridB = inst.grid;
  RouterOptions o;
  o.sacrificeForZeroConflicts = true;
  OverlayAwareRouter sac(gridB, inst.netlist, o);
  sac.run();
  int sacViol = 0;
  for (int l = 0; l < gridB.layers(); ++l) {
    const LayerDecomposition d = sac.decompose(l);
    sacViol += d.report.cutConflicts() + d.report.hardOverlays;
  }
  EXPECT_LE(sacViol, baseViol);
}

TEST(Repair, NoViolationsMeansNoChanges) {
  // A sparse layout routes clean; repair must be a no-op.
  RoutingGrid grid(40, 40, 3, DesignRules{});
  Netlist nl;
  nl.add("a", Pin{{{2, 10, 0}}}, Pin{{{30, 10, 0}}});
  nl.add("b", Pin{{{2, 20, 0}}}, Pin{{{30, 20, 0}}});
  OverlayAwareRouter router(grid, nl);
  router.run();
  const auto pathsBefore = router.netStates();
  router.repairViolations();
  const OverlayReport r = router.physicalReport();
  EXPECT_EQ(r.cutConflicts() + r.hardOverlays, 0);
  for (std::size_t i = 0; i < pathsBefore.size(); ++i) {
    EXPECT_EQ(pathsBefore[i].path, router.netStates()[i].path);
  }
}

}  // namespace
}  // namespace sadp
