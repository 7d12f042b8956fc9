// Backend equivalence and capability gate (ctest label `fuzz`,
// DESIGN.md §5.13).
//
// Two bars, one per backend:
//
//   sadp2 -- selecting the SADP backend EXPLICITLY (RouterOptions::backend,
//   or the RunContext backend name the CLI/service route through) must be
//   byte-identical to not selecting any backend at all, across the route
//   loop and the service's ECO replay path: per-layer mask fingerprints, committed routes, overlay
//   report, CSV row, and the full metric counter snapshot. Combined with
//   test_golden_e2e (which pins the default path against committed
//   pre-refactor fixtures), this proves `--backend sadp2` output equals
//   the pre-backend goldens.
//
//   tpl3 -- the E5/E6-style odd-cycle fixture below is UNROUTABLE under
//   two-mask SADP (the hard constraints close an odd cycle and no detour
//   exists), and the triple-patterning backend must route it completely
//   with zero hard overlay violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/benchmark.hpp"
#include "patterning/backend.hpp"
#include "route/router.hpp"
#include "run/run_context.hpp"
#include "sadp/bitmap.hpp"
#include "service/session.hpp"

namespace sadp {
namespace {

BenchmarkSpec fuzzSpec(std::uint32_t seed) {
  std::mt19937 rng(seed * 2654435761u + 113u);
  BenchmarkSpec s;
  s.name = "bf" + std::to_string(seed);
  s.netCount = 10 + int(rng() % 25);
  s.width = Track(32 + int(rng() % 21));
  s.height = Track(32 + int(rng() % 21));
  s.seed = std::uint64_t(seed) * 37 + 5;
  return s;
}

/// Everything one routed run must reproduce byte-for-byte.
struct RouteDigest {
  std::vector<std::uint64_t> maskFps;  ///< maskFingerprint per layer
  std::vector<std::vector<GridNode>> paths;
  std::vector<char> routed;
  OverlayReport report;
  std::string csvRow;
  std::vector<CounterSample> counters;
};

enum class Select { Default, ExplicitOption };

RouteDigest routeOnce(const BenchmarkSpec& spec, Select how) {
  RunContext ctx;
  BenchmarkInstance inst = makeBenchmark(spec);
  RouterOptions ro;
  if (how == Select::ExplicitOption) ro.backend = &sadp2Backend();
  OverlayAwareRouter router(inst.grid, inst.netlist, ro, &ctx);
  const RoutingStats stats = router.run();
  const OverlayReport report = router.physicalReport();

  RouteDigest out;
  for (int layer = 0; layer < inst.grid.layers(); ++layer) {
    out.maskFps.push_back(maskFingerprint(router.decompose(layer)));
  }
  for (const NetRouteState& st : router.netStates()) {
    out.paths.push_back(st.path);
    out.routed.push_back(st.routed ? 1 : 0);
  }
  out.report = report;
  std::ostringstream csv;
  csv << stats.totalNets << ',' << stats.routedNets << ','
      << stats.routability() << ',' << stats.wirelength << ',' << stats.vias
      << ',' << stats.ripUps << ',' << report.sideOverlayNm << ','
      << report.cutConflicts() << ',' << report.hardOverlays;
  out.csvRow = csv.str();
  out.counters = ctx.metrics().counterSnapshot();
  return out;
}

void expectSameDigest(const RouteDigest& got, const RouteDigest& ref,
                      const std::string& what) {
  EXPECT_EQ(got.maskFps, ref.maskFps) << what;
  EXPECT_EQ(got.routed, ref.routed) << what;
  EXPECT_EQ(got.paths, ref.paths) << what;
  EXPECT_TRUE(got.report == ref.report) << what;
  EXPECT_EQ(got.csvRow, ref.csvRow) << what;
  ASSERT_EQ(got.counters.size(), ref.counters.size()) << what;
  for (std::size_t i = 0; i < ref.counters.size(); ++i) {
    EXPECT_EQ(got.counters[i].first, ref.counters[i].first) << what;
    EXPECT_EQ(got.counters[i].second, ref.counters[i].second)
        << what << " counter " << ref.counters[i].first;
  }
}

TEST(BackendFuzz, ExplicitSadp2ByteIdenticalToDefault) {
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    const BenchmarkSpec spec = fuzzSpec(seed);
    const RouteDigest ref = routeOnce(spec, Select::Default);
    const std::string tag = "seed " + std::to_string(seed);
    expectSameDigest(routeOnce(spec, Select::ExplicitOption), ref,
                     tag + " explicit-option");
  }
}

// ---- ECO replay path -------------------------------------------------------

void sessionRun(bool explicitBackend, std::vector<std::uint64_t>* fpsOut,
                std::vector<std::string>* rows) {
  const BenchmarkSpec spec = fuzzSpec(42);
  RouterOptions ro;
  if (explicitBackend) ro.backend = &sadp2Backend();
  Session session("s", spec, /*cache=*/nullptr, ro);
  std::vector<std::uint64_t>& fps = *fpsOut;
  const RouteOutcome cold = session.routeFull();
  fps.push_back(cold.designFp);
  rows->push_back(cold.csvRow);
  // A pin move, a net add, and a net remove: the three edit kinds, each
  // replayed through the verified-memo ECO path.
  const std::vector<NetSpec> nets = session.netSpecs();
  std::string err;
  EditRequest move;
  move.kind = EditRequest::Kind::MovePin;
  move.net = nets.front().name;
  move.pinIndex = 0;
  Pin p = nets.front().pins.front();
  for (GridNode& c : p.candidates) c.x = Track(std::max<Track>(1, c.x - 1));
  move.pins = {p};
  auto out = session.applyEdit(move, &err);
  ASSERT_TRUE(out.has_value()) << err;
  fps.push_back(out->designFp);
  rows->push_back(out->csvRow);

  EditRequest add;
  add.kind = EditRequest::Kind::AddNet;
  add.net = "fuzz_added";
  add.pins = {Pin{{{2, 2, 0}}}, Pin{{{9, 7, 0}}}};
  out = session.applyEdit(add, &err);
  ASSERT_TRUE(out.has_value()) << err;
  fps.push_back(out->designFp);
  rows->push_back(out->csvRow);

  EditRequest rm;
  rm.kind = EditRequest::Kind::RemoveNet;
  rm.net = nets.back().name;
  out = session.applyEdit(rm, &err);
  ASSERT_TRUE(out.has_value()) << err;
  fps.push_back(out->designFp);
  rows->push_back(out->csvRow);
}

TEST(BackendFuzz, EcoReplayByteIdenticalUnderExplicitSadp2) {
  std::vector<std::uint64_t> ref, got;
  std::vector<std::string> refRows, gotRows;
  sessionRun(false, &ref, &refRows);
  sessionRun(true, &got, &gotRows);
  ASSERT_EQ(ref.size(), 4u);  // cold + three edits all succeeded
  EXPECT_EQ(got, ref);
  EXPECT_EQ(gotRows, refRows);
}

// ---- TPL capability fixture ------------------------------------------------

/// The odd-cycle fixture: two abutting vertical wires (a T1a must-differ
/// pair) capped by one horizontal wire whose side faces both their tips at
/// one track (two T1b must-same pairs) -- A=C, B=C, A!=B, an odd cycle of
/// hard constraints. Every cell outside the three target corridors is
/// blocked, so no detour can dissolve the cycle. One layer: no via escape.
struct OddCycleFixture {
  RoutingGrid grid;
  Netlist netlist;

  OddCycleFixture() : grid(16, 16, 1, DesignRules{}) {
    netlist.add("a", Pin{{{5, 5, 0}}}, Pin{{{5, 11, 0}}});
    netlist.add("b", Pin{{{6, 5, 0}}}, Pin{{{6, 11, 0}}});
    netlist.add("c", Pin{{{3, 12, 0}}}, Pin{{{8, 12, 0}}});
    const NetId blocker = NetId(netlist.size() + 10);
    auto inCorridor = [](Track x, Track y) {
      if (x == 5 && y >= 5 && y <= 11) return true;  // net a
      if (x == 6 && y >= 5 && y <= 11) return true;  // net b
      if (y == 12 && x >= 3 && x <= 8) return true;  // net c
      return false;
    };
    for (Track x = 0; x < grid.width(); ++x) {
      for (Track y = 0; y < grid.height(); ++y) {
        if (!inCorridor(x, y)) grid.occupy({x, y, 0}, blocker);
      }
    }
  }
};

TEST(BackendFuzz, OddCycleFixtureUnroutableUnderSadp2) {
  OddCycleFixture f;
  OverlayAwareRouter router(f.grid, f.netlist, RouterOptions{});
  const RoutingStats stats = router.run();
  // The third net of the cycle cannot be placed without the hard odd
  // cycle, and no alternative path exists.
  EXPECT_LT(stats.routedNets, stats.totalNets);
}

TEST(BackendFuzz, OddCycleFixtureRoutesCleanUnderTpl3) {
  OddCycleFixture f;
  RouterOptions ro;
  ro.backend = &tpl3Backend();
  RunContext ctx;
  OverlayAwareRouter router(f.grid, f.netlist, ro, &ctx);
  const RoutingStats stats = router.run();
  EXPECT_EQ(stats.routedNets, stats.totalNets);
  const OverlayReport report = router.physicalReport();
  EXPECT_EQ(report.hardOverlays, 0);
  EXPECT_EQ(report.cutConflicts(), 0);
  // Three exposure planes, all three colors in use (the triangle needs
  // all of them), and the planes union back to the target.
  const LayerDecomposition d = router.decompose(0);
  ASSERT_EQ(d.masks.size(), 3u);
  Bitmap unioned = d.masks[0];
  int populated = 0;
  for (const Bitmap& m : d.masks) {
    if (m.count() > 0) ++populated;
    unioned |= m;
  }
  EXPECT_EQ(populated, 3);
  EXPECT_EQ(fingerprint(unioned), fingerprint(d.target));
}

}  // namespace
}  // namespace sadp
