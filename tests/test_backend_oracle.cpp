// Exact brute-force k-coloring oracle for the patterning backends
// (DESIGN.md §5.13).
//
// Small random conflict graphs (<= 12 vertices) are solved exhaustively --
// every k^n coloring -- and the production stack is held to that ground
// truth: the 2-color parity structure must agree with brute force on
// FEASIBILITY (a hard odd cycle exists iff no assignment stays below
// kHardCost), the SADP flipping DP must reach the brute-force optimum on
// soft trees (the regime Theorem 4 claims exactness for), and the TPL
// backend's recolor pass must reach the brute-force 3-coloring minimum on
// every component small enough for its exhaustive branch-and-bound.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "ocg/graph.hpp"
#include "ocg/parity_dsu.hpp"
#include "patterning/backend.hpp"
#include "patterning/flipping.hpp"

namespace sadp {
namespace {

// ---- ParityDsu against a ground-truth labeling ----------------------------

TEST(ParityDsu, RandomRelationsMatchGroundTruthLabeling) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng() % 11;
    std::vector<std::uint8_t> label(n);
    for (auto& l : label) l = std::uint8_t(rng() % 2);
    ParityDsu d;
    for (int e = 0; e < 24; ++e) {
      const std::size_t u = rng() % n;
      const std::size_t v = rng() % n;
      if (u == v) continue;
      const std::uint8_t rel = label[u] ^ label[v];
      // Relations drawn from one global labeling can never contradict.
      ASSERT_TRUE(d.unite(u, v, rel)) << "trial " << trial;
      auto [ru, du] = d.find(u);
      auto [rv, dv] = d.find(v);
      ASSERT_EQ(ru, rv);
      ASSERT_EQ(du ^ dv, rel);
    }
    // A deliberately wrong relation inside one class must be rejected.
    const std::size_t u = rng() % n;
    const std::size_t v = rng() % n;
    if (u != v) {
      auto [ru, du] = d.find(u);
      auto [rv, dv] = d.find(v);
      if (ru == rv) {
        const std::uint8_t wrong = std::uint8_t((du ^ dv) ^ 1u);
        EXPECT_TRUE(d.contradicts(u, v, wrong));
        EXPECT_FALSE(d.unite(u, v, wrong));
      }
    }
  }
}

// ---- Shared helpers --------------------------------------------------------

Classification ofType(ScenarioType t) {
  Classification c;
  c.type = t;
  c.overlay = scenarioRule(t).overlay;
  c.cutRisk = scenarioRule(t).cutRisk;
  return c;
}

/// Brute-force minimum over every k^n coloring, costs read through the
/// graph's active spec (the same table the production code charges).
std::int64_t bruteForceMin(const OverlayConstraintGraph& g) {
  const int k = g.colorCount();
  const std::size_t n = g.vertexCount();
  const PatterningSpec* spec = g.patterningSpec();
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  std::vector<int> c(n, 0);
  for (;;) {
    std::int64_t total = 0;
    for (const OcgEdge& e : g.edges()) {
      if (!e.alive) continue;
      if (spec != nullptr && spec->pairOverlay != nullptr) {
        total += spec->pairOverlay(e.cls, c[e.u], c[e.v]);
      } else {
        const Color cu = colorFromIndex(c[e.u]);
        const Color cv = colorFromIndex(c[e.v]);
        const int i = assignmentIndex(cu, cv);
        total += e.cls.overlay[i];
        if (e.cls.cutRisk[i]) total += OverlayConstraintGraph::kCutRiskPenalty;
      }
    }
    best = std::min(best, total);
    std::size_t i = 0;
    while (i < n && ++c[i] == k) c[i++] = 0;
    if (i == n) break;
  }
  return best;
}

/// True cost of the graph's current (fully assigned) coloring under its
/// own spec tables.
std::int64_t achievedCost(const OverlayConstraintGraph& g) {
  const PatterningSpec* spec = g.patterningSpec();
  std::int64_t total = 0;
  for (const OcgEdge& e : g.edges()) {
    if (!e.alive) continue;
    const Color cu = g.colorOf(g.netOf(e.u));
    const Color cv = g.colorOf(g.netOf(e.v));
    if (spec != nullptr && spec->pairOverlay != nullptr) {
      total += spec->pairOverlay(e.cls, colorIndex(cu), colorIndex(cv));
    } else {
      const int i = assignmentIndex(cu, cv);
      total += e.cls.overlay[i];
      if (e.cls.cutRisk[i]) total += OverlayConstraintGraph::kCutRiskPenalty;
    }
  }
  return total;
}

// ---- SADP (k = 2) vs. brute force ------------------------------------------

// Feasibility: the parity DSU flags a hard odd cycle exactly when no
// 2-coloring stays below kHardCost. Hard types here are the full-span
// parity-expressible ones (T1a must-differ, T1b must-same) -- the ones
// addScenario folds into the DSU.
TEST(Sadp2Oracle, HardFeasibilityMatchesBruteForce) {
  std::mt19937 rng(11);
  int infeasibleSeen = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 3 + rng() % 8;  // 3 .. 10 vertices
    OverlayConstraintGraph g;
    for (int e = 0; e < int(n) + 4; ++e) {
      const NetId a = NetId(rng() % n);
      const NetId b = NetId(rng() % n);
      if (a == b) continue;
      const int pick = int(rng() % 3);
      const ScenarioType t = pick == 0   ? ScenarioType::T1a
                             : pick == 1 ? ScenarioType::T1b
                                         : ScenarioType::T2a;
      g.addScenario(a, b, ofType(t));
    }
    const bool feasible = bruteForceMin(g) < kHardCost;
    EXPECT_EQ(g.hasHardViolation(), !feasible) << "trial " << trial;
    if (!feasible) ++infeasibleSeen;
  }
  // The generator must actually exercise both outcomes.
  EXPECT_GT(infeasibleSeen, 5);
  EXPECT_LT(infeasibleSeen, 115);
}

// Optimality: on soft trees the flipping DP (reduce + max spanning tree +
// tree DP, Theorem 4) is exact, so it must land on the brute-force optimum.
TEST(Sadp2Oracle, FlipReachesBruteForceOptimumOnSoftTrees) {
  std::mt19937 rng(13);
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t n = 2 + rng() % 9;  // 2 .. 10 vertices
    OverlayConstraintGraph g;
    for (std::size_t v = 1; v < n; ++v) {
      const NetId parent = NetId(rng() % v);
      Classification c;
      c.type = ScenarioType::T3a;  // soft, material
      for (int& o : c.overlay) o = int(rng() % 6);
      if (c.overlay == std::array<int, 4>{0, 0, 0, 0}) c.overlay[0] = 1;
      g.addScenario(NetId(v), parent, c);
    }
    colorFlip(g);
    EXPECT_EQ(achievedCost(g), bruteForceMin(g)) << "trial " << trial;
  }
}

// Monotonicity on general graphs: whatever coloring the flip starts from,
// it never makes the true cost worse.
TEST(Sadp2Oracle, FlipIsMonotoneOnGeneralGraphs) {
  std::mt19937 rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 3 + rng() % 8;
    OverlayConstraintGraph g;
    for (int e = 0; e < int(n) + 5; ++e) {
      const NetId a = NetId(rng() % n);
      const NetId b = NetId(rng() % n);
      if (a == b) continue;
      Classification c;
      c.type = ScenarioType::T2a;
      for (int& o : c.overlay) o = int(rng() % 4);
      if (c.overlay == std::array<int, 4>{0, 0, 0, 0}) c.overlay[1] = 1;
      g.addScenario(a, b, c);
    }
    for (std::size_t v = 0; v < g.vertexCount(); ++v) {
      g.setColor(g.netOf(std::uint32_t(v)),
                 rng() % 2 ? Color::Second : Color::Core);
    }
    const std::int64_t before = achievedCost(g);
    colorFlip(g);
    EXPECT_LE(achievedCost(g), before) << "trial " << trial;
  }
}

// ---- TPL (k = 3) vs. brute force -------------------------------------------

/// TPL-material scenario types (the spec's material() set).
ScenarioType tplType(std::uint32_t r) {
  static const ScenarioType kTypes[] = {ScenarioType::T1a, ScenarioType::T1b,
                                        ScenarioType::T2a, ScenarioType::T2b,
                                        ScenarioType::T2c, ScenarioType::T3a,
                                        ScenarioType::T3b};
  return kTypes[r % 7];
}

OverlayConstraintGraph makeTplGraph(std::mt19937& rng, std::size_t n,
                                    int edges) {
  OverlayConstraintGraph g(&tpl3Backend().spec());
  for (int e = 0; e < edges; ++e) {
    const NetId a = NetId(rng() % n);
    const NetId b = NetId(rng() % n);
    if (a == b) continue;
    g.addScenario(a, b, ofType(tplType(rng())));
  }
  return g;
}

// Exact optimality: every component of these graphs is within the
// exhaustive branch-and-bound bound (<= 12 classes), so recolor must hit
// the brute-force 3-coloring minimum -- including the infeasible cases,
// where the minimum itself is >= kHardCost.
TEST(Tpl3Oracle, RecolorReachesBruteForceMinimum) {
  std::mt19937 rng(19);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 3 + rng() % 7;  // 3 .. 9 vertices
    OverlayConstraintGraph g = makeTplGraph(rng, n, int(n) + 6);
    if (g.vertexCount() == 0) continue;
    tpl3Backend().recolor(g);
    EXPECT_EQ(achievedCost(g), bruteForceMin(g)) << "trial " << trial;
  }
}

// K4 of must-differ edges is not 3-colorable: the exhaustive pass must
// still find the true minimum (exactly one unavoidable hard pair).
TEST(Tpl3Oracle, InfeasibleCliqueReachesTrueMinimum) {
  OverlayConstraintGraph g(&tpl3Backend().spec());
  for (NetId a = 0; a < 4; ++a) {
    for (NetId b = a + 1; b < 4; ++b) {
      g.addScenario(a, b, ofType(ScenarioType::T1a));
    }
  }
  tpl3Backend().recolor(g);
  const std::int64_t best = bruteForceMin(g);
  EXPECT_GE(best, std::int64_t(kHardCost));
  EXPECT_EQ(achievedCost(g), best);
}

// The E5/E6 seed case: an odd must-differ cycle is fatal at k = 2 and
// free at k = 3.
TEST(Tpl3Oracle, OddMustDifferCycleIsThreeColorable) {
  OverlayConstraintGraph g2;
  g2.addScenario(0, 1, ofType(ScenarioType::T1a));
  g2.addScenario(1, 2, ofType(ScenarioType::T1a));
  g2.addScenario(2, 0, ofType(ScenarioType::T1a));
  EXPECT_TRUE(g2.hasHardViolation());

  OverlayConstraintGraph g3(&tpl3Backend().spec());
  g3.addScenario(0, 1, ofType(ScenarioType::T1a));
  g3.addScenario(1, 2, ofType(ScenarioType::T1a));
  g3.addScenario(2, 0, ofType(ScenarioType::T1a));
  EXPECT_FALSE(g3.hasHardViolation());
  tpl3Backend().recolor(g3);
  EXPECT_EQ(achievedCost(g3), 0);
  EXPECT_NE(g3.colorOf(0), g3.colorOf(1));
  EXPECT_NE(g3.colorOf(1), g3.colorOf(2));
  EXPECT_NE(g3.colorOf(2), g3.colorOf(0));
}

// Large single component (> 12 classes): the greedy + local-search path.
// The square of a path (edges i..i+1 and i..i+2, all must-differ) is
// 3-chromatic, and the deterministic local search must fully resolve it.
TEST(Tpl3Oracle, GreedyPathResolvesTriangleChain) {
  OverlayConstraintGraph g(&tpl3Backend().spec());
  const int n = 30;
  for (int i = 0; i + 1 < n; ++i) {
    g.addScenario(NetId(i), NetId(i + 1), ofType(ScenarioType::T1a));
  }
  for (int i = 0; i + 2 < n; ++i) {
    g.addScenario(NetId(i), NetId(i + 2), ofType(ScenarioType::T1a));
  }
  const FlipStats s = tpl3Backend().recolor(g);
  EXPECT_EQ(s.components, 1);
  EXPECT_EQ(achievedCost(g), 0);
}

// Monotone acceptance: from any full random coloring, recolor never makes
// the true cost worse.
TEST(Tpl3Oracle, RecolorIsMonotone) {
  std::mt19937 rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 4 + rng() % 9;
    OverlayConstraintGraph g = makeTplGraph(rng, n, int(n) + 8);
    for (std::size_t v = 0; v < g.vertexCount(); ++v) {
      g.setColor(g.netOf(std::uint32_t(v)), colorFromIndex(int(rng() % 3)));
    }
    const std::int64_t before = achievedCost(g);
    tpl3Backend().recolor(g);
    EXPECT_LE(achievedCost(g), before) << "trial " << trial;
  }
}

}  // namespace
}  // namespace sadp
