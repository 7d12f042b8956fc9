// Tests for the overlay constraint graph and its parity union-find
// (odd-cycle detection, super-vertex reduction, pseudo-coloring).
#include "ocg/graph.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <unordered_map>

#include "patterning/backend.hpp"

namespace sadp {
namespace {

Classification hardDiff() {
  Classification c;
  c.type = ScenarioType::T1a;
  c.overlay = {kHardCost, 0, 0, kHardCost};
  return c;
}

Classification hardSame() {
  Classification c;
  c.type = ScenarioType::T1b;
  c.overlay = {0, kHardCost, kHardCost, 0};
  return c;
}

Classification nonhard(int cc, int cs, int sc, int ss,
                       ScenarioType t = ScenarioType::T3a) {
  Classification c;
  c.type = t;
  c.overlay = {cc, cs, sc, ss};
  return c;
}

TEST(ParityDsu, UniteAndContradiction) {
  ParityDsu d;
  EXPECT_TRUE(d.unite(0, 1, 1));  // different
  EXPECT_TRUE(d.unite(1, 2, 1));  // different -> 0 and 2 same
  EXPECT_FALSE(d.contradicts(0, 2, 0));
  EXPECT_TRUE(d.contradicts(0, 2, 1));
  // Odd cycle: 0-2 must now be same; requiring different fails.
  EXPECT_FALSE(d.unite(0, 2, 1));
  EXPECT_TRUE(d.unite(0, 2, 0));
}

TEST(ParityDsu, LongChainParity) {
  ParityDsu d;
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(d.unite(i, i + 1, 1));
  }
  auto [r0, p0] = d.find(0);
  auto [r100, p100] = d.find(100);
  EXPECT_EQ(r0, r100);
  EXPECT_EQ(p0, p100);  // 100 flips = even -> same color
  auto [r99, p99] = d.find(99);
  EXPECT_EQ(r99, r0);
  EXPECT_NE(p99, p0);
}

TEST(Ocg, HardOddCycleDetected) {
  OverlayConstraintGraph g;
  EXPECT_TRUE(g.addScenario(1, 2, hardDiff()));
  EXPECT_TRUE(g.addScenario(2, 3, hardDiff()));
  // Triangle of "different" constraints is not 2-colorable.
  EXPECT_FALSE(g.addScenario(3, 1, hardDiff()));
  EXPECT_TRUE(g.hasHardViolation());
}

TEST(Ocg, MixedHardCycleParity) {
  OverlayConstraintGraph g;
  // A-B different, B-C same, C-A different: A!=B, B==C, C!=A -> consistent
  // (A != B == C != A holds: A different from both).
  EXPECT_TRUE(g.addScenario(1, 2, hardDiff()));
  EXPECT_TRUE(g.addScenario(2, 3, hardSame()));
  EXPECT_TRUE(g.addScenario(3, 1, hardDiff()));
  EXPECT_FALSE(g.hasHardViolation());
  // Now force A==B too: contradiction.
  EXPECT_FALSE(g.addScenario(1, 2, hardSame()));
  EXPECT_TRUE(g.hasHardViolation());
}

TEST(Ocg, RemoveNetClearsViolation) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, hardDiff());
  g.addScenario(2, 3, hardDiff());
  g.addScenario(3, 1, hardDiff());
  EXPECT_TRUE(g.hasHardViolation());
  g.removeNet(3);
  EXPECT_FALSE(g.hasHardViolation());
  // 1 and 2 still constrained.
  g.setColor(1, Color::Core);
  EXPECT_EQ(g.colorOf(2), Color::Second);
}

TEST(Ocg, HardClassColoringPropagates) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, hardDiff());
  g.addScenario(2, 3, hardSame());
  g.setColor(1, Color::Core);
  EXPECT_EQ(g.colorOf(1), Color::Core);
  EXPECT_EQ(g.colorOf(2), Color::Second);
  EXPECT_EQ(g.colorOf(3), Color::Second);
  g.setColor(3, Color::Core);  // flips the whole class
  EXPECT_EQ(g.colorOf(1), Color::Second);
  EXPECT_EQ(g.colorOf(2), Color::Core);
}

TEST(Ocg, PseudoColorPicksCheaperSide) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, nonhard(5, 0, 0, 5));  // prefers different colors
  g.setColor(1, Color::Core);
  const Color c = g.pseudoColor(2);
  EXPECT_EQ(c, Color::Second);
  EXPECT_EQ(g.totalOverlayUnits(), 0);
}

TEST(Ocg, PseudoColorRespectsHardClass) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, hardSame());
  // Net 3 prefers to differ from 2; net 1 is colored Core.
  g.addScenario(2, 3, nonhard(4, 0, 0, 4));
  g.setColor(1, Color::Core);
  g.pseudoColor(3);
  // 2 is Core (same class as 1); 3 should become Second.
  EXPECT_EQ(g.colorOf(2), Color::Core);
  EXPECT_EQ(g.colorOf(3), Color::Second);
}

TEST(Ocg, EdgeCostUnassignedOptimistic) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, nonhard(3, 1, 2, 4));
  // Nothing colored: best case = 1.
  EXPECT_EQ(g.totalOverlayUnits(), 1);
  g.setColor(1, Color::Core);
  // Core row: CC=3, CS=1 -> best 1.
  EXPECT_EQ(g.totalOverlayUnits(), 1);
  g.setColor(2, Color::Core);
  EXPECT_EQ(g.totalOverlayUnits(), 3);
}

TEST(Ocg, MultiEdgesAccumulate) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, nonhard(1, 0, 0, 1));
  g.addScenario(1, 2, nonhard(1, 0, 0, 1));
  g.setColor(1, Color::Core);
  g.setColor(2, Color::Core);
  EXPECT_EQ(g.totalOverlayUnits(), 2);
  EXPECT_EQ(g.overlayUnitsOfNet(1), 2);
}

TEST(Ocg, TrivialScenarioIgnored) {
  OverlayConstraintGraph g;
  Classification c;
  c.type = ScenarioType::T2c;
  g.addScenario(1, 2, c);
  EXPECT_EQ(g.vertexCount(), 0u);
}

TEST(Ocg, CutRiskCountsUnderAssignment) {
  OverlayConstraintGraph g;
  Classification c = nonhard(0, 2, 2, 0, ScenarioType::T2a);
  c.cutRisk = {false, true, true, false};
  g.addScenario(1, 2, c);
  g.setColor(1, Color::Core);
  g.setColor(2, Color::Second);
  EXPECT_EQ(g.cutRiskCount(), 1);
  g.setColor(2, Color::Core);
  EXPECT_EQ(g.cutRiskCount(), 0);
}

TEST(Ocg, RemoveNetKeepsOtherColors) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, hardDiff());
  g.addScenario(3, 4, hardDiff());
  g.setColor(1, Color::Core);
  g.setColor(3, Color::Second);
  g.removeNet(2);
  EXPECT_EQ(g.colorOf(1), Color::Core);
  EXPECT_EQ(g.colorOf(3), Color::Second);
  EXPECT_EQ(g.colorOf(4), Color::Core);
}

// ---------------------------------------------------------------------
// Removal equivalence: removeNet rebuilds only the removed vertex's hard
// class. The reference below is the whole-graph rebuild removeNet used to
// run on every hard removal -- fresh singletons, every alive hard edge
// re-united in ascending edge index, colors carried through a per-vertex
// snapshot (last write wins in ascending vertex order) -- re-derived from
// the graph's public state. After every removal the class-local result
// must match it exactly: roots, parities, colors and the violation flag.

/// What the whole-graph rebuild leaves behind, per vertex.
struct RebuildReference {
  std::vector<std::pair<std::uint32_t, std::uint8_t>> classOf;
  std::vector<Color> color;
  bool violation = false;
};

std::optional<std::uint8_t> referenceParity(const Classification& cls) {
  bool f[4];
  for (int i = 0; i < 4; ++i) f[i] = cls.overlay[i] >= kHardCost;
  if (f[0] && f[3] && !f[1] && !f[2]) return std::uint8_t(1);
  if (f[1] && f[2] && !f[0] && !f[3]) return std::uint8_t(0);
  return std::nullopt;
}

/// `snapshot` holds every vertex's color just before removeNet; the
/// removed vertex's entry is already cleared when its removal took no
/// hard edge (removeNet's non-hard path drops that color, and the rest of
/// the structure cannot change).
RebuildReference wholeGraphRebuild(const OverlayConstraintGraph& g,
                                   const std::vector<Color>& snapshot) {
  const std::size_t n = g.vertexCount();
  ParityDsu dsu;
  if (n > 0) dsu.ensure(n - 1);
  RebuildReference ref;
  const PatterningSpec* spec = g.patterningSpec();
  if (g.colorCount() == 2) {
    for (const OcgEdge& e : g.edges()) {
      if (!e.alive || !e.hard()) continue;
      const std::optional<std::uint8_t> rel = referenceParity(e.cls);
      if (rel && !dsu.unite(e.u, e.v, *rel)) ref.violation = true;
    }
  } else {
    std::vector<const OcgEdge*> diff;
    for (const OcgEdge& e : g.edges()) {
      if (!e.alive) continue;
      const int rel = spec->hardRelation(e.cls);
      if (rel == 0) dsu.unite(e.u, e.v, 0);
      if (rel == 1) diff.push_back(&e);
    }
    for (const OcgEdge* e : diff) {
      if (dsu.find(e->u).first == dsu.find(e->v).first) ref.violation = true;
    }
  }
  std::unordered_map<std::size_t, Color> rootColor;
  for (std::uint32_t v = 0; v < n; ++v) {
    ref.classOf.emplace_back(std::uint32_t(dsu.find(v).first),
                             dsu.find(v).second);
    if (snapshot[v] == Color::Unassigned) continue;
    auto [root, par] = dsu.find(v);
    rootColor[root] = par ? flippedColor(snapshot[v]) : snapshot[v];
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    auto it = rootColor.find(ref.classOf[v].first);
    const Color c = it == rootColor.end() ? Color::Unassigned : it->second;
    ref.color.push_back(ref.classOf[v].second ? flippedColor(c) : c);
  }
  return ref;
}

/// A k = 3 spec with both hard relations, so equality classes actually
/// merge and split (tpl3 itself has no must-same relation).
int mixedHardRelation(const Classification& cls) {
  return cls.type == ScenarioType::T1b   ? 0
         : cls.type == ScenarioType::T1a ? 1
                                         : -1;
}
std::int64_t mixedPairOverlay(const Classification& cls, int ia, int ib) {
  const int rel = mixedHardRelation(cls);
  if (rel == 0) return ia == ib ? 0 : kHardCost;
  if (rel == 1) return ia == ib ? kHardCost : 0;
  return ia == ib ? 1 : 0;
}
bool mixedMaterial(const Classification& cls) { return !cls.independent(); }
const PatterningSpec kMixedK3{/*colorCount=*/3,
                              /*name=*/"mixed3",
                              /*pairOverlay=*/&mixedPairOverlay,
                              /*pairCutRisk=*/nullptr,
                              /*material=*/&mixedMaterial,
                              /*hardRelation=*/&mixedHardRelation};

/// How much of the removal path a fuzz run reached.
struct RemovalCoverage {
  int hardRemovals = 0;    ///< removals that rebuilt a class
  int violationsSeen = 0;  ///< removals made with a hard violation present
  int classSplits = 0;     ///< removals that split a class of 3+ members
};

/// Random add / recolor / remove / re-add sequences over `nets` nets,
/// checking every removal against the whole-graph reference.
void fuzzRemovals(const PatterningSpec* spec, std::uint32_t seed, int nets,
                  int ops, RemovalCoverage& cov) {
  std::mt19937 rng(seed);
  OverlayConstraintGraph g(spec);
  const int k = g.colorCount();
  const ScenarioType types[] = {ScenarioType::T1a, ScenarioType::T1b,
                                ScenarioType::T2a, ScenarioType::T3a};
  auto randomCls = [&]() {
    if (k > 2) {
      Classification c;
      c.type = types[rng() % 4];
      return c;
    }
    switch (rng() % 5) {
      case 0: return hardDiff();
      case 1: return hardSame();
      case 2:  // single-assignment ban: hard, but no parity relation
        return nonhard(kHardCost, 0, 0, 2, ScenarioType::T2b);
      default:
        return nonhard(int(rng() % 4), int(rng() % 4), int(rng() % 4),
                       int(rng() % 4));
    }
  };
  int removals = 0;
  for (int op = 0; op < ops; ++op) {
    const NetId a = NetId(rng() % std::uint32_t(nets));
    const int kind = int(rng() % 10);
    if (kind < 5) {
      NetId b = NetId(rng() % std::uint32_t(nets));
      if (b == a) b = (b + 1) % nets;
      g.addScenario(a, b, randomCls());
    } else if (kind < 7) {
      if (g.findVertex(a) >= 0) g.pseudoColor(a);
    } else if (kind < 8) {
      g.setColor(a, colorFromIndex(int(rng() % std::uint32_t(k))));
    } else {
      const std::int64_t vi = g.findVertex(a);
      if (vi < 0) continue;
      const std::uint32_t v = std::uint32_t(vi);
      std::vector<Color> snapshot;
      for (std::uint32_t w = 0; w < g.vertexCount(); ++w) {
        snapshot.push_back(g.colorOf(g.netOf(w)));
      }
      bool removedHard = false;
      for (const OcgEdge& e : g.edges()) {
        if (!e.alive || (e.u != v && e.v != v)) continue;
        removedHard |= k == 2 ? e.hard() : spec->hardRelation(e.cls) >= 0;
      }
      if (!removedHard) snapshot[v] = Color::Unassigned;
      std::vector<std::uint32_t> classmates;
      for (std::uint32_t w = 0; w < g.vertexCount(); ++w) {
        if (w != v && g.hardClassOf(w).first == g.hardClassOf(v).first) {
          classmates.push_back(w);
        }
      }
      cov.hardRemovals += removedHard;
      cov.violationsSeen += g.hasHardViolation();
      g.removeNet(a);
      ++removals;
      for (std::uint32_t w : classmates) {
        if (g.hardClassOf(w).first != g.hardClassOf(classmates[0]).first) {
          ++cov.classSplits;
          break;
        }
      }
      const RebuildReference ref = wholeGraphRebuild(g, snapshot);
      for (std::uint32_t w = 0; w < g.vertexCount(); ++w) {
        ASSERT_EQ(g.hardClassOf(w), ref.classOf[w])
            << "seed " << seed << " op " << op << " vertex " << w;
        ASSERT_EQ(g.colorOf(g.netOf(w)), ref.color[w])
            << "seed " << seed << " op " << op << " vertex " << w;
      }
      ASSERT_EQ(g.hasHardViolation(), ref.violation)
          << "seed " << seed << " op " << op;
    }
  }
  EXPECT_GT(removals, ops / 20) << "seed " << seed;
}

TEST(OcgRemovalEquivalence, TwoColorMatchesWholeGraphRebuild) {
  RemovalCoverage cov;
  for (std::uint32_t seed = 1; seed <= 150; ++seed) {
    fuzzRemovals(nullptr, seed, 6 + int(seed % 24), 400, cov);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(cov.hardRemovals, 1000);
  EXPECT_GT(cov.violationsSeen, 100);
  EXPECT_GT(cov.classSplits, 100);
}

TEST(OcgRemovalEquivalence, Tpl3SpecMatchesWholeGraphRebuild) {
  RemovalCoverage cov;
  for (std::uint32_t seed = 1; seed <= 60; ++seed) {
    fuzzRemovals(&tpl3Backend().spec(), seed, 6 + int(seed % 24), 400, cov);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(cov.hardRemovals, 500);
}

TEST(OcgRemovalEquivalence, MustSameK3SpecMatchesWholeGraphRebuild) {
  RemovalCoverage cov;
  for (std::uint32_t seed = 1; seed <= 60; ++seed) {
    fuzzRemovals(&kMixedK3, seed, 6 + int(seed % 24), 400, cov);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(cov.hardRemovals, 500);
  EXPECT_GT(cov.violationsSeen, 50);
  EXPECT_GT(cov.classSplits, 50);
}

}  // namespace
}  // namespace sadp
