// Tests for the color-flipping engine: super-vertex reduction, maximum
// spanning tree + tree DP (Theorem 4), and brute-force optimality checks.
#include "patterning/flipping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <random>
#include <unordered_map>

namespace sadp {
namespace {

Classification edgeCosts(int cc, int cs, int sc, int ss,
                         ScenarioType t = ScenarioType::T3a) {
  Classification c;
  c.type = t;
  c.overlay = {cc, cs, sc, ss};
  return c;
}

Classification hardDiff() {
  return edgeCosts(kHardCost, 0, 0, kHardCost, ScenarioType::T1a);
}
Classification hardSame() {
  return edgeCosts(0, kHardCost, kHardCost, 0, ScenarioType::T1b);
}

/// Exhaustive minimum total cost over all 2^n vertex colorings.
std::int64_t bruteForceOptimum(const OverlayConstraintGraph& g) {
  const std::size_t n = g.vertexCount();
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::int64_t total = 0;
    for (const OcgEdge& e : g.edges()) {
      if (!e.alive) continue;
      const Color cu = (mask >> e.u) & 1 ? Color::Second : Color::Core;
      const Color cv = (mask >> e.v) & 1 ? Color::Second : Color::Core;
      const int i = assignmentIndex(cu, cv);
      std::int64_t c = e.cls.overlay[i];
      if (e.cls.cutRisk[i]) c += OverlayConstraintGraph::kCutRiskPenalty;
      total += c;
    }
    best = std::min(best, total);
  }
  return best;
}

/// Total true cost of the current coloring of g (all vertices colored).
std::int64_t currentCost(const OverlayConstraintGraph& g) {
  std::int64_t total = 0;
  for (const OcgEdge& e : g.edges()) {
    if (!e.alive) continue;
    const Color cu = g.colorOf(g.netOf(e.u));
    const Color cv = g.colorOf(g.netOf(e.v));
    const int i = assignmentIndex(cu, cv);
    std::int64_t c = e.cls.overlay[i];
    if (e.cls.cutRisk[i]) c += OverlayConstraintGraph::kCutRiskPenalty;
    total += c;
  }
  return total;
}

TEST(Reduce, HardClassesCollapse) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, hardSame());
  g.addScenario(2, 3, hardDiff());
  g.addScenario(3, 4, edgeCosts(1, 0, 0, 1));
  const ReducedGraph rg = reduceGraph(g);
  // {1,2,3} form one hard class; 4 is alone.
  EXPECT_EQ(rg.classCount(), 2u);
  ASSERT_EQ(rg.edges.size(), 1u);
  EXPECT_FALSE(rg.edges[0].hard);
}

TEST(Reduce, ParityFoldsCostVector) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, hardDiff());  // 2 = flipped(1)
  // Edge 2-3 prefers same colors: cost (CC=0, CS=5, SC=5, SS=0).
  g.addScenario(2, 3, edgeCosts(0, 5, 5, 0, ScenarioType::T2a));
  const ReducedGraph rg = reduceGraph(g);
  ASSERT_EQ(rg.edges.size(), 1u);
  // In class space (class of {1,2} keyed by 1's parity): vertex-2 color is
  // the flip of the class color, so the folded cost must prefer the class
  // color DIFFERENT from 3's color.
  const auto& cost = rg.edges[0].cost;
  // Whichever orientation, one diagonal must be {5,5} and the other {0,0}.
  EXPECT_EQ(cost[0], 5);  // class colors equal -> vertex colors differ
  EXPECT_EQ(cost[3], 5);
  EXPECT_EQ(cost[1], 0);
  EXPECT_EQ(cost[2], 0);
}

TEST(Flip, SimpleChainReachesOptimum) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, edgeCosts(3, 0, 0, 3));
  g.addScenario(2, 3, edgeCosts(3, 0, 0, 3));
  g.setColor(1, Color::Core);
  g.setColor(2, Color::Core);
  g.setColor(3, Color::Core);
  EXPECT_EQ(currentCost(g), 6);
  const FlipStats s = colorFlip(g);
  EXPECT_EQ(s.costAfter, bruteForceOptimum(g));
  EXPECT_EQ(currentCost(g), 0);  // alternate coloring
}

TEST(Flip, TreeOptimalityRandomized) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> cost(0, 6);
  for (int iter = 0; iter < 60; ++iter) {
    OverlayConstraintGraph g;
    const int n = 8;
    // Random tree over vertices 0..n-1 (net ids offset by 10).
    for (int v = 1; v < n; ++v) {
      std::uniform_int_distribution<int> parent(0, v - 1);
      g.addScenario(10 + parent(rng), 10 + v,
                    edgeCosts(cost(rng), cost(rng), cost(rng), cost(rng)));
    }
    for (int v = 0; v < n; ++v) {
      g.setColor(10 + v, (iter & 1) ? Color::Core : Color::Second);
    }
    colorFlip(g);
    EXPECT_EQ(currentCost(g), bruteForceOptimum(g)) << "iter " << iter;
  }
}

TEST(Flip, NeverWorsensOnCyclicGraphs) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> cost(0, 6);
  std::uniform_int_distribution<int> vtx(0, 9);
  for (int iter = 0; iter < 60; ++iter) {
    OverlayConstraintGraph g;
    for (int e = 0; e < 14; ++e) {
      int a = vtx(rng), b = vtx(rng);
      if (a == b) continue;
      g.addScenario(100 + a, 100 + b,
                    edgeCosts(cost(rng), cost(rng), cost(rng), cost(rng)));
    }
    for (int v = 0; v < 10; ++v) {
      if (g.findVertex(100 + v) >= 0) {
        g.setColor(100 + v, vtx(rng) % 2 ? Color::Core : Color::Second);
      }
    }
    const std::int64_t before = currentCost(g);
    colorFlip(g);
    const std::int64_t after = currentCost(g);
    EXPECT_LE(after, before) << "iter " << iter;
    // Cyclic graphs: DP is a heuristic; must still never violate hard
    // constraints (none here) and never worsen.
  }
}

TEST(Flip, HardConstraintsAlwaysRespected) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> cost(0, 6);
  for (int iter = 0; iter < 40; ++iter) {
    OverlayConstraintGraph g;
    // Chain of hard edges plus random nonhard chords.
    const int n = 7;
    for (int v = 1; v < n; ++v) {
      g.addScenario(v - 1, v, (v % 2) ? hardDiff() : hardSame());
    }
    std::uniform_int_distribution<int> vtx(0, n - 1);
    for (int e = 0; e < 6; ++e) {
      int a = vtx(rng), b = vtx(rng);
      if (a == b) continue;
      g.addScenario(a, b,
                    edgeCosts(cost(rng), cost(rng), cost(rng), cost(rng)));
    }
    g.setColor(0, Color::Core);
    colorFlip(g);
    // Verify every hard edge satisfied.
    for (const OcgEdge& e : g.edges()) {
      if (!e.alive || !e.cls.hard()) continue;
      const Color cu = g.colorOf(g.netOf(e.u));
      const Color cv = g.colorOf(g.netOf(e.v));
      EXPECT_LT(e.cls.overlay[assignmentIndex(cu, cv)], kHardCost)
          << "iter " << iter;
    }
  }
}

TEST(Flip, ColorsUncoloredVertices) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, edgeCosts(3, 0, 0, 3));
  colorFlip(g);
  EXPECT_NE(g.colorOf(1), Color::Unassigned);
  EXPECT_NE(g.colorOf(2), Color::Unassigned);
  EXPECT_EQ(currentCost(g), 0);
}

TEST(Flip, EmptyGraph) {
  OverlayConstraintGraph g;
  const FlipStats s = colorFlip(g);
  EXPECT_EQ(s.components, 0);
  EXPECT_EQ(s.costBefore, 0);
}

TEST(Flip, MstPrefersSignificantEdges) {
  // Triangle where one edge is far more significant; the DP must satisfy
  // the two heavy edges even at the cost of the light one.
  OverlayConstraintGraph g;
  g.addScenario(1, 2, edgeCosts(9, 0, 0, 9));
  g.addScenario(2, 3, edgeCosts(9, 0, 0, 9));
  g.addScenario(3, 1, edgeCosts(1, 0, 0, 1));  // conflicts with the others
  colorFlip(g);
  EXPECT_EQ(currentCost(g), 1);  // brute-force optimum is 1
  EXPECT_EQ(currentCost(g), bruteForceOptimum(g));
}

// ---------------------------------------------------------------------
// Reference: colorFlip as it was before its tables became component-local
// -- every per-component table (component DSU, MST DSU, DP seen / cost /
// childBest / out, the color write-back) sized and scanned over the whole
// layer's classes, one pass O(components x classes). The production pass
// must reproduce its colors and FlipStats exactly: same Kruskal input
// order, DFS order and tie-breaks.

class ReferenceDsu {
 public:
  explicit ReferenceDsu(std::size_t n) : parent_(n), size_(n, 1) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = std::uint32_t(i);
  }
  std::size_t find(std::size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = std::uint32_t(a);
    size_[a] += size_[b];
    return true;
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

std::int64_t referenceEdgeCostUnder(const ReducedEdge& e, Color cu, Color cv) {
  if (cu == Color::Unassigned || cv == Color::Unassigned) {
    std::int64_t best = e.cost[0];
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        if (cu != Color::Unassigned && int(cu) != a) continue;
        if (cv != Color::Unassigned && int(cv) != b) continue;
        best = std::min(best, e.cost[a * 2 + b]);
      }
    }
    return best;
  }
  return e.cost[int(cu) * 2 + int(cv)];
}

std::vector<Color> referenceTreeDpAssign(
    const ReducedGraph& rg, const std::vector<std::size_t>& treeEdges,
    std::size_t rootClass) {
  std::vector<Color> out(rg.classCount(), Color::Unassigned);
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> adj;
  for (std::size_t ei : treeEdges) {
    adj[rg.edges[ei].u].push_back(ei);
    adj[rg.edges[ei].v].push_back(ei);
  }
  struct Visit {
    std::uint32_t node;
    std::uint32_t parent;
    std::size_t parentEdge;
  };
  std::vector<Visit> order;
  std::vector<Visit> stack;
  stack.push_back({std::uint32_t(rootClass), std::uint32_t(-1), 0});
  std::vector<char> seen(rg.classCount(), 0);
  while (!stack.empty()) {
    Visit v = stack.back();
    stack.pop_back();
    if (seen[v.node]) continue;
    seen[v.node] = 1;
    order.push_back(v);
    for (std::size_t ei : adj[v.node]) {
      const ReducedEdge& e = rg.edges[ei];
      const std::uint32_t next = (e.u == v.node) ? e.v : e.u;
      if (!seen[next]) stack.push_back({next, v.node, ei});
    }
  }
  std::vector<std::array<std::int64_t, 2>> cost(rg.selfCost);
  cost.resize(rg.classCount(), {0, 0});
  std::vector<std::array<Color, 2>> childBest(
      rg.classCount(), {Color::Unassigned, Color::Unassigned});
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Visit& v = *it;
    if (v.parent == std::uint32_t(-1)) continue;
    const ReducedEdge& e = rg.edges[v.parentEdge];
    for (int pc = 0; pc < 2; ++pc) {
      std::int64_t best = -1;
      Color bestColor = Color::Core;
      for (int cc = 0; cc < 2; ++cc) {
        const bool parentIsU = (e.u == v.parent);
        const int idx = parentIsU ? pc * 2 + cc : cc * 2 + pc;
        const std::int64_t total = cost[v.node][cc] + e.cost[idx];
        if (best < 0 || total < best) {
          best = total;
          bestColor = Color(cc);
        }
      }
      cost[v.parent][pc] += best;
      childBest[v.node][pc] = bestColor;
    }
  }
  const int rootColor = cost[rootClass][0] <= cost[rootClass][1] ? 0 : 1;
  out[rootClass] = Color(rootColor);
  for (const Visit& v : order) {
    if (v.parent == std::uint32_t(-1)) continue;
    const Color pc = out[v.parent];
    assert(pc != Color::Unassigned);
    out[v.node] = childBest[v.node][int(pc)];
  }
  return out;
}

FlipStats referenceColorFlip(OverlayConstraintGraph& g) {
  FlipStats stats;
  ReducedGraph rg = reduceGraph(g);
  if (rg.classCount() == 0) return stats;
  ReferenceDsu comp(rg.classCount());
  for (const ReducedEdge& e : rg.edges) comp.unite(e.u, e.v);
  std::unordered_map<std::size_t, std::vector<std::size_t>> edgesOfComp;
  for (std::size_t ei = 0; ei < rg.edges.size(); ++ei) {
    edgesOfComp[comp.find(rg.edges[ei].u)].push_back(ei);
  }
  std::vector<Color> newColors = rg.classColor;
  for (auto& [root, compEdges] : edgesOfComp) {
    ++stats.components;
    std::int64_t before = 0;
    bool anyUncolored = false;
    std::vector<std::uint32_t> compClasses;
    for (std::size_t ei : compEdges) {
      const ReducedEdge& e = rg.edges[ei];
      anyUncolored |= rg.classColor[e.u] == Color::Unassigned ||
                      rg.classColor[e.v] == Color::Unassigned;
      before +=
          referenceEdgeCostUnder(e, rg.classColor[e.u], rg.classColor[e.v]);
      compClasses.push_back(e.u);
      compClasses.push_back(e.v);
    }
    std::sort(compClasses.begin(), compClasses.end());
    compClasses.erase(std::unique(compClasses.begin(), compClasses.end()),
                      compClasses.end());
    auto selfCostUnder = [&](std::uint32_t c, Color col) {
      if (col == Color::Unassigned) {
        return std::min(rg.selfCost[c][0], rg.selfCost[c][1]);
      }
      return rg.selfCost[c][int(col)];
    };
    for (std::uint32_t c : compClasses) {
      before += selfCostUnder(c, rg.classColor[c]);
    }
    stats.costBefore += before;
    std::vector<std::size_t> sorted = compEdges;
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return rg.edges[a].weight > rg.edges[b].weight;
    });
    ReferenceDsu mst(rg.classCount());
    std::vector<std::size_t> treeEdges;
    for (std::size_t ei : sorted) {
      if (mst.unite(rg.edges[ei].u, rg.edges[ei].v)) treeEdges.push_back(ei);
    }
    std::vector<Color> dp = referenceTreeDpAssign(rg, treeEdges, root);
    std::int64_t after = 0;
    for (std::size_t ei : compEdges) {
      const ReducedEdge& e = rg.edges[ei];
      after += referenceEdgeCostUnder(e, dp[e.u], dp[e.v]);
    }
    for (std::uint32_t c : compClasses) after += selfCostUnder(c, dp[c]);
    if (after <= before || anyUncolored) {
      bool changed = false;
      for (std::size_t c = 0; c < rg.classCount(); ++c) {
        if (dp[c] != Color::Unassigned && dp[c] != newColors[c]) {
          changed = true;
        }
        if (dp[c] != Color::Unassigned) newColors[c] = dp[c];
      }
      stats.costAfter += after;
      if (changed && after < before) ++stats.componentsImproved;
    } else {
      stats.costAfter += before;
    }
  }
  std::vector<char> inComponent(rg.classCount(), 0);
  for (const ReducedEdge& e : rg.edges) {
    inComponent[e.u] = 1;
    inComponent[e.v] = 1;
  }
  for (std::size_t c = 0; c < rg.classCount(); ++c) {
    if (inComponent[c]) continue;
    const std::int64_t coreCost = rg.selfCost[c][0];
    const std::int64_t secondCost = rg.selfCost[c][1];
    if (newColors[c] == Color::Unassigned || coreCost != secondCost) {
      newColors[c] = coreCost <= secondCost ? Color::Core : Color::Second;
    }
  }
  std::vector<Color> vertexColors(g.vertexCount(), Color::Unassigned);
  for (std::uint32_t v = 0; v < g.vertexCount(); ++v) {
    const Color cc = newColors[rg.classIndexOfVertex[v]];
    if (cc == Color::Unassigned) continue;
    vertexColors[v] = rg.parityOfVertex[v] ? flippedColor(cc) : cc;
  }
  g.applyColors(vertexColors);
  return stats;
}

/// A layer-like random graph: `clusters` groups of nets with edges only
/// inside a group (so many components), hard chains that merge nets into
/// multi-member classes, cheap costs (MST weight ties are common), cut
/// risks, priors, and a partial coloring. Deterministic in `seed`, so two
/// calls build identical graphs.
OverlayConstraintGraph randomLayerGraph(std::uint32_t seed, int clusters) {
  std::mt19937 rng(seed);
  OverlayConstraintGraph g;
  std::uniform_int_distribution<int> cost(0, 3);
  NetId next = 0;
  for (int c = 0; c < clusters; ++c) {
    const int size = 1 + int(rng() % 12);
    const NetId first = next;
    next += size;
    const int edges = int(rng() % std::uint32_t(3 * size + 1));
    for (int e = 0; e < edges; ++e) {
      const NetId a = first + NetId(rng() % std::uint32_t(size));
      const NetId b = first + NetId(rng() % std::uint32_t(size));
      if (a == b) continue;
      const int kind = int(rng() % 8);
      if (kind == 0) {
        g.addScenario(a, b, hardDiff());
      } else if (kind == 1) {
        g.addScenario(a, b, hardSame());
      } else {
        Classification cls = edgeCosts(cost(rng), cost(rng), cost(rng),
                                       cost(rng), ScenarioType::T2a);
        if (rng() % 5 == 0) cls.cutRisk[rng() % 4] = true;
        g.addScenario(a, b, cls);
      }
    }
    if (rng() % 3 == 0) g.setPrior(first, 0, 3);
  }
  for (std::uint32_t v = 0; v < g.vertexCount(); ++v) {
    const std::uint32_t r = rng() % 4;
    if (r == 0) g.setColor(g.netOf(v), Color::Core);
    if (r == 1) g.setColor(g.netOf(v), Color::Second);
  }
  return g;
}

TEST(FlipReference, ComponentLocalPassMatchesWholeLayerReference) {
  int totalClasses = 0, totalComponents = 0, improved = 0;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    OverlayConstraintGraph g = randomLayerGraph(seed, 40 + int(seed) * 6);
    OverlayConstraintGraph ref = randomLayerGraph(seed, 40 + int(seed) * 6);
    totalClasses += int(reduceGraph(g).classCount());
    std::mt19937 rng(seed * 7919u);
    // Several rounds, perturbing colors between them, so later passes
    // start from DP-made colorings as well as random ones.
    for (int round = 0; round < 3; ++round) {
      const FlipStats s = colorFlip(g);
      const FlipStats r = referenceColorFlip(ref);
      ASSERT_EQ(s.costBefore, r.costBefore) << "seed " << seed;
      ASSERT_EQ(s.costAfter, r.costAfter) << "seed " << seed;
      ASSERT_EQ(s.components, r.components) << "seed " << seed;
      ASSERT_EQ(s.componentsImproved, r.componentsImproved)
          << "seed " << seed;
      ASSERT_EQ(g.vertexCount(), ref.vertexCount());
      for (std::uint32_t v = 0; v < g.vertexCount(); ++v) {
        ASSERT_EQ(g.colorOf(g.netOf(v)), ref.colorOf(ref.netOf(v)))
            << "seed " << seed << " round " << round << " vertex " << v;
      }
      totalComponents += s.components;
      improved += s.componentsImproved;
      for (int k = 0; k < 20 && g.vertexCount() > 0; ++k) {
        const NetId n = g.netOf(rng() % std::uint32_t(g.vertexCount()));
        const Color c = rng() % 2 ? Color::Core : Color::Second;
        g.setColor(n, c);
        ref.setColor(n, c);
      }
    }
  }
  // Hundreds of classes per graph over many components, and the DP must
  // actually have recolored something for the comparison to bite.
  EXPECT_GT(totalClasses, 40 * 200);
  EXPECT_GT(totalComponents, 40 * 3 * 30);
  EXPECT_GT(improved, 100);
}

}  // namespace
}  // namespace sadp
