#include "patterning/flipping.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>
#include <unordered_map>


namespace sadp {

namespace {

constexpr std::int64_t kHardWeight = std::int64_t(kHardCost) * 16;

std::int64_t entryCost(const Classification& cls, int idx) {
  std::int64_t c = cls.overlay[idx];
  if (cls.cutRisk[idx]) c += OverlayConstraintGraph::kCutRiskPenalty;
  return c;
}

}  // namespace

ReducedGraph reduceGraph(const OverlayConstraintGraph& g) {
  ReducedGraph rg;
  const std::size_t n = g.vertexCount();
  rg.classIndexOfVertex.resize(n);
  rg.parityOfVertex.resize(n);

  // Dense-index the class roots in first-seen vertex order.
  constexpr std::uint32_t kNoClass = ~std::uint32_t(0);
  std::vector<std::uint32_t> rootToClass(n, kNoClass);
  for (std::uint32_t v = 0; v < n; ++v) {
    auto [root, par] = g.hardClassOf(v);
    std::uint32_t& cls = rootToClass[root];
    if (cls == kNoClass) {
      cls = std::uint32_t(rg.classColor.size());
      rg.classColor.push_back(Color::Unassigned);
    }
    rg.classIndexOfVertex[v] = cls;
    rg.parityOfVertex[v] = par;
  }
  // Class color = color of any member XOR its parity; read through roots.
  for (std::uint32_t v = 0; v < n; ++v) {
    const Color c = g.colorOf(g.netOf(v));
    if (c == Color::Unassigned) continue;
    const Color rootColor = rg.parityOfVertex[v] ? flippedColor(c) : c;
    rg.classColor[rg.classIndexOfVertex[v]] = rootColor;
  }

  // Aggregate cross-class edges per unordered class pair; intra-class
  // non-hard edges and per-vertex priors contribute per-class self-costs.
  rg.selfCost.assign(rg.classColor.size(), {0, 0});
  for (std::uint32_t v = 0; v < n; ++v) {
    for (int c = 0; c < 2; ++c) {
      const Color vc = rg.parityOfVertex[v]
                           ? flippedColor(Color(c))
                           : Color(c);
      rg.selfCost[rg.classIndexOfVertex[v]][c] += g.priorOf(v, vc);
    }
  }
  // Class pair -> reduced edge. Lookup only: reduced edges are numbered in
  // first-seen order, so the container's iteration order never matters.
  std::unordered_map<std::uint64_t, std::size_t> pairIndex;
  for (const OcgEdge& e : g.edges()) {
    if (!e.alive) continue;
    const std::uint32_t cu = rg.classIndexOfVertex[e.u];
    const std::uint32_t cv = rg.classIndexOfVertex[e.v];
    if (cu == cv) {
      const std::uint8_t pu = rg.parityOfVertex[e.u];
      const std::uint8_t pv = rg.parityOfVertex[e.v];
      for (int c = 0; c < 2; ++c) {
        rg.selfCost[cu][c] += entryCost(e.cls, (c ^ pu) * 2 + (c ^ pv));
      }
      continue;
    }
    const std::uint8_t pu = rg.parityOfVertex[e.u];
    const std::uint8_t pv = rg.parityOfVertex[e.v];
    const bool ordered = cu < cv;
    const auto key = ordered ? std::make_pair(cu, cv) : std::make_pair(cv, cu);
    auto [it, inserted] = pairIndex.try_emplace(
        std::uint64_t(key.first) << 32 | key.second, rg.edges.size());
    if (inserted) {
      ReducedEdge re;
      re.u = key.first;
      re.v = key.second;
      rg.edges.push_back(re);
    }
    ReducedEdge& re = rg.edges[it->second];
    re.hard |= e.hard();
    // Fold member parities: class assignment (a, b) on (re.u, re.v) means
    // vertex colors (a ^ p, b ^ p'); map to the edge's (u, v) order.
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        const int au = (ordered ? a : b) ^ pu;  // color index of e.u
        const int bv = (ordered ? b : a) ^ pv;  // color index of e.v
        re.cost[a * 2 + b] += entryCost(e.cls, au * 2 + bv);
      }
    }
  }
  // Edge significance: spread between worst and best finite outcome; hard
  // edges always dominate (paper: "a constant larger than any cost").
  for (ReducedEdge& re : rg.edges) {
    std::int64_t lo = re.cost[0], hi = re.cost[0];
    for (std::int64_t c : re.cost) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    re.weight = re.hard ? kHardWeight + (hi - lo) : hi - lo;
  }
  return rg;
}

namespace {

/// Plain union-find for component extraction / Kruskal: union by size with
/// path halving. reset() reuses the storage.
class Dsu {
 public:
  explicit Dsu(std::size_t n = 0) { reset(n); }
  void reset(std::size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), std::uint32_t(0));
    size_.assign(n, 1);
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

std::int64_t edgeCostUnder(const ReducedEdge& e, Color cu, Color cv) {
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

struct Visit {
  std::uint32_t node;
  std::uint32_t parent;
  std::size_t parentEdge;
};

/// Per-component tables of one colorFlip call. Each component overwrites
/// what it uses, so storage grows to the largest component and is then
/// reused instead of reallocated.
struct FlipScratch {
  std::vector<std::uint32_t> classes;  ///< the component's sorted classes
  std::vector<std::size_t> sorted;     ///< its edges, heaviest first
  std::vector<std::size_t> treeEdges;  ///< its maximum spanning tree
  Dsu mst;
  std::vector<std::uint32_t> adjStart;  ///< CSR offsets into adj, n + 1
  std::vector<std::uint32_t> adjFill;
  std::vector<std::size_t> adj;  ///< tree edges per node, treeEdges order
  std::vector<Visit> order;
  std::vector<Visit> stack;
  std::vector<char> seen;
  std::vector<std::array<std::int64_t, 2>> cost;
  std::vector<std::array<Color, 2>> childBest;
  std::vector<Color> colors;  ///< treeDp's result by local index
};

/// Eq. (4) tree DP over one component, on component-local class indices
/// (`localOf` maps a class to its index in `s.classes`, the component's
/// sorted class list) and the tree in `s.treeEdges`. Tree adjacency keeps
/// `treeEdges` order and the DFS pops children in reverse push order, so
/// traversal and tie-breaks are a function of the component alone. Leaves
/// the colors by local index in `s.colors`; every table is O(component).
void treeDp(const ReducedGraph& rg, std::span<const std::uint32_t> localOf,
            std::uint32_t root, FlipScratch& s) {
  const std::size_t n = s.classes.size();
  s.adjStart.assign(n + 1, 0);
  for (std::size_t ei : s.treeEdges) {
    ++s.adjStart[localOf[rg.edges[ei].u] + 1];
    ++s.adjStart[localOf[rg.edges[ei].v] + 1];
  }
  for (std::size_t i = 0; i < n; ++i) s.adjStart[i + 1] += s.adjStart[i];
  s.adjFill.assign(s.adjStart.begin(), s.adjStart.end() - 1);
  s.adj.resize(s.adjStart[n]);
  for (std::size_t ei : s.treeEdges) {
    s.adj[s.adjFill[localOf[rg.edges[ei].u]]++] = ei;
    s.adj[s.adjFill[localOf[rg.edges[ei].v]]++] = ei;
  }
  // Iterative DFS order from the root.
  s.order.clear();
  s.stack.clear();
  s.stack.push_back({root, std::uint32_t(-1), 0});
  s.seen.assign(n, 0);
  while (!s.stack.empty()) {
    const Visit v = s.stack.back();
    s.stack.pop_back();
    if (s.seen[v.node]) continue;
    s.seen[v.node] = 1;
    s.order.push_back(v);
    for (std::uint32_t k = s.adjStart[v.node]; k < s.adjStart[v.node + 1];
         ++k) {
      const std::size_t ei = s.adj[k];
      const ReducedEdge& e = rg.edges[ei];
      const std::uint32_t next = localOf[e.u] == v.node ? localOf[e.v]
                                                        : localOf[e.u];
      if (!s.seen[next]) s.stack.push_back({next, v.node, ei});
    }
  }
  // Bottom-up DP, eq. (4): cost[node][c] = selfCost[node][c] + sum over
  // children of min_p (cost[child][p] + edgeCost(c, p)).
  s.cost.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.cost[i] = rg.selfCost[s.classes[i]];
  // childBest[childNode][parentColor] = chosen child color
  s.childBest.assign(n, {Color::Unassigned, Color::Unassigned});
  for (auto it = s.order.rbegin(); it != s.order.rend(); ++it) {
    const Visit& v = *it;
    if (v.parent == std::uint32_t(-1)) continue;
    const ReducedEdge& e = rg.edges[v.parentEdge];
    const bool parentIsU = localOf[e.u] == v.parent;
    for (int pc = 0; pc < 2; ++pc) {
      std::int64_t best = -1;
      Color bestColor = Color::Core;
      for (int cc = 0; cc < 2; ++cc) {
        // Edge cost with the parent's color on the parent endpoint.
        const int idx = parentIsU ? pc * 2 + cc : cc * 2 + pc;
        const std::int64_t total = s.cost[v.node][cc] + e.cost[idx];
        if (best < 0 || total < best) {
          best = total;
          bestColor = Color(cc);
        }
      }
      s.cost[v.parent][pc] += best;
      s.childBest[v.node][pc] = bestColor;
    }
  }
  // Backtrace from the root.
  s.colors.assign(n, Color::Unassigned);
  s.colors[root] = Color(s.cost[root][0] <= s.cost[root][1] ? 0 : 1);
  for (const Visit& v : s.order) {
    if (v.parent == std::uint32_t(-1)) continue;
    const Color pc = s.colors[v.parent];
    assert(pc != Color::Unassigned);
    s.colors[v.node] = s.childBest[v.node][int(pc)];
  }
}

}  // namespace

FlipStats colorFlip(OverlayConstraintGraph& g) {
  FlipStats stats;
  ReducedGraph rg = reduceGraph(g);
  const std::size_t classCount = rg.classCount();
  if (classCount == 0) return stats;

  // Components over all reduced edges, then each component's edges in
  // ascending index order, grouped by root (counting sort). Components
  // are independent, so the order they are visited in changes nothing.
  Dsu comp(classCount);
  for (const ReducedEdge& e : rg.edges) comp.unite(e.u, e.v);
  std::vector<std::uint32_t> compStart(classCount + 1, 0);
  std::vector<std::uint32_t> rootOfEdge(rg.edges.size());
  for (std::size_t ei = 0; ei < rg.edges.size(); ++ei) {
    rootOfEdge[ei] = std::uint32_t(comp.find(rg.edges[ei].u));
    ++compStart[rootOfEdge[ei] + 1];
  }
  for (std::size_t r = 0; r < classCount; ++r) {
    compStart[r + 1] += compStart[r];
  }
  std::vector<std::size_t> compEdgeList(rg.edges.size());
  {
    std::vector<std::uint32_t> fill(compStart.begin(), compStart.end() - 1);
    for (std::size_t ei = 0; ei < rg.edges.size(); ++ei) {
      compEdgeList[fill[rootOfEdge[ei]]++] = ei;
    }
  }

  // Component-local class index, so every per-component table below is
  // sized by the component, not the layer. Each class belongs to one
  // component, so entries are written once and never need resetting.
  std::vector<std::uint32_t> localOf(classCount);
  std::vector<Color> newColors = rg.classColor;  // start from current
  FlipScratch scratch;
  std::vector<std::uint32_t>& compClasses = scratch.classes;
  for (std::size_t root = 0; root < classCount; ++root) {
    const std::span<const std::size_t> compEdges(
        compEdgeList.data() + compStart[root],
        compStart[root + 1] - compStart[root]);
    if (compEdges.empty()) continue;
    ++stats.components;
    // Cost of the component under the current coloring. A component with
    // uncolored classes has no meaningful "before": always take the DP.
    std::int64_t before = 0;
    bool anyUncolored = false;
    compClasses.clear();
    for (std::size_t ei : compEdges) {
      const ReducedEdge& e = rg.edges[ei];
      anyUncolored |= rg.classColor[e.u] == Color::Unassigned ||
                      rg.classColor[e.v] == Color::Unassigned;
      before += edgeCostUnder(e, rg.classColor[e.u], rg.classColor[e.v]);
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
    for (std::size_t i = 0; i < compClasses.size(); ++i) {
      localOf[compClasses[i]] = std::uint32_t(i);
      before += selfCostUnder(compClasses[i], rg.classColor[compClasses[i]]);
    }
    stats.costBefore += before;

    // Maximum spanning tree (Kruskal on descending weight).
    scratch.sorted.assign(compEdges.begin(), compEdges.end());
    std::sort(scratch.sorted.begin(), scratch.sorted.end(),
              [&](std::size_t a, std::size_t b) {
                return rg.edges[a].weight > rg.edges[b].weight;
              });
    scratch.mst.reset(compClasses.size());
    scratch.treeEdges.clear();
    for (std::size_t ei : scratch.sorted) {
      if (scratch.mst.unite(localOf[rg.edges[ei].u],
                            localOf[rg.edges[ei].v])) {
        scratch.treeEdges.push_back(ei);
      }
    }

    treeDp(rg, localOf, localOf[root], scratch);
    const std::vector<Color>& dp = scratch.colors;
    // True component cost under the DP coloring (non-tree edges included).
    std::int64_t after = 0;
    for (std::size_t ei : compEdges) {
      const ReducedEdge& e = rg.edges[ei];
      after += edgeCostUnder(e, dp[localOf[e.u]], dp[localOf[e.v]]);
    }
    for (std::size_t i = 0; i < compClasses.size(); ++i) {
      after += selfCostUnder(compClasses[i], dp[i]);
    }
    if (after <= before || anyUncolored) {
      bool changed = false;
      for (std::size_t i = 0; i < compClasses.size(); ++i) {
        if (dp[i] == Color::Unassigned) continue;
        changed |= dp[i] != newColors[compClasses[i]];
        newColors[compClasses[i]] = dp[i];
      }
      stats.costAfter += after;
      if (changed && after < before) ++stats.componentsImproved;
    } else {
      stats.costAfter += before;
    }
  }

  // Classes untouched by any reduced edge (isolated or intra-only) are
  // optimized directly by their self-cost (ties keep the current color).
  std::vector<char> inComponent(classCount, 0);
  for (const ReducedEdge& e : rg.edges) {
    inComponent[e.u] = 1;
    inComponent[e.v] = 1;
  }
  for (std::size_t c = 0; c < classCount; ++c) {
    if (inComponent[c]) continue;
    const std::int64_t coreCost = rg.selfCost[c][0];
    const std::int64_t secondCost = rg.selfCost[c][1];
    if (newColors[c] == Color::Unassigned || coreCost != secondCost) {
      newColors[c] = coreCost <= secondCost ? Color::Core : Color::Second;
    }
  }

  // Push class colors back to per-vertex colors.
  std::vector<Color> vertexColors(g.vertexCount(), Color::Unassigned);
  for (std::uint32_t v = 0; v < g.vertexCount(); ++v) {
    const Color cc = newColors[rg.classIndexOfVertex[v]];
    if (cc == Color::Unassigned) continue;
    vertexColors[v] = rg.parityOfVertex[v] ? flippedColor(cc) : cc;
  }
  g.applyColors(vertexColors);
  return stats;
}

}  // namespace sadp
