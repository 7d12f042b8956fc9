#include "patterning/flipping.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>
#include <unordered_map>

#include "ocg/overlay_model.hpp"

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

  // Dense-index the class roots.
  std::unordered_map<std::uint32_t, std::uint32_t> rootToClass;
  for (std::uint32_t v = 0; v < n; ++v) {
    auto [root, par] = g.hardClassOf(v);
    auto [it, inserted] =
        rootToClass.try_emplace(root, std::uint32_t(rootToClass.size()));
    rg.classIndexOfVertex[v] = it->second;
    rg.parityOfVertex[v] = par;
    if (inserted) rg.classColor.push_back(Color::Unassigned);
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
/// path halving.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t(0));
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

}  // namespace

namespace {

/// Eq. (4) tree DP over one component, on component-local class indices
/// (`localOf` maps a class to its index in `classes`, the component's
/// sorted class list). Tree adjacency keeps `treeEdges` order and the DFS
/// pops children in reverse push order, so traversal and tie-breaks are a
/// function of the component alone. Returns the colors by local index;
/// every table, the result included, is O(component).
std::vector<Color> treeDp(const ReducedGraph& rg,
                          std::span<const std::size_t> treeEdges,
                          std::span<const std::uint32_t> classes,
                          std::span<const std::uint32_t> localOf,
                          std::uint32_t root) {
  const std::size_t n = classes.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t ei : treeEdges) {
    adj[localOf[rg.edges[ei].u]].push_back(ei);
    adj[localOf[rg.edges[ei].v]].push_back(ei);
  }
  // Iterative DFS order from the root.
  struct Visit {
    std::uint32_t node;
    std::uint32_t parent;
    std::size_t parentEdge;
  };
  std::vector<Visit> order;
  std::vector<Visit> stack;
  stack.push_back({root, std::uint32_t(-1), 0});
  std::vector<char> seen(n, 0);
  while (!stack.empty()) {
    Visit v = stack.back();
    stack.pop_back();
    if (seen[v.node]) continue;
    seen[v.node] = 1;
    order.push_back(v);
    for (std::size_t ei : adj[v.node]) {
      const ReducedEdge& e = rg.edges[ei];
      const std::uint32_t next = localOf[e.u] == v.node ? localOf[e.v]
                                                        : localOf[e.u];
      if (!seen[next]) stack.push_back({next, v.node, ei});
    }
  }
  // Bottom-up DP, eq. (4): cost[node][c] = selfCost[node][c] + sum over
  // children of min_p (cost[child][p] + edgeCost(c, p)).
  std::vector<std::array<std::int64_t, 2>> cost(n);
  for (std::size_t i = 0; i < n; ++i) cost[i] = rg.selfCost[classes[i]];
  // childBest[childNode][parentColor] = chosen child color
  std::vector<std::array<Color, 2>> childBest(
      n, {Color::Unassigned, Color::Unassigned});
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
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
  // Backtrace from the root.
  std::vector<Color> out(n, Color::Unassigned);
  out[root] = Color(cost[root][0] <= cost[root][1] ? 0 : 1);
  for (const Visit& v : order) {
    if (v.parent == std::uint32_t(-1)) continue;
    const Color pc = out[v.parent];
    assert(pc != Color::Unassigned);
    out[v.node] = childBest[v.node][int(pc)];
  }
  return out;
}

}  // namespace

FlipStats colorFlip(OverlayConstraintGraph& g) {
  FlipStats stats;
  ReducedGraph rg = reduceGraph(g);
  if (rg.classCount() == 0) return stats;

  // Components over all reduced edges.
  Dsu comp(rg.classCount());
  for (const ReducedEdge& e : rg.edges) comp.unite(e.u, e.v);
  std::unordered_map<std::size_t, std::vector<std::size_t>> edgesOfComp;
  for (std::size_t ei = 0; ei < rg.edges.size(); ++ei) {
    edgesOfComp[comp.find(rg.edges[ei].u)].push_back(ei);
  }

  // Component-local class index, so every per-component table below is
  // sized by the component, not the layer. Each class belongs to one
  // component, so entries are written once and never need resetting.
  std::vector<std::uint32_t> localOf(rg.classCount());
  std::vector<Color> newColors = rg.classColor;  // start from current
  for (auto& [root, compEdges] : edgesOfComp) {
    ++stats.components;
    // Cost of the component under the current coloring. A component with
    // uncolored classes has no meaningful "before": always take the DP.
    std::int64_t before = 0;
    bool anyUncolored = false;
    std::vector<std::uint32_t> compClasses;
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
    std::vector<std::size_t> sorted = compEdges;
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return rg.edges[a].weight > rg.edges[b].weight;
    });
    Dsu mst(compClasses.size());
    std::vector<std::size_t> treeEdges;
    for (std::size_t ei : sorted) {
      if (mst.unite(localOf[rg.edges[ei].u], localOf[rg.edges[ei].v])) {
        treeEdges.push_back(ei);
      }
    }

    const std::vector<Color> dp =
        treeDp(rg, treeEdges, compClasses, localOf, localOf[root]);
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

FlipStats colorFlipAll(OverlayModel& model) {
  FlipStats total;
  for (int layer = 0; layer < model.layers(); ++layer) {
    const FlipStats s = colorFlip(model.graph(layer));
    total.costBefore += s.costBefore;
    total.costAfter += s.costAfter;
    total.components += s.components;
    total.componentsImproved += s.componentsImproved;
  }
  return total;
}

}  // namespace sadp
