// Triple-patterning backend (DESIGN.md §5.13).
//
// Reinterprets the scenario taxonomy over three exposure masks, LPT-style
// (TRIAD; Yu et al.): every hard scenario becomes "must use different
// masks", so the hard structure is equality-free -- the ParityDsu holds
// only singleton classes and an odd cycle of must-differ edges, fatal
// under two colors, is 3-colorable. That is exactly the E5/E6 unroutable
// residue of the SADP cut process this backend exists to absorb.
//
// Recoloring: per connected component of the class graph, an exact
// branch-and-bound enumeration when the component is small (<= 12 classes,
// the oracle-checked regime) and deterministic greedy + local search
// beyond that. Acceptance is monotone like the SADP flipping pass: a
// component keeps its old colors unless the new ones are no worse.
//
// Mask synthesis: one metal plane per color (LayerDecomposition::masks),
// target = their union; overlays are measured from the scenario model
// under the assigned colors (there is no spacer/cut geometry to raster).
#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "patterning/backend.hpp"
#include "run/run_context.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace sadp {

namespace {

constexpr int kPxNm = 10;  ///< raster resolution, matches decompose.cpp

/// Largest component solved by exact enumeration (3^12 with pruning).
constexpr std::size_t kExhaustiveClasses = 12;
constexpr int kLocalSearchPasses = 8;

/// TPL interpretation of each scenario type: cost of printing the pair on
/// the SAME mask (different masks always cost 0 -- separate exposures do
/// not interact). The geometry names are backend-neutral (scenario.hpp);
/// only this table is TPL-specific. @1-track neighbors of any orientation
/// are same-mask-forbidden (sub-resolution pitch on one exposure);
/// @2-track and diagonal neighbors pay a proximity unit on a shared mask.
struct TplRule {
  std::int64_t sameCost = 0;
  bool material = false;
};

TplRule tplRule(ScenarioType t) {
  switch (t) {
    case ScenarioType::T1a:
    case ScenarioType::T1b:
    case ScenarioType::T2c:
      return {kHardCost, true};
    case ScenarioType::T2a:
    case ScenarioType::T2b:
    case ScenarioType::T3a:
    case ScenarioType::T3b:
      return {1, true};
    default:
      return {0, false};
  }
}

std::int64_t tplPairOverlay(const Classification& cls, int ia, int ib) {
  return ia == ib ? tplRule(cls.type).sameCost : 0;
}

bool tplPairCutRisk(const Classification&, int, int) {
  return false;  // no cut mask in the TPL process
}

bool tplMaterial(const Classification& cls) {
  return tplRule(cls.type).material;
}

int tplHardRelation(const Classification& cls) {
  // Hard scenarios all mean "different masks"; TPL has no must-same
  // relation (the cut-process merge technique does not exist here).
  return tplRule(cls.type).sameCost >= kHardCost ? 1 : -1;
}

// ---- Recoloring ------------------------------------------------------------

/// Aggregated inter-class edge: total cost when the classes share a color
/// vs. use different colors (TPL costs depend only on same/differ).
struct PairCost {
  std::uint32_t u = 0;  // dense class ids, u < v
  std::uint32_t v = 0;
  std::int64_t same = 0;
  std::int64_t diff = 0;
};

struct ClassGraph {
  std::vector<std::uint32_t> classOfVertex;  // vertex -> dense class id
  std::vector<std::uint32_t> firstVertex;    // class -> lowest member vertex
  std::vector<PairCost> pairs;
  std::vector<std::vector<std::uint32_t>> adj;  // class -> pair indices
  /// Per-class prior under each color (summed over members).
  std::vector<std::array<std::int64_t, 3>> prior;
  std::int64_t intraConst = 0;  ///< same-class edges: constant cost
};

ClassGraph buildClassGraph(const OverlayConstraintGraph& g) {
  ClassGraph cg;
  const std::size_t n = g.vertexCount();
  cg.classOfVertex.resize(n);
  std::unordered_map<std::uint32_t, std::uint32_t> idOfRoot;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t root = g.hardClassOf(v).first;
    auto [it, inserted] =
        idOfRoot.emplace(root, std::uint32_t(cg.firstVertex.size()));
    if (inserted) cg.firstVertex.push_back(v);
    cg.classOfVertex[v] = it->second;
  }
  const std::size_t C = cg.firstVertex.size();
  cg.adj.resize(C);
  cg.prior.assign(C, {0, 0, 0});
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t c = cg.classOfVertex[v];
    for (int ci = 0; ci < 3; ++ci) {
      cg.prior[c][ci] += g.priorOf(v, colorFromIndex(ci));
    }
  }
  std::unordered_map<std::uint64_t, std::uint32_t> pairIndex;
  for (const OcgEdge& e : g.edges()) {
    if (!e.alive) continue;
    const std::uint32_t cu = cg.classOfVertex[e.u];
    const std::uint32_t cv = cg.classOfVertex[e.v];
    const std::int64_t same = tplPairOverlay(e.cls, 0, 0);
    const std::int64_t diff = tplPairOverlay(e.cls, 0, 1);
    if (cu == cv) {
      // Same equality class: both endpoints always share a color.
      cg.intraConst += same;
      continue;
    }
    const std::uint32_t lo = std::min(cu, cv), hi = std::max(cu, cv);
    const std::uint64_t key = (std::uint64_t(lo) << 32) | hi;
    auto [it, inserted] =
        pairIndex.emplace(key, std::uint32_t(cg.pairs.size()));
    if (inserted) {
      cg.pairs.push_back(PairCost{lo, hi, 0, 0});
      cg.adj[lo].push_back(it->second);
      cg.adj[hi].push_back(it->second);
    }
    cg.pairs[it->second].same += same;
    cg.pairs[it->second].diff += diff;
  }
  return cg;
}

/// Cost of one component under per-class color indices (-1 = unassigned,
/// charged optimistically).
std::int64_t componentCost(const ClassGraph& cg,
                           const std::vector<std::uint32_t>& members,
                           const std::vector<std::uint32_t>& pairIds,
                           const std::vector<int>& color) {
  std::int64_t total = 0;
  for (std::uint32_t pi : pairIds) {
    const PairCost& p = cg.pairs[pi];
    const int a = color[p.u], b = color[p.v];
    if (a < 0 || b < 0) {
      total += std::min(p.same, p.diff);
    } else {
      total += (a == b) ? p.same : p.diff;
    }
  }
  for (std::uint32_t c : members) {
    if (color[c] >= 0) total += cg.prior[c][color[c]];
  }
  return total;
}

/// Exact branch-and-bound over 3^|order| assignments. `order` is the
/// deterministic decision order; `best` holds the incumbent on return.
void exhaustiveAssign(const ClassGraph& cg,
                      const std::vector<std::uint32_t>& order,
                      std::vector<int>& color, std::int64_t partial,
                      std::size_t depth, std::vector<int>& best,
                      std::int64_t& bestCost) {
  if (partial >= bestCost) return;  // bound (costs are non-negative)
  if (depth == order.size()) {
    bestCost = partial;
    best = color;
    return;
  }
  const std::uint32_t c = order[depth];
  for (int ci = 0; ci < 3; ++ci) {
    std::int64_t delta = cg.prior[c][ci];
    for (std::uint32_t pi : cg.adj[c]) {
      const PairCost& p = cg.pairs[pi];
      const std::uint32_t other = (p.u == c) ? p.v : p.u;
      const int oc = color[other];
      if (oc < 0) continue;  // not yet decided: charged at its own turn
      delta += (oc == ci) ? p.same : p.diff;
    }
    color[c] = ci;
    exhaustiveAssign(cg, order, color, partial + delta, depth + 1, best,
                     bestCost);
    color[c] = -1;
  }
}

/// Deterministic greedy + local search for large components.
void greedyAssign(const ClassGraph& cg, const std::vector<std::uint32_t>& order,
                  std::vector<int>& color) {
  auto costAt = [&](std::uint32_t c, int ci) {
    std::int64_t d = cg.prior[c][ci];
    for (std::uint32_t pi : cg.adj[c]) {
      const PairCost& p = cg.pairs[pi];
      const std::uint32_t other = (p.u == c) ? p.v : p.u;
      const int oc = color[other];
      if (oc < 0) continue;
      d += (oc == ci) ? p.same : p.diff;
    }
    return d;
  };
  for (std::uint32_t c : order) {
    int bestCi = 0;
    std::int64_t bestD = costAt(c, 0);
    for (int ci = 1; ci < 3; ++ci) {
      const std::int64_t d = costAt(c, ci);
      if (d < bestD) {
        bestD = d;
        bestCi = ci;
      }
    }
    color[c] = bestCi;
  }
  // Local search to a fixpoint (bounded passes): one-class moves in
  // deterministic order, strict improvement only -- enough to resolve the
  // residual conflicts greedy leaves on odd structures.
  for (int pass = 0; pass < kLocalSearchPasses; ++pass) {
    bool changed = false;
    for (std::uint32_t c : order) {
      const int cur = color[c];
      const std::int64_t curD = costAt(c, cur);
      int bestCi = cur;
      std::int64_t bestD = curD;
      for (int ci = 0; ci < 3; ++ci) {
        if (ci == cur) continue;
        const std::int64_t d = costAt(c, ci);
        if (d < bestD) {
          bestD = d;
          bestCi = ci;
        }
      }
      if (bestCi != cur) {
        color[c] = bestCi;
        changed = true;
      }
    }
    if (!changed) break;
  }
}

// ---- Backend ---------------------------------------------------------------

constexpr std::uint64_t kTpl3SynthId = 0x791a'dc01'0003'0001ull;

class Tpl3Backend final : public PatterningBackend {
 public:
  const PatterningSpec& spec() const override {
    static const PatterningSpec kSpec{/*colorCount=*/3,
                                      /*name=*/"tpl3",
                                      /*pairOverlay=*/&tplPairOverlay,
                                      /*pairCutRisk=*/&tplPairCutRisk,
                                      /*material=*/&tplMaterial,
                                      /*hardRelation=*/&tplHardRelation};
    return kSpec;
  }

  FlipStats recolor(OverlayConstraintGraph& g) const override;

  std::uint64_t synthId() const override { return kTpl3SynthId; }

  LayerDecomposition synthesize(std::span<const ColoredFragment> frags,
                                const DesignRules& rules,
                                const DecomposeOptions& opts) const override;
};

FlipStats Tpl3Backend::recolor(OverlayConstraintGraph& g) const {
  FlipStats stats;
  const std::size_t n = g.vertexCount();
  if (n == 0) return stats;
  const ClassGraph cg = buildClassGraph(g);
  const std::size_t C = cg.firstVertex.size();

  // Current per-class colors (dense index form; -1 = unassigned).
  std::vector<int> current(C, -1);
  for (std::uint32_t c = 0; c < C; ++c) {
    current[c] = colorIndex(g.colorOf(g.netOf(cg.firstVertex[c])));
  }

  // Connected components over inter-class pairs, deterministic by lowest
  // class id.
  std::vector<std::uint32_t> comp(C);
  for (std::uint32_t c = 0; c < C; ++c) comp[c] = c;
  bool mergedAny = true;
  while (mergedAny) {  // label propagation; class graphs are tiny
    mergedAny = false;
    for (const PairCost& p : cg.pairs) {
      const std::uint32_t lo = std::min(comp[p.u], comp[p.v]);
      if (comp[p.u] != lo || comp[p.v] != lo) {
        comp[p.u] = comp[p.v] = lo;
        mergedAny = true;
      }
    }
  }
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> byComp;
  for (std::uint32_t c = 0; c < C; ++c) byComp[comp[c]].push_back(c);
  std::vector<std::uint32_t> compIds;
  for (const auto& [id, members] : byComp) compIds.push_back(id);
  std::sort(compIds.begin(), compIds.end());

  std::vector<int> result = current;
  for (std::uint32_t id : compIds) {
    const std::vector<std::uint32_t>& members = byComp[id];
    ++stats.components;
    // Pair ids local to this component (each pair counted once via u).
    std::vector<std::uint32_t> pairIds;
    for (std::uint32_t c : members) {
      for (std::uint32_t pi : cg.adj[c]) {
        if (cg.pairs[pi].u == c) pairIds.push_back(pi);
      }
    }
    bool anyUncolored = false;
    for (std::uint32_t c : members) anyUncolored |= current[c] < 0;
    const std::int64_t before =
        componentCost(cg, members, pairIds, current);

    // Decision order: degree desc, id asc (deterministic; high-degree
    // first tightens the branch-and-bound and seeds greedy sensibly).
    std::vector<std::uint32_t> order = members;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::size_t da = cg.adj[a].size();
                const std::size_t db = cg.adj[b].size();
                return da != db ? da > db : a < b;
              });

    std::vector<int> trial(C, -1);
    if (members.size() <= kExhaustiveClasses) {
      std::vector<int> scratch(C, -1);
      std::int64_t bestCost = std::numeric_limits<std::int64_t>::max();
      exhaustiveAssign(cg, order, scratch, 0, 0, trial, bestCost);
    } else {
      trial.assign(C, -1);
      greedyAssign(cg, order, trial);
    }
    const std::int64_t after = componentCost(cg, members, pairIds, trial);

    // Monotone acceptance, mirroring the SADP flipping pass.
    if (anyUncolored || after <= before) {
      bool changed = false;
      for (std::uint32_t c : members) {
        if (result[c] != trial[c]) changed = true;
        result[c] = trial[c];
      }
      stats.costBefore += before;
      stats.costAfter += after;
      if (changed) ++stats.componentsImproved;
    } else {
      stats.costBefore += before;
      stats.costAfter += before;
    }
  }
  stats.costBefore += cg.intraConst;
  stats.costAfter += cg.intraConst;

  std::vector<Color> vertexColors(n, Color::Unassigned);
  for (std::uint32_t v = 0; v < n; ++v) {
    const int ci = result[cg.classOfVertex[v]];
    if (ci >= 0) vertexColors[v] = colorFromIndex(ci);
  }
  g.applyColors(vertexColors);
  return stats;
}

LayerDecomposition Tpl3Backend::synthesize(
    std::span<const ColoredFragment> frags, const DesignRules& rules,
    const DecomposeOptions& opts) const {
  RunContext& ctx = opts.ctx ? *opts.ctx : RunContext::current();
  RunContext::Scope bindCtx(ctx);
  // Span/counter names are backend-neutral on purpose: dashboards and the
  // cost-hint fitter aggregate "decompose" regardless of process.
  SADP_SPAN_ARG("decompose", std::int64_t(frags.size()));
  ctx.metrics().counter("decompose.calls").add(1);

  LayerDecomposition out;
  // Window: bounding box of all metal plus margin, aligned to pixels --
  // the same policy as the SADP pipeline so windowed consumers behave
  // identically across backends.
  Rect bbox;
  for (const ColoredFragment& cf : frags) {
    bbox = bbox.unionWith(fragmentMetalNm(cf.frag, rules));
  }
  if (bbox.empty()) bbox = Rect{0, 0, kPxNm, kPxNm};
  const Nm margin = std::max<Nm>(opts.margin, rules.pitch());
  bbox = bbox.inflated(margin);
  bbox.xlo -= bbox.xlo % kPxNm;
  bbox.ylo -= bbox.ylo % kPxNm;
  out.windowNm = bbox;
  const int w = int((bbox.xhi - bbox.xlo + kPxNm - 1) / kPxNm);
  const int h = int((bbox.yhi - bbox.ylo + kPxNm - 1) / kPxNm);

  out.target = Bitmap(w, h);
  out.masks.reserve(3);
  for (int i = 0; i < 3; ++i) out.masks.emplace_back(w, h);
  auto toX = [&](Nm nm) { return int((nm - bbox.xlo) / kPxNm); };
  auto toY = [&](Nm nm) { return int((nm - bbox.ylo) / kPxNm); };
  for (const ColoredFragment& cf : frags) {
    const Rect m = fragmentMetalNm(cf.frag, rules);
    int ci = colorIndex(cf.color);
    if (ci < 0) ci = 0;  // Unassigned defaults to the first mask
    out.masks[ci].fillRect(toX(m.xlo), toY(m.ylo), toX(m.xhi), toY(m.yhi));
    out.target.fillRect(toX(m.xlo), toY(m.ylo), toX(m.xhi), toY(m.yhi));
  }

  // Measurement is model-based: classify every dependent pair and charge
  // the TPL table under the assigned colors. (No spacer/cut rasters exist
  // to measure; cut conflicts are identically zero.)
  for (std::size_t i = 0; i < frags.size(); ++i) {
    for (std::size_t j = i + 1; j < frags.size(); ++j) {
      const Classification cls = classify(frags[i].frag, frags[j].frag);
      if (!tplMaterial(cls)) continue;
      int ci = colorIndex(frags[i].color);
      int cj = colorIndex(frags[j].color);
      if (ci < 0) ci = 0;
      if (cj < 0) cj = 0;
      const std::int64_t units = tplPairOverlay(cls, ci, cj);
      if (units <= 0) continue;
      if (units >= kHardCost) {
        ++out.report.hardOverlays;
        out.hardOverlayBoxesNm.push_back(
            fragmentMetalNm(frags[i].frag, rules)
                .unionWith(fragmentMetalNm(frags[j].frag, rules)));
      } else {
        out.report.sideOverlayNm += units * rules.wLine;
        ++out.report.sideOverlaySections;
      }
    }
  }
  return out;
}

}  // namespace

const PatterningBackend& tpl3Backend() {
  static const Tpl3Backend kBackend;
  return kBackend;
}

}  // namespace sadp
