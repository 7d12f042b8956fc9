// Post-routing violation repair (DESIGN.md §5.9), extending the paper's
// Type-B removal (§III-D) past the main loop. Each pass decomposes the
// layers in turn and works each layer's residual cut-conflict and
// hard-overlay boxes: color flips of the nets at a box, then a targeted
// rip-up & re-route of one of them, then (last pass, opt-in) a sacrifice.
// A step is kept only when windowViolations around the box strictly falls.
#include <algorithm>

#include "ocg/scenario.hpp"
#include "route/router.hpp"
#include "run/run_context.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace sadp {

void OverlayAwareRouter::repairViolations() {
  RunContext::Scope bind(*ctx_);
  SADP_SPAN("router.repair");
  for (int pass = 0; pass < kRepairPasses; ++pass) {
    SADP_SPAN_ARG("router.repair_pass", pass);
    bool changed = false;
    for (int layer = 0; layer < grid_->layers(); ++layer) {
      // Decomposed when the loop reaches it, so the boxes see every repair
      // already made on earlier layers (a reroute can move any layer).
      std::shared_ptr<const LayerSummary> full;
      {
        SADP_SPAN_ARG("repair.decompose_layer", layer);
        full = decomposeShared(layer);
      }
      std::vector<Rect> boxes = full->conflictBoxesNm;
      boxes.insert(boxes.end(), full->hardOverlayBoxesNm.begin(),
                   full->hardOverlayBoxesNm.end());
      changed |= repairLayer(layer, boxes, pass + 1 == kRepairPasses);
    }
    if (!changed) break;
  }
}

bool OverlayAwareRouter::repairLayer(int layer, std::span<const Rect> boxesNm,
                                     bool lastPass) {
  const Nm pitch = grid_->rules().pitch();
  OverlayConstraintGraph& g = model_.graph(layer);
  bool changed = false;
  for (const Rect& boxNm : boxesNm) {
    const Rect windowTr{
        Track(boxNm.xlo / pitch - 8), Track(boxNm.ylo / pitch - 8),
        Track(boxNm.xhi / pitch + 9), Track(boxNm.yhi / pitch + 9)};
    int current = windowViolations(layer, windowTr);
    if (current == 0) continue;  // fixed by a previous repair

    // Stage 1: color flips of involved nets.
    std::vector<NetId> candidates;
    const Rect tightTr{
        Track(boxNm.xlo / pitch - 1), Track(boxNm.ylo / pitch - 1),
        Track(boxNm.xhi / pitch + 2), Track(boxNm.yhi / pitch + 2)};
    for (const Fragment& f : model_.fragmentsInWindow(layer, tightTr)) {
      if (std::find(candidates.begin(), candidates.end(), f.net) ==
          candidates.end()) {
        candidates.push_back(f.net);
      }
    }
    for (NetId n : candidates) {
      const Color base = maskColor(g, n);
      // Try every alternative class color in index order; keep the first
      // improvement. At k = 2 the only alternative is flippedColor(base),
      // the old single-flip behavior.
      bool improved = false;
      for (int ci = 0; ci < g.colorCount(); ++ci) {
        const Color alt = colorFromIndex(ci);
        if (alt == base) continue;
        g.setColor(n, alt);
        // Class-wide legality: the flip moves every hard-classmate.
        if (g.classOverlayUnits(n) >= kHardCost) {
          g.setColor(n, base);
          continue;
        }
        const int after = windowViolations(layer, windowTr);
        if (after < current) {
          current = after;
          changed = true;
          counters_.repairFlips->add(1);
          improved = true;
          break;
        }
        g.setColor(n, base);
      }
      if (improved && current == 0) break;
    }
    if (current == 0) continue;

    // Stage 2: targeted rip-up & re-route of one involved net.
    std::sort(candidates.begin(), candidates.end(), [&](NetId a, NetId b) {
      return states_[a].path.size() < states_[b].path.size();
    });
    bool fixed = false;
    for (NetId n : candidates) {
      if (!states_[n].routed) continue;
      if (rerouteAway(netlist_->nets[n], tightTr, layer)) {
        changed = true;
        fixed = true;
        counters_.repairReroutes->add(1);
        break;
      }
    }
    if (fixed || !lastPass) continue;

    // Stage 3 (last pass only): the paper strictly forbids cut conflicts --
    // sacrifice the cheapest involved net rather than ship a conflicting
    // layout. A teardown can also expose neighbors (their spacer provider
    // disappears), so it must prove itself.
    if (opts_.sacrificeForZeroConflicts) {
      for (NetId n : candidates) {
        if (!states_[n].routed) continue;
        const int before = windowViolations(layer, windowTr);
        const std::vector<GridNode> oldPath = states_[n].path;
        tearDownNet(netlist_->nets[n]);
        if (windowViolations(layer, windowTr) < before) {
          changed = true;
          counters_.repairSacrifices->add(1);
          break;
        }
        restoreNet(netlist_->nets[n], oldPath);
      }
    }
  }
  return changed;
}

bool OverlayAwareRouter::rerouteAway(const Net& net, const Rect& avoidTr,
                                     int layer) {
  SADP_SPAN_ARG("router.reroute_away", net.id);
  NetRouteState& st = states_[net.id];
  if (!st.routed) return false;
  const std::vector<GridNode> oldPath = st.path;

  // Local sign-off metric: violations inside the conflict window, summed
  // over every layer, must strictly decrease, or the old route is restored.
  const Rect windowTr = avoidTr.inflated(8);
  auto localViol = [&]() {
    int total = 0;
    for (int l = 0; l < grid_->layers(); ++l) {
      total += windowViolations(l, windowTr);
    }
    return total;
  };
  const int before = localViol();

  tearDownNet(net);
  clearRipUpField();
  for (Track y = avoidTr.ylo; y < avoidTr.yhi; ++y) {
    for (Track x = avoidTr.xlo; x < avoidTr.xhi; ++x) {
      addRipUpPenalty({x, y, std::int16_t(layer)}, 25.0f * kRipUpPenalty);
    }
  }
  if (routeNet(net, /*freshPenaltyField=*/false)) {
    if (localViol() < before) return true;
    tearDownNet(net);  // new route is not an improvement: roll back
  }

  restoreNet(net, oldPath);
  return false;
}

void OverlayAwareRouter::restoreNet(const Net& net,
                                    const std::vector<GridNode>& oldPath) {
  // Re-color through pseudo-coloring (forcing previously captured colors
  // could violate hard classes that changed meanwhile).
  NetRouteState& st = states_[net.id];
  st.path = oldPath;
  occupyPath(net);
  model_.addNet(net.id, st.path);
  model_.pseudoColor(net.id);
  applyT2bMarks(net.id, +1.0f);
  st.vias = 0;
  st.wirelength = std::int64_t(st.path.size()) - 1;
  for (std::size_t i = 1; i < st.path.size(); ++i) {
    if (st.path[i].layer != st.path[i - 1].layer) {
      ++st.vias;
      --st.wirelength;
    }
  }
  stats_.vias += st.vias;
  stats_.wirelength += st.wirelength;
  ++stats_.routedNets;
  st.routed = true;
}

}  // namespace sadp
