#include "ocg/overlay_model.hpp"

#include <algorithm>

namespace sadp {

namespace {

/// Neighborhood window (in tracks) within which another fragment can still
/// be dependent: gaps up to 2 tracks in each axis (Theorem 1/2).
constexpr Track kNeighborTracks = 3;

}  // namespace

OverlayModel::OverlayModel(int layers, bool mergeTechnique,
                           const PatterningSpec* spec)
    : mergeTechnique_(mergeTechnique), spec_(spec) {
  graphs_.reserve(layers);
  for (int i = 0; i < layers; ++i) graphs_.emplace_back(spec);
  hits_.resize(layers);
  states_.reserve(layers);
  for (int i = 0; i < layers; ++i) {
    states_.emplace_back(/*bucket=*/16);  // 16-track spatial buckets
  }
}

std::vector<Fragment> OverlayModel::fragmentsOf(NetId net,
                                                std::span<const GridNode> path,
                                                int layer) {
  std::vector<Rect> cells;
  for (const GridNode& n : path) {
    if (n.layer != layer) continue;
    cells.push_back(Rect{n.x, n.y, n.x + 1, n.y + 1});
  }
  std::vector<Fragment> out;
  for (const Rect& r : canonicalize(cells)) {
    out.push_back(Fragment{r.xlo, r.ylo, r.xhi, r.yhi, net});
  }
  return out;
}

AddNetResult OverlayModel::addNet(NetId net, std::span<const GridNode> path) {
  AddNetResult result;
  for (int layer = 0; layer < layers(); ++layer) {
    std::vector<Fragment> frags = fragmentsOf(net, path, layer);
    if (frags.empty()) continue;
    LayerState& st = states_[layer];
    OverlayConstraintGraph& g = graphs_[layer];
    g.vertexFor(net);  // a routed net is a vertex even without scenarios
    if (st.byNet.size() <= std::size_t(net)) st.byNet.resize(net + 1);

    for (const Fragment& f : frags) {
      // Classify against existing neighbor fragments.
      const Rect window = fragTrackRect(f).inflated(kNeighborTracks);
      st.index.query(window, [&](const Rect& r, std::uint32_t id) {
        const Fragment& other = st.fragments[id];
        if (other.net == net) return;
        (void)r;
        const Classification cls = classify(f, other);
        const bool kTwo = !spec_ || spec_->colorCount == 2;
        const bool material = (kTwo || !spec_->material)
                                  ? cls.material()
                                  : spec_->material(cls);
        if (!material) return;
        const bool ok = g.addScenario(net, other.net, cls);
        if (cls.type == ScenarioType::T2b) ++result.type2bCount;
        if (!kTwo) {
          // k >= 3: addScenario already judged the spec's hard relations
          // (an unsatisfiable must-differ edge makes it return false); the
          // merge technique is a 2-mask cut-process concept and does not
          // apply.
          if (!ok) {
            result.hardViolation = true;
            result.hardHits.push_back(ScenarioHit{f, other, layer, cls});
          }
          return;
        }
        if (cls.hard()) {
          // Without the merge technique, hard same-color scenarios (which
          // the cut process satisfies by merging + cutting) are violations.
          const bool needsMerge =
              cls.overlay[assignmentIndex(Color::Core, Color::Second)] >=
                  kHardCost &&
              cls.overlay[assignmentIndex(Color::Second, Color::Core)] >=
                  kHardCost;
          // Record hard hits so the router can penalize the region on
          // re-route; an odd cycle (ok == false) flags the violation.
          if (!ok || (!mergeTechnique_ && needsMerge)) {
            result.hardViolation = true;
            result.hardHits.push_back(ScenarioHit{f, other, layer, cls});
          }
        }
      });
      // Store the fragment.
      const std::uint32_t id = std::uint32_t(st.fragments.size());
      st.fragments.push_back(f);
      st.byNet[net].push_back(id);
      st.index.insert(fragTrackRect(f), id);
      hits_[layer].clear();  // hit cache invalid; rebuilt lazily if needed
    }
    // Physical prior: a layer segment consisting only of stubs (via
    // landings) is safest printed by the core mask -- a Second stub relies
    // entirely on neighbors for spacer protection.
    const bool stubOnly =
        std::all_of(frags.begin(), frags.end(), [](const Fragment& f) {
          return f.width() == f.height();
        });
    if (stubOnly) g.setPrior(net, 0, 3);
  }
  return result;
}

void OverlayModel::removeNet(NetId net) {
  for (int layer = 0; layer < layers(); ++layer) {
    LayerState& st = states_[layer];
    if (st.byNet.size() <= std::size_t(net)) continue;
    for (std::uint32_t id : st.byNet[net]) {
      st.index.erase(fragTrackRect(st.fragments[id]), id);
      st.fragments[id].net = kInvalidNet;  // tombstone
    }
    st.byNet[net].clear();
    graphs_[layer].removeNet(net);
  }
}

void OverlayModel::pseudoColor(NetId net) {
  for (int layer = 0; layer < layers(); ++layer) {
    if (graphs_[layer].findVertex(net) >= 0) {
      graphs_[layer].pseudoColor(net);
    }
  }
}

void OverlayModel::firstFitColor(NetId net) {
  for (int layer = 0; layer < layers(); ++layer) {
    if (graphs_[layer].findVertex(net) >= 0) {
      graphs_[layer].firstFitColor(net);
    }
  }
}

std::vector<Fragment> OverlayModel::netFragments(NetId net, int layer) const {
  const LayerState& st = states_[layer];
  std::vector<Fragment> out;
  if (st.byNet.size() <= std::size_t(net)) return out;
  for (std::uint32_t id : st.byNet[net]) out.push_back(st.fragments[id]);
  return out;
}

std::vector<Fragment> OverlayModel::fragmentsInWindow(
    int layer, const Rect& trackWindow) const {
  std::vector<Fragment> out;
  states_[layer].index.query(trackWindow,
                             [&](const Rect&, std::uint32_t id) {
                               const Fragment& f = states_[layer].fragments[id];
                               if (f.net != kInvalidNet) out.push_back(f);
                             });
  return out;
}

std::int64_t OverlayModel::totalOverlayUnits() const {
  std::int64_t total = 0;
  for (const OverlayConstraintGraph& g : graphs_) {
    total += g.totalOverlayUnits();
  }
  return total;
}

std::int64_t OverlayModel::overlayUnitsOfNet(NetId net) const {
  std::int64_t total = 0;
  for (const OverlayConstraintGraph& g : graphs_) {
    total += g.overlayUnitsOfNet(net);
  }
  return total;
}

std::int64_t OverlayModel::classOverlayUnitsOfNet(NetId net) const {
  std::int64_t total = 0;
  for (const OverlayConstraintGraph& g : graphs_) {
    total += g.classOverlayUnits(net);
  }
  return total;
}

bool OverlayModel::hasHardViolation() const {
  return std::any_of(graphs_.begin(), graphs_.end(),
                     [](const OverlayConstraintGraph& g) {
                       return g.hasHardViolation();
                     });
}

}  // namespace sadp
