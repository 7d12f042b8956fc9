// OverlayModel: the bridge between routed paths and the per-layer overlay
// constraint graphs. It fragments each routed net into maximal rectangles
// (Theorem 3), finds dependent neighbor fragments within d_indep via a
// spatial hash, classifies every pair, and maintains one
// OverlayConstraintGraph per routing layer (Fig. 17).
#pragma once

#include <span>
#include <vector>

#include "ocg/graph.hpp"
#include "ocg/scenario.hpp"

namespace sadp {

/// A scenario instance observed between two concrete fragments.
struct ScenarioHit {
  Fragment a;
  Fragment b;
  int layer = 0;
  Classification cls;
};

/// Outcome of registering one routed net with the model.
struct AddNetResult {
  bool hardViolation = false;  ///< a hard odd cycle appeared on some layer
  /// Fragments of OTHER nets involved in hard scenarios with the new net;
  /// the router raises the cost of the surrounding grid cells before
  /// re-routing (Algorithm 1 line 8).
  std::vector<ScenarioHit> hardHits;
  /// Count of new type 2-b scenarios (unavoidable side overlay).
  int type2bCount = 0;
};

class OverlayModel {
 public:
  /// `mergeTechnique=false` reconstructs routers without the cut-process
  /// merge (e.g. [16]): hard SAME-color scenarios, which are satisfied by
  /// merging patterns and separating them with a cut, are then reported as
  /// hard violations instead. `spec` selects the patterning
  /// interpretation (k colors) of scenario edges; null means the classic
  /// 2-color SADP-cut tables (DESIGN.md §5.13).
  explicit OverlayModel(int layers, bool mergeTechnique = true,
                        const PatterningSpec* spec = nullptr);

  /// Number of assignable colors under the active patterning spec.
  int colorCount() const { return spec_ ? spec_->colorCount : 2; }
  const PatterningSpec* patterningSpec() const { return spec_; }

  int layers() const { return int(graphs_.size()); }

  /// Extracts the per-layer fragments of a path (track-space maximal
  /// rectangles). Exposed for tests and for the mask synthesizer.
  static std::vector<Fragment> fragmentsOf(NetId net,
                                           std::span<const GridNode> path,
                                           int layer);

  /// Registers a routed net. The path is the set of grid nodes the net
  /// occupies (any order). Returns the scenario/violation summary.
  AddNetResult addNet(NetId net, std::span<const GridNode> path);

  /// Removes a net everywhere (rip-up).
  void removeNet(NetId net);

  /// Pseudo-colors the net on every layer it appears on (Alg. 1 line 11).
  void pseudoColor(NetId net);
  /// First-fit colors the net on every layer (baseline reconstructions).
  void firstFitColor(NetId net);

  /// Per-layer constraint graphs.
  OverlayConstraintGraph& graph(int layer) { return graphs_[layer]; }
  const OverlayConstraintGraph& graph(int layer) const {
    return graphs_[layer];
  }

  /// Current fragments of a net on a layer.
  std::vector<Fragment> netFragments(NetId net, int layer) const;

  /// All live fragments intersecting a track-space window on a layer.
  std::vector<Fragment> fragmentsInWindow(int layer,
                                          const Rect& trackWindow) const;

  /// All scenario hits currently alive on a layer (for diagnostics/tests).
  const std::vector<ScenarioHit>& hits(int layer) const {
    return hits_[layer];
  }

  /// Sum of side-overlay units over all layers under current colors.
  std::int64_t totalOverlayUnits() const;
  /// Side-overlay units tied to one net across layers.
  std::int64_t overlayUnitsOfNet(NetId net) const;
  /// Class-wide side-overlay units of the net across layers (see
  /// OverlayConstraintGraph::classOverlayUnits).
  std::int64_t classOverlayUnitsOfNet(NetId net) const;
  bool hasHardViolation() const;

  /// Net color on a layer (segments of one net may differ across layers).
  Color colorOf(NetId net, int layer) const {
    return graphs_[layer].colorOf(net);
  }

 private:
  struct LayerState {
    SpatialHash index;  // fragments in track space
    std::vector<Fragment> fragments;
    std::vector<std::vector<std::uint32_t>> byNet;  // net -> fragment ids
    explicit LayerState(Nm bucket) : index(bucket) {}
  };

  Rect fragTrackRect(const Fragment& f) const {
    return Rect{f.xlo, f.ylo, f.xhi, f.yhi};
  }

  std::vector<OverlayConstraintGraph> graphs_;
  std::vector<LayerState> states_;
  std::vector<std::vector<ScenarioHit>> hits_;
  bool mergeTechnique_ = true;
  const PatterningSpec* spec_ = nullptr;
};

}  // namespace sadp
