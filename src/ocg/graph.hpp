// Overlay constraint graph (paper §III-B, Fig. 11).
//
// One graph per routing layer (Fig. 17). Vertices are routed nets; each
// edge carries the per-color-assignment side-overlay cost vector of one
// detected potential overlay scenario. Hard constraints (types 1-a / 1-b)
// are additionally tracked in a union-find with parity — the extension of
// the constant-time LELE odd-cycle detection of [18] — which doubles as the
// paper's dummy-vertex device and super-vertex (even-cycle) reduction: all
// vertices of a hard-connected class have mutually fixed relative colors
// and are colored as a unit.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "ocg/parity_dsu.hpp"
#include "ocg/patterning_spec.hpp"
#include "ocg/scenario.hpp"

namespace sadp {

/// One scenario edge of the constraint graph. `u`/`v` are vertex handles
/// (dense indices, not NetIds). The cost array is indexed by
/// assignmentIndex(color(u), color(v)).
struct OcgEdge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  Classification cls;
  bool alive = true;
  /// k == 2 parity edges only: the edge's unite failed (it closes a hard
  /// odd cycle). hardViolations_ counts the alive edges with this set.
  bool contradicted = false;

  bool hard() const { return cls.hard(); }
};

/// Per-layer overlay constraint graph.
class OverlayConstraintGraph {
 public:
  /// Finite penalty (units of w_line) charged to color assignments flagged
  /// as Type-A cut-conflict risks; strong enough to dominate any realistic
  /// overlay trade-off without making the class unsatisfiable (the bitmap
  /// cut-conflict checker provides the hard backstop; see DESIGN.md §5.6).
  static constexpr int kCutRiskPenalty = 50;

  /// `spec` selects the patterning interpretation of scenario edges
  /// (DESIGN.md §5.13); null means the classic 2-color SADP-cut tables and
  /// leaves every code path byte-identical to the pre-backend graph.
  explicit OverlayConstraintGraph(const PatterningSpec* spec = nullptr)
      : spec_(spec), k_(spec ? spec->colorCount : 2) {}

  /// Number of assignable colors under the active patterning spec.
  int colorCount() const { return k_; }
  const PatterningSpec* patterningSpec() const { return spec_; }

  /// Returns (creating if needed) the vertex handle for a net.
  std::uint32_t vertexFor(NetId net);
  /// Vertex handle if the net is present, else -1.
  std::int64_t findVertex(NetId net) const;
  NetId netOf(std::uint32_t vertex) const { return nets_[vertex]; }
  std::size_t vertexCount() const { return nets_.size(); }

  /// Adds a scenario edge between two nets. Trivial classifications are
  /// ignored. Returns false iff the edge is hard and closes an odd cycle of
  /// hard constraints (a hard-overlay violation): the edge is still
  /// recorded so removeNet() can undo it, but the graph is flagged.
  bool addScenario(NetId a, NetId b, const Classification& cls);

  /// Removes every edge incident to a net (rip-up). When a hard edge goes,
  /// only the net's own hard class can split, so only that class is
  /// rebuilt from its surviving edges (see rebuildClass).
  void removeNet(NetId net);

  /// True if some hard odd cycle is currently present.
  bool hasHardViolation() const { return hardViolations_ > 0; }

  // -- Coloring ------------------------------------------------------------

  Color colorOf(NetId net) const;
  /// Assigns the color of `net`; the whole hard-connected class moves with
  /// it so hard constraints stay satisfied by construction.
  void setColor(NetId net, Color c);

  /// Pseudo-coloring (Algorithm 1 line 11): picks the class color for
  /// `net` minimizing the summed cost of all edges incident to the class,
  /// counting only edges whose other endpoint is already colored.
  /// Returns the chosen color.
  Color pseudoColor(NetId net);

  /// First-fit coloring used by the baseline reconstructions: assigns Core
  /// unless that is hard-forbidden against already-colored neighbors, else
  /// Second. No overlay optimization (the published baselines fix colors
  /// when the net is routed without weighing overlay costs).
  Color firstFitColor(NetId net);

  /// Per-vertex color prior added to every coloring decision (pseudo-
  /// coloring and the flipping DP). Used to encode physical knowledge the
  /// pairwise scenario table cannot see, e.g. "an isolated via stub is
  /// safest as a core pattern".
  void setPrior(NetId net, std::int64_t corePrior, std::int64_t secondPrior);
  /// Prior of a vertex under a color (0 if none set).
  std::int64_t priorOf(std::uint32_t vertex, Color c) const;

  /// Cost of one edge under the current coloring; uncolored endpoints
  /// contribute their best case. Includes the cut-risk penalty.
  std::int64_t edgeCost(const OcgEdge& e) const;
  /// Pure side-overlay units of one edge under the current coloring
  /// (no cut-risk penalty; kHardCost entries reported as kHardCost).
  int edgeOverlayUnits(const OcgEdge& e) const;

  /// Total side-overlay units over all alive edges under current colors.
  std::int64_t totalOverlayUnits() const;
  /// Side-overlay units contributed by edges incident to one net.
  std::int64_t overlayUnitsOfNet(NetId net) const;
  /// Side-overlay units over all edges incident to any member of the net's
  /// hard class (a class flip moves all of them together, so violation
  /// checks must look class-wide).
  std::int64_t classOverlayUnits(NetId net) const;
  /// Number of alive edges whose current assignment is flagged cutRisk.
  int cutRiskCount() const;

  // -- Introspection for the color-flipping engine --------------------------

  const std::vector<OcgEdge>& edges() const { return edges_; }
  /// Calls fn(edgeIndex) for every alive edge incident to a vertex.
  void forEachEdgeOf(std::uint32_t vertex,
                     const std::function<void(std::size_t)>& fn) const;
  /// Hard-class representative and parity of a vertex (const lookup).
  std::pair<std::uint32_t, std::uint8_t> hardClassOf(std::uint32_t v) const;

  /// Applies colors computed externally (color flipping): colors[i] is the
  /// color for vertex i; Unassigned entries are left untouched.
  void applyColors(const std::vector<Color>& colors);

 private:
  std::int64_t costOfAssignment(const OcgEdge& e, Color cu, Color cv) const;
  /// Rebuilds the hard class whose members are `members` (the class of a
  /// vertex whose incident edges were just killed): resets those elements
  /// to singletons, re-unites the class's alive hard edges in ascending
  /// edge index, and re-roots colors and member lists. The result equals a
  /// whole-graph rebuild (DESIGN.md §5.4).
  void rebuildClass(std::vector<std::uint32_t> members);
  /// Appends the loser class's member list to the winner's after a union.
  void mergeMembers(std::uint32_t winner, std::uint32_t loser);
  Color classColorOf(std::uint32_t vertex) const;
  /// k >= 3 only: recounts must-differ hard edges whose endpoints share an
  /// equality class (each one is a hard-overlay violation).
  void recountDiffViolations();
  /// Hard relation of an edge under the active spec: -1 none, 0 same,
  /// 1 differ. For k == 2 this is hardParity(); for k >= 3 it defers to
  /// spec_->hardRelation.
  int hardRelationOf(const Classification& cls) const;

  static constexpr std::uint32_t kNoVertex = ~std::uint32_t(0);

  std::vector<NetId> nets_;             // vertex -> net
  std::vector<std::uint32_t> idx_;      // net -> vertex, kNoVertex if absent
  std::vector<OcgEdge> edges_;
  std::vector<std::vector<std::uint32_t>> adj_;  // vertex -> edge indices
  /// Hard structure as parities. For k == 2 both relations live here
  /// (rel 1 = must-differ); for k >= 3 only must-same edges do (rel 0 --
  /// "differ" is not a single relation there) and must-differ edges are
  /// tracked in diffEdges_, so every class member has parity 0 to its root.
  mutable ParityDsu hard_;
  /// k >= 3 only: indices of alive hard must-differ edges.
  std::vector<std::uint32_t> diffEdges_;
  /// Color per hard-class representative, indexed by vertex (Unassigned
  /// for non-roots and uncolored classes); vertex color = this ^ parity.
  std::vector<Color> classColor_;
  /// Members of each hard class, indexed by its representative; empty for
  /// non-roots (kept in sync by addScenario/rebuild so pseudoColor is
  /// O(class degree), not O(V)).
  std::vector<std::vector<std::uint32_t>> classMembers_;
  /// Per-vertex color priors {core, second}, {0, 0} when unset; Third has
  /// no prior.
  std::vector<std::array<std::int64_t, 2>> priors_;
  const PatterningSpec* spec_ = nullptr;
  int k_ = 2;
  int hardViolations_ = 0;
};

}  // namespace sadp
