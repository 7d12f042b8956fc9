// Linear-time color flipping (paper §III-C, Theorem 4).
//
// Pipeline per the paper, on one per-layer overlay constraint graph:
//   1. super-vertex reduction: every hard-connected class (the parity DSU
//      classes, equivalent to the paper's dummy-vertex + even-cycle
//      reduction) becomes one reduced vertex whose members have fixed
//      relative colors;
//   2. maximum spanning tree over the reduced multigraph, edge weight =
//      worst-case side overlay the scenario can induce (hard edges get a
//      weight above any nonhard edge);
//   3. flipping-graph dynamic program, eq. (4): each reduced vertex splits
//      into a Core and a Second copy; a bottom-up pass computes optimal
//      subtree costs, and a backtrace fixes colors. O(V + E) per component.
//
// Cost of one colorFlip pass over a layer graph with V vertices, E alive
// edges, C classes and E' reduced edges: O(V + E) for the reduction and
// the color write-back, O(C + E') to find the components, and for a
// component with C_k classes and E'_k reduced edges O(E'_k log E'_k) for
// its Kruskal sort plus O(C_k + E'_k) for the DP. Every per-component
// table is indexed by the component's own classes, so a pass never pays
// O(C) per component.
//
// Engineering addition (documented in DESIGN.md): because the DP is only
// optimal when the component is a tree, the new coloring of a component is
// kept only if it does not increase that component's true cost including
// the non-tree edges the MST dropped; otherwise the old colors stay. This
// makes every flip monotone.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ocg/graph.hpp"

namespace sadp {

/// Aggregated edge between two hard-class super-vertices. `cost` is indexed
/// by assignmentIndex(classColorU, classColorV) and already folds in member
/// parities and the cut-risk penalty.
struct ReducedEdge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  std::array<std::int64_t, 4> cost{0, 0, 0, 0};
  std::int64_t weight = 0;  ///< MST significance (max finite cost spread)
  bool hard = false;
};

/// The reduced (super-vertex) view of an overlay constraint graph.
struct ReducedGraph {
  /// Reduced-vertex index for each original vertex.
  std::vector<std::uint32_t> classIndexOfVertex;
  /// Parity of each original vertex inside its class.
  std::vector<std::uint8_t> parityOfVertex;
  /// Current color of each reduced vertex (its class-root color).
  std::vector<Color> classColor;
  /// Cost of intra-class non-hard edges under each class color (asymmetric
  /// scenario rules make the two choices differ even at fixed parity).
  std::vector<std::array<std::int64_t, 2>> selfCost;
  std::vector<ReducedEdge> edges;

  std::size_t classCount() const { return classColor.size(); }
};

/// Builds the reduced graph: one vertex per hard class; all alive edges
/// whose endpoints fall in different classes are aggregated per class pair
/// (parallel scenario edges sum their cost vectors, mirroring the paper's
/// multi-edge OCG).
ReducedGraph reduceGraph(const OverlayConstraintGraph& g);

/// Statistics of one flipping pass.
struct FlipStats {
  std::int64_t costBefore = 0;  ///< total reduced-edge cost before
  std::int64_t costAfter = 0;   ///< total reduced-edge cost after
  int components = 0;           ///< components processed
  int componentsImproved = 0;   ///< components whose coloring changed
};

/// Runs the full flipping pipeline on one constraint graph and applies the
/// resulting colors. Uncolored classes are colored too (the DP treats both
/// options symmetrically).
FlipStats colorFlip(OverlayConstraintGraph& g);

}  // namespace sadp
