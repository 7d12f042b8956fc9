// Multi-layer gridded routing plane (paper §II-C: "a grid-based routing
// plane" with three routing layers).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "geom/geom.hpp"
#include "grid/design_rules.hpp"

namespace sadp {

/// Identifier of a net; kInvalidNet marks free space, kBlockage an obstacle.
using NetId = std::int32_t;
inline constexpr NetId kInvalidNet = -1;
inline constexpr NetId kBlockageNet = -2;

/// A node of the 3-D routing grid, addressed in track units.
struct GridNode {
  Track x = 0;
  Track y = 0;
  std::int16_t layer = 0;

  friend constexpr bool operator==(const GridNode&, const GridNode&) = default;
};

std::ostream& operator<<(std::ostream& os, const GridNode& n);

/// The gridded routing plane. Layer 0 is horizontal-preferred; preferred
/// directions alternate upward. Each node stores the occupying net (or a
/// blockage marker). The grid also owns the nm<->track transforms.
class RoutingGrid {
 public:
  RoutingGrid(Track width, Track height, int layers, DesignRules rules);

  Track width() const { return width_; }
  Track height() const { return height_; }
  int layers() const { return layers_; }
  const DesignRules& rules() const { return rules_; }

  bool inBounds(const GridNode& n) const {
    return n.x >= 0 && n.x < width_ && n.y >= 0 && n.y < height_ &&
           n.layer >= 0 && n.layer < layers_;
  }

  Orient preferredDir(int layer) const {
    return (layer % 2 == 0) ? Orient::Horizontal : Orient::Vertical;
  }

  /// Linear index of a node; nodes must be in bounds.
  std::size_t index(const GridNode& n) const {
    return (std::size_t(n.layer) * height_ + n.y) * width_ + n.x;
  }
  std::size_t nodeCount() const {
    return std::size_t(layers_) * height_ * width_;
  }
  /// The node at a linear index (the inverse of index()).
  GridNode nodeAt(std::size_t idx) const {
    const std::size_t plane = std::size_t(width_) * std::size_t(height_);
    const std::size_t rem = idx % plane;
    return {Track(rem % std::size_t(width_)), Track(rem / std::size_t(width_)),
            std::int16_t(idx / plane)};
  }

  NetId owner(const GridNode& n) const { return occ_[index(n)]; }
  /// Owner by linear index — footprint verification reads recorded
  /// indices without re-deriving coordinates (route/route_memo.hpp).
  NetId ownerAtIndex(std::size_t idx) const { return occ_[idx]; }
  bool isFree(const GridNode& n) const { return occ_[index(n)] == kInvalidNet; }
  bool isBlocked(const GridNode& n) const {
    return occ_[index(n)] == kBlockageNet;
  }

  /// Claims a node for a net. The node must be free or already owned by the
  /// same net (re-claiming is a no-op).
  void occupy(const GridNode& n, NetId net);
  /// Releases a node owned by `net` (no-op if owned by someone else).
  void release(const GridNode& n, NetId net);
  /// Marks a node as a permanent blockage.
  void block(const GridNode& n) { occ_[index(n)] = kBlockageNet; }
  /// Blocks every node in a track-space box on a layer (half-open box).
  void blockBox(int layer, Track xlo, Track ylo, Track xhi, Track yhi);

  /// Centre of a track node in nm.
  Pt nodeCenterNm(const GridNode& n) const {
    const Nm p = rules_.pitch();
    return {Nm(n.x * p + p / 2), Nm(n.y * p + p / 2)};
  }

  /// Metal rect (width wLine) covering a single grid node, in nm.
  Rect nodeMetalNm(const GridNode& n) const {
    const Pt c = nodeCenterNm(n);
    const Nm h = rules_.wLine / 2;
    return {c.x - h, c.y - h, c.x - h + rules_.wLine, c.y - h + rules_.wLine};
  }

  /// Metal rect (in nm) of the unit wire joining two adjacent same-layer
  /// nodes (they must differ by one track in exactly one axis).
  Rect segmentMetalNm(const GridNode& a, const GridNode& b) const;

  /// Die bounding box in nm.
  Rect dieNm() const {
    const Nm p = rules_.pitch();
    return {0, 0, Nm(width_ * p), Nm(height_ * p)};
  }

  /// Count of nodes owned by real nets (diagnostics).
  std::size_t occupiedCount() const;

  // --- PathFinder negotiated-congestion state (DESIGN.md §5.14) ---
  //
  // During the router's negotiation pre-phase nets share cells instead of
  // occupying them; the grid carries the per-cell sharing count (present
  // cost input) and the accumulated history cost that the iteration folds
  // into the A* penalty field. The arrays are empty until
  // resetCongestion() and cost nothing otherwise.

  /// (Re)allocates and zeroes the usage/history arrays.
  void resetCongestion();
  /// Drops the arrays entirely (post-negotiation: back to zero footprint).
  void clearCongestion();
  /// Nets currently sharing a node.
  std::int32_t usageAt(const GridNode& n) const {
    return negUsage_[index(n)];
  }
  std::int32_t usageAtIndex(std::size_t idx) const { return negUsage_[idx]; }
  /// Adds to a node's sharing count (delta may be negative); out-of-bounds
  /// nodes are ignored. Counts never go below zero.
  void addUsage(const GridNode& n, std::int32_t delta);
  /// Accumulated history cost of a node.
  float historyAtIndex(std::size_t idx) const { return negHistory_[idx]; }
  void addHistory(const GridNode& n, float delta) {
    if (inBounds(n)) negHistory_[index(n)] += delta;
  }
  /// Cells shared by more than one net (the PathFinder overflow measure).
  std::int64_t overflowCount() const;
  /// Linear indices of the overflowed cells, ascending (deterministic
  /// iteration order for history bumps).
  std::vector<std::size_t> overflowedCells() const;

 private:
  Track width_;
  Track height_;
  int layers_;
  DesignRules rules_;
  std::vector<NetId> occ_;
  std::vector<std::int32_t> negUsage_;  ///< negotiation sharing counts
  std::vector<float> negHistory_;       ///< negotiation history costs
};

}  // namespace sadp
