// Overlay-aware A*-search over the gridded routing plane (paper §III-E).
//
// Step cost follows eq. (5): C(j) = C(i) + alpha*wl + beta*via + gamma*T2b,
// where the T2b term discourages steps that would create a type 2-b
// potential overlay scenario (the only scenario whose side overlay is
// unavoidable). Two engineering knobs documented in DESIGN.md: a mild
// wrong-way multiplier keeps wires in the layer's preferred direction, and
// a per-net penalty field implements IncreaseCost() for rip-up & re-route.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "grid/routing_grid.hpp"

namespace sadp {

class Counter;
class Histogram;
class RunContext;

struct AStarParams {
  double alpha = 1.0;        ///< wirelength weight
  double beta = 1.0;         ///< via weight
  double gamma = 1.5;        ///< type 2-b scenario weight
  double wrongWay = 1.5;     ///< multiplier on alpha against preferred dir
  std::int64_t maxExpansions = 4'000'000;  ///< search effort cap

  friend bool operator==(const AStarParams&, const AStarParams&) = default;
};

struct SearchFootprint;  // route/route_memo.hpp: recorded read set

/// Exact power-of-two fixed-point scale for an AStarParams cost model:
/// the smallest 2^shift (shift <= 12) under which alpha, beta and
/// alpha*wrongWay are all integers with zero precision loss (checked by
/// exact double round-trip). deriveFixedCostScale throws
/// std::invalid_argument when no such scale exists (alpha = 1/3, negative
/// or huge weights): the engine has no other cost model to fall back to.
struct FixedCostScale {
  int shift = 0;  ///< scale = 1 << shift
  std::int64_t alphaQ = 0;  ///< alpha * scale
  std::int64_t betaQ = 0;   ///< beta * scale
  std::int64_t wrongQ = 0;  ///< alpha * wrongWay * scale
};
FixedCostScale deriveFixedCostScale(const AStarParams& p);

/// Sparse additive penalty field over grid nodes (rip-up cost increase and
/// the T2b risk field). Values accumulate; negative deltas allowed.
///
/// clear() costs O(cells written since the last clear), not O(grid): add()
/// logs every cell it writes while that cell reads zero, so the log covers
/// every nonzero cell. Once the log would pass 1/kDenseFraction of the
/// grid it stops growing and clear() falls back to one full fill
/// (DESIGN.md §5.9).
class PenaltyField {
 public:
  explicit PenaltyField(const RoutingGrid& grid)
      : grid_(&grid), values_(grid.nodeCount(), 0.0f) {}

  void add(const GridNode& n, float delta) {
    if (!grid_->inBounds(n)) return;
    const std::size_t idx = grid_->index(n);
    float& v = values_[idx];
    if (v == 0.0f && !dense_) {
      if (touched_.size() < values_.size() / kDenseFraction) {
        touched_.push_back(std::uint32_t(idx));
      } else {
        dense_ = true;
      }
    }
    const bool wasNeg = v < 0.0f;
    v += delta;
    negCount_ += static_cast<int>(v < 0.0f) - static_cast<int>(wasNeg);
    if (v > maxSeen_) maxSeen_ = v;
  }
  float at(const GridNode& n) const { return values_[grid_->index(n)]; }
  /// Index-based read for footprint verification (route/route_memo.hpp):
  /// recorded reads store RoutingGrid::index values, and verification is on
  /// the replay hot path.
  float atIndex(std::size_t idx) const { return values_[idx]; }
  void clear() {
    if (dense_) {
      std::fill(values_.begin(), values_.end(), 0.0f);
    } else {
      for (const std::uint32_t idx : touched_) values_[idx] = 0.0f;
    }
    touched_.clear();
    dense_ = false;
    negCount_ = 0;
    maxSeen_ = 0.0f;
  }

  /// True while any cell is currently negative (exact count, maintained
  /// O(1) per add). Bucket-mode A* requires nonnegative step costs, so a
  /// field with negatives forces the integer-heap open list.
  bool hasNegative() const { return negCount_ > 0; }
  /// Monotone upper bound on any value the field has ever held (never
  /// decays on negative deltas) -- used to size the bucket span and to
  /// reject fields the fixed-point cost model cannot hold.
  float maxSeen() const { return maxSeen_; }

 private:
  /// The write log may cover 1/kDenseFraction of the grid before clear()
  /// switches to a full fill.
  static constexpr std::size_t kDenseFraction = 8;

  const RoutingGrid* grid_;
  std::vector<float> values_;
  /// Cells written while reading zero since the last clear (may repeat a
  /// cell that returned to zero); only meaningful while !dense_.
  std::vector<std::uint32_t> touched_;
  bool dense_ = false;  ///< log overflowed: clear() fills every cell
  std::int64_t negCount_ = 0;
  float maxSeen_ = 0.0f;
};

/// Directional T2b risk: separate penalties for entering a cell moving
/// horizontally vs vertically (a vertical step beside a horizontal wire's
/// side can close a tip-to-side @2 relation; a horizontal one cannot).
struct T2bField {
  explicit T2bField(const RoutingGrid& grid)
      : horizontalEntry(grid), verticalEntry(grid) {}
  PenaltyField horizontalEntry;
  PenaltyField verticalEntry;
};

/// Search result: the grid nodes of the path (pin to pin, in order) plus
/// cost accounting.
struct AStarResult {
  std::vector<GridNode> path;
  double cost = 0.0;
  int vias = 0;
  std::int64_t expansions = 0;
};

/// Reusable multi-source / multi-target A* engine over the exact fixed-point
/// cost model (DESIGN.md §5.9.1). Search state arrays are epoch-stamped so
/// repeated route() calls touch only the visited region. The routed net may
/// pass through nodes it already owns (its pins) but not through other nets
/// or blockages.
class AStarEngine {
 public:
  /// Metrics report into ctx (the calling thread's bound context when
  /// null). Counter handles are resolved once here and cached as members,
  /// scoping them to one run -- never function-local statics, which would
  /// pin the first run's registry across contexts.
  explicit AStarEngine(const RoutingGrid& grid, RunContext* ctx = nullptr);

  /// Pops from a Dial bucket queue when its preconditions hold, and from
  /// an integer heap with the identical pop order otherwise (a field holds
  /// a negative value, or the f span needs more than 2^18 buckets); the
  /// result is byte-identical either way. Throws std::invalid_argument when
  /// params have no exact fixed-point scale or a field's quantized peak
  /// passes 2^40.
  std::optional<AStarResult> route(NetId net,
                                   std::span<const GridNode> sources,
                                   std::span<const GridNode> targets,
                                   const AStarParams& params,
                                   const PenaltyField* extra = nullptr,
                                   const T2bField* t2b = nullptr);

  /// Attaches a footprint recorder for the NEXT route() call(s): every cell
  /// the search probes (in-bounds source seeds and neighbor candidates) is
  /// recorded once with its occupancy class and field values. Pass nullptr
  /// to stop recording. Recording is off by default and costs nothing then.
  void setFootprintRecorder(SearchFootprint* fp) { record_ = fp; }

 private:
  struct IntSearchSetup;  // resolved cost model (astar.cpp)
  class BucketOpen;       // Dial bucket queue (astar.cpp)
  class IntHeapOpen;      // integer heap, same pop order (astar.cpp)

  /// BucketOpen entry: a node of its f bucket's intrusive LIFO list.
  struct BucketEntry {
    std::int64_t g;
    std::uint32_t node;
    std::uint32_t next;  ///< entry pushed before it into the same bucket
  };
  /// IntHeapOpen entry; `seq` is the push sequence that breaks f ties.
  struct HeapEntry {
    std::int64_t f;
    std::int64_t g;
    std::uint32_t node;
    std::uint32_t seq;
  };
  /// A passable source node and its f.
  struct Seed {
    std::uint32_t idx;
    std::int64_t f;
  };

  /// kRecord selects the footprint-recording instantiation; the common
  /// non-recording one keeps the expansion loop free of the recordProbe
  /// call site (its mere presence costs ~25% in register spills).
  template <bool kRecord, class Open>
  std::optional<AStarResult> searchFixed(Open& open, NetId net,
                                         std::span<const GridNode> targets,
                                         const IntSearchSetup& su,
                                         AStarResult& result);

  /// Records one probed cell into *record_ (first touch per epoch only).
  void recordProbe(const GridNode& n, NetId net, const PenaltyField* extra,
                   const T2bField* t2b);

  const RoutingGrid* grid_;
  std::vector<std::int64_t> bestQ_;  ///< fixed-point g
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> targetStamp_;
  std::uint32_t epoch_ = 0;
  std::int64_t pushCount_ = 0;  ///< open-list pushes of the current route()
  SearchFootprint* record_ = nullptr;    ///< active footprint recorder
  std::vector<std::uint32_t> recStamp_;  ///< dedup stamps (lazy, record only)
  // Open-list and seed storage: every route() clears it and none of it is
  // freed, so a warm engine allocates nothing per search.
  std::vector<std::uint32_t> bucketHeads_;
  std::vector<BucketEntry> bucketPool_;
  std::vector<HeapEntry> heap_;
  std::vector<Seed> seeds_;
  // Per-engine (hence per-run) metric handles; see ctor comment.
  Counter* routesCounter_;
  Counter* expansionsCounter_;
  Counter* heapPushesCounter_;
  Counter* heapRoutesCounter_;
  Histogram* expansionsPerRoute_;
};

}  // namespace sadp
