// Verified A*-search memoization: the mechanism behind incremental ECO
// re-route (DESIGN.md §5.11).
//
// A search is a deterministic function of (sources, targets, params,
// which fields were passed) plus the VALUES of every grid cell it reads:
// the occupancy class of each probed node and, when the fields are live,
// the T2b / penalty values there. A recorded search therefore carries its
// full read footprint; before a replayed run re-executes that search, the
// router compares every recorded read against current state. If all of them match, the search would
// expand the exact same frontier and return the exact same path — so the
// recorded result is reused without searching. Any mismatch (the edit's
// dirty region reached this net) falls back to a real search. This makes
// an ECO replay byte-identical to a cold route of the edited design BY
// CONSTRUCTION: memoization is the only skipped work, and it is only
// skipped when provably unobservable.
//
// Occupancy is recorded as a class relative to the routed net
// ({Free, Self, Other}) rather than a raw NetId, so netlist renumbering
// after a remove-net edit never invalidates (or worse, falsely validates)
// a footprint: A* only ever distinguishes "mine or free" from "blocked".
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geom/geom.hpp"
#include "route/astar.hpp"

namespace sadp {

/// Occupancy of a probed cell relative to the searching net.
enum class CellOwnerClass : std::uint8_t { Free = 0, Self = 1, Other = 2 };

/// One recorded cell read: everything the search can observe at a node.
/// t2bH/t2bV/penalty are zero when the corresponding field was not passed
/// to the search (the usage flags live in SearchMemoKey).
struct SearchCellRead {
  std::uint32_t index = 0;  ///< RoutingGrid::index of the node
  CellOwnerClass owner = CellOwnerClass::Free;
  float t2bH = 0.0f;
  float t2bV = 0.0f;
  float penalty = 0.0f;
};

/// Deduplicated read set of one search. `overflow` marks a search whose
/// footprint exceeded the recording cap; such entries are never replayed.
struct SearchFootprint {
  std::vector<SearchCellRead> reads;
  /// Track-space bounding box of every probed node (x/y union across
  /// layers). On an incremental replay (RouterOptions::replay set) whose
  /// changed regions all miss this box, the per-cell walk is skipped: a
  /// search cannot observe an edit its probes never reached.
  Rect bbox;
  bool overflow = false;
};

/// Identity of one engine.route() call. The fields' global state (peak,
/// negatives) is not part of it: that state only picks between the bucket
/// and heap open lists, which return byte-identical results.
struct SearchMemoKey {
  std::vector<GridNode> sources;
  std::vector<GridNode> targets;
  AStarParams params;
  bool usedT2b = false;
  /// Hash of the rip-up field's full mutation history (every add and
  /// clear since router construction) at search time; 0 when the search
  /// does not read the field or reads it empty, which searches the same
  /// costs. The field is rebuilt from empty by a deterministic event
  /// sequence each run, so equal history means equal contents -- which
  /// lets the changed-region fast path cover penalty-reading searches
  /// without walking their recorded reads.
  std::uint64_t penaltyHistory = 0;

  friend bool operator==(const SearchMemoKey&, const SearchMemoKey&) = default;
};

/// One recorded search: key, footprint, and the result it produced
/// (failures memoize too — an unroutable net stays unroutable for free).
struct SearchMemoEntry {
  SearchMemoKey key;
  SearchFootprint footprint;
  std::optional<AStarResult> result;
};

/// Host interface the router drives during a memoized run. The host keeps
/// per-net call sequences from the previous run; `next` hands back the
/// net's next recorded call in order (nullptr when exhausted or dropped),
/// and `commit` records what actually happened this run — on a verified
/// hit the router commits the recorded entry unchanged, so the store
/// always describes the latest run exactly.
class RouteMemo {
 public:
  virtual ~RouteMemo() = default;
  /// The next recorded engine.route() call of `net` from the previous run.
  /// The pointer stays valid until the next next()/commit() for this net.
  /// On a verified hit the router moves the entry out (a footprint can be
  /// megabytes; copying it per hit would dwarf the verification walk), so
  /// the host must not rely on the entry's contents after returning it.
  virtual SearchMemoEntry* next(NetId net) = 0;
  /// Records one engine.route() call of this run, in call order.
  virtual void commit(NetId net, SearchMemoEntry entry) = 0;
  /// Verified-hit / real-search accounting (observability only).
  virtual void countHit() = 0;
  virtual void countMiss() = 0;
};

}  // namespace sadp
