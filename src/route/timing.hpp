// Net-level static timing analysis for criticality-driven routing
// (ROADMAP: timing/criticality-aware routing mode).
//
// The model is deliberately net-granular: each net is a node whose delay
// is an integer fixed-point function of its (estimated or routed) length
// and via count; a directed edge A -> B means a sink pin of A drives the
// source pin of B (derived by pin proximity, the stand-in for cell
// connectivity our synthetic benchmarks do not carry). Arrival, required
// time and slack propagate over a topological order in pure int64
// arithmetic, so every consumer (net ordering, per-net A* weights, CSV
// fields) is bit-reproducible across platforms and runs.
//
// Criticality is quantized to 1/64 steps (crit64 in [0, 64]): the router
// folds it into AStarParams::wrongWay and beta as multiples of 1/64, which
// stay exactly representable under the A* engine's power-of-two
// fixed-point cost scale (deriveFixedCostScale, at most 2^12). The engine
// has no other cost model: weights off that grid are rejected, not
// rounded.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace sadp {

struct TimingOptions {
  /// Delay units per planar grid step of wirelength.
  std::int64_t delayPerTrack = 1;
  /// Delay units per via (layer change).
  std::int64_t delayPerVia = 4;
  /// Clock period in delay units. 0 = auto: the estimated critical path
  /// plus periodMarginPct percent headroom.
  std::int64_t period = 0;
  /// Headroom of the auto-derived period over the critical path.
  int periodMarginPct = 10;
  /// Sink-to-source proximity (Manhattan tracks, same layer not required)
  /// that creates a timing edge between two nets.
  Track cellRadius = 4;

  friend bool operator==(const TimingOptions&, const TimingOptions&) =
      default;
};

/// Directed timing dependency: `from`'s sink drives `to`'s source.
struct TimingEdge {
  NetId from = kInvalidNet;
  NetId to = kInvalidNet;

  friend bool operator==(const TimingEdge&, const TimingEdge&) = default;
};

/// Structured cycle report: the offending net cycle in walk order,
/// first-net-first (rotation-canonical: the smallest NetId leads).
struct TimingCycleError {
  std::vector<NetId> cycle;
  std::string message;
};

/// Per-net timing numbers, all in integer delay units.
struct NetTiming {
  std::int64_t delay = 0;
  std::int64_t arrival = 0;   ///< latest path delay ending at this net
  std::int64_t required = 0;  ///< latest allowed arrival
  std::int64_t slack = 0;     ///< required - arrival
  int crit64 = 0;             ///< criticality quantized to [0, 64]
};

struct TimingAnalysis {
  std::vector<NetTiming> nets;    ///< by NetId
  std::vector<NetId> topoOrder;   ///< a valid topological order
  std::int64_t criticalPath = 0;  ///< max arrival over all nets
  std::int64_t period = 0;        ///< resolved clock period
  std::int64_t worstSlack = 0;    ///< min slack over all nets
};

/// analyzeTiming outcome: exactly one of analysis/error is meaningful.
struct TimingResult {
  TimingAnalysis analysis;
  std::optional<TimingCycleError> error;

  bool ok() const { return !error.has_value(); }
};

/// Pre-route delay estimate of one net: pin-bbox half-perimeter times
/// delayPerTrack plus one via charge per pin beyond the first (the router
/// needs at least that many layer touches to tie the pins together).
std::int64_t estimateNetDelay(const Net& net, const TimingOptions& opts);

/// estimateNetDelay over a whole netlist, indexed by NetId.
std::vector<std::int64_t> estimateNetDelays(const Netlist& nl,
                                            const TimingOptions& opts);

/// Post-route delay of a committed path.
std::int64_t pathDelay(std::int64_t wirelength, int vias,
                       const TimingOptions& opts);

/// Derives net-to-net timing edges from pin proximity: an edge A -> B for
/// every sink pin (target or tap) of A within opts.cellRadius Manhattan
/// tracks of B's source pin (first candidate locations). Self-edges are
/// dropped, duplicates deduplicated; output is sorted by (from, to). The
/// result may contain cycles -- pass it through pruneTimingCycles before
/// analyzeTiming, or let analyzeTiming report the cycle.
std::vector<TimingEdge> deriveTimingEdges(const Netlist& nl,
                                          const TimingOptions& opts);

/// Deterministically drops a minimal-ish set of edges to make the graph
/// acyclic: edges are processed in sorted (from, to) order and kept only
/// when they do not close a cycle with the edges kept so far. Identical
/// input always yields the identical acyclic subgraph.
std::vector<TimingEdge> pruneTimingCycles(std::size_t netCount,
                                          std::span<const TimingEdge> edges);

/// Full static analysis over `netCount` nets with the given per-net
/// delays (indexed by NetId) and edges. On a cyclic graph the result
/// carries a TimingCycleError naming one cycle and no analysis. Kahn
/// topological sort with ascending-NetId tie-breaking keeps the order --
/// and hence every downstream consumer -- deterministic.
TimingResult analyzeTiming(std::size_t netCount,
                           std::span<const TimingEdge> edges,
                           std::span<const std::int64_t> delays,
                           const TimingOptions& opts);

}  // namespace sadp
