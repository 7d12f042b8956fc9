// The overlay-aware detailed router: Algorithm 1 of the paper.
//
//   for each net:
//     repeat
//       OverlayAwareAStarSearch          (eq. (5) cost, T2b avoidance)
//       UpdateConstraintGraph            (OverlayModel::addNet)
//       if hard odd cycle or cut conflict:
//         RipUp + IncreaseCost, retry    (bounded by kMaxRipUp)
//     Pseudocoloring                     (greedy class coloring)
//     if SideOverlay(net) > f_threshold: ColorFlipping (net's layers)
//   final ColorFlipping on the full layout
//   violation repair: color flips, then targeted rip-up & re-route
//                                        (route/repair.cpp)
//
// The cut-conflict check is a windowed run of the bitmap mask synthesizer
// around the new net (both color choices are tried); the full-chip
// decomposition after routing is the sign-off measurement.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "patterning/flipping.hpp"
#include "netlist/netlist.hpp"
#include "ocg/overlay_model.hpp"
#include "route/astar.hpp"
#include "route/route_memo.hpp"
#include "route/timing.hpp"
#include "sadp/decompose.hpp"

namespace sadp {

class MaskCache;
class PatterningBackend;  // patterning/backend.hpp
class RunContext;

/// Inclusive upper bounds on RouterOptions::maxNegotiateIters and
/// historyIncrement for CLI and service input. History then stays at most
/// 10^8 per cell, which quantizes under the A* engine's 2^40 field limit
/// at any fixed-point scale it accepts (at most 2^12).
constexpr int kMaxNegotiateIters = 10'000;
constexpr int kMaxHistoryCost = 10'000;

/// Fixed router constants (DESIGN.md §5.9).
constexpr int kMaxRipUp = 3;          ///< rip-up & re-route retries per net
constexpr int kFlipThreshold = 10;    ///< f_threshold (units of w_line)
constexpr float kRipUpPenalty = 6.0f; ///< IncreaseCost() delta per cell
/// Half-window of the local cut check, in tracks. An ECO edit's dirty
/// radius adds it, because the windowed decompose reads that much more.
constexpr Track kCutCheckWindowTracks = 5;
constexpr int kRepairPasses = 3;       ///< flip/reroute repair passes
/// Negotiation's present cost per extra sharer of a cell (DESIGN.md §5.14).
constexpr float kPresentFactor = 2.0f;

/// What an incremental replay knows changed since the run its memo
/// recorded (RouterOptions::replay).
struct ReplayRegions {
  /// A-priori changed regions in track space (the ECO edit's dirty box:
  /// old/new pin cells plus the edited net's previous extent).
  std::vector<Rect> changedSeed;
  /// Previous run's extent (pins + committed path) per current NetId,
  /// noted as changed the first time that net's replay diverges. Empty
  /// rects for nets without history (e.g. freshly added).
  std::vector<Rect> prevNetBoxes;
};

struct RouterOptions {
  AStarParams astar;
  bool enableColorFlip = true; ///< per-net color flipping
  bool finalGlobalFlip = true; ///< full-layout flip after routing
  bool enableT2bAvoidance = true;  ///< gamma term of eq. (5)
  bool enableCutCheck = true;  ///< windowed cut-conflict rip-up trigger
  bool enableRepair = true;    ///< post-pass flip/reroute violation repair
  bool enableMergeOddCycles = true;  ///< allow hard-same classes (cut merges)
  /// Baseline mode: accept nets whose hard constraints cannot be satisfied
  /// instead of ripping them up, and count the violations (the published
  /// baselines report conflicts; our router strictly forbids them).
  bool acceptHardViolations = false;
  /// Baseline mode: first-fit colors instead of cost-aware pseudo-coloring.
  bool naiveColoring = false;
  /// Last-resort repair: unroute a conflict-involved net when neither a
  /// color flip nor a re-route clears the violation. Clears about a third
  /// of the residual conflicts at ~4% routability cost; off by default
  /// because routability is the paper's headline metric.
  bool sacrificeForZeroConflicts = false;
  /// Verified A*-search memoization host for incremental ECO replay
  /// (route/route_memo.hpp). Null = no memoization; results are
  /// byte-identical either way by construction.
  RouteMemo* memo = nullptr;
  /// Replay fast path: when set, trust its regions to cover every grid
  /// cell whose state differs from the run the memo recorded. A recorded
  /// search whose probed bbox misses every changed region (the router
  /// grows the set as the replay diverges) then skips per-cell
  /// verification; the key comparison still applies. Unset = always walk
  /// the footprint; results are byte-identical either way.
  std::optional<ReplayRegions> replay;
  /// Shared summary cache applied to every decomposeLayerShared the router
  /// issues (cut-conflict windows, repair probes, sign-off). Null = off.
  MaskCache* maskCache = nullptr;
  /// Patterning backend (DESIGN.md §5.13): the coloring interpretation,
  /// recoloring pass, and mask synthesis the run uses. Null = the 2-color
  /// SADP cut-process backend, which leaves every code path and output
  /// byte identical to the pre-backend router.
  const PatterningBackend* backend = nullptr;
  /// Timing-driven mode (DESIGN.md §5.14): run net-level static timing
  /// over the netlist (route/timing.hpp), order nets most-critical-first,
  /// and scale per-net A* weights by criticality -- critical nets route
  /// straighter (higher wrong-way cost), slack-rich nets absorb T2b
  /// detours (higher gamma). Off = byte-identical to the classic router.
  bool timingDriven = false;
  /// PathFinder negotiated congestion (DESIGN.md §5.14): a pre-routing
  /// phase where nets share grid cells and iteratively re-route against
  /// present + history congestion costs until no cell is shared (or
  /// maxNegotiateIters). The accumulated history survives into the main
  /// exclusive-occupancy loop as a base penalty field, steering it away
  /// from the contested cells up front. Deterministic and serial: results
  /// stay byte-identical across reruns and ECO replay.
  bool negotiate = false;
  int maxNegotiateIters = 16;     ///< negotiation iteration cap
  float historyIncrement = 1.0f;  ///< history added per overflowed cell/iter
  TimingOptions timing;           ///< delay model / period for timingDriven
};

struct NetRouteState {
  bool routed = false;
  int ripUps = 0;
  int vias = 0;
  std::int64_t wirelength = 0;
  std::vector<GridNode> path;
};

struct RoutingStats {
  int totalNets = 0;
  int routedNets = 0;
  std::int64_t wirelength = 0;  ///< planar grid steps
  int vias = 0;
  int ripUps = 0;
  int hardViolationsAccepted = 0;  ///< only nonzero with acceptHardViolations
  /// Negotiated-congestion accounting (zero unless options.negotiate):
  /// iterations run and residual shared cells when the loop stopped.
  int negotiateIters = 0;
  std::int64_t negotiateOverflow = 0;
  /// Post-route worst slack in delay units (options.timingDriven only;
  /// timingValid distinguishes a computed 0 from "not computed").
  std::int64_t worstSlack = 0;
  bool timingValid = false;
  double routability() const {
    return totalNets == 0 ? 0.0 : 100.0 * routedNets / totalNets;
  }
};

/// One run's result row, as sadp_route_cli --csv appends it and a service
/// route reports it (no trailing newline): nets, routability, side overlay
/// nm, cut conflicts, hard overlays, and the thread count, always 1. Runs
/// that computed slack add worst slack and the negotiation iterations and
/// overflow; other rows stay byte-identical to older builds.
std::string runCsvRow(const RoutingStats& stats, const OverlayReport& report);
/// Exit status of a run: 0 when no cut conflict or hard overlay remains,
/// else 3 (a legal routing outcome, not an error).
int runExitCode(const OverlayReport& report);

class OverlayAwareRouter {
 public:
  /// All metrics and spans of this router report into `ctx` (the calling
  /// thread's bound context when null), so concurrent routers with
  /// distinct contexts are fully isolated.
  OverlayAwareRouter(RoutingGrid& grid, const Netlist& netlist,
                     RouterOptions options = {}, RunContext* ctx = nullptr);

  /// Routes every net; returns aggregate statistics.
  RoutingStats run();

  const OverlayModel& model() const { return model_; }
  OverlayModel& model() { return model_; }
  const RoutingGrid& grid() const { return *grid_; }
  const std::vector<NetRouteState>& netStates() const { return states_; }
  const RoutingStats& stats() const { return stats_; }
  /// Memo hits accepted via the changed-region fast path this run.
  std::int64_t verifySkips() const { return counters_.verifySkips->value(); }
  /// Colored fragments of one layer for mask synthesis / reporting.
  std::vector<ColoredFragment> coloredFragments(int layer) const;

  // Whole-layer requests go through a per-layer record of the last
  // whole-layer decomposition (DESIGN.md §5.9), so these const methods
  // mutate it: one router must not serve them on two threads at once.

  /// Full-chip decomposition of one layer with its mask planes (mask
  /// output, SVG). Moves out the planes the layer's record kept when its
  /// fragments, colors and options are unchanged; else computes them. The
  /// mask cache holds no planes.
  LayerDecomposition decompose(int layer,
                               const DecomposeOptions& opts = {}) const;
  /// Plane-free summary of the same decomposition, as a whole-layer
  /// request: the layer's record when its key is unchanged, else through
  /// the mask cache, where it carries the maskFingerprint.
  std::shared_ptr<const LayerSummary> decomposeShared(
      int layer, const DecomposeOptions& opts = {}) const;
  /// Aggregate physical report over all layers.
  OverlayReport physicalReport(const DecomposeOptions& opts = {}) const;

  /// Post-routing violation repair (extends the Type-B removal of §III-D;
  /// route/repair.cpp): up to kRepairPasses passes over the layers, each
  /// working the layer's residual cut-conflict and hard-overlay boxes
  /// with color flips of involved nets, then a targeted rip-up &
  /// re-route. physicalReport() counts what remains.
  void repairViolations();

 private:
  bool routeNet(const Net& net, bool freshPenaltyField = true);
  /// The A* parameter set a net searches with: opts_.astar, with
  /// wrong-way and gamma scaled by the net's criticality when timing is
  /// on. crit64's 1/64 quantization keeps alpha*wrongWay exactly
  /// representable under the fixed-point scale for the default alpha.
  AStarParams netParams(NetId net) const;
  /// engine_.route() behind the optional RouteMemo: on a verified
  /// footprint match the recorded result is reused without searching.
  std::optional<AStarResult> memoSearch(NetId net,
                                        std::span<const GridNode> sources,
                                        std::span<const GridNode> targets,
                                        const AStarParams& params,
                                        const PenaltyField* extra,
                                        const T2bField* t2b);
  /// Identity of an engine.route() call under current router state
  /// (route/route_memo.hpp).
  SearchMemoKey makeSearchKey(std::span<const GridNode> sources,
                              std::span<const GridNode> targets,
                              const AStarParams& params,
                              const PenaltyField* extra,
                              const T2bField* t2b) const;
  /// Runs net-level static timing over the netlist (estimated delays,
  /// cycle-pruned proximity edges) and fills crit64_; resolves the clock
  /// period once so the post-route re-analysis measures against the same
  /// budget. No-op unless opts_.timingDriven.
  void computeCriticality();
  /// Post-route slack with committed path delays (stats_.worstSlack).
  void computeRoutedSlack();
  /// PathFinder negotiation pre-phase over `order` (DESIGN.md §5.14):
  /// nets share cells (grid usage counts), re-routing against present +
  /// history costs until overflow-free or opts_.maxNegotiateIters. Leaves
  /// the accumulated history in negBaseCells_ for the main loop's base
  /// penalty field. Strictly serial and deterministic.
  void negotiationPhase(std::span<const Net* const> order);
  /// Routes one net inside the negotiation phase (shared cells, no
  /// occupancy or constraint-graph commit); returns its cell set.
  std::vector<GridNode> negotiationSearch(const Net& net,
                                          PenaltyField& negField);
  /// Clears ripUpField_ and replays the negotiation history base into it;
  /// ripUpHistoryHash_ lands on the same value every time, so memo keys
  /// stay stable across reruns and ECO replay.
  void resetRipUpFieldToBase();
  /// True when every recorded read matches current grid / field state.
  bool footprintMatches(const SearchFootprint& fp, NetId net,
                        const PenaltyField* extra, const T2bField* t2b) const;
  /// Marks a track-space region as possibly differing from the run the
  /// memo recorded (inflated by the T2b mark reach). No-op unless
  /// opts_.replay is set.
  void noteChanged(const Rect& trBox);
  /// First divergence of `net` this run: its previous-run extent
  /// (opts_.replay->prevNetBoxes) becomes stale state for later footprints.
  void noteDiverged(NetId net);
  /// True when fp's probed bbox misses every changed region, i.e. the
  /// per-cell footprint walk is provably redundant.
  bool changedRegionsMiss(const SearchFootprint& fp) const;
  /// All rip-up field mutations go through these so ripUpHistoryHash_
  /// tracks the exact event sequence (SearchMemoKey::penaltyHistory).
  void addRipUpPenalty(const GridNode& n, float delta);
  void clearRipUpField();
  /// DecomposeOptions for router-internal decomposeLayerShared calls:
  /// binds ctx_ and the shared mask cache.
  DecomposeOptions internalDecomposeOpts() const;
  /// The color a net's fragments print with on `g`: Core when unassigned.
  static Color maskColor(const OverlayConstraintGraph& g, NetId net);
  /// Fragments of `layer` in the track window, in fragmentsInWindow order,
  /// each with its net's mask color; `skipNet`'s own are left out.
  std::vector<ColoredFragment> windowFragments(
      int layer, const Rect& windowTr, NetId skipNet = kInvalidNet) const;
  /// Cut conflicts plus hard overlays of the window's decomposition: the
  /// local measure every repair step must strictly lower.
  int windowViolations(int layer, const Rect& windowTr) const;
  /// One layer's step of a repair pass over its sign-off violation boxes
  /// (nm): flips, then a reroute, then (last pass, when enabled) a
  /// sacrifice, per box. Returns whether anything changed.
  bool repairLayer(int layer, std::span<const Rect> boxesNm, bool lastPass);
  /// Rips up a routed net and re-routes it away from `avoidTr` (track box
  /// on `layer`); restores the old route if no better one is found.
  bool rerouteAway(const Net& net, const Rect& avoidTr, int layer);
  /// Counts window-local cut conflicts attributable to `net` under its
  /// current colors; tries the flipped color when conflicts appear.
  int resolveCutConflicts(const Net& net);
  void applyT2bMarks(NetId net, float delta);
  void occupyPath(const Net& net);
  void releasePath(const Net& net);
  void penalizeHardHits(const std::vector<ScenarioHit>& hits);
  void tearDownNet(const Net& net);
  /// Re-installs a previously torn-down route verbatim.
  void restoreNet(const Net& net, const std::vector<GridNode>& oldPath);

  /// What besides the fragment list decides a whole-layer result: the
  /// output-affecting options and whether a cache was set, since only
  /// cached summaries carry a maskFp.
  struct LayerRecordKey {
    DecomposeOutputOptions output;
    bool cached = false;

    friend bool operator==(const LayerRecordKey&,
                           const LayerRecordKey&) = default;
  };
  /// The last whole-layer decomposition of one layer, keyed by the exact
  /// colored-fragment list it was made from: a request whose list and key
  /// compare equal reuses it, so no mutation path has to invalidate it.
  struct LayerRecord {
    std::vector<ColoredFragment> frags;
    LayerRecordKey key;
    std::shared_ptr<const LayerSummary> summary;  ///< null: no record yet
    /// Planes of a decomposition made without a cache, until decompose()
    /// moves them out.
    std::optional<LayerDecomposition> planes;
  };
  /// `opts` with the router's context and backend where unset, and `cache`.
  DecomposeOptions wholeLayerOpts(const DecomposeOptions& opts,
                                  MaskCache* cache) const;
  /// The layer's record under `opts` (as wholeLayerOpts resolves them),
  /// recomputed first when the layer's fragment list or the key differs.
  LayerRecord& layerRecord(int layer, const DecomposeOptions& opts) const;

  /// Per-router (hence per-run) counter handles, resolved once from the
  /// context's registry at construction. Never function-local statics:
  /// those would pin the first run's registry across contexts.
  struct RouterCounters {
    Counter* oddCycleRejects;
    Counter* banRejects;
    Counter* cutRejects;
    Counter* ripUps;
    Counter* flips;
    Counter* netsRouted;
    Counter* netsFailed;
    Counter* repairFlips;
    Counter* repairReroutes;
    Counter* repairSacrifices;
    Counter* verifySkips;
    Counter* negotiateIters;
    Histogram* negotiateOverflow;
  };

  RoutingGrid* grid_;
  const Netlist* netlist_;
  RouterOptions opts_;
  RunContext* ctx_;  ///< never null; declared before engine_ (init order)
  /// Resolved patterning backend; never null. Declared before model_ so
  /// the constraint graphs can be built with its spec.
  const PatterningBackend* backend_;
  RouterCounters counters_;
  OverlayModel model_;
  AStarEngine engine_;
  PenaltyField ripUpField_;
  T2bField t2bField_;
  std::vector<NetRouteState> states_;
  RoutingStats stats_;
  /// Regions whose grid state may differ from the memo-recorded run
  /// (track space, T2b halo already applied). Only grows within a run.
  std::vector<Rect> changedBoxes_;
  std::vector<char> divergedNoted_;  ///< per-net: prev box noted
  /// Running hash of every ripUpField_ mutation since construction.
  std::uint64_t ripUpHistoryHash_ = 0;
  /// Per-net criticality in 1/64 steps; empty = timing off (all zero).
  std::vector<int> crit64_;
  /// Cycle-pruned proximity edges from the pre-route analysis, reused by
  /// the post-route slack pass (same graph, routed delays).
  std::vector<TimingEdge> timingEdges_;
  /// Clock period resolved by the pre-route analysis (auto-derived period
  /// must not drift when post-route delays change the critical path).
  std::int64_t timingPeriod_ = 0;
  /// Negotiation history carried into the main loop: sorted nonzero
  /// (node, cost) cells replayed into ripUpField_ per net.
  std::vector<std::pair<GridNode, float>> negBaseCells_;
  /// Per-layer record of the last whole-layer decomposition.
  mutable std::vector<LayerRecord> layerRecords_;
};

}  // namespace sadp
