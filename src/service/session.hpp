// A resident routed design inside the routing service (DESIGN.md §5.11).
//
// ECO model: deterministic replay with verified memoization. An edit does
// not surgically patch router state -- it re-runs the whole canonical
// routing pipeline (net ordering, rip-up loop, pseudo-coloring, color
// flips, cut checks, repair) over the edited netlist, exactly as a cold
// route would. The speed comes from two caches along the way:
//
//   - RouteMemo (route/route_memo.hpp): every A* search of the previous
//     run was recorded with its full read footprint; a replayed search
//     whose key and footprint verify against current state returns the
//     recorded result without searching. The edit's dirty region --
//     geometry within the Theorem 1 independence distance of the change,
//     inflated by the cut-check window -- pre-drops the recorded logs of
//     intersecting nets (they will re-search anyway), so in effect only
//     nets touching the dirty region are ripped up and re-routed.
//   - MaskCache (sadp/mask_cache.hpp): every decomposeLayerShared call
//     (cut checks, repair probes, sign-off) is keyed by content
//     fingerprint; windows and layers whose fragments did not change are
//     cache hits. An entry is a plane-free LayerSummary, and sign-off
//     entries carry the mask fingerprint the outcome reports.
//
// Because replay re-executes ALL control flow and only skips searches
// proven unobservable, an ECO outcome is byte-identical to a cold route
// of the edited design -- stats, overlay report, CSV row, and per-layer
// mask fingerprints. The fuzz suite (tests/test_service_fuzz.cpp) holds
// this bar over seeded random edit sequences.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/benchmark.hpp"
#include "route/route_memo.hpp"
#include "route/router.hpp"
#include "run/run_context.hpp"
#include "sadp/mask_cache.hpp"
#include "trace/trace.hpp"

namespace sadp {

/// One net of the session's editable design: an ordered pin list (first =
/// source, second = target, rest taps), keyed by a stable name. Net ids
/// are rebuilt as list indices on every run, so the name is the identity
/// that survives removals.
struct NetSpec {
  std::string name;
  std::vector<Pin> pins;  ///< size >= 2
};

struct EditRequest {
  enum class Kind { AddNet, RemoveNet, MovePin };
  Kind kind = Kind::MovePin;
  std::string net;            ///< target net name
  int pinIndex = -1;          ///< MovePin: which pin to replace
  std::vector<Pin> pins;      ///< AddNet: the full pin list;
                              ///< MovePin: exactly one replacement pin
};

/// Everything one run (cold or ECO replay) reports back.
struct RouteOutcome {
  RoutingStats stats;
  OverlayReport report;
  std::vector<std::uint64_t> layerMaskFp;  ///< maskFingerprint per layer
  std::uint64_t designFp = 0;              ///< fold of layerMaskFp
  std::string csvRow;   ///< sadp_route_cli --csv row (no trailing newline)
  std::int64_t searches = 0;  ///< real A* searches executed
  std::int64_t memoHits = 0;  ///< searches replayed from verified memos
  /// Hits accepted via the changed-region fast path (no per-cell walk).
  std::int64_t verifySkips = 0;
  std::int64_t cacheHits = 0;    ///< MaskCache hits during this run
  std::int64_t cacheMisses = 0;  ///< MaskCache misses during this run
  int netsDirty = 0;  ///< memo logs dropped by the edit's dirty region
  Rect dirtyTr;       ///< track-space dirty box of the edit (empty = cold)
  std::vector<SpanAggregate> phases;  ///< this run's session.* span totals
  double wallMs = 0.0;
  int exitCode = 0;   ///< 0 clean; 3 = conflicts / hard overlays remain
};

/// Per-net search logs of the previous run, keyed by net name across runs
/// and re-indexed by NetId for the duration of one run (ids are list
/// positions and shift on removals; names do not).
class SessionMemo final : public RouteMemo {
 public:
  /// Pulls each net's stored log into the id-indexed replay table.
  void beginRun(const std::vector<std::string>& namesById);
  /// Moves this run's committed logs back into the name-keyed store.
  void endRun(const std::vector<std::string>& namesById);
  void dropStored(const std::string& name) { store_.erase(name); }
  bool hasStored(const std::string& name) const {
    return store_.count(name) != 0;
  }
  void clearStored() { store_.clear(); }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

  SearchMemoEntry* next(NetId net) override;
  void commit(NetId net, SearchMemoEntry entry) override;
  void countHit() override { ++hits_; }
  void countMiss() override { ++misses_; }

 private:
  std::unordered_map<std::string, std::vector<SearchMemoEntry>> store_;
  std::vector<std::vector<SearchMemoEntry>> prev_;   // by current NetId
  std::vector<std::size_t> cursor_;                  // by current NetId
  std::vector<std::vector<SearchMemoEntry>> nextLog_;  // by current NetId
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

class Session {
 public:
  /// `cache` may be null (no mask caching) and is shared server-wide.
  Session(std::string name, BenchmarkSpec spec, MaskCache* cache,
          RouterOptions router = {}, DecomposeOptions decompose = {});

  const std::string& name() const { return name_; }
  const BenchmarkSpec& spec() const { return spec_; }
  int netCount() const { return int(nets_.size()); }
  std::vector<NetSpec> netSpecs() const { return nets_; }
  /// Replaces the design's netlist (the next run routes it cold-style:
  /// the memo store is cleared).
  void setNets(std::vector<NetSpec> nets);
  /// No-op: a run always executes on its calling thread. Kept only
  /// because perfbench/ still calls it; delete it with those calls.
  void setThreads(int) {}

  /// Full route with an empty memo store; records logs for later edits.
  RouteOutcome routeFull();
  /// Applies one edit and replays incrementally. On a malformed edit
  /// (unknown net, duplicate name, bad pin index) returns nullopt with a
  /// reason in *err and leaves the design unchanged.
  std::optional<RouteOutcome> applyEdit(const EditRequest& e,
                                        std::string* err);
  /// Last completed run's outcome (valid after routeFull).
  const RouteOutcome& lastOutcome() const { return last_; }
  bool routedOnce() const { return routedOnce_; }

  /// The server serializes all work on one session through this.
  std::mutex& mutex() { return mu_; }
  RunContext& ctx() { return ctx_; }

 private:
  /// `incremental` arms the router's changed-region fast path: dirtyTr
  /// plus the previous run's per-net extents bound everything the edit
  /// could have touched, so clean replayed searches skip verification.
  RouteOutcome runOnce(int netsDirty, const Rect& dirtyTr,
                       bool incremental = false);
  /// Track bbox of a pin's candidates.
  static Rect pinBox(const Pin& p);

  std::string name_;
  BenchmarkSpec spec_;
  MaskCache* cache_;
  RouterOptions routerOpts_;
  DecomposeOptions decomposeOpts_;
  RunContext ctx_;
  SessionMemo memo_;
  std::vector<NetSpec> nets_;
  /// Per-net track bbox of the last run's route + pins (dirty-region
  /// intersection test).
  std::unordered_map<std::string, Rect> lastBox_;
  RouteOutcome last_;
  bool routedOnce_ = false;
  std::mutex mu_;
};

}  // namespace sadp
