#include "baselines/baselines.hpp"

#include <chrono>
#include <vector>

#include "run/run_context.hpp"
#include "sadp/trim.hpp"

namespace sadp {

const char* toString(BaselineKind k) {
  switch (k) {
    case BaselineKind::GaoPanTrim11:
      return "GaoPan[11]";
    case BaselineKind::KodamaCut16:
      return "Kodama[16]";
    case BaselineKind::DuGraphModel10:
      return "Du[10]";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Adds one layer's trim-process sign-off into a physical report.
void addTrimReport(OverlayReport& total, const TrimReport& t) {
  total.sideOverlayNm += t.sideOverlayNm;
  total.sideOverlaySections += t.sideOverlaySections;
  total.hardOverlays += t.hardOverlays;
  total.tipOverlays += t.tipOverlays;
  total.cutSpaceConflicts += t.conflicts();
}

/// Measures a finished layout with the sign-off pipeline of the process
/// the baseline targets: the trim-process decomposer for [10]/[11], the
/// cut-process synthesizer (without overlay-aware assist trimming) for
/// [16].
BaselineResult measure(OverlayAwareRouter& router, const RoutingStats& stats,
                       bool trimProcess) {
  BaselineResult r;
  r.stats = stats;
  r.overlayUnits = router.model().totalOverlayUnits();
  if (trimProcess) {
    for (int layer = 0; layer < router.grid().layers(); ++layer) {
      addTrimReport(r.physical,
                    decomposeTrimLayer(router.coloredFragments(layer),
                                       router.grid().rules())
                        .report);
    }
  } else {
    DecomposeOptions opts;
    opts.trimAssists = false;  // [16] merges assists without overlay control
    r.physical = router.physicalReport(opts);
  }
  r.conflicts = r.physical.cutConflicts() + stats.hardViolationsAccepted;
  return r;
}

BaselineResult runGreedyColorRouter(RoutingGrid& grid, const Netlist& netlist,
                                    bool trimProcess, RunContext& ctx) {
  // Shared reconstruction core for [11] and [16]: colors are fixed when a
  // net is routed (pseudo-coloring only, no flipping), no type 2-b
  // avoidance, no cut-conflict rip-up, no repair; nets whose hard
  // constraints cannot be met are kept and counted as conflicts, as the
  // published routers report conflicts rather than fail the net.
  RouterOptions o;
  o.enableColorFlip = false;
  o.finalGlobalFlip = false;
  o.enableT2bAvoidance = false;
  o.enableCutCheck = false;
  o.enableRepair = false;
  o.astar.gamma = 0.0;
  o.naiveColoring = true;
  if (trimProcess) {
    // [11] keeps routing through decomposition trouble and reports the
    // resulting trim conflicts.
    o.acceptHardViolations = true;
  } else {
    // [16] has no merge technique: odd cycles and merge-requiring
    // scenarios trigger its rip-up and frequently fail the net, which is
    // why the published router loses ~20% routability.
    o.acceptHardViolations = false;
    o.enableMergeOddCycles = false;
  }
  const auto t0 = Clock::now();
  OverlayAwareRouter router(grid, netlist, o, &ctx);
  const RoutingStats stats = router.run();
  BaselineResult r = measure(router, stats, trimProcess);
  r.seconds = elapsed(t0);
  return r;
}

/// Reconstruction of Du et al. [10]: for every net, every source x target
/// candidate pair is routed separately and evaluated on the constraint
/// model; after each committed net the whole layout is re-validated by
/// re-classifying every fragment pair from scratch (their graph model is
/// rebuilt per net). The re-validation is intentionally quadratic -- that
/// is what makes the published router orders of magnitude slower.
BaselineResult runDuGraphModel(RoutingGrid& grid, const Netlist& netlist,
                               double timeoutSeconds, RunContext& ctx) {
  const auto t0 = Clock::now();
  BaselineResult result;
  OverlayModel model(grid.layers());
  AStarEngine engine(grid, &ctx);
  AStarParams params;  // alpha = beta = 1, no overlay guidance

  // Reserve pins.
  for (const Net& n : netlist.nets) {
    for (const Pin* pin : {&n.source, &n.target}) {
      for (const GridNode& c : pin->candidates) {
        if (grid.inBounds(c) && grid.isFree(c)) grid.occupy(c, n.id);
      }
    }
  }

  RoutingStats stats;
  stats.totalNets = int(netlist.size());
  std::vector<std::vector<GridNode>> paths(netlist.size());

  for (const Net& net : netlist.nets) {
    if (elapsed(t0) > timeoutSeconds) {
      result.timedOut = true;
      break;
    }
    // Enumerate candidate pairs; keep the route with the least model cost.
    double bestCost = 0.0;
    std::vector<GridNode> bestPath;
    int bestVias = 0;
    for (const GridNode& s : net.source.candidates) {
      for (const GridNode& t : net.target.candidates) {
        auto res = engine.route(net.id, {&s, 1}, {&t, 1}, params);
        if (!res) continue;
        // Tentative insertion to score the route on the constraint graph.
        for (const GridNode& n : res->path) grid.occupy(n, net.id);
        model.addNet(net.id, res->path);
        model.pseudoColor(net.id);
        const double cost = double(res->cost) +
                            2.0 * double(model.overlayUnitsOfNet(net.id));
        model.removeNet(net.id);
        for (const GridNode& n : res->path) grid.release(n, net.id);
        if (bestPath.empty() || cost < bestCost) {
          bestCost = cost;
          bestPath = std::move(res->path);
          bestVias = res->vias;
        }
      }
    }
    if (bestPath.empty()) continue;
    // Re-reserve unchosen candidates happens implicitly: occupy the path.
    for (const Pin* pin : {&net.source, &net.target}) {
      for (const GridNode& c : pin->candidates) grid.release(c, net.id);
    }
    for (const GridNode& n : bestPath) grid.occupy(n, net.id);
    const AddNetResult added = model.addNet(net.id, bestPath);
    model.pseudoColor(net.id);
    if (added.hardViolation ||
        model.classOverlayUnitsOfNet(net.id) >= kHardCost) {
      // The graph model flags the net as undecomposable; [10] fails it
      // outright (no merge technique, no re-route loop) -- the source of
      // its ~5% routability deficit in Table IV.
      model.removeNet(net.id);
      for (const GridNode& n : bestPath) grid.release(n, net.id);
      for (const Pin* pin : {&net.source, &net.target}) {
        for (const GridNode& c : pin->candidates) {
          if (grid.inBounds(c) && grid.isFree(c)) grid.occupy(c, net.id);
        }
      }
      continue;
    }
    paths[net.id] = bestPath;
    ++stats.routedNets;
    stats.vias += bestVias;
    stats.wirelength += std::int64_t(bestPath.size()) - 1 - bestVias;

    // Full-layout re-validation: classify every fragment pair again.
    for (int layer = 0; layer < grid.layers(); ++layer) {
      const auto frags = model.fragmentsInWindow(
          layer, Rect{0, 0, grid.width(), grid.height()});
      volatile std::int64_t sink = 0;  // defeat dead-code elimination
      for (std::size_t i = 0; i < frags.size(); ++i) {
        for (std::size_t j = i + 1; j < frags.size(); ++j) {
          sink += int(classify(frags[i], frags[j]).type);
        }
      }
      (void)sink;
    }
  }

  result.stats = stats;
  result.overlayUnits = model.totalOverlayUnits();
  // Trim-process sign-off (Du et al. target SID/trim without assists).
  const DesignRules& rules = grid.rules();
  for (int layer = 0; layer < grid.layers(); ++layer) {
    std::vector<ColoredFragment> cfs;
    for (const Fragment& f : model.fragmentsInWindow(
             layer, Rect{0, 0, grid.width(), grid.height()})) {
      Color c = model.colorOf(f.net, layer);
      if (c == Color::Unassigned) c = Color::Core;
      cfs.push_back({f, c});
    }
    addTrimReport(result.physical, decomposeTrimLayer(cfs, rules).report);
  }
  result.conflicts =
      result.physical.cutConflicts() + stats.hardViolationsAccepted;
  result.seconds = elapsed(t0);
  return result;
}

}  // namespace

BaselineResult runBaseline(BaselineKind kind, RoutingGrid& grid,
                           const Netlist& netlist, double timeoutSeconds,
                           RunContext* ctx) {
  RunContext& c = ctx ? *ctx : RunContext::current();
  RunContext::Scope bind(c);
  switch (kind) {
    case BaselineKind::GaoPanTrim11:
      return runGreedyColorRouter(grid, netlist, /*trimProcess=*/true, c);
    case BaselineKind::KodamaCut16:
      return runGreedyColorRouter(grid, netlist, /*trimProcess=*/false, c);
    case BaselineKind::DuGraphModel10:
      return runDuGraphModel(grid, netlist, timeoutSeconds, c);
  }
  return {};
}

}  // namespace sadp
