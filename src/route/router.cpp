#include "route/router.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "ocg/scenario.hpp"
#include "patterning/backend.hpp"
#include "run/run_context.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace sadp {

namespace {

/// All pins of a net (source, target, taps).
std::vector<const Pin*> netPins(const Net& n) {
  std::vector<const Pin*> pins{&n.source, &n.target};
  for (const Pin& p : n.taps) pins.push_back(&p);
  return pins;
}

/// Claims every free pin candidate of `n`, so other nets cannot run over it.
void reservePins(RoutingGrid& grid, const Net& n) {
  for (const Pin* pin : netPins(n)) {
    for (const GridNode& c : pin->candidates) {
      if (grid.inBounds(c) && grid.isFree(c)) grid.occupy(c, n.id);
    }
  }
}

}  // namespace

OverlayAwareRouter::OverlayAwareRouter(RoutingGrid& grid,
                                       const Netlist& netlist,
                                       RouterOptions options,
                                       RunContext* ctx)
    : grid_(&grid),
      netlist_(&netlist),
      opts_(options),
      ctx_(ctx ? ctx : &RunContext::current()),
      backend_(options.backend ? options.backend : &sadp2Backend()),
      model_(grid.layers(), options.enableMergeOddCycles,
             backend_->graphSpec()),
      engine_(grid, ctx_),
      ripUpField_(grid),
      t2bField_(grid),
      states_(netlist.size()),
      layerRecords_(std::size_t(grid.layers())) {
  MetricsRegistry& m = ctx_->metrics();
  counters_.oddCycleRejects = &m.counter("router.oddcycle_rejects");
  counters_.banRejects = &m.counter("router.ban_rejects");
  counters_.cutRejects = &m.counter("router.cut_rejects");
  counters_.ripUps = &m.counter("router.ripups");
  counters_.flips = &m.counter("router.flips");
  counters_.netsRouted = &m.counter("router.nets_routed");
  counters_.netsFailed = &m.counter("router.nets_failed");
  counters_.repairFlips = &m.counter("repair.color_flips");
  counters_.repairReroutes = &m.counter("repair.reroutes");
  counters_.repairSacrifices = &m.counter("repair.sacrifices");
  counters_.verifySkips = &m.counter("router.verify_skips");
  counters_.negotiateIters = &m.counter("router.negotiate_iter");
  counters_.negotiateOverflow = &m.histogram("router.negotiate_overflow");
  for (const Net& n : netlist.nets) reservePins(*grid_, n);
}

void OverlayAwareRouter::occupyPath(const Net& net) {
  for (const GridNode& n : states_[net.id].path) {
    grid_->occupy(n, net.id);
  }
}

namespace {
/// T2b entry marks land up to two tracks outside the fragment cells that
/// spawn them (applyT2bMarks), so a route change influences field reads
/// that far beyond its own cells.
constexpr Nm kChangedHaloTracks = 2;

Rect pathBounds(std::span<const GridNode> path) {
  Rect b;
  for (const GridNode& n : path) {
    b = b.unionWith(Rect{n.x, n.y, n.x + 1, n.y + 1});
  }
  return b;
}
}  // namespace

void OverlayAwareRouter::noteChanged(const Rect& trBox) {
  if (!opts_.replay || trBox.empty()) return;
  changedBoxes_.push_back(trBox.inflated(kChangedHaloTracks));
}

void OverlayAwareRouter::noteDiverged(NetId net) {
  if (!opts_.replay) return;
  if (net < 0 || std::size_t(net) >= divergedNoted_.size() ||
      divergedNoted_[std::size_t(net)] != 0) {
    return;
  }
  divergedNoted_[std::size_t(net)] = 1;
  const std::vector<Rect>& prev = opts_.replay->prevNetBoxes;
  if (std::size_t(net) < prev.size()) noteChanged(prev[std::size_t(net)]);
}

void OverlayAwareRouter::addRipUpPenalty(const GridNode& n, float delta) {
  std::uint64_t& h = ripUpHistoryHash_;
  auto mix = [&](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix((std::uint64_t(std::uint32_t(n.x)) << 32) | std::uint32_t(n.y));
  mix((std::uint64_t(std::uint16_t(n.layer)) << 32) |
      std::bit_cast<std::uint32_t>(delta));
  ripUpField_.add(n, delta);
}

void OverlayAwareRouter::resetRipUpFieldToBase() {
  clearRipUpField();
  for (const auto& [node, v] : negBaseCells_) addRipUpPenalty(node, v);
}

void OverlayAwareRouter::clearRipUpField() {
  // Clearing erases history: empty contents hash identically no matter
  // what came before, so divergence in one net's penalty events cannot
  // leak misses into every later net's searches.
  ripUpHistoryHash_ = 0;
  ripUpField_.clear();
}

bool OverlayAwareRouter::changedRegionsMiss(const SearchFootprint& fp) const {
  if (fp.bbox.empty()) return false;  // boxless entry: walk the reads
  for (const Rect& r : changedBoxes_) {
    if (r.overlaps(fp.bbox)) return false;
  }
  return true;
}

void OverlayAwareRouter::releasePath(const Net& net) {
  // Any released route is suspect state for later replayed footprints:
  // whether this mirrors a previous-run rejection or is a fresh
  // divergence, later nets recorded near it must verify.
  noteDiverged(net.id);
  noteChanged(pathBounds(states_[net.id].path));
  for (const GridNode& n : states_[net.id].path) {
    grid_->release(n, net.id);
  }
  reservePins(*grid_, net);
  states_[net.id].path.clear();
}

void OverlayAwareRouter::applyT2bMarks(NetId net, float delta) {
  for (int layer = 0; layer < grid_->layers(); ++layer) {
    for (const Fragment& f : model_.netFragments(net, layer)) {
      const auto L = std::int16_t(layer);
      if (f.orient() == Orient::Horizontal && f.width() > f.height()) {
        for (Track x = f.xlo; x < f.xhi; ++x) {
          t2bField_.verticalEntry.add({x, f.ylo - 2, L}, delta);
          t2bField_.verticalEntry.add({x, f.yhi + 1, L}, delta);
        }
      } else if (f.orient() == Orient::Vertical) {
        for (Track y = f.ylo; y < f.yhi; ++y) {
          t2bField_.horizontalEntry.add({f.xlo - 2, y, L}, delta);
          t2bField_.horizontalEntry.add({f.xhi + 1, y, L}, delta);
        }
      }
    }
  }
}

void OverlayAwareRouter::penalizeHardHits(
    const std::vector<ScenarioHit>& hits) {
  for (const ScenarioHit& h : hits) {
    // Penalize the region of the new net's own fragment (h.a) so the
    // re-route detours away from the scenario.
    const auto L = std::int16_t(h.layer);
    for (Track y = h.a.ylo - 1; y <= h.a.yhi; ++y) {
      for (Track x = h.a.xlo - 1; x <= h.a.xhi; ++x) {
        addRipUpPenalty({x, y, L}, kRipUpPenalty);
      }
    }
  }
}

void OverlayAwareRouter::tearDownNet(const Net& net) {
  NetRouteState& st = states_[net.id];
  if (st.routed) {
    applyT2bMarks(net.id, -1.0f);
    stats_.vias -= st.vias;
    stats_.wirelength -= st.wirelength;
    --stats_.routedNets;
    st.routed = false;
  }
  st.vias = 0;
  st.wirelength = 0;
  model_.removeNet(net.id);
  releasePath(net);
}

DecomposeOptions OverlayAwareRouter::internalDecomposeOpts() const {
  DecomposeOptions o;
  o.ctx = ctx_;
  o.cache = opts_.maskCache;
  // The SADP backend's synthId routes to the built-in pipeline and keys
  // the cache identically to a null synth, so setting it unconditionally
  // is byte-neutral at k = 2.
  o.synth = backend_;
  return o;
}

Color OverlayAwareRouter::maskColor(const OverlayConstraintGraph& g,
                                    NetId net) {
  const Color c = g.colorOf(net);
  return c == Color::Unassigned ? Color::Core : c;
}

std::vector<ColoredFragment> OverlayAwareRouter::windowFragments(
    int layer, const Rect& windowTr, NetId skipNet) const {
  const OverlayConstraintGraph& g = model_.graph(layer);
  std::vector<ColoredFragment> frags;
  for (const Fragment& f : model_.fragmentsInWindow(layer, windowTr)) {
    if (f.net != skipNet) frags.push_back({f, maskColor(g, f.net)});
  }
  return frags;
}

int OverlayAwareRouter::windowViolations(int layer,
                                         const Rect& windowTr) const {
  const OverlayReport r =
      decomposeLayerShared(windowFragments(layer, windowTr), grid_->rules(),
                           internalDecomposeOpts())
          ->report;
  return r.cutConflicts() + r.hardOverlays;
}

bool OverlayAwareRouter::footprintMatches(const SearchFootprint& fp, NetId net,
                                          const PenaltyField* extra,
                                          const T2bField* t2b) const {
  for (const SearchCellRead& r : fp.reads) {
    const NetId owner = grid_->ownerAtIndex(r.index);
    const CellOwnerClass cls = owner == kInvalidNet ? CellOwnerClass::Free
                               : owner == net       ? CellOwnerClass::Self
                                                    : CellOwnerClass::Other;
    if (cls != r.owner) return false;
    if (t2b != nullptr &&
        (t2b->horizontalEntry.atIndex(r.index) != r.t2bH ||
         t2b->verticalEntry.atIndex(r.index) != r.t2bV)) {
      return false;
    }
    if (extra != nullptr && extra->atIndex(r.index) != r.penalty) return false;
  }
  return true;
}

AStarParams OverlayAwareRouter::netParams(NetId net) const {
  AStarParams p = opts_.astar;
  if (!opts_.timingDriven || net < 0 ||
      std::size_t(net) >= crit64_.size()) {
    return p;
  }
  // Criticality steers eq. (5)'s engineering knobs: critical nets pay
  // more for wrong-way jogs (straighter, shorter) AND more per via --
  // without the beta bump a higher wrongWay just trades jogs for layer
  // changes, and a via costs delayPerVia track-delays, so the search
  // would minimize cost while worsening delay. Slack-rich nets pay more
  // for T2b risk (they can afford the detour that avoids it). The 1/64
  // quantization keeps alpha*wrongWay and beta exactly representable
  // under deriveFixedCostScale for integer/half-integer bases, as the
  // fixed-point A* engine requires.
  const int c = crit64_[std::size_t(net)];
  const std::int64_t viaRatio =
      opts_.timing.delayPerTrack > 0
          ? std::max<std::int64_t>(
                0, opts_.timing.delayPerVia / opts_.timing.delayPerTrack - 1)
          : 0;
  p.wrongWay += double(c) / 64.0;
  p.beta += double(viaRatio * c) / 64.0;
  p.gamma *= 1.0 + double(64 - c) / 64.0;
  return p;
}

SearchMemoKey OverlayAwareRouter::makeSearchKey(
    std::span<const GridNode> sources, std::span<const GridNode> targets,
    const AStarParams& params, const PenaltyField* extra,
    const T2bField* t2b) const {
  SearchMemoKey key;
  key.sources.assign(sources.begin(), sources.end());
  key.targets.assign(targets.begin(), targets.end());
  key.params = params;
  key.usedT2b = t2b != nullptr;
  if (extra != nullptr) key.penaltyHistory = ripUpHistoryHash_;
  return key;
}

std::optional<AStarResult> OverlayAwareRouter::memoSearch(
    NetId net, std::span<const GridNode> sources,
    std::span<const GridNode> targets, const AStarParams& params,
    const PenaltyField* extra, const T2bField* t2b) {
  if (opts_.memo == nullptr) {
    return engine_.route(net, sources, targets, params, extra, t2b);
  }
  SearchMemoKey key = makeSearchKey(sources, targets, params, extra, t2b);
  SearchMemoEntry* prev = opts_.memo->next(net);
  if (prev != nullptr && !prev->footprint.overflow && prev->key == key) {
    // Fast path: with trusted changed-region tracking, a footprint whose
    // probed bbox misses every changed region cannot have observed the
    // edit -- skip the per-cell walk. Penalty-reading searches are covered
    // too: key equality includes the rip-up field's full mutation history
    // (key.penaltyHistory), and equal history from an empty field means
    // equal contents everywhere.
    const bool skipWalk =
        opts_.replay && changedRegionsMiss(prev->footprint);
    if (skipWalk || footprintMatches(prev->footprint, net, extra, t2b)) {
      if (skipWalk) counters_.verifySkips->add(1);
      opts_.memo->countHit();
      // Move, don't copy: the host's slot is dead once the cursor passed
      // it, and a footprint is the size of the searched area.
      SearchMemoEntry entry = std::move(*prev);
      std::optional<AStarResult> result = entry.result;
      opts_.memo->commit(net, std::move(entry));
      return result;
    }
  }
  opts_.memo->countMiss();
  noteDiverged(net);
  SearchMemoEntry entry;
  entry.key = std::move(key);
  engine_.setFootprintRecorder(&entry.footprint);
  std::optional<AStarResult> res =
      engine_.route(net, sources, targets, params, extra, t2b);
  engine_.setFootprintRecorder(nullptr);
  if (res) noteChanged(pathBounds(res->path));
  entry.result = res;
  opts_.memo->commit(net, std::move(entry));
  return res;
}

int OverlayAwareRouter::resolveCutConflicts(const Net& net) {
  SADP_SPAN_ARG("router.cut_check", net.id);
  int bestConflicts = 0;
  for (int layer = 0; layer < grid_->layers(); ++layer) {
    const std::vector<Fragment> own = model_.netFragments(net.id, layer);
    if (own.empty()) continue;
    Rect window;
    for (const Fragment& f : own) {
      window = window.unionWith(Rect{f.xlo, f.ylo, f.xhi, f.yhi});
    }
    window = window.inflated(kCutCheckWindowTracks);
    OverlayConstraintGraph& g = model_.graph(layer);
    // Attribution: count only conflict boxes near the net's own metal, and
    // only the increase over the same count without the net (pre-existing
    // conflicts elsewhere must not block it).
    const Nm pitch = grid_->rules().pitch();
    std::vector<Rect> ownNm;
    for (const Fragment& f : own) {
      ownNm.push_back(Rect{f.xlo * pitch, f.ylo * pitch, f.xhi * pitch,
                           f.yhi * pitch}
                          .inflated(2 * pitch));
    }
    auto nearOwn = [&](const LayerSummary& d) {
      int n = 0;
      for (const Rect& box : d.conflictBoxesNm) {
        for (const Rect& o : ownNm) {
          if (o.overlaps(box)) {
            ++n;
            break;
          }
        }
      }
      return n;
    };
    // The baseline is decomposed only when a probe finds a box near the
    // net: max(0, near - baseline) is 0 whenever near is. Its fragments
    // are captured now, under the pre-probe colors, because a probe's
    // setColor recolors the net's whole hard class.
    const std::vector<ColoredFragment> baselineFrags =
        windowFragments(layer, window, net.id);
    int baseline = -1;
    auto conflictsUnder = [&](Color c) {
      g.setColor(net.id, c);
      const auto d = decomposeLayerShared(windowFragments(layer, window),
                                          grid_->rules(),
                                          internalDecomposeOpts());
      const int near = nearOwn(*d);
      if (near == 0) return 0;
      if (baseline < 0) {
        baseline = nearOwn(*decomposeLayerShared(
            baselineFrags, grid_->rules(), internalDecomposeOpts()));
      }
      return std::max(0, near - baseline);
    };

    const Color base = maskColor(g, net.id);
    int conflicts = conflictsUnder(base);
    if (conflicts > 0) {
      // Try every alternative color in index order, keep the best. At
      // k = 2 this is exactly the old single flippedColor(base) probe --
      // same decompose call sequence, same cache hit/miss counters.
      Color best = base;
      for (int ci = 0; ci < g.colorCount() && conflicts > 0; ++ci) {
        const Color alt = colorFromIndex(ci);
        if (alt == base) continue;
        const int altConflicts = conflictsUnder(alt);
        if (altConflicts < conflicts) {
          conflicts = altConflicts;
          best = alt;
        }
      }
      g.setColor(net.id, best);
    }
    bestConflicts += conflicts;
  }
  return bestConflicts;
}

bool OverlayAwareRouter::routeNet(const Net& net, bool freshPenaltyField) {
  NetRouteState& st = states_[net.id];
  // Negotiation history persists as this net's base penalty field: the
  // replay lands ripUpHistoryHash_ on the same value every time, so memo
  // keys are stable run over run.
  const bool hasNegBase = !negBaseCells_.empty();
  if (freshPenaltyField) {
    if (hasNegBase) {
      resetRipUpFieldToBase();
    } else {
      clearRipUpField();
    }
  }
  const AStarParams params = netParams(net.id);

  for (int attempt = 0; attempt <= kMaxRipUp; ++attempt) {
    const bool usePenalty = !freshPenaltyField || attempt > 0 || hasNegBase;
    auto res = memoSearch(
        net.id, net.source.candidates, net.target.candidates, params,
        usePenalty ? &ripUpField_ : nullptr,
        opts_.enableT2bAvoidance ? &t2bField_ : nullptr);
    if (!res) return false;

    // Release unchosen pin candidates, commit the path.
    for (const Pin* pin : netPins(net)) {
      for (const GridNode& c : pin->candidates) {
        grid_->release(c, net.id);
      }
    }
    st.path = std::move(res->path);
    occupyPath(net);

    // Multi-pin nets: connect every tap to the growing tree (sequential
    // Steiner). A tap that cannot reach the tree fails the whole attempt.
    bool tapsOk = true;
    for (const Pin& tap : net.taps) {
      auto tres = memoSearch(
          net.id, tap.candidates, st.path, params,
          usePenalty ? &ripUpField_ : nullptr,
          opts_.enableT2bAvoidance ? &t2bField_ : nullptr);
      if (!tres) {
        tapsOk = false;
        break;
      }
      res->vias += tres->vias;
      // The last node already belongs to the tree.
      for (std::size_t i = 0; i + 1 < tres->path.size(); ++i) {
        grid_->occupy(tres->path[i], net.id);
        st.path.push_back(tres->path[i]);
      }
    }
    if (!tapsOk) {
      releasePath(net);
      return false;
    }

    AddNetResult add = [&] {
      SADP_SPAN_ARG("router.add_net", net.id);
      return model_.addNet(net.id, st.path);
    }();
    bool reject = false;
    if (add.hardViolation) {
      if (opts_.acceptHardViolations) {
        ++stats_.hardViolationsAccepted;  // baseline mode: count, keep
      } else {
        reject = true;  // hard odd cycle: Algorithm 1 lines 6-9
        counters_.oddCycleRejects->add(1);
        penalizeHardHits(add.hardHits);
      }
    }
    if (!reject) {
      SADP_SPAN_ARG("router.color_net", net.id);
      if (opts_.naiveColoring) {
        model_.firstFitColor(net.id);
      } else {
        model_.pseudoColor(net.id);
      }
      // A net whose best coloring still hits a forbidden assignment (a
      // single-assignment ban forced by surrounding hard classes) would
      // print a hard overlay: rip it up like an odd cycle. The check is
      // class-wide because pseudo-coloring flips the whole hard class.
      if (!opts_.acceptHardViolations &&
          model_.classOverlayUnitsOfNet(net.id) >= kHardCost) {
        reject = true;
        counters_.banRejects->add(1);
        for (const GridNode& n : st.path) {
          addRipUpPenalty(n, kRipUpPenalty * 0.5f);
        }
      }
    }
    if (!reject && opts_.enableCutCheck && resolveCutConflicts(net) > 0) {
      reject = true;
      counters_.cutRejects->add(1);
      // Penalize the whole path region lightly to push the next try away.
      for (const GridNode& n : st.path) {
        addRipUpPenalty(n, kRipUpPenalty * 0.5f);
      }
    }
    if (reject) {
      model_.removeNet(net.id);
      releasePath(net);
      ++st.ripUps;
      ++stats_.ripUps;
      counters_.ripUps->add(1);
      continue;
    }

    // Accepted.
    applyT2bMarks(net.id, +1.0f);
    st.vias = res->vias;
    st.wirelength = std::int64_t(st.path.size()) - 1 - res->vias;
    stats_.vias += st.vias;
    stats_.wirelength += st.wirelength;
    ++stats_.routedNets;
    st.routed = true;

    if (opts_.enableColorFlip &&
        model_.overlayUnitsOfNet(net.id) > kFlipThreshold) {
      SADP_SPAN_ARG("router.net_flip", net.id);
      for (int layer = 0; layer < grid_->layers(); ++layer) {
        if (model_.graph(layer).findVertex(net.id) >= 0) {
          counters_.flips->add(
              backend_->recolor(model_.graph(layer)).componentsImproved);
        }
      }
    }
    return true;
  }
  return false;
}

void OverlayAwareRouter::computeCriticality() {
  crit64_.assign(netlist_->size(), 0);
  timingEdges_.clear();
  timingPeriod_ = 0;
  if (!opts_.timingDriven) return;
  SADP_SPAN("router.timing_analysis");
  const std::vector<std::int64_t> delays =
      estimateNetDelays(*netlist_, opts_.timing);
  const std::vector<TimingEdge> raw = deriveTimingEdges(*netlist_, opts_.timing);
  timingEdges_ = pruneTimingCycles(netlist_->size(), raw);
  const TimingResult res =
      analyzeTiming(netlist_->size(), timingEdges_, delays, opts_.timing);
  // pruneTimingCycles guarantees an acyclic graph, so analysis cannot
  // report a cycle here.
  const TimingAnalysis& ta = res.analysis;
  timingPeriod_ = ta.period;
  stats_.worstSlack = ta.worstSlack;
  stats_.timingValid = true;
  for (std::size_t i = 0; i < crit64_.size(); ++i) {
    crit64_[i] = ta.nets[i].crit64;
  }
}

void OverlayAwareRouter::computeRoutedSlack() {
  if (!opts_.timingDriven) return;
  SADP_SPAN("router.timing_update");
  // Same graph and period as the pre-route pass; only delays change, to
  // the committed wirelength/via numbers where a route exists.
  std::vector<std::int64_t> delays = estimateNetDelays(*netlist_, opts_.timing);
  for (const Net& net : netlist_->nets) {
    const NetRouteState& st = states_[net.id];
    if (st.routed) {
      delays[std::size_t(net.id)] =
          pathDelay(st.wirelength, int(st.vias), opts_.timing);
    }
  }
  TimingOptions fixed = opts_.timing;
  fixed.period = timingPeriod_;
  const TimingResult res =
      analyzeTiming(netlist_->size(), timingEdges_, delays, fixed);
  stats_.worstSlack = res.analysis.worstSlack;
  stats_.timingValid = true;
}

std::vector<GridNode> OverlayAwareRouter::negotiationSearch(
    const Net& net, PenaltyField& negField) {
  // Pure search against present + history costs: no memo, no footprint.
  // The negotiation phase re-executes from scratch on every run
  // (including ECO replay), so determinism needs only a fixed net order
  // and a deterministic A* -- both held.
  std::vector<GridNode> cells;
  const AStarParams params = netParams(net.id);
  auto res = engine_.route(net.id, net.source.candidates,
                           net.target.candidates, params, &negField, nullptr);
  if (!res) return cells;
  cells = res->path;
  for (const Pin& tap : net.taps) {
    auto tres =
        engine_.route(net.id, tap.candidates, cells, params, &negField,
                      nullptr);
    if (!tres) continue;  // main loop will handle the unroutable tap
    for (std::size_t i = 0; i + 1 < tres->path.size(); ++i) {
      cells.push_back(tres->path[i]);
    }
  }
  // A net's usage contribution is per cell, not per visit: dedupe so a
  // self-touching tree never counts a cell twice.
  std::sort(cells.begin(), cells.end(), [&](const GridNode& a,
                                            const GridNode& b) {
    return grid_->index(a) < grid_->index(b);
  });
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

void OverlayAwareRouter::negotiationPhase(
    std::span<const Net* const> order) {
  SADP_SPAN("router.negotiate");
  grid_->resetCongestion();
  PenaltyField negField(*grid_);
  std::vector<std::vector<GridNode>> negPath(netlist_->size());

  auto addCells = [&](const std::vector<GridNode>& cells, int dir) {
    for (const GridNode& n : cells) {
      grid_->addUsage(n, dir);
      negField.add(n, float(dir) * kPresentFactor);
    }
  };

  const int iters = std::max(1, opts_.maxNegotiateIters);
  std::int64_t overflow = 0;
  int ran = 0;
  for (int iter = 0; iter < iters; ++iter) {
    bool any = false;
    for (const Net* netp : order) {
      const Net& net = *netp;
      std::vector<GridNode>& cur = negPath[std::size_t(net.id)];
      if (iter > 0) {
        // Reroute only "hot" nets: unrouted or crossing a shared cell.
        bool hot = cur.empty();
        for (const GridNode& n : cur) {
          if (grid_->usageAt(n) > 1) {
            hot = true;
            break;
          }
        }
        if (!hot) continue;
      }
      any = true;
      addCells(cur, -1);
      cur = negotiationSearch(net, negField);
      addCells(cur, +1);
    }
    overflow = grid_->overflowCount();
    ++ran;
    counters_.negotiateIters->add(1);
    counters_.negotiateOverflow->add(overflow);
    if (overflow == 0 || !any) break;
    if (iter + 1 < iters) {
      // PathFinder history bump: every currently overflowed cell gets
      // permanently more expensive. Ascending-index iteration keeps the
      // accumulation order (and float sums) deterministic.
      for (const std::size_t idx : grid_->overflowedCells()) {
        const GridNode n = grid_->nodeAt(idx);
        grid_->addHistory(n, opts_.historyIncrement);
        negField.add(n, opts_.historyIncrement);
      }
    }
  }
  stats_.negotiateIters = ran;
  stats_.negotiateOverflow = overflow;

  // Carry the accumulated history (not the last iteration's present
  // costs) into the main loop as the base penalty field: history marks
  // durable contention, present cost was only ever a tie-breaker between
  // live alternatives that the real rip-up loop re-discovers itself.
  negBaseCells_.clear();
  for (std::size_t idx = 0; idx < grid_->nodeCount(); ++idx) {
    const float h = grid_->historyAtIndex(idx);
    if (h != 0.0f) negBaseCells_.push_back({grid_->nodeAt(idx), h});
  }
  grid_->clearCongestion();
}

RoutingStats OverlayAwareRouter::run() {
  RunContext::Scope bind(*ctx_);
  SADP_SPAN("router.run");
  stats_ = RoutingStats{};
  stats_.totalNets = int(netlist_->size());
  changedBoxes_.clear();
  divergedNoted_.assign(netlist_->size(), 0);
  if (opts_.replay) {
    for (const Rect& r : opts_.replay->changedSeed) noteChanged(r);
  }
  computeCriticality();
  std::vector<const Net*> order;
  order.reserve(netlist_->size());
  for (const Net& net : netlist_->nets) order.push_back(&net);
  // Shortest half-perimeter first: short nets lock in fewer resources, a
  // standard detailed-routing heuristic.
  auto hpwl = [](const Net& n) {
    const GridNode& s = n.source.candidates.front();
    const GridNode& t = n.target.candidates.front();
    return std::abs(s.x - t.x) + std::abs(s.y - t.y);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](const Net* a, const Net* b) {
                     return hpwl(*a) < hpwl(*b);
                   });
  if (opts_.timingDriven) {
    // Critical nets route first (stable over the length order above):
    // they claim the straight paths, slack-rich nets absorb the detours.
    std::stable_sort(order.begin(), order.end(),
                     [&](const Net* a, const Net* b) {
                       return crit64_[std::size_t(a->id)] >
                              crit64_[std::size_t(b->id)];
                     });
  }
  if (opts_.negotiate) negotiationPhase(order);
  for (const Net* netp : order) {
    const Net& net = *netp;
    SADP_SPAN_ARG("router.net", net.id);
    if (routeNet(net)) {
      counters_.netsRouted->add(1);
    } else {
      // Leave the net unrouted; keep its pins reserved.
      counters_.netsFailed->add(1);
      tearDownNet(net);
    }
  }
  if (opts_.enableColorFlip && opts_.finalGlobalFlip) {
    SADP_SPAN("router.final_flip");
    counters_.flips->add(backend_->recolorAll(model_).componentsImproved);
  }
  if (opts_.enableRepair) repairViolations();
  computeRoutedSlack();
  return stats_;
}

std::vector<ColoredFragment> OverlayAwareRouter::coloredFragments(
    int layer) const {
  std::vector<ColoredFragment> out;
  const OverlayConstraintGraph& g = model_.graph(layer);
  for (const Net& net : netlist_->nets) {
    if (!states_[net.id].routed) continue;
    for (const Fragment& f : model_.netFragments(net.id, layer)) {
      out.push_back({f, maskColor(g, net.id)});
    }
  }
  return out;
}

DecomposeOptions OverlayAwareRouter::wholeLayerOpts(
    const DecomposeOptions& opts, MaskCache* cache) const {
  DecomposeOptions o = opts;
  if (o.ctx == nullptr) o.ctx = ctx_;
  if (o.synth == nullptr) o.synth = backend_;
  o.cache = cache;
  return o;
}

OverlayAwareRouter::LayerRecord& OverlayAwareRouter::layerRecord(
    int layer, const DecomposeOptions& opts) const {
  std::vector<ColoredFragment> frags = coloredFragments(layer);
  const LayerRecordKey key{outputOptions(opts), opts.cache != nullptr};
  LayerRecord& rec = layerRecords_[std::size_t(layer)];
  if (rec.summary != nullptr && rec.key == key && rec.frags == frags) {
    return rec;
  }
  rec.planes.reset();  // free the stale planes before computing new ones
  if (opts.cache == nullptr) {
    LayerDecomposition d = decomposeLayer(frags, grid_->rules(), opts);
    rec.summary = std::make_shared<const LayerSummary>(summarizeLayer(d));
    rec.planes = std::move(d);
  } else {
    rec.summary = decomposeLayerShared(frags, grid_->rules(), opts,
                                       LayerRequest::WholeLayer);
  }
  rec.frags = std::move(frags);
  rec.key = key;
  return rec;
}

LayerDecomposition OverlayAwareRouter::decompose(
    int layer, const DecomposeOptions& opts) const {
  // Planes do not depend on the cache, and only cacheless records keep them.
  const DecomposeOptions o = wholeLayerOpts(opts, nullptr);
  LayerRecord& rec = layerRecord(layer, o);
  if (!rec.planes) {  // an earlier call took them
    return decomposeLayer(rec.frags, grid_->rules(), o);
  }
  LayerDecomposition d = std::move(*rec.planes);
  rec.planes.reset();
  return d;
}

std::shared_ptr<const LayerSummary> OverlayAwareRouter::decomposeShared(
    int layer, const DecomposeOptions& opts) const {
  MaskCache* cache = opts.cache != nullptr ? opts.cache : opts_.maskCache;
  return layerRecord(layer, wholeLayerOpts(opts, cache)).summary;
}

OverlayReport OverlayAwareRouter::physicalReport(
    const DecomposeOptions& opts) const {
  RunContext::Scope bind(*ctx_);
  SADP_SPAN("router.physical_report");
  OverlayReport total;
  for (int layer = 0; layer < grid_->layers(); ++layer) {
    SADP_SPAN_ARG("report.layer", layer);
    total += decomposeShared(layer, opts)->report;
  }
  return total;
}

std::string runCsvRow(const RoutingStats& stats, const OverlayReport& report) {
  std::ostringstream row;
  row << stats.totalNets << ',' << stats.routability() << ','
      << report.sideOverlayNm << ',' << report.cutConflicts() << ','
      << report.hardOverlays << ",1";
  if (stats.timingValid) {
    row << ',' << stats.worstSlack << ',' << stats.negotiateIters << ','
        << stats.negotiateOverflow;
  }
  return row.str();
}

int runExitCode(const OverlayReport& report) {
  return report.cutConflicts() == 0 && report.hardOverlays == 0 ? 0 : 3;
}

}  // namespace sadp
