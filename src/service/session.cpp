#include "service/session.hpp"

#include <algorithm>
#include <chrono>

#include "ocg/scenario.hpp"
#include "sadp/decompose.hpp"
#include "trace/trace.hpp"

namespace sadp {

void SessionMemo::beginRun(const std::vector<std::string>& namesById) {
  const std::size_t n = namesById.size();
  prev_.assign(n, {});
  cursor_.assign(n, 0);
  nextLog_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = store_.find(namesById[i]);
    if (it != store_.end()) prev_[i] = std::move(it->second);
  }
  // Every live net is in namesById, so anything left in the store belongs
  // to removed nets and is dead.
  store_.clear();
  hits_ = 0;
  misses_ = 0;
}

void SessionMemo::endRun(const std::vector<std::string>& namesById) {
  for (std::size_t i = 0; i < namesById.size(); ++i) {
    store_[namesById[i]] = std::move(nextLog_[i]);
  }
  prev_.clear();
  cursor_.clear();
  nextLog_.clear();
}

SearchMemoEntry* SessionMemo::next(NetId net) {
  if (net < 0 || std::size_t(net) >= prev_.size()) return nullptr;
  std::vector<SearchMemoEntry>& log = prev_[std::size_t(net)];
  std::size_t& cur = cursor_[std::size_t(net)];
  if (cur >= log.size()) return nullptr;
  return &log[cur++];
}

void SessionMemo::commit(NetId net, SearchMemoEntry entry) {
  if (net < 0 || std::size_t(net) >= nextLog_.size()) return;
  nextLog_[std::size_t(net)].push_back(std::move(entry));
}

Session::Session(std::string name, BenchmarkSpec spec, MaskCache* cache,
                 RouterOptions router, DecomposeOptions decompose)
    : name_(std::move(name)),
      spec_(std::move(spec)),
      cache_(cache),
      routerOpts_(router),
      decomposeOpts_(decompose) {
  // Aggregate-level spans so every run reports its phase breakdown
  // (session.build / session.route / session.decompose) in the outcome.
  ctx_.setTraceLevel(TraceLevel::Aggregate);
  // The design's initial netlist comes from the deterministic generator;
  // edits mutate nets_ from here on.
  const BenchmarkInstance inst = makeBenchmark(spec_);
  nets_.reserve(inst.netlist.size());
  for (const Net& n : inst.netlist.nets) {
    NetSpec s;
    s.name = n.name;
    s.pins.push_back(n.source);
    s.pins.push_back(n.target);
    for (const Pin& t : n.taps) s.pins.push_back(t);
    nets_.push_back(std::move(s));
  }
}

void Session::setNets(std::vector<NetSpec> nets) {
  nets_ = std::move(nets);
  memo_.clearStored();
  lastBox_.clear();
}

Rect Session::pinBox(const Pin& p) {
  Rect b;
  for (const GridNode& n : p.candidates) {
    b = b.unionWith(Rect{n.x, n.y, n.x + 1, n.y + 1});
  }
  return b;
}

RouteOutcome Session::routeFull() {
  memo_.clearStored();
  return runOnce(/*netsDirty=*/0, Rect{});
}

std::optional<RouteOutcome> Session::applyEdit(const EditRequest& e,
                                               std::string* err) {
  auto setErr = [&](const char* m) {
    if (err != nullptr) *err = m;
    return std::nullopt;
  };
  const auto found =
      std::find_if(nets_.begin(), nets_.end(),
                   [&](const NetSpec& s) { return s.name == e.net; });

  Rect dirty;
  switch (e.kind) {
    case EditRequest::Kind::AddNet: {
      if (found != nets_.end()) return setErr("net name already exists");
      if (e.pins.size() < 2) return setErr("add_net wants >= 2 pins");
      for (const Pin& p : e.pins) {
        if (p.candidates.empty()) return setErr("pin has no candidates");
        dirty = dirty.unionWith(pinBox(p));
      }
      nets_.push_back(NetSpec{e.net, e.pins});
      break;
    }
    case EditRequest::Kind::RemoveNet: {
      if (found == nets_.end()) return setErr("unknown net");
      for (const Pin& p : found->pins) dirty = dirty.unionWith(pinBox(p));
      const auto box = lastBox_.find(e.net);
      if (box != lastBox_.end()) dirty = dirty.unionWith(box->second);
      nets_.erase(found);
      lastBox_.erase(e.net);
      break;
    }
    case EditRequest::Kind::MovePin: {
      if (found == nets_.end()) return setErr("unknown net");
      if (e.pinIndex < 0 || std::size_t(e.pinIndex) >= found->pins.size()) {
        return setErr("pin index out of range");
      }
      if (e.pins.size() != 1 || e.pins.front().candidates.empty()) {
        return setErr("move_pin wants exactly one replacement pin");
      }
      dirty = dirty.unionWith(pinBox(found->pins[std::size_t(e.pinIndex)]));
      dirty = dirty.unionWith(pinBox(e.pins.front()));
      // The whole old route is freed (and may be re-taken differently), so
      // any net that saw those cells must re-verify -- its footprint check
      // would fail anyway; pre-dropping just skips doomed verification.
      const auto box = lastBox_.find(e.net);
      if (box != lastBox_.end()) dirty = dirty.unionWith(box->second);
      found->pins[std::size_t(e.pinIndex)] = e.pins.front();
      break;
    }
  }

  // Dirty region (paper Thm 1): geometry farther than the independence
  // radius cannot change scenario relations with the edit; the cut-check
  // window is added because the windowed decompose reads that much more.
  const DesignRules rules{};  // the generator's rules (benchmark.cpp)
  const Track radius = independenceRadiusTracks(rules) + kCutCheckWindowTracks;
  const Rect infl = dirty.inflated(radius);
  int dropped = 0;
  if (memo_.hasStored(e.net)) {
    memo_.dropStored(e.net);
    ++dropped;
  }
  for (const auto& [name, box] : lastBox_) {
    if (name != e.net && box.overlaps(infl) && memo_.hasStored(name)) {
      memo_.dropStored(name);
      ++dropped;
    }
  }
  return runOnce(dropped, dirty, /*incremental=*/true);
}

RouteOutcome Session::runOnce(int netsDirty, const Rect& dirtyTr,
                              bool incremental) {
  const auto t0 = std::chrono::steady_clock::now();
  // Safe between runs: the previous router died at the end of the
  // previous runOnce.
  ctx_.resetForRun();
  RunContext::Scope bind(ctx_);

  // Rebuild the routing problem exactly as a cold route would see it: the
  // generator's grid (blockages are part of the design) plus the edited
  // netlist with ids re-numbered as list positions.
  BenchmarkInstance inst = [&] {
    SADP_SPAN("session.build");
    return makeBenchmark(spec_);
  }();
  RoutingGrid grid = std::move(inst.grid);
  Netlist nl;
  std::vector<std::string> names;
  names.reserve(nets_.size());
  for (const NetSpec& s : nets_) {
    nl.addMultiPin(s.name, s.pins);
    names.push_back(s.name);
  }

  memo_.beginRun(names);
  RouterOptions ro = routerOpts_;
  ro.memo = &memo_;
  ro.maskCache = cache_;
  if (incremental) {
    // Changed-region fast path: the edit's dirty box is the only a-priori
    // changed state; stale extents of nets that diverge during the replay
    // are added by the router itself, looked up here from the previous
    // run's pin+path boxes under the renumbered ids.
    ReplayRegions& replay = ro.replay.emplace();
    if (!dirtyTr.empty()) replay.changedSeed.push_back(dirtyTr);
    replay.prevNetBoxes.reserve(nets_.size());
    for (const NetSpec& s : nets_) {
      const auto it = lastBox_.find(s.name);
      replay.prevNetBoxes.push_back(it == lastBox_.end() ? Rect{}
                                                         : it->second);
    }
  }
  DecomposeOptions dopts = decomposeOpts_;
  dopts.ctx = &ctx_;
  dopts.cache = cache_;

  const MaskCacheStats cs0 = cache_ ? cache_->stats() : MaskCacheStats{};

  RouteOutcome out;
  {
    OverlayAwareRouter router(grid, nl, ro, &ctx_);
    {
      SADP_SPAN("session.route");
      out.stats = router.run();
    }
    out.verifySkips = router.verifySkips();
    // Sign-off: per-layer decomposition summed in layer order, as
    // physicalReport sums it, so the totals are identical. With a cache a
    // whole-layer summary carries its fingerprint (taken once, when the
    // entry was made); without one the planes are fingerprinted here.
    {
      SADP_SPAN("session.decompose");
      for (int layer = 0; layer < grid.layers(); ++layer) {
        if (cache_ != nullptr) {
          const auto s = router.decomposeShared(layer, dopts);
          out.report += s->report;
          out.layerMaskFp.push_back(s->maskFp.value());
        } else {
          const LayerDecomposition d = router.decompose(layer, dopts);
          out.report += d.report;
          out.layerMaskFp.push_back(maskFingerprint(d));
        }
      }
    }
    // Refresh the per-net boxes for the next edit's dirty test.
    lastBox_.clear();
    for (const Net& n : nl.nets) {
      Rect b = pinBox(n.source).unionWith(pinBox(n.target));
      for (const Pin& t : n.taps) b = b.unionWith(pinBox(t));
      for (const GridNode& g : router.netStates()[std::size_t(n.id)].path) {
        b = b.unionWith(Rect{g.x, g.y, g.x + 1, g.y + 1});
      }
      lastBox_[n.name] = b;
    }
  }  // router (and its engine / OCG state) dies before the next reset
  memo_.endRun(names);

  std::uint64_t fp = 0xcbf29ce484222325ull;
  for (const std::uint64_t layerFp : out.layerMaskFp) {
    for (int i = 0; i < 8; ++i) {
      fp ^= (layerFp >> (8 * i)) & 0xffu;
      fp *= 0x100000001b3ull;
    }
  }
  out.designFp = fp;

  out.csvRow = runCsvRow(out.stats, out.report);

  out.searches = memo_.misses();
  out.memoHits = memo_.hits();
  if (cache_ != nullptr) {
    const MaskCacheStats cs1 = cache_->stats();
    out.cacheHits = cs1.hits - cs0.hits;
    out.cacheMisses = cs1.misses - cs0.misses;
  }
  out.netsDirty = netsDirty;
  out.dirtyTr = dirtyTr;
  out.phases = spanAggregates();  // reads the bound session context
  out.exitCode = runExitCode(out.report);
  out.wallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  last_ = out;
  routedOnce_ = true;
  return out;
}

}  // namespace sadp
