#include "oracle.hpp"

#include <algorithm>
#include <cstdlib>

#include "sadp/decompose.hpp"

namespace perfbench {

using sadp::GridNode;

namespace {

bool adjacent(const GridNode& a, const GridNode& b) {
  const int dx = std::abs(a.x - b.x);
  const int dy = std::abs(a.y - b.y);
  const int dl = std::abs(a.layer - b.layer);
  return (dl == 0 && dx + dy == 1) || (dl == 1 && dx == 0 && dy == 0);
}

bool onPin(const GridNode& n, const sadp::Pin& p) {
  return std::find(p.candidates.begin(), p.candidates.end(), n) !=
         p.candidates.end();
}

std::string where(const sadp::Net& net, const std::string& what) {
  return "net " + net.name + ": " + what;
}

}  // namespace

std::string checkPaths(const sadp::Netlist& nl,
                       const sadp::RoutingGrid& pristine,
                       const std::vector<sadp::NetRouteState>& states) {
  if (states.size() != nl.size()) return "route state count != net count";
  std::vector<sadp::NetId> owner(pristine.nodeCount(), sadp::kInvalidNet);
  for (const sadp::Net& net : nl.nets) {
    // The generator makes two-pin nets only; a tree would need another check.
    if (!net.taps.empty()) return where(net, "has taps, which are unchecked");
    const sadp::NetRouteState& st = states[std::size_t(net.id)];
    if (!st.routed) continue;
    const std::vector<GridNode>& path = st.path;
    if (path.empty()) return where(net, "routed with an empty path");
    for (const GridNode& n : path) {
      if (!pristine.inBounds(n)) return where(net, "node out of bounds");
      if (pristine.isBlocked(n)) return where(net, "node on a blockage");
      sadp::NetId& o = owner[pristine.index(n)];
      if (o != sadp::kInvalidNet && o != net.id) {
        return where(net, "node also owned by net " +
                              nl.nets[std::size_t(o)].name);
      }
      o = net.id;
    }
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (!adjacent(path[i - 1], path[i])) {
        return where(net, "path step " + std::to_string(i) +
                              " is neither a unit step nor a via");
      }
    }
    const bool forward = onPin(path.front(), net.source) &&
                         onPin(path.back(), net.target);
    const bool backward = onPin(path.front(), net.target) &&
                          onPin(path.back(), net.source);
    if (!forward && !backward) {
      return where(net, "path does not join source and target candidates");
    }
  }
  return {};
}

std::string checkSignoff(const sadp::OverlayAwareRouter& router,
                         const sadp::OverlayReport& report,
                         const std::vector<std::uint64_t>& layerMaskFp) {
  sadp::RunContext refCtx;
  refCtx.setThreadCount(1);
  sadp::DecomposeOptions ref;
  ref.tileWords = -1;  // the whole-window reference path
  ref.ctx = &refCtx;
  const int layers = router.grid().layers();
  if (int(layerMaskFp.size()) != layers) return "missing layer masks";
  sadp::OverlayReport sum;
  for (int l = 0; l < layers; ++l) {
    const sadp::LayerDecomposition d = sadp::decomposeLayer(
        router.coloredFragments(l), router.grid().rules(), ref);
    sum += d.report;
    if (sadp::maskFingerprint(d) != layerMaskFp[std::size_t(l)]) {
      return "layer " + std::to_string(l) +
             " masks differ from the reference decomposition";
    }
  }
  if (!(sum == report)) {
    return "physicalReport differs from the per-layer reference reports";
  }
  return {};
}

std::string selfTest(const sadp::Netlist& nl,
                     const sadp::RoutingGrid& pristine,
                     const std::vector<sadp::NetRouteState>& states) {
  // Two routed two-pin nets with paths long enough to corrupt mid-path.
  std::vector<std::size_t> picks;
  for (const sadp::Net& net : nl.nets) {
    const sadp::NetRouteState& st = states[std::size_t(net.id)];
    if (st.routed && st.path.size() >= 3) {
      picks.push_back(std::size_t(net.id));
    }
    if (picks.size() == 2) break;
  }
  if (picks.size() < 2) return "self-test: too few routed nets to corrupt";
  const std::size_t a = picks[0];
  const std::size_t b = picks[1];

  auto expectCaught = [&](const std::vector<sadp::NetRouteState>& bad,
                          const char* what) -> std::string {
    return checkPaths(nl, pristine, bad).empty()
               ? std::string("self-test: ") + what + " was not caught"
               : std::string();
  };

  std::vector<sadp::NetRouteState> broken = states;
  GridNode& mid = broken[a].path[1];
  mid.x = mid.x + 2 < pristine.width() ? mid.x + 2 : mid.x - 2;
  if (std::string e = expectCaught(broken, "a broken chain"); !e.empty()) {
    return e;
  }

  std::vector<sadp::NetRouteState> shared = states;
  shared[a].path.push_back(states[b].path[1]);
  if (std::string e = expectCaught(shared, "a shared node"); !e.empty()) {
    return e;
  }

  // Any blocked node will do; the generator blocks boxes on layer 0.
  for (sadp::Track y = 0; y < pristine.height(); ++y) {
    for (sadp::Track x = 0; x < pristine.width(); ++x) {
      if (!pristine.isBlocked({x, y, 0})) continue;
      std::vector<sadp::NetRouteState> blocked = states;
      blocked[a].path[1] = {x, y, 0};
      return expectCaught(blocked, "a node on a blockage");
    }
  }
  return "self-test: the instance has no blockage to route over";
}

}  // namespace perfbench
