// Color-flipping playground (paper §III-C, Fig. 13/14): builds the paper's
// motivating situation -- nets A and B already routed and colored so that a
// third net C cannot take its shortest path -- and shows how flipping B's
// color unlocks the resource.
#include <iostream>

#include "patterning/flipping.hpp"
#include "ocg/overlay_model.hpp"

using namespace sadp;

namespace {

std::vector<GridNode> hPath(Track x0, Track x1, Track y) {
  std::vector<GridNode> p;
  for (Track x = x0; x < x1; ++x) p.push_back({x, y, 0});
  return p;
}

void printColors(const OverlayModel& m, std::initializer_list<NetId> nets) {
  for (NetId n : nets) {
    std::cout << "  net " << n << " = " << toString(m.colorOf(n, 0)) << "\n";
  }
}

}  // namespace

int main() {
  OverlayModel model(1);

  // A and B routed first: B lands one track from A, forcing opposite
  // colors (type 1-a). Pseudo-coloring assigns A=Core, B=Second.
  model.addNet(1, hPath(0, 12, 10));  // A
  model.pseudoColor(1);
  model.addNet(2, hPath(0, 12, 11));  // B
  model.pseudoColor(2);
  std::cout << "after routing A and B:\n";
  printColors(model, {1, 2});

  // C's shortest path runs one track above B. With B fixed at Second,
  // C must be Core (1-a). Fine -- but now add D one track above C, and
  // so on: the chain's colors are forced all the way up. The flipping DP
  // re-optimizes the whole chain in linear time when costs change.
  model.addNet(3, hPath(0, 12, 12));  // C
  model.pseudoColor(3);
  model.addNet(4, hPath(0, 12, 13));  // D
  model.pseudoColor(4);
  std::cout << "after routing C and D (chain of 1-a constraints):\n";
  printColors(model, {1, 2, 3, 4});
  std::cout << "total side-overlay units: " << model.totalOverlayUnits()
            << "\n";

  // Bias the chain: pretend net 1 strongly prefers Second (e.g. a stub
  // segment prior) and let the flipping engine find the global optimum.
  model.graph(0).setPrior(1, 5, 0);
  const FlipStats s = colorFlip(model.graph(0));
  std::cout << "after color flipping (cost " << s.costBefore << " -> "
            << s.costAfter << "):\n";
  printColors(model, {1, 2, 3, 4});

  // Hard constraints (alternating colors along the chain) must still hold.
  const bool alternating = model.colorOf(1, 0) != model.colorOf(2, 0) &&
                           model.colorOf(2, 0) != model.colorOf(3, 0) &&
                           model.colorOf(3, 0) != model.colorOf(4, 0);
  std::cout << (alternating ? "chain parity preserved\n"
                            : "PARITY VIOLATION\n");
  return alternating ? 0 : 1;
}
