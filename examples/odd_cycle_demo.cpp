// Odd-cycle decomposition demo (paper Fig. 2 / Fig. 21).
//
// Three mutually-close patterns form an odd coloring cycle: under the trim
// process (plain two-coloring) the layout is NOT decomposable; the cut
// process resolves it by merging two same-colored patterns and separating
// them with a cut pattern. This demo builds such a layout, shows that the
// parity check detects the trim-process conflict, then lets the coloring
// engine solve it with the merge technique and verifies the masks.
#include <iostream>

#include "patterning/flipping.hpp"
#include "ocg/overlay_model.hpp"
#include "sadp/svg.hpp"

using namespace sadp;

namespace {

Fragment hw(NetId net, Track x0, Track x1, Track y) {
  return Fragment{x0, y, x1, y + 1, net};
}

std::vector<GridNode> cells(const Fragment& f) {
  std::vector<GridNode> out;
  for (Track y = f.ylo; y < f.yhi; ++y) {
    for (Track x = f.xlo; x < f.xhi; ++x) out.push_back({x, y, 0});
  }
  return out;
}

}  // namespace

int main() {
  // The motif: wires A and C sit on rows 2 and 4; wire B bridges rows 3
  // with single-track overlaps to both, forming the cycle A-B, B-C, A-C.
  const std::vector<Fragment> layout{
      hw(1, 0, 5, 2),   // A
      hw(2, 4, 9, 3),   // B (corner overlap with A and C)
      hw(3, 0, 5, 4),   // C
  };

  // --- Trim-process view: plain two-coloring over "too close" pairs -------
  // Under the trim mask-spacing rule every pair here needs different
  // colors; three mutual "different" constraints are an odd cycle.
  ParityDsu trim;
  bool trimOk = true;
  trimOk &= trim.unite(1, 2, 1);
  trimOk &= trim.unite(2, 3, 1);
  trimOk &= trim.unite(1, 3, 1);
  std::cout << "trim process two-coloring: "
            << (trimOk ? "decomposable" : "ODD CYCLE -> not decomposable")
            << "\n";

  // --- Cut-process view: the scenario classifier + color flipping ---------
  OverlayModel model(1);
  for (const Fragment& f : layout) {
    const AddNetResult r = model.addNet(f.net, cells(f));
    if (r.hardViolation) {
      std::cout << "unexpected hard violation\n";
      return 1;
    }
    model.pseudoColor(f.net);
  }
  const FlipStats flip = colorFlip(model.graph(0));
  std::cout << "cut process coloring (after flipping, cost " << flip.costAfter
            << "):\n";
  std::vector<ColoredFragment> colored;
  for (const Fragment& f : layout) {
    const Color c = model.colorOf(f.net, 0);
    std::cout << "  net " << f.net << " -> "
              << (c == Color::Second ? "second pattern" : "core pattern")
              << "\n";
    colored.push_back({f, c == Color::Unassigned ? Color::Core : c});
  }

  // --- Physical verification: masks print without hard overlay ------------
  const DesignRules rules;
  const LayerDecomposition d = decomposeLayer(colored, rules);
  std::cout << "mask synthesis: side overlay " << d.report.sideOverlayNm
            << " nm, hard overlays " << d.report.hardOverlays
            << ", cut conflicts " << d.report.cutConflicts() << "\n";
  SvgOptions svg;
  svg.drawCut = true;
  writeLayerSvgFile("odd_cycle.svg", d, colored, rules, svg);
  std::cout << "wrote odd_cycle.svg (blue = core, green = second, grey = "
               "spacer, gold = assist cores)\n";
  return d.report.hardOverlays == 0 && d.report.cutConflicts() == 0 ? 0 : 1;
}
