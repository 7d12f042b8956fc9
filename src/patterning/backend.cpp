#include "patterning/backend.hpp"

namespace sadp {

FlipStats PatterningBackend::recolorAll(OverlayModel& model) const {
  FlipStats total;
  for (int layer = 0; layer < model.layers(); ++layer) {
    const FlipStats s = recolor(model.graph(layer));
    total.costBefore += s.costBefore;
    total.costAfter += s.costAfter;
    total.components += s.components;
    total.componentsImproved += s.componentsImproved;
  }
  return total;
}

namespace {

class Sadp2Backend final : public PatterningBackend {
 public:
  const PatterningSpec& spec() const override {
    static const PatterningSpec kSpec{/*colorCount=*/2,
                                      /*name=*/"sadp2",
                                      /*pairOverlay=*/nullptr,
                                      /*pairCutRisk=*/nullptr,
                                      /*material=*/nullptr,
                                      /*hardRelation=*/nullptr};
    return kSpec;
  }

  FlipStats recolor(OverlayConstraintGraph& g) const override {
    return colorFlip(g);
  }

  std::uint64_t synthId() const override { return kSadpCutSynthId; }

  LayerDecomposition synthesize(std::span<const ColoredFragment> frags,
                                const DesignRules& rules,
                                const DecomposeOptions& opts) const override {
    // The decompose dispatch never reaches here (synthId ==
    // kSadpCutSynthId routes to the built-in pipeline), but direct callers
    // get the same result; clear synth to avoid re-dispatch.
    DecomposeOptions o = opts;
    o.synth = nullptr;
    return decomposeLayer(frags, rules, o);
  }
};

}  // namespace

const PatterningBackend& sadp2Backend() {
  static const Sadp2Backend kBackend;
  return kBackend;
}

const PatterningBackend* findPatterningBackend(std::string_view name) {
  if (name == "sadp2") return &sadp2Backend();
  if (name == "tpl3") return &tpl3Backend();
  return nullptr;
}

const char* knownBackendNames() { return "sadp2, tpl3"; }

}  // namespace sadp
