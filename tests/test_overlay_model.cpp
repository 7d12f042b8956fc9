// Tests for OverlayModel: fragment extraction, scenario registration,
// per-layer graphs, and rip-up bookkeeping.
#include "ocg/overlay_model.hpp"

#include <gtest/gtest.h>

namespace sadp {
namespace {

std::vector<GridNode> hPath(Track x0, Track x1, Track y, int layer = 0) {
  std::vector<GridNode> p;
  for (Track x = x0; x < x1; ++x) p.push_back({x, y, std::int16_t(layer)});
  return p;
}

TEST(OverlayModel, FragmentExtractionStraight) {
  const auto frags = OverlayModel::fragmentsOf(1, hPath(2, 8, 3), 0);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0], (Fragment{2, 3, 8, 4, 1}));
}

TEST(OverlayModel, FragmentExtractionLShape) {
  std::vector<GridNode> p = hPath(0, 5, 0);
  for (Track y = 1; y < 4; ++y) p.push_back({4, y, 0});
  const auto frags = OverlayModel::fragmentsOf(1, p, 0);
  ASSERT_EQ(frags.size(), 2u);
  // One row rect and one column rect.
  std::int64_t cells = 0;
  for (const Fragment& f : frags) {
    cells += std::int64_t(f.width()) * f.height();
  }
  EXPECT_EQ(cells, 5 + 3);
}

TEST(OverlayModel, FragmentsFilterByLayer) {
  std::vector<GridNode> p = hPath(0, 3, 0, 0);
  p.push_back({2, 0, 1});
  EXPECT_EQ(OverlayModel::fragmentsOf(1, p, 0).size(), 1u);
  EXPECT_EQ(OverlayModel::fragmentsOf(1, p, 1).size(), 1u);
  EXPECT_EQ(OverlayModel::fragmentsOf(1, p, 2).size(), 0u);
}

TEST(OverlayModel, AdjacentWiresCreateT1aEdge) {
  OverlayModel m(3);
  m.addNet(1, hPath(0, 10, 5));
  const AddNetResult r = m.addNet(2, hPath(0, 10, 6));
  EXPECT_FALSE(r.hardViolation);  // two nets: 2-colorable
  const auto& g = m.graph(0);
  EXPECT_EQ(g.vertexCount(), 2u);
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].cls.type, ScenarioType::T1a);
}

TEST(OverlayModel, OddCycleOfHardEdgesFlagsViolation) {
  OverlayModel m(3);
  // Three mutually 1-track-adjacent long wires: rows 5, 6, 7. Net1-net2 and
  // net2-net3 are adjacent pairs; net1-net3 is at distance 2 (type 2-a,
  // nonhard). For a TRUE hard odd cycle use hard-same (1-b) to close it.
  m.addNet(1, hPath(0, 10, 5));
  m.addNet(2, hPath(0, 10, 6));
  const AddNetResult r3 = m.addNet(3, hPath(0, 10, 7));
  EXPECT_FALSE(r3.hardViolation);  // 1-3 at @2 is nonhard
  EXPECT_FALSE(m.hasHardViolation());
}

TEST(OverlayModel, PerLayerGraphsIndependent) {
  OverlayModel m(3);
  m.addNet(1, hPath(0, 10, 5, 0));
  m.addNet(2, hPath(0, 10, 6, 1));
  EXPECT_EQ(m.graph(0).vertexCount(), 1u);
  EXPECT_EQ(m.graph(1).vertexCount(), 1u);
  EXPECT_EQ(m.graph(0).edges().size(), 0u);
  EXPECT_EQ(m.graph(1).edges().size(), 0u);
}

TEST(OverlayModel, RemoveNetRetractsEverything) {
  OverlayModel m(3);
  m.addNet(1, hPath(0, 10, 5));
  m.addNet(2, hPath(0, 10, 6));
  EXPECT_EQ(m.graph(0).edges().size(), 1u);
  m.removeNet(2);
  EXPECT_TRUE(m.netFragments(2, 0).empty());
  // Re-adding elsewhere must not see stale fragments.
  const AddNetResult r = m.addNet(2, hPath(20, 30, 20));
  EXPECT_FALSE(r.hardViolation);
  int alive = 0;
  for (const OcgEdge& e : m.graph(0).edges()) {
    if (e.alive) ++alive;
  }
  EXPECT_EQ(alive, 0);
}

TEST(OverlayModel, Type2bCountReported) {
  OverlayModel m(3);
  m.addNet(1, hPath(0, 10, 8));  // horizontal wire on row 8
  // Vertical wire whose tip stops 2 tracks below the horizontal one
  // (occupies rows 0..6, so the track gap to row 8 is 2).
  std::vector<GridNode> v;
  for (Track y = 0; y < 7; ++y) v.push_back({5, y, 0});
  const AddNetResult r = m.addNet(2, v);
  EXPECT_EQ(r.type2bCount, 1);
}

TEST(OverlayModel, PseudoColorAvoidsOverlay) {
  OverlayModel m(3);
  m.addNet(1, hPath(0, 10, 5));
  m.pseudoColor(1);
  m.addNet(2, hPath(0, 10, 6));
  m.pseudoColor(2);
  // T1a edge: colors must differ.
  EXPECT_NE(m.colorOf(1, 0), m.colorOf(2, 0));
  EXPECT_EQ(m.totalOverlayUnits(), 0);
}

TEST(OverlayModel, OverlayUnitsOfNet) {
  OverlayModel m(3);
  // Diagonal 3-a pair: same colors induce one unit on each side.
  m.addNet(1, hPath(0, 5, 5));
  m.addNet(2, hPath(5, 10, 6));
  m.graph(0).setColor(1, Color::Core);
  m.graph(0).setColor(2, Color::Core);
  EXPECT_GT(m.overlayUnitsOfNet(1), 0);
  EXPECT_EQ(m.overlayUnitsOfNet(1), m.overlayUnitsOfNet(2));
  m.graph(0).setColor(2, Color::Second);
  EXPECT_EQ(m.overlayUnitsOfNet(1), 0);
}

TEST(OverlayModel, FragmentsInWindow) {
  OverlayModel m(3);
  m.addNet(1, hPath(0, 10, 5));
  m.addNet(2, hPath(20, 30, 20));
  const auto near = m.fragmentsInWindow(0, Rect{0, 0, 15, 15});
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0].net, 1);
  const auto all = m.fragmentsInWindow(0, Rect{0, 0, 50, 50});
  EXPECT_EQ(all.size(), 2u);
}

TEST(OverlayModel, MultiLayerNetColorsIndependently) {
  OverlayModel m(3);
  std::vector<GridNode> p = hPath(0, 10, 5, 0);
  auto l1 = hPath(0, 10, 5, 1);
  p.insert(p.end(), l1.begin(), l1.end());
  m.addNet(1, p);
  m.graph(0).setColor(1, Color::Core);
  m.graph(1).setColor(1, Color::Second);
  EXPECT_EQ(m.colorOf(1, 0), Color::Core);
  EXPECT_EQ(m.colorOf(1, 1), Color::Second);
}

}  // namespace
}  // namespace sadp
