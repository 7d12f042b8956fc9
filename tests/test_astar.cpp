// Tests for the overlay-aware A* engine.
#include "route/astar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace sadp {
namespace {

RoutingGrid makeGrid(Track w = 20, Track h = 20, int layers = 3) {
  return RoutingGrid(w, h, layers, DesignRules{});
}

TEST(AStar, StraightLinePreferredDirection) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  const GridNode s{2, 5, 0}, t{12, 5, 0};
  auto res = eng.route(1, {{s}}, {{t}}, AStarParams{});
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->path.front(), s);
  EXPECT_EQ(res->path.back(), t);
  EXPECT_EQ(res->path.size(), 11u);
  EXPECT_EQ(res->vias, 0);
  EXPECT_DOUBLE_EQ(res->cost, 10.0);
}

TEST(AStar, BendUsesLayersOrJog) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  auto res = eng.route(1, {{GridNode{2, 2, 0}}}, {{GridNode{10, 10, 0}}},
                       AStarParams{});
  ASSERT_TRUE(res.has_value());
  // Path must be connected: consecutive nodes differ by one step.
  for (std::size_t i = 1; i < res->path.size(); ++i) {
    const GridNode& a = res->path[i - 1];
    const GridNode& b = res->path[i];
    const int d = std::abs(a.x - b.x) + std::abs(a.y - b.y) +
                  std::abs(a.layer - b.layer);
    EXPECT_EQ(d, 1);
  }
}

TEST(AStar, AvoidsOccupiedNodes) {
  RoutingGrid g = makeGrid();
  // Wall across the middle on all layers except a door at (10, 18).
  for (int l = 0; l < 3; ++l) {
    for (Track y = 0; y < 20; ++y) {
      if (y == 18) continue;
      g.occupy({10, y, std::int16_t(l)}, 99);
    }
  }
  AStarEngine eng(g);
  auto res = eng.route(1, {{GridNode{2, 2, 0}}}, {{GridNode{18, 2, 0}}},
                       AStarParams{});
  ASSERT_TRUE(res.has_value());
  bool throughDoor = false;
  for (const GridNode& n : res->path) {
    EXPECT_NE(g.owner(n), 99);
    if (n.x == 10 && n.y == 18) throughDoor = true;
  }
  EXPECT_TRUE(throughDoor);
}

TEST(AStar, OwnNodesArePassable) {
  RoutingGrid g = makeGrid();
  g.occupy({5, 5, 0}, 1);  // the net's own pin reservation
  AStarEngine eng(g);
  auto res =
      eng.route(1, {{GridNode{5, 5, 0}}}, {{GridNode{8, 5, 0}}}, AStarParams{});
  ASSERT_TRUE(res.has_value());
}

TEST(AStar, UnreachableReturnsNullopt) {
  RoutingGrid g = makeGrid(10, 10, 1);
  for (Track y = 0; y < 10; ++y) g.block({5, y, 0});
  AStarEngine eng(g);
  auto res =
      eng.route(1, {{GridNode{2, 2, 0}}}, {{GridNode{8, 8, 0}}}, AStarParams{});
  EXPECT_FALSE(res.has_value());
}

TEST(AStar, MultiCandidatePinsPickClosest) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  std::vector<GridNode> sources{{2, 2, 0}, {2, 10, 0}};
  std::vector<GridNode> targets{{18, 10, 0}, {18, 18, 0}};
  auto res = eng.route(1, sources, targets, AStarParams{});
  ASSERT_TRUE(res.has_value());
  // (2,10) -> (18,10) is the straight preferred-direction option.
  EXPECT_EQ(res->path.front(), (GridNode{2, 10, 0}));
  EXPECT_EQ(res->path.back(), (GridNode{18, 10, 0}));
}

TEST(AStar, PenaltyFieldDiverts) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  PenaltyField fld(g);
  // Make the straight row expensive.
  for (Track x = 5; x < 15; ++x) fld.add({x, 5, 0}, 100.0f);
  auto res = eng.route(1, {{GridNode{2, 5, 0}}}, {{GridNode{18, 5, 0}}},
                       AStarParams{}, &fld);
  ASSERT_TRUE(res.has_value());
  for (const GridNode& n : res->path) {
    EXPECT_FALSE(n.layer == 0 && n.y == 5 && n.x >= 5 && n.x < 15)
        << "path should avoid the penalized row";
  }
}

TEST(AStar, T2bFieldIsDirectional) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  T2bField t2b(g);
  // Penalize vertical entry into row 5; horizontal entry stays free.
  for (Track x = 0; x < 20; ++x) t2b.verticalEntry.add({x, 5, 0}, 100.0f);
  AStarParams p;
  // Horizontal route across row 5 is unaffected.
  auto horiz = eng.route(1, {{GridNode{2, 5, 0}}}, {{GridNode{18, 5, 0}}}, p,
                         nullptr, &t2b);
  ASSERT_TRUE(horiz.has_value());
  EXPECT_DOUBLE_EQ(horiz->cost, 16.0);
  // A vertical route on layer 0 crossing row 5 must pay or dodge via layers.
  auto vert = eng.route(2, {{GridNode{10, 2, 0}}}, {{GridNode{10, 8, 0}}}, p,
                        nullptr, &t2b);
  ASSERT_TRUE(vert.has_value());
  bool enteredRow5OnL0Vertically = false;
  for (std::size_t i = 1; i < vert->path.size(); ++i) {
    if (vert->path[i].layer == 0 && vert->path[i].y == 5 &&
        vert->path[i - 1].y != 5) {
      enteredRow5OnL0Vertically = true;
    }
  }
  EXPECT_FALSE(enteredRow5OnL0Vertically);
}

TEST(AStar, ExpansionCapAborts) {
  RoutingGrid g = makeGrid(30, 30, 1);
  AStarEngine eng(g);
  AStarParams p;
  p.maxExpansions = 5;
  auto res = eng.route(1, {{GridNode{0, 0, 0}}}, {{GridNode{29, 29, 0}}}, p);
  EXPECT_FALSE(res.has_value());
}

TEST(AStar, ReusableEngineManyQueries) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  for (int i = 0; i < 200; ++i) {
    auto res = eng.route(1, {{GridNode{Track(i % 18), 2, 0}}},
                         {{GridNode{Track((i * 7) % 18), 15, 0}}},
                         AStarParams{});
    ASSERT_TRUE(res.has_value()) << i;
  }
}

TEST(AStar, ViaCostCounted) {
  RoutingGrid g = makeGrid();
  // Block the whole of layer 0 row except endpoints to force a layer hop.
  for (Track x = 5; x < 15; ++x) {
    for (Track y = 0; y < 20; ++y) g.block({x, y, 0});
  }
  AStarEngine eng(g);
  auto res = eng.route(1, {{GridNode{2, 5, 0}}}, {{GridNode{18, 5, 0}}},
                       AStarParams{});
  ASSERT_TRUE(res.has_value());
  EXPECT_GE(res->vias, 2);
}

// PenaltyField clears only the cells it wrote since the last clear, and
// falls back to a full fill once that log passes a fraction of the grid.
// A dense model replays the same float additions; after every add the
// summaries must agree, and after every clear the field must read as new.
TEST(PenaltyField, SparseAndDenseClearsMatchAFreshField) {
  RoutingGrid g = makeGrid(20, 20, 3);
  const std::size_t nodes = g.nodeCount();
  PenaltyField f(g);
  std::mt19937 rng(2024);
  std::vector<float> model(nodes, 0.0f);
  int denseRounds = 0;
  for (int round = 0; round < 60; ++round) {
    // Alternate sparse rounds (a few dozen writes) with rounds writing
    // more distinct cells than the log holds (nodes / 8).
    const bool dense = round % 3 == 2;
    const int writes = dense ? int(nodes) : int(rng() % 60);
    std::size_t distinct = 0;
    std::vector<char> written(nodes, 0);
    float maxSeen = 0.0f;  // largest value held since the last clear
    for (int i = 0; i < writes; ++i) {
      GridNode n{Track(rng() % 22) - 1, Track(rng() % 22) - 1,
                 std::int16_t(rng() % 3)};  // some writes fall off the grid
      if (!dense && i % 2 == 1) n = {3, 4, 1};  // a hot cell
      float delta = float(int(rng() % 9) - 4) * 0.5f;
      if (g.inBounds(n)) {
        const std::size_t idx = g.index(n);
        // Every fourth write cancels the cell back to exactly zero.
        if (i % 4 == 3) delta = -model[idx];
        model[idx] += delta;
        maxSeen = std::max(maxSeen, model[idx]);
        if (!written[idx]) ++distinct;
        written[idx] = 1;
      }
      f.add(n, delta);
      const bool anyNeg = std::any_of(model.begin(), model.end(),
                                      [](float v) { return v < 0.0f; });
      ASSERT_EQ(f.hasNegative(), anyNeg) << "round " << round << " add " << i;
    }
    for (std::size_t idx = 0; idx < nodes; ++idx) {
      ASSERT_EQ(f.atIndex(idx), model[idx]) << "round " << round;
    }
    ASSERT_EQ(f.maxSeen(), maxSeen) << "round " << round;
    if (distinct > nodes / 8) ++denseRounds;
    f.clear();
    std::fill(model.begin(), model.end(), 0.0f);
    for (std::size_t idx = 0; idx < nodes; ++idx) {
      ASSERT_EQ(f.atIndex(idx), 0.0f) << "round " << round << " idx " << idx;
    }
    ASSERT_FALSE(f.hasNegative()) << "round " << round;
    ASSERT_EQ(f.maxSeen(), 0.0f) << "round " << round;
  }
  EXPECT_EQ(denseRounds, 20);
}

}  // namespace
}  // namespace sadp
