// Fuzz equivalence suite for the fixed-point A* core (DESIGN.md §5.9.1).
//
// route() pops from a Dial bucket queue when its preconditions hold and
// from an integer binary heap otherwise. The two share one cost model and,
// by construction, one pop order -- LIFO within equal f equals ordering by
// (f, push sequence descending). These tests enforce that byte-for-byte
// over randomized grids, obstacle fields, penalty fields and T2b marks:
// identical paths (node by node), costs, via counts, expansion counts, and
// metric counter values, route after route on a warm engine. The heap is
// reached through its production trigger, not a knob: a 10^6 penalty on a
// cell another net owns widens the f span past 2^18 buckets, yet the
// search never reads the cost of a cell it cannot enter.
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "route/astar.hpp"
#include "run/run_context.hpp"

namespace sadp {
namespace {

struct RouteOutcome {
  bool routed = false;
  std::vector<GridNode> path;
  double cost = 0.0;
  int vias = 0;
  std::int64_t expansions = 0;
  std::int64_t ctrRoutes = 0;
  std::int64_t ctrExpansions = 0;
  std::int64_t ctrPushes = 0;
  /// Not compared: it tells which open list ran, the one thing that may
  /// differ.
  std::int64_t ctrHeapRoutes = 0;
  /// Some source was passable, so the search reached an open list (a
  /// search with every source blocked counts as a route but runs neither).
  bool seeded = false;
};

bool operator==(const RouteOutcome& a, const RouteOutcome& b) {
  return a.routed == b.routed && a.path == b.path && a.cost == b.cost &&
         a.vias == b.vias && a.expansions == b.expansions &&
         a.ctrRoutes == b.ctrRoutes &&
         a.ctrExpansions == b.ctrExpansions && a.ctrPushes == b.ctrPushes;
}

struct Scenario {
  RoutingGrid grid;
  std::vector<GridNode> sources;
  std::vector<GridNode> targets;
  AStarParams params;
  PenaltyField extra;
  T2bField t2b;
  bool useExtra = false;
  bool useT2b = false;
};

/// Randomized routing scenario: obstacles, multi-source/multi-target pin
/// sets, quantizable cost weights, and optional (nonnegative) penalty and
/// T2b fields so both bucket and heap modes stay eligible.
Scenario makeScenario(std::mt19937& rng) {
  std::uniform_int_distribution<int> dim(8, 24);
  std::uniform_int_distribution<int> layerCount(1, 3);
  const Track w = Track(dim(rng));
  const Track h = Track(dim(rng));
  const int layers = layerCount(rng);
  Scenario s{RoutingGrid(w, h, layers, DesignRules{}),
             {},
             {},
             AStarParams{},
             PenaltyField{RoutingGrid(w, h, layers, DesignRules{})},
             T2bField{RoutingGrid(w, h, layers, DesignRules{})}};
  s.extra = PenaltyField(s.grid);
  s.t2b = T2bField(s.grid);

  std::uniform_int_distribution<int> x(0, w - 1);
  std::uniform_int_distribution<int> y(0, h - 1);
  std::uniform_int_distribution<int> l(0, layers - 1);
  auto node = [&] {
    return GridNode{Track(x(rng)), Track(y(rng)), std::int16_t(l(rng))};
  };

  // Obstacles owned by another net (the routed net is net 1).
  std::uniform_int_distribution<int> obstacleCount(0, int(w) * int(h) / 4);
  const int obstacles = obstacleCount(rng);
  for (int i = 0; i < obstacles; ++i) s.grid.occupy(node(), 99);

  std::uniform_int_distribution<int> pins(1, 4);
  const int nSrc = pins(rng);
  const int nTgt = pins(rng);
  for (int i = 0; i < nSrc; ++i) s.sources.push_back(node());
  for (int i = 0; i < nTgt; ++i) s.targets.push_back(node());

  // Dyadic weights: exactly representable at scale <= 2^3, and
  // wrongWay >= 1 so the bucket mode's consistency precondition holds.
  std::uniform_int_distribution<int> eighths(1, 24);
  std::uniform_int_distribution<int> wrongEighths(8, 24);
  s.params.alpha = eighths(rng) / 8.0;
  s.params.beta = eighths(rng) / 8.0;
  s.params.gamma = eighths(rng) / 8.0;
  s.params.wrongWay = wrongEighths(rng) / 8.0;

  std::bernoulli_distribution coin(0.5);
  std::uniform_real_distribution<float> pen(0.0f, 12.0f);
  std::uniform_int_distribution<int> penCount(0, 40);
  s.useExtra = coin(rng);
  if (s.useExtra) {
    const int n = penCount(rng);
    for (int i = 0; i < n; ++i) s.extra.add(node(), pen(rng));
  }
  s.useT2b = coin(rng);
  if (s.useT2b) {
    const int n = penCount(rng);
    for (int i = 0; i < n; ++i) {
      s.t2b.horizontalEntry.add(node(), pen(rng));
      s.t2b.verticalEntry.add(node(), pen(rng));
    }
  }
  return s;
}

/// One search of net 1 on `engine` (sources and targets swapped when
/// `swapped`), with the metric counters `ctx` holds afterwards.
RouteOutcome searchOnce(AStarEngine& engine, RunContext& ctx,
                        const Scenario& s, bool swapped,
                        const PenaltyField* extra) {
  const auto& src = swapped ? s.targets : s.sources;
  const auto& tgt = swapped ? s.sources : s.targets;
  auto res = engine.route(1, src, tgt, s.params, extra,
                          s.useT2b ? &s.t2b : nullptr);
  RouteOutcome o;
  o.routed = res.has_value();
  if (res) {
    o.path = res->path;
    o.cost = res->cost;
    o.vias = res->vias;
    o.expansions = res->expansions;
  }
  o.ctrRoutes = ctx.metrics().counter("astar.routes").value();
  o.ctrExpansions = ctx.metrics().counter("astar.expansions").value();
  o.ctrPushes = ctx.metrics().counter("astar.heap_pushes").value();
  o.ctrHeapRoutes = ctx.metrics().counter("astar.heap_routes").value();
  for (const GridNode& n : src) {
    const NetId owner = s.grid.owner(n);
    o.seeded = o.seeded || owner == kInvalidNet || owner == 1;
  }
  return o;
}

/// Runs the scenario's route sequence with a fresh RunContext, snapshotting
/// results and metric counters. `extra` stands in for the scenario's own
/// penalty field when given.
std::vector<RouteOutcome> runScenario(const Scenario& s,
                                      const PenaltyField* extra = nullptr) {
  RunContext ctx;
  RunContext::Scope scope(ctx);
  AStarEngine engine(s.grid, &ctx);
  if (extra == nullptr && s.useExtra) extra = &s.extra;

  std::vector<RouteOutcome> out;
  // Route twice (warm engine, reused epoch-stamped arrays), then once
  // with sources/targets swapped for a different search shape.
  for (int pass = 0; pass < 3; ++pass) {
    out.push_back(searchOnce(engine, ctx, s, pass == 2, extra));
  }
  return out;
}

/// Searches among `runs` that reached an open list.
std::int64_t seededCount(const std::vector<RouteOutcome>& runs) {
  std::int64_t n = 0;
  for (const RouteOutcome& o : runs) n += o.seeded ? 1 : 0;
  return n;
}

/// A copy of the scenario's penalty field (empty when it has none) plus a
/// 10^6 penalty on a cell owned by another net, which sends every search
/// to the heap without changing what it reads. Occupies such a cell, away
/// from the pins, when the scenario drew no obstacle.
PenaltyField heapTriggerField(Scenario& s) {
  auto isPin = [&](const GridNode& n) {
    for (const GridNode& p : s.sources) {
      if (p == n) return true;
    }
    for (const GridNode& p : s.targets) {
      if (p == n) return true;
    }
    return false;
  };
  std::optional<GridNode> foreign, spare;
  for (int l = 0; l < s.grid.layers() && !foreign; ++l) {
    for (Track y = 0; y < s.grid.height() && !foreign; ++y) {
      for (Track x = 0; x < s.grid.width() && !foreign; ++x) {
        const GridNode n{x, y, std::int16_t(l)};
        if (s.grid.owner(n) == 99) foreign = n;
        if (!spare && !isPin(n)) spare = n;
      }
    }
  }
  if (!foreign) {
    s.grid.occupy(*spare, 99);
    foreign = spare;
  }
  PenaltyField f = s.useExtra ? s.extra : PenaltyField(s.grid);
  f.add(*foreign, 1e6f);
  return f;
}

TEST(AStarEquiv, BucketMatchesHeapByteForByte) {
  std::mt19937 rng(20140601);  // DAC'14 seed; deterministic suite
  for (int iter = 0; iter < 150; ++iter) {
    Scenario s = makeScenario(rng);
    const PenaltyField trigger = heapTriggerField(s);
    const auto bucket = runScenario(s);
    const auto heap = runScenario(s, &trigger);
    ASSERT_EQ(bucket.size(), heap.size());
    // Nonnegative fields and wrongWay >= 1: every search takes the
    // buckets unforced; the trigger sends every seeded one to the heap.
    EXPECT_EQ(bucket.back().ctrHeapRoutes, 0) << "iter " << iter;
    EXPECT_EQ(heap.back().ctrHeapRoutes, seededCount(heap))
        << "iter " << iter;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      EXPECT_TRUE(bucket[i] == heap[i])
          << "iter " << iter << " pass " << i << ": bucket(cost="
          << bucket[i].cost << ", exp=" << bucket[i].expansions
          << ", pushes=" << bucket[i].ctrPushes << ", len="
          << bucket[i].path.size() << ") vs heap(cost=" << heap[i].cost
          << ", exp=" << heap[i].expansions << ", pushes="
          << heap[i].ctrPushes << ", len=" << heap[i].path.size() << ")";
    }
  }
}

TEST(AStarEquiv, NegativePenaltiesFallBackAndStillAgree) {
  // A field holding negative values rules out the bucket queue: every
  // search must fall back to the heap, and agree with the heap reached
  // through the span trigger. The negative deltas are capped at the
  // minimum step weight (1/8), keeping every edge cost nonnegative -- a
  // genuinely negative cycle would hang any reopening-based search.
  std::mt19937 rng(99);
  for (int iter = 0; iter < 40; ++iter) {
    Scenario s = makeScenario(rng);
    s.useExtra = true;
    std::uniform_int_distribution<int> x(0, s.grid.width() - 1);
    std::uniform_int_distribution<int> y(0, s.grid.height() - 1);
    for (int i = 0; i < 10; ++i) {
      const GridNode n{Track(x(rng)), Track(y(rng)), 0};
      if (s.extra.at(n) == 0.0f) s.extra.add(n, -0.125f);
    }
    for (Track xx = 0; !s.extra.hasNegative() && xx < s.grid.width(); ++xx) {
      const GridNode n{xx, 0, 0};
      if (s.extra.at(n) == 0.0f) s.extra.add(n, -0.125f);
    }
    ASSERT_TRUE(s.extra.hasNegative());
    const PenaltyField trigger = heapTriggerField(s);
    const auto negative = runScenario(s);
    const auto widened = runScenario(s, &trigger);
    EXPECT_EQ(negative.back().ctrHeapRoutes, seededCount(negative))
        << "iter " << iter;
    for (std::size_t i = 0; i < negative.size(); ++i) {
      EXPECT_TRUE(negative[i] == widened[i]) << "iter " << iter;
    }
  }
}

TEST(AStarEquiv, ReusedEngineMatchesFreshEngines) {
  // One warm engine runs bucket searches whose field peaks need different
  // bucket counts, interleaved with heap searches forced by the trigger
  // field. Each search must equal a fresh engine's on the same inputs,
  // counter deltas included: no bucket head, pool entry, heap entry or
  // seed of an earlier search may leak into a later one.
  std::mt19937 rng(2014);
  for (int iter = 0; iter < 60; ++iter) {
    Scenario s = makeScenario(rng);
    const PenaltyField trigger = heapTriggerField(s);
    std::uniform_int_distribution<int> x(0, s.grid.width() - 1);
    std::uniform_int_distribution<int> y(0, s.grid.height() - 1);
    PenaltyField mid(s.grid);
    PenaltyField wide(s.grid);
    mid.add({Track(x(rng)), Track(y(rng)), 0}, 40.0f);
    wide.add({Track(x(rng)), Track(y(rng)), 0}, 3000.0f);
    struct Search {
      const PenaltyField* extra;
      bool swapped;
    };
    const Search plan[] = {
        {&wide, false},    {&trigger, false}, {nullptr, false},
        {&mid, true},      {&trigger, true},  {&wide, true},
        {nullptr, true},   {&trigger, false}, {&mid, false},
    };

    RunContext warmCtx;
    RunContext::Scope scope(warmCtx);
    AStarEngine warm(s.grid, &warmCtx);
    RouteOutcome prev;
    std::int64_t heapSearches = 0;
    for (std::size_t i = 0; i < std::size(plan); ++i) {
      RouteOutcome got =
          searchOnce(warm, warmCtx, s, plan[i].swapped, plan[i].extra);
      const RouteOutcome total = got;
      got.ctrRoutes -= prev.ctrRoutes;
      got.ctrExpansions -= prev.ctrExpansions;
      got.ctrPushes -= prev.ctrPushes;
      got.ctrHeapRoutes -= prev.ctrHeapRoutes;
      prev = total;

      RunContext freshCtx;
      RunContext::Scope freshScope(freshCtx);
      AStarEngine fresh(s.grid, &freshCtx);
      const RouteOutcome want =
          searchOnce(fresh, freshCtx, s, plan[i].swapped, plan[i].extra);
      EXPECT_TRUE(got == want)
          << "iter " << iter << " search " << i << ": warm(cost=" << got.cost
          << ", exp=" << got.expansions << ", pushes=" << got.ctrPushes
          << ") vs fresh(cost=" << want.cost << ", exp=" << want.expansions
          << ", pushes=" << want.ctrPushes << ")";
      EXPECT_EQ(got.ctrHeapRoutes, want.ctrHeapRoutes)
          << "iter " << iter << " search " << i;
      if (plan[i].extra == &trigger && want.seeded) ++heapSearches;
    }
    // Only the trigger searches ran on the heap.
    EXPECT_EQ(prev.ctrHeapRoutes, heapSearches) << "iter " << iter;
  }
}

TEST(AStarEquiv, UnrepresentableWeightsAreRejected) {
  // The engine has one cost model and no fallback: weights with no exact
  // power-of-two scale <= 2^12, and fields whose quantized peak passes
  // 2^40, are refused instead of searched some other way.
  RoutingGrid g(16, 16, 2, DesignRules{});
  RunContext ctx;
  RunContext::Scope scope(ctx);
  AStarEngine eng(g, &ctx);
  const GridNode src{1, 1, 0};
  const GridNode dst{12, 9, 1};
  auto route = [&](const AStarParams& p, const PenaltyField* extra,
                   const T2bField* t2b) {
    return eng.route(1, {&src, 1}, {&dst, 1}, p, extra, t2b);
  };

  AStarParams third;
  third.alpha = 1.0 / 3.0;
  EXPECT_THROW(route(third, nullptr, nullptr), std::invalid_argument);
  AStarParams negative;
  negative.beta = -1.0;
  EXPECT_THROW(route(negative, nullptr, nullptr), std::invalid_argument);

  // Default weights quantize at scale 2, so a peak of 2^39 is the largest
  // a field may hold; the next float up is refused.
  const GridNode cell{5, 5, 0};
  PenaltyField atLimit(g);
  atLimit.add(cell, 0x1p39f);
  EXPECT_TRUE(route(AStarParams{}, &atLimit, nullptr).has_value());
  PenaltyField over(g);
  over.add(cell, std::nextafter(0x1p39f, 1e30f));
  EXPECT_THROW(route(AStarParams{}, &over, nullptr), std::invalid_argument);
  T2bField t2b(g);
  t2b.verticalEntry.add(cell, 1e12f);
  EXPECT_THROW(route(AStarParams{}, nullptr, &t2b), std::invalid_argument);

  // Only the accepted search counts; rejection leaves the engine usable.
  EXPECT_EQ(ctx.metrics().counter("astar.routes").value(), 1);
  EXPECT_TRUE(route(AStarParams{}, nullptr, nullptr).has_value());
}

TEST(AStarEquiv, FixedScaleDerivation) {
  AStarParams def;  // alpha=1, beta=1, wrongWay=1.5 -> scale 2
  const FixedCostScale fs = deriveFixedCostScale(def);
  EXPECT_EQ(fs.shift, 1);
  EXPECT_EQ(fs.alphaQ, 2);
  EXPECT_EQ(fs.betaQ, 2);
  EXPECT_EQ(fs.wrongQ, 3);

  AStarParams ints;
  ints.alpha = 2.0;
  ints.beta = 3.0;
  ints.wrongWay = 2.0;
  const FixedCostScale fi = deriveFixedCostScale(ints);
  EXPECT_EQ(fi.shift, 0);

  AStarParams neg;
  neg.alpha = -1.0;
  EXPECT_THROW(deriveFixedCostScale(neg), std::invalid_argument);
}

}  // namespace
}  // namespace sadp
