#include "route/astar.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "route/route_memo.hpp"
#include "run/run_context.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace sadp {

namespace {

/// Batches the per-search metrics into one registry flush per route()
/// call (on every return path), keeping atomics out of the search loop.
/// Writes through the owning engine's per-run handles.
struct SearchMetrics {
  const std::int64_t* heapPushes = nullptr;
  const std::int64_t* expansions = nullptr;
  Counter* routes = nullptr;
  Counter* exp = nullptr;
  Counter* pushes = nullptr;
  Histogram* perRoute = nullptr;

  ~SearchMetrics() {
    routes->add(1);
    exp->add(*expansions);
    pushes->add(*heapPushes);
    perRoute->add(*expansions);
  }
};

constexpr std::int64_t kInfQ = std::numeric_limits<std::int64_t>::max();

}  // namespace

/// Dial-style monotone bucket queue: a circular array of LIFO intrusive
/// lists indexed by f modulo a power-of-two bucket count. Valid only when
/// every pushed f is >= the last popped f (consistent heuristic plus
/// nonnegative quantized step costs) and the in-flight f span stays below
/// the bucket count -- both established by route() before choosing this
/// open list. Push and pop are O(1); pop scans forward from the cursor,
/// which only ever advances (total scan work is bounded by the f range).
/// LIFO within a bucket is deliberate: on the equal-f plateau of
/// co-optimal grid paths it keeps the search diving toward the goal
/// instead of sweeping the whole plateau breadth-first. Storage is the
/// engine's, refilled here.
class AStarEngine::BucketOpen {
 public:
  struct Popped {
    std::int64_t f;
    std::int64_t g;
    std::uint32_t node;
  };

  BucketOpen(std::vector<std::uint32_t>& heads,
             std::vector<BucketEntry>& pool, std::int64_t startF,
             std::uint32_t bucketCount)
      : mask_(bucketCount - 1), cur_(startF), pool_(&pool) {
    heads.assign(bucketCount, kNone);
    heads_ = heads.data();
    pool.clear();
  }

  bool empty() const { return live_ == 0; }

  void push(std::int64_t f, std::int64_t g, std::uint32_t node) {
    const auto ei = std::uint32_t(pool_->size());
    const auto b = std::uint32_t(std::uint64_t(f) & mask_);
    pool_->push_back({g, node, heads_[b]});
    heads_[b] = ei;
    ++live_;
  }

  /// Precondition: !empty(). LIFO within a bucket, so the pop order is
  /// exactly "by (f, most recent push first)" -- the property the integer
  /// heap mirrors to stay byte-identical.
  Popped pop() {
    while (heads_[std::uint64_t(cur_) & mask_] == kNone) ++cur_;
    const auto b = std::uint32_t(std::uint64_t(cur_) & mask_);
    const std::uint32_t ei = heads_[b];
    const BucketEntry& e = (*pool_)[ei];
    heads_[b] = e.next;
    --live_;
    return {cur_, e.g, e.node};
  }

 private:
  static constexpr std::uint32_t kNone = std::uint32_t(-1);

  std::uint64_t mask_;
  std::int64_t cur_;
  std::int64_t live_ = 0;
  std::vector<BucketEntry>* pool_;
  std::uint32_t* heads_;  ///< bucketHeads_.data(), never resized meanwhile
};

/// Binary min-heap over the same fixed-point costs, ordered by (f, push
/// sequence descending). The sequence tiebreak makes equal-f pops LIFO,
/// i.e. the exact pop order of BucketOpen -- this is the reference
/// implementation the fuzz suite compares buckets against, and the open
/// list whenever the bucket preconditions fail (negative penalties,
/// wrongWay < 1, f span too wide). Storage is the engine's, cleared here.
class AStarEngine::IntHeapOpen {
 public:
  struct Popped {
    std::int64_t f;
    std::int64_t g;
    std::uint32_t node;
  };

  explicit IntHeapOpen(std::vector<HeapEntry>& heap) : heap_(&heap) {
    heap.clear();
  }

  bool empty() const { return heap_->empty(); }

  void push(std::int64_t f, std::int64_t g, std::uint32_t node) {
    heap_->push_back({f, g, node, seq_++});
    std::push_heap(heap_->begin(), heap_->end(), After{});
  }

  Popped pop() {
    std::pop_heap(heap_->begin(), heap_->end(), After{});
    const HeapEntry e = heap_->back();
    heap_->pop_back();
    return {e.f, e.g, e.node};
  }

 private:
  struct After {  // min-heap on f, most recent push first on ties
    bool operator()(const HeapEntry& x, const HeapEntry& y) const {
      return x.f != y.f ? x.f > y.f : x.seq < y.seq;
    }
  };

  std::vector<HeapEntry>* heap_;
  std::uint32_t seq_ = 0;
};

FixedCostScale deriveFixedCostScale(const AStarParams& p) {
  // Smallest power-of-two scale (up to 2^12) under which the three static
  // step weights are exactly integral. The exactness check is a strict
  // double comparison, so a representable parameter set loses zero
  // precision by construction; anything else (alpha = 1/3, negative
  // weights, huge magnitudes) is rejected.
  constexpr int kMaxShift = 12;
  constexpr double kMaxQ = double(std::int64_t(1) << 40);
  for (int shift = 0; shift <= kMaxShift; ++shift) {
    const double s = double(std::int64_t(1) << shift);
    FixedCostScale fs;
    fs.shift = shift;
    auto rep = [&](double v, std::int64_t& out) {
      const double scaled = v * s;
      if (!(scaled >= 0.0) || scaled > kMaxQ) return false;
      if (scaled != std::floor(scaled)) return false;
      out = std::int64_t(scaled);
      return true;
    };
    if (rep(p.alpha, fs.alphaQ) && rep(p.beta, fs.betaQ) &&
        rep(p.alpha * p.wrongWay, fs.wrongQ)) {
      return fs;
    }
  }
  throw std::invalid_argument(
      "A* weights alpha=" + std::to_string(p.alpha) +
      " beta=" + std::to_string(p.beta) +
      " wrongWay=" + std::to_string(p.wrongWay) +
      " have no exact nonnegative fixed-point scale <= 2^12");
}

/// Resolved fixed-point cost model shared by both open lists. gamma and
/// the penalty fields are quantized per read with llround (deterministic,
/// but not required to be exact -- only the three static weights must
/// quantize losslessly).
struct AStarEngine::IntSearchSetup {
  const AStarParams* params;
  const PenaltyField* extra;
  const T2bField* t2b;
  std::int64_t alphaQ;
  std::int64_t betaQ;
  std::int64_t wrongQ;
  double scaleD;  ///< 1 << shift, as double
  bool useHeuristic;

  std::int64_t quant(double v) const { return std::llround(v * scaleD); }
};

void AStarEngine::recordProbe(const GridNode& n, NetId net,
                              const PenaltyField* extra, const T2bField* t2b) {
  SearchFootprint& fp = *record_;
  if (fp.overflow) return;
  if (recStamp_.size() != grid_->nodeCount()) {
    recStamp_.assign(grid_->nodeCount(), 0);
  }
  const auto idx = std::uint32_t(grid_->index(n));
  if (recStamp_[idx] == epoch_) return;  // already recorded this search
  recStamp_[idx] = epoch_;
  fp.bbox = fp.bbox.unionWith(Rect{n.x, n.y, n.x + 1, n.y + 1});
  // Footprint cap: a search that touches a large fraction of the grid is
  // cheaper to redo than to verify, and an unbounded footprint would make
  // the memo store scale with searched area rather than path length.
  constexpr std::size_t kMaxFootprintReads = 200'000;
  if (fp.reads.size() >= kMaxFootprintReads) {
    fp.overflow = true;
    return;
  }
  const NetId owner = grid_->owner(n);
  SearchCellRead r;
  r.index = idx;
  r.owner = owner == kInvalidNet ? CellOwnerClass::Free
            : owner == net       ? CellOwnerClass::Self
                                 : CellOwnerClass::Other;
  if (t2b != nullptr) {
    r.t2bH = t2b->horizontalEntry.at(n);
    r.t2bV = t2b->verticalEntry.at(n);
  }
  if (extra != nullptr) r.penalty = extra->at(n);
  fp.reads.push_back(r);
}

AStarEngine::AStarEngine(const RoutingGrid& grid, RunContext* ctx)
    : grid_(&grid),
      bestQ_(grid.nodeCount(), 0),
      parent_(grid.nodeCount(), 0),
      stamp_(grid.nodeCount(), 0),
      targetStamp_(grid.nodeCount(), 0) {
  MetricsRegistry& m =
      ctx ? ctx->metrics() : RunContext::current().metrics();
  routesCounter_ = &m.counter("astar.routes");
  expansionsCounter_ = &m.counter("astar.expansions");
  heapPushesCounter_ = &m.counter("astar.heap_pushes");
  heapRoutesCounter_ = &m.counter("astar.heap_routes");
  expansionsPerRoute_ = &m.histogram("astar.expansions_per_route");
}

template <bool kRecord, class Open>
std::optional<AStarResult> AStarEngine::searchFixed(
    Open& open, NetId net, std::span<const GridNode> targets,
    const IntSearchSetup& su, AStarResult& result) {
  const RoutingGrid& grid = *grid_;
  const AStarParams& params = *su.params;
  const std::uint32_t epoch = epoch_;

  auto decode = [&](std::uint32_t idx) {
    const std::size_t w = std::size_t(grid.width());
    const std::size_t h = std::size_t(grid.height());
    return GridNode{Track(idx % w), Track((idx / w) % h),
                    std::int16_t(idx / (w * h))};
  };
  auto gQOf = [&](std::uint32_t idx) {
    return stamp_[idx] == epoch ? bestQ_[idx] : kInfQ;
  };
  auto passable = [&](const GridNode& node) {
    const NetId owner = grid.owner(node);
    return owner == kInvalidNet || owner == net;
  };

  // Hoisted heuristic state, rebuilt once per expansion instead of once
  // per neighbor push: hBase[i] is h_i at the expanded node; the six
  // delta tables give h_i's exact change for each unit move (|d|+-1 folds
  // to +-weight depending on the sign of d), so a neighbor's h is a
  // T-term add/min scan with no multiplies or abs.
  const std::size_t T = su.useHeuristic ? targets.size() : 0;
  std::int64_t hBase[8];
  std::int64_t hDelta[6][8];  // indexed [move][target]

  std::uint32_t goal = std::uint32_t(-1);
  std::int64_t goalG = 0;
  while (!open.empty()) {
    const auto top = open.pop();
    if (top.g > gQOf(top.node)) continue;  // stale entry
    if (++result.expansions > params.maxExpansions) return std::nullopt;
    if (targetStamp_[top.node] == epoch) {
      goal = top.node;
      goalG = top.g;
      break;
    }
    const GridNode cur = decode(top.node);

    for (std::size_t i = 0; i < T; ++i) {
      const GridNode& t = targets[i];
      const std::int64_t dx = std::int64_t(cur.x) - std::int64_t(t.x);
      const std::int64_t dy = std::int64_t(cur.y) - std::int64_t(t.y);
      const std::int64_t dl =
          std::int64_t(cur.layer) - std::int64_t(t.layer);
      hBase[i] = su.alphaQ * (std::abs(dx) + std::abs(dy)) +
                 su.betaQ * std::abs(dl);
      hDelta[0][i] = dx >= 0 ? su.alphaQ : -su.alphaQ;  // x + 1
      hDelta[1][i] = dx <= 0 ? su.alphaQ : -su.alphaQ;  // x - 1
      hDelta[2][i] = dy >= 0 ? su.alphaQ : -su.alphaQ;  // y + 1
      hDelta[3][i] = dy <= 0 ? su.alphaQ : -su.alphaQ;  // y - 1
      hDelta[4][i] = dl >= 0 ? su.betaQ : -su.betaQ;    // layer + 1
      hDelta[5][i] = dl <= 0 ? su.betaQ : -su.betaQ;    // layer - 1
    }

    for (int m = 0; m < 6; ++m) {  // +-x, +-y, via up/down
      GridNode nxt = cur;
      bool viaMove = false;
      switch (m) {
        case 0: nxt.x += 1; break;
        case 1: nxt.x -= 1; break;
        case 2: nxt.y += 1; break;
        case 3: nxt.y -= 1; break;
        case 4: nxt.layer += 1; viaMove = true; break;
        case 5: nxt.layer -= 1; viaMove = true; break;
      }
      if (!grid.inBounds(nxt)) continue;
      if constexpr (kRecord) recordProbe(nxt, net, su.extra, su.t2b);
      if (!passable(nxt)) continue;
      std::int64_t stepQ;
      if (viaMove) {
        stepQ = su.betaQ;
      } else {
        const bool horizontalMove = (m < 2);
        const bool preferred =
            (grid.preferredDir(cur.layer) == Orient::Horizontal) ==
            horizontalMove;
        stepQ = preferred ? su.alphaQ : su.wrongQ;
        if (su.t2b != nullptr) {
          const PenaltyField& f = horizontalMove ? su.t2b->horizontalEntry
                                                 : su.t2b->verticalEntry;
          stepQ += su.quant(params.gamma * double(f.at(nxt)));
        }
      }
      if (su.extra != nullptr) stepQ += su.quant(double(su.extra->at(nxt)));
      const std::uint32_t nidx = std::uint32_t(grid.index(nxt));
      const std::int64_t g = top.g + stepQ;
      bool fresh = false;
      if (stamp_[nidx] != epoch) {
        stamp_[nidx] = epoch;
        bestQ_[nidx] = kInfQ;
        parent_[nidx] = std::uint32_t(-1);
        fresh = true;
      }
      if (fresh || g < bestQ_[nidx]) {
        bestQ_[nidx] = g;
        parent_[nidx] = top.node;
        std::int64_t h = 0;
        if (T != 0) {
          h = kInfQ;
          const std::int64_t* hd = hDelta[m];
          for (std::size_t i = 0; i < T; ++i) {
            h = std::min(h, hBase[i] + hd[i]);
          }
        }
        open.push(g + h, g, nidx);
        ++pushCount_;
      }
    }
  }
  if (goal == std::uint32_t(-1)) return std::nullopt;

  result.cost = double(goalG) / su.scaleD;
  std::uint32_t cur = goal;
  while (cur != std::uint32_t(-1)) {
    result.path.push_back(decode(cur));
    cur = parent_[cur];
  }
  std::reverse(result.path.begin(), result.path.end());
  for (std::size_t i = 1; i < result.path.size(); ++i) {
    if (result.path[i].layer != result.path[i - 1].layer) ++result.vias;
  }
  return result;
}

std::optional<AStarResult> AStarEngine::route(NetId net,
                                              std::span<const GridNode> sources,
                                              std::span<const GridNode> targets,
                                              const AStarParams& params,
                                              const PenaltyField* extra,
                                              const T2bField* t2b) {
  if (sources.empty() || targets.empty()) return std::nullopt;
  SADP_SPAN("astar.route");
  const RoutingGrid& grid = *grid_;

  // ---- fixed-point cost model (DESIGN.md §5.9.1) ----
  const FixedCostScale fs = deriveFixedCostScale(params);
  const double scaleD = double(std::int64_t(1) << fs.shift);
  // Per-read quantized terms must stay far from int64 range.
  constexpr double kMaxFieldQ = double(std::int64_t(1) << 40);
  double maxT2bQ = 0.0;
  double maxExtraQ = 0.0;
  if (t2b != nullptr) {
    maxT2bQ = std::abs(params.gamma) *
              std::max(double(t2b->horizontalEntry.maxSeen()),
                       double(t2b->verticalEntry.maxSeen())) *
              scaleD;
  }
  if (extra != nullptr) maxExtraQ = double(extra->maxSeen()) * scaleD;
  if (!(maxT2bQ <= kMaxFieldQ && maxExtraQ <= kMaxFieldQ)) {
    throw std::invalid_argument(
        "A* penalty field peak exceeds 2^40 after fixed-point scaling");
  }

  ++epoch_;
  const std::uint32_t epoch = epoch_;

  // Targets are stamped so membership tests stay O(1) even when routing
  // toward an entire existing tree (multi-pin Steiner extension).
  bool anyTarget = false;
  for (const GridNode& t : targets) {
    if (grid.inBounds(t)) {
      targetStamp_[grid.index(t)] = epoch;
      anyTarget = true;
    }
  }
  if (!anyTarget) return std::nullopt;

  AStarResult result;
  pushCount_ = 0;
  SearchMetrics metrics;
  metrics.heapPushes = &pushCount_;
  metrics.expansions = &result.expansions;
  metrics.routes = routesCounter_;
  metrics.exp = expansionsCounter_;
  metrics.pushes = heapPushesCounter_;
  metrics.perRoute = expansionsPerRoute_;

  IntSearchSetup su;
  su.params = &params;
  su.extra = extra;
  su.t2b = t2b;
  su.alphaQ = fs.alphaQ;
  su.betaQ = fs.betaQ;
  su.wrongQ = fs.wrongQ;
  su.scaleD = scaleD;
  // Admissible heuristic: cheapest conceivable remaining cost. With many
  // targets (tree targets) the linear scan would dominate, so fall back
  // to Dijkstra (h = 0), which is trivially admissible.
  su.useHeuristic = targets.size() <= 8;

  auto passable = [&](const GridNode& node) {
    const NetId owner = grid.owner(node);
    return owner == kInvalidNet || owner == net;
  };
  auto srcH = [&](const GridNode& a) -> std::int64_t {
    if (!su.useHeuristic) return 0;
    std::int64_t hBest = kInfQ;
    for (const GridNode& t : targets) {
      const std::int64_t d =
          su.alphaQ * (std::abs(std::int64_t(a.x) - std::int64_t(t.x)) +
                       std::abs(std::int64_t(a.y) - std::int64_t(t.y))) +
          su.betaQ * std::abs(std::int64_t(a.layer) - std::int64_t(t.layer));
      hBest = std::min(hBest, d);
    }
    return hBest;
  };

  seeds_.clear();
  std::int64_t minF = kInfQ;
  std::int64_t maxF = 0;
  for (const GridNode& s : sources) {
    if (!grid.inBounds(s)) continue;
    if (record_ != nullptr) recordProbe(s, net, extra, t2b);
    if (!passable(s)) continue;
    const auto idx = std::uint32_t(grid.index(s));
    const std::int64_t f = srcH(s);
    seeds_.push_back({idx, f});
    minF = std::min(minF, f);
    maxF = std::max(maxF, f);
  }
  if (seeds_.empty()) return std::nullopt;

  auto seed = [&](auto& open) {
    for (const Seed& s : seeds_) {
      if (stamp_[s.idx] != epoch) {
        stamp_[s.idx] = epoch;
        parent_[s.idx] = std::uint32_t(-1);
      }
      bestQ_[s.idx] = 0;
      open.push(s.f, 0, s.idx);
      ++pushCount_;
    }
  };

  // Bucket preconditions: every quantized step cost nonnegative (so f is
  // monotone under a consistent heuristic) and the in-flight f span
  // representable in a modest circular bucket array. wrongQ >= alphaQ
  // keeps the Manhattan heuristic consistent (h never drops faster than
  // the cheapest planar step). Otherwise the heap runs the same search.
  const bool monotone =
      fs.wrongQ >= fs.alphaQ &&
      (t2b == nullptr || params.gamma >= 0.0) &&
      (extra == nullptr || !extra->hasNegative()) &&
      (t2b == nullptr || (!t2b->horizontalEntry.hasNegative() &&
                          !t2b->verticalEntry.hasNegative()));
  if (monotone) {
    // f span bound: one step plus the heuristic's per-step drift, and at
    // least the spread of the seed f values.
    constexpr std::uint64_t kMaxBuckets = std::uint64_t(1) << 18;
    const std::int64_t maxStepQ =
        std::max({fs.alphaQ, fs.wrongQ, fs.betaQ}) +
        std::int64_t(std::ceil(maxT2bQ)) + std::int64_t(std::ceil(maxExtraQ));
    const std::int64_t hDriftQ =
        su.useHeuristic ? std::max(fs.alphaQ, fs.betaQ) : 0;
    const std::uint64_t span = std::uint64_t(
        std::max(maxStepQ + hDriftQ, maxF - minF));
    const std::uint64_t buckets = std::bit_ceil(span + 1);
    if (buckets <= kMaxBuckets) {
      BucketOpen open(bucketHeads_, bucketPool_, minF,
                      std::uint32_t(buckets));
      seed(open);
      return record_ != nullptr
                 ? searchFixed<true>(open, net, targets, su, result)
                 : searchFixed<false>(open, net, targets, su, result);
    }
  }
  heapRoutesCounter_->add(1);
  IntHeapOpen open(heap_);
  seed(open);
  return record_ != nullptr
             ? searchFixed<true>(open, net, targets, su, result)
             : searchFixed<false>(open, net, targets, su, result);
}

}  // namespace sadp
