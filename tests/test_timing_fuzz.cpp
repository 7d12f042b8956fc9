// Timing/negotiation determinism fuzz gate (ctest label `fuzz`): with
// --negotiate on (PathFinder pre-phase + criticality-driven ordering and
// weights), routed output must stay a pure function of the design:
//
//  * 1 vs 8 worker threads: byte-identical mask fingerprints, per-net
//    committed paths, CSV fields, and the FULL counter + histogram
//    snapshot (negotiation counters included);
//  * session ECO replay vs a cold route of the edited design:
//    byte-identical outcome (the negotiation pre-phase re-executes
//    deterministically on every replay).
//
// Run under -DSADP_SANITIZE=thread the same trials race-check the
// per-layer parallel passes of repair and sign-off.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/benchmark.hpp"
#include "route/router.hpp"
#include "run/run_context.hpp"
#include "sadp/bitmap.hpp"
#include "sadp/mask_cache.hpp"
#include "service/session.hpp"
#include "util/parallel_for.hpp"

namespace sadp {
namespace {

/// Seeded random design, dense enough that negotiation has real
/// contention to resolve.
BenchmarkSpec fuzzSpec(std::uint32_t seed) {
  std::mt19937 rng(seed * 2654435761u + 1013u);
  BenchmarkSpec s;
  s.name = "tf" + std::to_string(seed);
  s.netCount = 12 + int(rng() % 37);      // 12 .. 48
  s.width = Track(28 + int(rng() % 21));  // 28 .. 48
  s.height = Track(28 + int(rng() % 21));
  s.seed = std::uint64_t(seed) * 131 + 5;
  if (rng() % 4 == 0) s.pinCandidates = 2;
  return s;
}

RouterOptions negotiateOpts() {
  RouterOptions ro;
  ro.negotiate = true;
  ro.timingDriven = true;
  return ro;
}

struct RouteDigest {
  std::vector<std::uint64_t> planes;        ///< 4 mask planes per layer
  std::vector<std::vector<GridNode>> paths; ///< committed route per net
  std::vector<char> routed;
  OverlayReport report;
  std::string csvRow;
  std::vector<CounterSample> counters;
  std::vector<std::pair<std::string, std::int64_t>> histTotals;
};

RouteDigest routeOnce(const BenchmarkSpec& spec, int threads) {
  RunContext ctx;
  ctx.setThreadCount(threads);
  BenchmarkInstance inst = makeBenchmark(spec);
  OverlayAwareRouter router(inst.grid, inst.netlist, negotiateOpts(), &ctx);
  const RoutingStats stats = router.run();
  const OverlayReport report = router.physicalReport();

  RouteDigest out;
  for (int layer = 0; layer < inst.grid.layers(); ++layer) {
    const LayerDecomposition d = router.decompose(layer);
    out.planes.push_back(fingerprint(d.target));
    out.planes.push_back(fingerprint(d.coreMask));
    out.planes.push_back(fingerprint(d.spacer));
    out.planes.push_back(fingerprint(d.cut));
  }
  for (const NetRouteState& st : router.netStates()) {
    out.paths.push_back(st.path);
    out.routed.push_back(st.routed ? 1 : 0);
  }
  out.report = report;
  // The sadp_route_cli --csv row shape with the timing columns appended.
  std::ostringstream csv;
  csv << stats.totalNets << ',' << stats.routedNets << ','
      << stats.routability() << ',' << stats.wirelength << ',' << stats.vias
      << ',' << stats.ripUps << ',' << report.sideOverlayNm << ','
      << report.cutConflicts() << ',' << report.hardOverlays << ','
      << stats.worstSlack << ',' << stats.negotiateIters << ','
      << stats.negotiateOverflow << ',' << (stats.timingValid ? 1 : 0);
  out.csvRow = csv.str();
  out.counters = ctx.metrics().counterSnapshot();
  for (const std::string& name : ctx.metrics().histogramNames()) {
    const Histogram* h = ctx.metrics().findHistogram(name);
    out.histTotals.emplace_back(name, h->count());
    out.histTotals.emplace_back(name + ".sum", h->sum());
  }
  return out;
}

void expectSameDigest(const RouteDigest& got, const RouteDigest& ref,
                      const std::string& what) {
  EXPECT_EQ(got.planes, ref.planes) << what;
  EXPECT_EQ(got.routed, ref.routed) << what;
  EXPECT_EQ(got.paths, ref.paths) << what;
  EXPECT_TRUE(got.report == ref.report) << what;
  EXPECT_EQ(got.csvRow, ref.csvRow) << what;
  EXPECT_EQ(got.histTotals, ref.histTotals) << what;
  ASSERT_EQ(got.counters.size(), ref.counters.size()) << what;
  for (std::size_t i = 0; i < ref.counters.size(); ++i) {
    EXPECT_EQ(got.counters[i].first, ref.counters[i].first) << what;
    EXPECT_EQ(got.counters[i].second, ref.counters[i].second)
        << what << " counter " << ref.counters[i].first;
  }
}

TEST(TimingFuzz, NegotiatedRoutingByteIdenticalAcrossThreadCounts) {
  setParallelThreads(8);
  std::int64_t totalNegotiateRounds = 0;
  for (std::uint32_t seed = 1; seed <= 100; ++seed) {
    const BenchmarkSpec spec = fuzzSpec(seed);
    const std::string what = "seed=" + std::to_string(seed) + " nets=" +
                             std::to_string(spec.netCount);
    const RouteDigest serial = routeOnce(spec, 1);
    expectSameDigest(routeOnce(spec, 8), serial, what + " threads=8");
    for (const auto& [name, v] : serial.histTotals) {
      if (name == "router.negotiate_overflow") totalNegotiateRounds += v;
    }
    if (HasFatalFailure()) break;
  }
  // The gate must exercise negotiation for real.
  EXPECT_GT(totalNegotiateRounds, 0);
  setParallelThreads(0);
}

// ---------------------------------------------------------------------
// Session ECO replay with negotiation on: every incremental re-route must
// equal a cold route of the edited design, byte for byte.

BenchmarkSpec ecoSpec(std::uint64_t seed) {
  BenchmarkSpec s;
  s.name = "tfe";
  s.netCount = 30;
  s.width = 44;
  s.height = 44;
  s.seed = seed;
  return s;
}

EditRequest randomEdit(std::mt19937_64& rng, const Session& s, int caseId,
                       int step) {
  const std::vector<NetSpec> nets = s.netSpecs();
  EditRequest e;
  const int kind = int(rng() % 4);
  auto node = [&] {
    return GridNode{Track(rng() % std::uint64_t(s.spec().width)),
                    Track(rng() % std::uint64_t(s.spec().height)), 0};
  };
  if (kind == 3 && nets.size() > 5) {
    e.kind = EditRequest::Kind::RemoveNet;
    e.net = nets[rng() % nets.size()].name;
  } else if (kind == 2) {
    e.kind = EditRequest::Kind::AddNet;
    e.net = "tf" + std::to_string(caseId) + "_" + std::to_string(step);
    const GridNode a = node();
    GridNode b = node();
    while (b == a) b = node();
    e.pins = {Pin{{a}}, Pin{{b}}};
  } else {
    e.kind = EditRequest::Kind::MovePin;
    const NetSpec& n = nets[rng() % nets.size()];
    e.net = n.name;
    e.pinIndex = int(rng() % n.pins.size());
    e.pins = {Pin{{node()}}};
  }
  return e;
}

void expectSameOutcome(const RouteOutcome& eco, const RouteOutcome& cold,
                       int caseId, int step) {
  ASSERT_EQ(eco.designFp, cold.designFp)
      << "case " << caseId << " step " << step;
  EXPECT_EQ(eco.layerMaskFp, cold.layerMaskFp);
  EXPECT_EQ(eco.report, cold.report);
  EXPECT_EQ(eco.csvRow, cold.csvRow);
  EXPECT_EQ(eco.stats.totalNets, cold.stats.totalNets);
  EXPECT_EQ(eco.stats.routedNets, cold.stats.routedNets);
  EXPECT_EQ(eco.stats.wirelength, cold.stats.wirelength);
  EXPECT_EQ(eco.stats.vias, cold.stats.vias);
  EXPECT_EQ(eco.stats.worstSlack, cold.stats.worstSlack);
  EXPECT_EQ(eco.stats.negotiateIters, cold.stats.negotiateIters);
  EXPECT_EQ(eco.stats.negotiateOverflow, cold.stats.negotiateOverflow);
}

TEST(TimingFuzz, EcoReplaysWithNegotiationMatchColdRoutes) {
  constexpr int kCases = 25;
  constexpr int kEditsPerCase = 2;
  std::int64_t totalMemoHits = 0;
  for (int caseId = 0; caseId < kCases; ++caseId) {
    std::mt19937_64 rng(0x71b10000u + std::uint64_t(caseId));
    MaskCache cache;
    Session eco("eco", ecoSpec(1 + std::uint64_t(caseId % 7)), &cache,
                negotiateOpts());
    eco.routeFull();
    for (int step = 0; step < kEditsPerCase; ++step) {
      const EditRequest e = randomEdit(rng, eco, caseId, step);
      std::string err;
      const std::optional<RouteOutcome> out = eco.applyEdit(e, &err);
      if (!out) continue;  // rejected edit: no run happened
      totalMemoHits += out->memoHits;

      MaskCache coldCache;
      Session cold("cold", ecoSpec(1 + std::uint64_t(caseId % 7)),
                   &coldCache, negotiateOpts());
      cold.setNets(eco.netSpecs());
      const RouteOutcome ref = cold.routeFull();
      expectSameOutcome(*out, ref, caseId, step);
      if (HasFatalFailure()) return;
    }
  }
  // Negotiation must not defeat memoization: replayed searches that re-see
  // the same history base must verify and hit.
  EXPECT_GT(totalMemoHits, 0);
}

/// Four-thread sessions over a widened process pool: the per-layer
/// parallel passes fan out during replay even on a single-CPU host.
TEST(TimingFuzz, EcoReplaysWithNegotiationAtFourThreadsMatchColdRoutes) {
  constexpr int kCases = 10;
  setParallelThreads(8);
  for (int caseId = 0; caseId < kCases; ++caseId) {
    std::mt19937_64 rng(0x71b20000u + std::uint64_t(caseId));
    MaskCache cache;
    Session eco("eco", ecoSpec(2 + std::uint64_t(caseId % 5)), &cache,
                negotiateOpts());
    eco.setThreads(4);
    eco.routeFull();
    const EditRequest e = randomEdit(rng, eco, caseId, 0);
    std::string err;
    const std::optional<RouteOutcome> out = eco.applyEdit(e, &err);
    if (!out) continue;

    MaskCache coldCache;
    Session cold("cold", ecoSpec(2 + std::uint64_t(caseId % 5)), &coldCache,
                 negotiateOpts());
    // Same thread budget: the CSV row's thread column reports it.
    cold.setThreads(4);
    cold.setNets(eco.netSpecs());
    const RouteOutcome ref = cold.routeFull();
    expectSameOutcome(*out, ref, caseId, 0);
    if (HasFatalFailure()) break;
  }
  setParallelThreads(0);
}

}  // namespace
}  // namespace sadp
