// Timing/negotiation determinism fuzz gate (ctest label `fuzz`): with
// --negotiate on (PathFinder pre-phase + criticality-driven ordering and
// weights), a session ECO replay must equal a cold route of the edited
// design, byte for byte (the negotiation pre-phase re-executes
// deterministically on every replay).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "netlist/benchmark.hpp"
#include "route/router.hpp"
#include "sadp/mask_cache.hpp"
#include "service/session.hpp"

namespace sadp {
namespace {

RouterOptions negotiateOpts() {
  RouterOptions ro;
  ro.negotiate = true;
  ro.timingDriven = true;
  return ro;
}

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

}  // namespace
}  // namespace sadp
