// Concurrent-isolation stress test (DESIGN.md §5.8): two full routing
// runs executing at the same time in separate RunContexts must produce
// metrics, trace totals, eval CSV rows and mask-plane fingerprints
// byte-identical to running each alone. Runs under TSan via the
// `concurrent` ctest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/eval.hpp"
#include "netlist/benchmark.hpp"
#include "route/router.hpp"
#include "run/run_context.hpp"
#include "sadp/bitmap.hpp"

namespace sadp {
namespace {

/// Everything a run produces that the isolation contract covers. Span
/// wall times and cpuSeconds are wall clock and excluded by design; every
/// span COUNT must match.
struct RunArtifacts {
  std::vector<CounterSample> counters;
  std::vector<std::pair<std::string, std::int64_t>> spanCounts;
  std::vector<std::uint64_t> maskFingerprints;
  std::string csvRow;

  friend bool operator==(const RunArtifacts&, const RunArtifacts&) = default;
};

RunArtifacts runPipeline(const BenchmarkSpec& spec) {
  RunContext ctx;
  ctx.setTraceLevel(TraceLevel::Aggregate);
  RunContext::Scope bind(ctx);

  BenchmarkInstance inst = makeBenchmark(spec);
  OverlayAwareRouter router(inst.grid, inst.netlist, {}, &ctx);
  router.run();

  RunArtifacts a;
  for (int layer = 0; layer < inst.grid.layers(); ++layer) {
    const LayerDecomposition d = router.decompose(layer);
    a.maskFingerprints.push_back(fingerprint(d.target));
    a.maskFingerprints.push_back(fingerprint(d.coreMask));
    a.maskFingerprints.push_back(fingerprint(d.spacer));
    a.maskFingerprints.push_back(fingerprint(d.cut));
  }

  // The eval layer runs the whole pipeline again through its own API.
  ExperimentRow row = runProposed(spec, &ctx);
  row.cpuSeconds = 0.0;  // the one nondeterministic CSV field
  std::ostringstream os;
  writeCsv(os, {row});
  a.csvRow = os.str();

  a.counters = ctx.metrics().counterSnapshot();
  for (const SpanAggregate& agg : ctx.trace().aggregates()) {
    a.spanCounts.emplace_back(agg.name, agg.count);
  }
  return a;
}

TEST(ConcurrentIsolation, TwoConcurrentFullRunsMatchSerialExecution) {
  const BenchmarkSpec specA = paperBenchmark("Test1").scaled(0.05);
  const BenchmarkSpec specB = paperBenchmark("Test2").scaled(0.04);

  const RunArtifacts serialA = runPipeline(specA);
  const RunArtifacts serialB = runPipeline(specB);
  ASSERT_FALSE(serialA.counters.empty());
  ASSERT_FALSE(serialA.spanCounts.empty());
  ASSERT_FALSE(serialA.maskFingerprints.empty());
  ASSERT_NE(serialA.counters, serialB.counters);  // distinct designs

  RunArtifacts concurrentA, concurrentB;
  std::thread ta([&] { concurrentA = runPipeline(specA); });
  std::thread tb([&] { concurrentB = runPipeline(specB); });
  ta.join();
  tb.join();

  EXPECT_EQ(serialA.counters, concurrentA.counters);
  EXPECT_EQ(serialA.spanCounts, concurrentA.spanCounts);
  EXPECT_EQ(serialA.maskFingerprints, concurrentA.maskFingerprints);
  EXPECT_EQ(serialA.csvRow, concurrentA.csvRow);
  EXPECT_EQ(serialB.counters, concurrentB.counters);
  EXPECT_EQ(serialB.spanCounts, concurrentB.spanCounts);
  EXPECT_EQ(serialB.maskFingerprints, concurrentB.maskFingerprints);
  EXPECT_EQ(serialB.csvRow, concurrentB.csvRow);
}

TEST(ConcurrentIsolation, SameDesignConcurrentlyTwiceIsDeterministic) {
  // Two contexts racing over the SAME design exercise identical code
  // paths at identical times -- the harshest interleaving for registry
  // cross-talk.
  const BenchmarkSpec spec = paperBenchmark("Test1").scaled(0.04);
  RunArtifacts x, y;
  std::thread tx([&] { x = runPipeline(spec); });
  std::thread ty([&] { y = runPipeline(spec); });
  tx.join();
  ty.join();
  EXPECT_EQ(x, y);
}

}  // namespace
}  // namespace sadp
