// RunContext semantics (DESIGN.md §5.8): fresh per-context registries,
// reset(), and thread-scoped binding.
#include "run/run_context.hpp"

#include <gtest/gtest.h>

#include "netlist/benchmark.hpp"
#include "route/router.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace sadp {
namespace {

std::vector<CounterSample> routeOnce(RunContext& ctx) {
  BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.05));
  OverlayAwareRouter router(inst.grid, inst.netlist, {}, &ctx);
  router.run();
  router.physicalReport();
  return ctx.metrics().counterSnapshot();
}

TEST(RunContext, FreshContextsReportIdenticalTotalsAcrossSequentialRuns) {
  // The registry-aliasing regression: two sequential runs in one process
  // must report the run's own totals, not the accumulated sum.
  RunContext first;
  const auto a = routeOnce(first);
  RunContext second;
  const auto b = routeOnce(second);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // And the totals are real (a routed design expands A* nodes).
  bool sawExpansions = false;
  for (const auto& [name, value] : a) {
    if (name == "astar.expansions") sawExpansions = value > 0;
  }
  EXPECT_TRUE(sawExpansions);
}

TEST(RunContext, ResetZeroesOneRegistryForReuse) {
  RunContext ctx;
  const auto a = routeOnce(ctx);
  ctx.metrics().reset();
  const auto b = routeOnce(ctx);
  EXPECT_EQ(a, b);  // identical, not doubled
}

TEST(RunContext, ContextCountersDoNotLeakIntoProcessDefault) {
  const std::int64_t before =
      MetricsRegistry::instance().counter("astar.expansions").value();
  RunContext ctx;
  routeOnce(ctx);
  EXPECT_EQ(
      MetricsRegistry::instance().counter("astar.expansions").value(),
      before);
}

TEST(RunContext, ScopeBindsAndRestores) {
  RunContext ctx;
  EXPECT_NE(&RunContext::current(), &ctx);
  {
    RunContext::Scope bind(ctx);
    EXPECT_EQ(&RunContext::current(), &ctx);
    EXPECT_EQ(&currentMetrics(), &ctx.metrics());
    metricsCounter("run_context.test_scope").add(7);
    RunContext inner;
    {
      RunContext::Scope nested(inner);
      EXPECT_EQ(&RunContext::current(), &inner);
    }
    EXPECT_EQ(&RunContext::current(), &ctx);  // nesting restores
  }
  EXPECT_NE(&RunContext::current(), &ctx);
  EXPECT_EQ(ctx.metrics().counter("run_context.test_scope").value(), 7);
  EXPECT_EQ(MetricsRegistry::instance()
                .counter("run_context.test_scope")
                .value(),
            0);
}

TEST(RunContext, ScopeRoutesSpansIntoTheContextSink) {
  RunContext ctx;
  ctx.setTraceLevel(TraceLevel::Aggregate);
  {
    RunContext::Scope bind(ctx);
    SADP_SPAN("run_context.test_span");
  }
  bool found = false;
  for (const SpanAggregate& a : ctx.trace().aggregates()) {
    if (a.name == "run_context.test_span") {
      found = true;
      EXPECT_EQ(a.count, 1);
    }
  }
  EXPECT_TRUE(found);
  for (const SpanAggregate& a : TraceSink::defaultSink().aggregates()) {
    EXPECT_NE(a.name, "run_context.test_span");
  }
}

TEST(RunContext, DefaultContextWrapsProcessSingletons) {
  RunContext& def = RunContext::defaultContext();
  EXPECT_EQ(&def.metrics(), &MetricsRegistry::instance());
  EXPECT_EQ(&def.trace(), &TraceSink::defaultSink());
  EXPECT_EQ(&RunContext::current(), &def);  // unbound thread
}

}  // namespace
}  // namespace sadp
