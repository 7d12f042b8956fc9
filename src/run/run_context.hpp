// Per-run execution context: the ownership root that makes the pipeline
// re-entrant (DESIGN.md §5.8).
//
// A RunContext owns everything one routing run measures with:
//
//   - a MetricsRegistry   (counters/histograms; fresh per run, so two
//                          sequential runs never double-count and two
//                          concurrent runs never cross-talk),
//   - a TraceSink         (trace level, span aggregates, event buffers).
//
// Every pipeline layer takes the context explicitly (router, A*, mask
// decomposition, baselines, eval). Code that predates the context --
// SADP_SPAN call sites, metricsCounter() -- resolves through the calling
// thread's bound context (RunContext::Scope) and falls back to
// defaultContext(), which wraps the legacy process-wide singletons.
//
// Thread-safety: a run executes on the thread that drives it. Distinct
// concurrent runs must use distinct contexts -- that is the isolation
// contract, stress-checked by tests/test_concurrent.cpp. One context may
// still be bound by several threads at once (RouteServer binds its own on
// every worker), which is why its counters are atomic and its trace
// buffers per thread. A non-default context must outlive all work started
// under it.
#pragma once

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace sadp {

class RunContext {
 public:
  /// Fresh registries; trace level Off.
  RunContext();
  ~RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  MetricsRegistry& metrics() const { return *metrics_; }
  TraceSink& trace() const { return *trace_; }
  void setTraceLevel(TraceLevel lvl) { trace_->setLevel(lvl); }
  TraceLevel traceLevel() const { return trace_->level(); }

  /// No-op: a run always executes on its calling thread. Kept only
  /// because perfbench/ still calls it; delete it with those calls.
  void setThreadCount(int) {}

  /// Restores the context to a fresh-run state: zeroes every counter and
  /// histogram and drops trace aggregates/events. Only valid between runs
  /// -- no work may be in flight under this context (a long-lived service
  /// session calls this before each replay so per-request metrics start at
  /// zero).
  void resetForRun();

  /// The process-default context: wraps MetricsRegistry::instance() and
  /// TraceSink::defaultSink(). What unbound threads and pre-context call
  /// sites resolve to.
  static RunContext& defaultContext();
  /// The calling thread's bound context (defaultContext() when unbound).
  static RunContext& current();

  /// Binds a context to the calling thread for a scope: SADP_SPAN and
  /// metricsCounter() inside the scope resolve to it. Nests; restores the
  /// previous binding on destruction.
  class Scope {
   public:
    explicit Scope(RunContext& ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RunContext* prevCtx_;
    MetricsRegistry* prevMetrics_;
    TraceSink* prevSink_;
  };

 private:
  struct DefaultTag {};
  explicit RunContext(DefaultTag);

  MetricsRegistry* metrics_;  ///< owned unless this is the default context
  TraceSink* trace_;          ///< owned unless this is the default context
  bool ownsRegistries_;
};

}  // namespace sadp
