#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "run/run_context.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace sadp {

int parallelThreadCount() {
  return RunContext::defaultContext().threadCount();
}

void setParallelThreads(int n) {
  RunContext::defaultContext().setThreadCount(n);
}

void parallelFor(RunContext& ctx, int n,
                 const std::function<void(int)>& fn) {
  if (n <= 0) return;
  // Counted identically on the serial and threaded paths: counter totals
  // must not depend on the worker count (determinism contract). Looked up
  // per call, never cached in a static: the registry is per-context.
  MetricsRegistry& m = ctx.metrics();
  m.counter("parallel.calls").add(1);
  m.counter("parallel.jobs").add(n);
  const int extra =
      ctx.reserveExtraWorkers(std::min(ctx.threadCount(), n) - 1);
  if (extra == 0) {
    RunContext::Scope bind(ctx);
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  std::mutex errMutex;
  std::exception_ptr firstError;
  auto worker = [&](int slot) {
    RunContext::Scope bind(ctx);
    SADP_SPAN_ARG("parallel.worker", slot);
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errMutex);
        if (!firstError) firstError = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(std::size_t(extra));
  for (int t = 1; t <= extra; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : threads) t.join();
  ctx.releaseExtraWorkers(extra);
  if (firstError) std::rethrow_exception(firstError);
}

void parallelFor(int n, const std::function<void(int)>& fn) {
  parallelFor(RunContext::current(), n, fn);
}

}  // namespace sadp
