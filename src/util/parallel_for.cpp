#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
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

namespace {

/// One worker's run queue: an item list frozen before the workers start
/// (thread creation publishes it) plus the atomic chunk cursor both the
/// owner and thieves claim positions from. Claiming is a relaxed
/// fetch_add -- the only data reached through the claimed index is
/// immutable, and fn's own outputs synchronize via the final join, same
/// as the unweighted loop. Padded so cursors of neighboring queues don't
/// false-share.
struct alignas(64) WorkQueue {
  std::vector<int> items;
  std::atomic<int> head{0};
};

}  // namespace

void parallelForWeighted(RunContext& ctx, int n,
                         std::span<const std::int64_t> weights,
                         const std::function<void(int)>& fn) {
  if (n <= 0) return;
  assert(weights.size() >= std::size_t(n));
  // Same counters as the unweighted loop and nothing more: metrics must
  // not depend on whether a loop is weighted or how it was scheduled.
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
  const int nq = extra + 1;
  // LPT seeding: heaviest item first, each into the currently lightest
  // queue (lowest id on ties) -- deterministic in (weights, nq).
  std::vector<int> order(static_cast<std::size_t>(n), 0);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const std::int64_t wa = weights[std::size_t(a)];
    const std::int64_t wb = weights[std::size_t(b)];
    return wa != wb ? wa > wb : a < b;
  });
  std::unique_ptr<WorkQueue[]> queues(new WorkQueue[std::size_t(nq)]);
  std::vector<std::int64_t> load(std::size_t(nq), 0);
  for (const int i : order) {
    const int q = int(std::min_element(load.begin(), load.end()) -
                      load.begin());
    queues[std::size_t(q)].items.push_back(i);
    load[std::size_t(q)] += std::max<std::int64_t>(1, weights[std::size_t(i)]);
  }

  std::mutex errMutex;
  std::exception_ptr firstError;
  auto runItem = [&](int i) {
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(errMutex);
      if (!firstError) firstError = std::current_exception();
    }
  };
  auto worker = [&](int slot) {
    RunContext::Scope bind(ctx);
    SADP_SPAN_ARG("parallel.worker", slot);
    // Own queue first, then sweep the victims once: items are never
    // re-enqueued, so a queue observed drained stays drained, and the
    // sweep guarantees the last live worker finishes everything.
    for (int v = 0; v < nq; ++v) {
      WorkQueue& q = queues[std::size_t((slot + v) % nq)];
      const int size = int(q.items.size());
      for (;;) {
        const int h = q.head.fetch_add(1, std::memory_order_relaxed);
        if (h >= size) break;
        const int i = q.items[std::size_t(h)];
        if (v == 0) {
          runItem(i);
        } else {
          SADP_SPAN_ARG("parallel.steal", i);
          runItem(i);
        }
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

void parallelForWeighted(int n, std::span<const std::int64_t> weights,
                         const std::function<void(int)>& fn) {
  parallelForWeighted(RunContext::current(), n, weights, fn);
}

}  // namespace sadp
