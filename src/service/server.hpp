// Routing-as-a-service daemon (DESIGN.md §5.11): a persistent process
// holding routed designs resident in Session objects, speaking a
// line-delimited JSON protocol over a Unix and/or loopback TCP socket.
//
// Threading model: the serve() thread accepts connections; one reader
// thread per connection parses NDJSON requests and pushes them onto a
// bounded task queue (a full queue rejects the request immediately with a
// structured `queue_full` error -- backpressure never blocks the reader);
// a fixed worker pool pops tasks and executes them. Each task carries a
// queue-wait deadline (server default, per-request `timeout_ms`
// override); a task popped past its deadline answers a `timeout` error
// instead of routing. All work on one session is serialized through the
// session's mutex; distinct sessions route concurrently.
//
// Shutdown: SIGINT/SIGTERM (self-pipe) or the `shutdown` op stop the
// accept loop, drain every queued task, then join readers and exit --
// in-flight work is never dropped.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "run/run_context.hpp"
#include "sadp/mask_cache.hpp"
#include "service/json.hpp"
#include "service/session.hpp"

namespace sadp {

struct ServerOptions {
  std::string socketPath;  ///< empty = no Unix listener
  int port = -1;           ///< -1 = no TCP; 0 = ephemeral (printed)
  int queueDepth = 64;     ///< bounded task queue capacity
  int sessionCap = 8;      ///< max resident sessions
  int workers = 2;         ///< worker threads
  int requestTimeoutMs = 30000;  ///< default queue-wait deadline
  std::size_t cacheBytes = MaskCache::kDefaultMaxBytes;
  std::string metricsPath;  ///< non-empty: write metrics JSON at exit
};

class RouteServer {
 public:
  explicit RouteServer(ServerOptions opts);
  ~RouteServer();
  RouteServer(const RouteServer&) = delete;
  RouteServer& operator=(const RouteServer&) = delete;

  /// Runs the accept/drain loop until shutdown; returns the process exit
  /// code (0 clean, 1 on listener setup failure).
  int serve();
  /// Async-signal-safe stop request (also what the signal handler calls).
  void requestStop();

  RunContext& ctx() { return ctx_; }

 private:
  struct Conn;
  struct Task;

  bool bindListeners();
  void readerLoop(std::shared_ptr<Conn> conn);
  void workerLoop();
  /// Enqueues, or replies queue_full / shutting_down immediately.
  void submit(std::shared_ptr<Conn> conn, JsonValue req);
  void handle(Task& t);

  JsonValue handleLoad(const JsonValue& req, std::string* errCode);
  JsonValue handleRoute(const JsonValue& req, std::string* errCode);
  JsonValue handleEdit(const JsonValue& req, std::string* errCode);
  JsonValue handleQuery(const JsonValue& req, std::string* errCode);
  JsonValue handleStats(const JsonValue& req, std::string* errCode);

  std::shared_ptr<Session> findSession(const JsonValue& req,
                                       std::string* errCode,
                                       std::string* errMsg);
  void bumpCacheCounters();

  ServerOptions opts_;
  RunContext ctx_;  ///< service.* counters + request spans
  MaskCache cache_;

  int unixFd_ = -1;
  int tcpFd_ = -1;
  int boundPort_ = -1;
  int selfPipe_[2] = {-1, -1};

  std::mutex queueMu_;
  std::condition_variable queueCv_;
  std::deque<Task> queue_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> queuePeak_{0};

  std::mutex sessionsMu_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;

  std::mutex connsMu_;
  std::vector<std::shared_ptr<Conn>> conns_;

  std::vector<std::thread> workers_;
  MaskCacheStats cacheSeen_;  ///< last MaskCache totals folded into the
  std::mutex cacheSeenMu_;    ///< service.cache_* counters
};

}  // namespace sadp
