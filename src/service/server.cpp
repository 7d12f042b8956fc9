#include "service/server.hpp"

#include "patterning/backend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>

namespace sadp {

namespace {

using Clock = std::chrono::steady_clock;

/// Self-pipe write end for the async-signal-safe stop request.
std::atomic<int> g_stopFd{-1};

void onStopSignal(int) {
  const int fd = g_stopFd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t r = ::write(fd, &b, 1);
  }
}

constexpr std::size_t kMaxRequestLine = 4u << 20;  // 4 MiB

JsonValue baseResp(const JsonValue* req, bool ok) {
  JsonValue r{JsonValue::Object{}};
  r.set("ok", ok);
  if (req != nullptr) {
    if (const JsonValue* op = req->find("op"); op && op->isString()) {
      r.set("op", *op);
    }
    if (const JsonValue* id = req->find("id")) r.set("id", *id);
  }
  return r;
}

JsonValue errResp(const JsonValue* req, const char* code,
                  const std::string& message) {
  JsonValue r = baseResp(req, false);
  JsonValue e{JsonValue::Object{}};
  e.set("code", code);
  e.set("message", message);
  r.set("error", std::move(e));
  return r;
}

/// [x,y,layer] with all three in the spec's grid.
bool parseNode(const JsonValue& v, const BenchmarkSpec& spec, GridNode* out,
               std::string* err) {
  if (!v.isArray() || v.asArray().size() != 3 || !v.asArray()[0].isInt() ||
      !v.asArray()[1].isInt() || !v.asArray()[2].isInt()) {
    *err = "pin candidate must be [x,y,layer] integers";
    return false;
  }
  const std::int64_t x = v.asArray()[0].asInt();
  const std::int64_t y = v.asArray()[1].asInt();
  const std::int64_t l = v.asArray()[2].asInt();
  if (x < 0 || x >= spec.width || y < 0 || y >= spec.height || l < 0 ||
      l >= spec.layers) {
    *err = "pin candidate out of grid bounds";
    return false;
  }
  out->x = Track(x);
  out->y = Track(y);
  out->layer = std::int16_t(l);
  return true;
}

/// A pin is [x,y,layer] (single candidate) or [[x,y,layer], ...].
bool parsePin(const JsonValue& v, const BenchmarkSpec& spec, Pin* out,
              std::string* err) {
  if (!v.isArray() || v.asArray().empty()) {
    *err = "pin must be a non-empty array";
    return false;
  }
  out->candidates.clear();
  if (v.asArray()[0].isInt()) {
    GridNode n;
    if (!parseNode(v, spec, &n, err)) return false;
    out->candidates.push_back(n);
    return true;
  }
  for (const JsonValue& c : v.asArray()) {
    GridNode n;
    if (!parseNode(c, spec, &n, err)) return false;
    out->candidates.push_back(n);
  }
  return true;
}

void addOutcome(JsonValue& r, const RouteOutcome& o) {
  r.set("exit_code", o.exitCode);
  r.set("total_nets", o.stats.totalNets);
  r.set("routed_nets", o.stats.routedNets);
  r.set("routability", o.stats.routability());
  r.set("side_overlay_nm", o.report.sideOverlayNm);
  r.set("cut_conflicts", o.report.cutConflicts());
  r.set("hard_overlays", o.report.hardOverlays);
  r.set("csv", o.csvRow);
  r.set("design_fp", o.designFp);
  JsonValue::Array fps;
  for (const std::uint64_t f : o.layerMaskFp) fps.emplace_back(f);
  r.set("layer_fp", std::move(fps));
  r.set("searches", o.searches);
  r.set("memo_hits", o.memoHits);
  r.set("verify_skips", o.verifySkips);
  r.set("cache_hits", o.cacheHits);
  r.set("cache_misses", o.cacheMisses);
  r.set("nets_dirty", o.netsDirty);
  if (o.stats.timingValid) {
    r.set("worst_slack", o.stats.worstSlack);
    r.set("negotiate_iters", o.stats.negotiateIters);
    r.set("negotiate_overflow", o.stats.negotiateOverflow);
  }
  JsonValue phases{JsonValue::Object{}};
  for (const SpanAggregate& s : o.phases) {
    phases.set(s.name, double(s.wallNs) / 1e6);
  }
  r.set("phase_ms", std::move(phases));
  r.set("wall_ms", o.wallMs);
}

std::optional<std::int64_t> intField(const JsonValue& req,
                                     std::string_view key) {
  const JsonValue* v = req.find(key);
  if (v == nullptr || !v->isInt()) return std::nullopt;
  return v->asInt();
}

/// Upper bound for fields that are only bounded below (int-sized).
constexpr std::int64_t kNoMax = std::numeric_limits<int>::max();

/// An optional integer field that must lie in [lo, hi] when present. A
/// present value of another type or out of range is an error naming the
/// field and its range: a typo'd load must not silently route with the
/// default instead.
bool rangedIntField(const JsonValue& req, std::string_view key,
                    std::int64_t lo, std::int64_t hi,
                    std::optional<std::int64_t>* out, std::string* msg) {
  const JsonValue* v = req.find(key);
  if (v == nullptr) return true;
  if (!v->isInt() || v->asInt() < lo || v->asInt() > hi) {
    *msg = std::string(key) + " must be an integer " +
           (hi == kNoMax ? ">= " + std::to_string(lo)
                         : "in " + std::to_string(lo) + ".." +
                               std::to_string(hi));
    return false;
  }
  *out = v->asInt();
  return true;
}

}  // namespace

struct RouteServer::Conn {
  int fd = -1;
  std::mutex wmu;
  std::atomic<bool> closed{false};
  std::thread reader;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  void writeLine(const std::string& s) {
    std::lock_guard<std::mutex> lk(wmu);
    if (closed.load(std::memory_order_relaxed)) return;
    std::string line = s;
    line += '\n';
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        closed.store(true, std::memory_order_relaxed);
        return;
      }
      off += std::size_t(n);
    }
  }
};

struct RouteServer::Task {
  std::shared_ptr<Conn> conn;
  JsonValue req;
  Clock::time_point deadline;
};

RouteServer::RouteServer(ServerOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cacheBytes) {
  // Per-request spans aggregate into this context's sink; Aggregate level
  // keeps them visible through `stats` and --metrics without event buffers.
  ctx_.setTraceLevel(TraceLevel::Aggregate);
}

RouteServer::~RouteServer() {
  for (const int fd : {unixFd_, tcpFd_, selfPipe_[0], selfPipe_[1]}) {
    if (fd >= 0) ::close(fd);
  }
}

void RouteServer::requestStop() { onStopSignal(0); }

bool RouteServer::bindListeners() {
  if (!opts_.socketPath.empty()) {
    sockaddr_un addr{};
    if (opts_.socketPath.size() >= sizeof addr.sun_path) {
      std::fprintf(stderr, "sadp_route_serve: socket path too long\n");
      return false;
    }
    unixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unixFd_ < 0) return false;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, opts_.socketPath.c_str(),
                opts_.socketPath.size() + 1);
    ::unlink(opts_.socketPath.c_str());
    if (::bind(unixFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(unixFd_, 64) != 0) {
      std::fprintf(stderr, "sadp_route_serve: unix bind %s: %s\n",
                   opts_.socketPath.c_str(), std::strerror(errno));
      return false;
    }
    std::printf("listening unix %s\n", opts_.socketPath.c_str());
    std::fflush(stdout);
  }
  if (opts_.port >= 0) {
    tcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcpFd_ < 0) return false;
    const int one = 1;
    ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(std::uint16_t(opts_.port));
    if (::bind(tcpFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(tcpFd_, 64) != 0) {
      std::fprintf(stderr, "sadp_route_serve: tcp bind %d: %s\n", opts_.port,
                   std::strerror(errno));
      return false;
    }
    socklen_t len = sizeof addr;
    ::getsockname(tcpFd_, reinterpret_cast<sockaddr*>(&addr), &len);
    boundPort_ = int(ntohs(addr.sin_port));
    std::printf("listening tcp %d\n", boundPort_);
    std::fflush(stdout);
  }
  if (unixFd_ < 0 && tcpFd_ < 0) {
    std::fprintf(stderr, "sadp_route_serve: no listener configured\n");
    return false;
  }
  return true;
}

int RouteServer::serve() {
  if (::pipe(selfPipe_) != 0) return 1;
  g_stopFd.store(selfPipe_[1], std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = onStopSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  if (!bindListeners()) return 1;

  workers_.reserve(std::size_t(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }

  for (;;) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = {selfPipe_[0], POLLIN, 0};
    if (unixFd_ >= 0) fds[n++] = {unixFd_, POLLIN, 0};
    if (tcpFd_ >= 0) fds[n++] = {tcpFd_, POLLIN, 0};
    if (::poll(fds, n, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) break;  // stop requested
    for (nfds_t i = 1; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int cfd = ::accept(fds[i].fd, nullptr, nullptr);
      if (cfd < 0) continue;
      auto conn = std::make_shared<Conn>();
      conn->fd = cfd;
      {
        std::lock_guard<std::mutex> lk(connsMu_);
        conns_.push_back(conn);
      }
      ctx_.metrics().counter("service.connections").add(1);
      conn->reader = std::thread([this, conn] { readerLoop(conn); });
    }
  }

  // Graceful drain: no new requests (submit() rejects once stopping_ is
  // set), workers finish everything already queued, then readers unblock.
  {
    std::lock_guard<std::mutex> lk(queueMu_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  queueCv_.notify_all();
  if (unixFd_ >= 0) {
    ::close(unixFd_);
    unixFd_ = -1;
  }
  if (tcpFd_ >= 0) {
    ::close(tcpFd_);
    tcpFd_ = -1;
  }
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lk(connsMu_);
    for (const auto& c : conns_) {
      c->closed.store(true, std::memory_order_relaxed);
      ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  for (const auto& c : conns_) {
    if (c->reader.joinable()) c->reader.join();
  }
  g_stopFd.store(-1, std::memory_order_relaxed);
  if (!opts_.socketPath.empty()) ::unlink(opts_.socketPath.c_str());

  if (!opts_.metricsPath.empty()) {
    std::ofstream os(opts_.metricsPath);
    RunContext::Scope bind(ctx_);
    writeMetricsJson(os, ctx_.metrics(), spanAggregates());
  }
  return 0;
}

void RouteServer::readerLoop(std::shared_ptr<Conn> conn) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buf.append(chunk, std::size_t(n));
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.find_first_not_of(" \t") == std::string::npos) continue;
      std::string perr;
      std::optional<JsonValue> req = parseJson(line, &perr);
      if (!req) {
        ctx_.metrics().counter("service.errors").add(1);
        conn->writeLine(writeJson(errResp(nullptr, "parse_error", perr)));
        continue;
      }
      if (!req->isObject()) {
        ctx_.metrics().counter("service.errors").add(1);
        conn->writeLine(writeJson(
            errResp(&*req, "bad_request", "request must be a JSON object")));
        continue;
      }
      const JsonValue* op = req->find("op");
      if (op == nullptr || !op->isString()) {
        ctx_.metrics().counter("service.errors").add(1);
        conn->writeLine(writeJson(
            errResp(&*req, "bad_request", "missing string field 'op'")));
        continue;
      }
      submit(conn, std::move(*req));
    }
    if (buf.size() > kMaxRequestLine) {
      conn->writeLine(
          writeJson(errResp(nullptr, "parse_error", "request line too long")));
      break;
    }
  }
  conn->closed.store(true, std::memory_order_relaxed);
}

void RouteServer::submit(std::shared_ptr<Conn> conn, JsonValue req) {
  std::int64_t timeoutMs = opts_.requestTimeoutMs;
  if (const JsonValue* t = req.find("timeout_ms")) {
    if (!t->isInt() || t->asInt() < 0) {
      ctx_.metrics().counter("service.errors").add(1);
      conn->writeLine(writeJson(
          errResp(&req, "bad_request", "timeout_ms must be an integer >= 0")));
      return;
    }
    timeoutMs = t->asInt();
  }
  Task t;
  t.conn = std::move(conn);
  t.deadline = Clock::now() + std::chrono::milliseconds(timeoutMs);
  t.req = std::move(req);
  {
    std::lock_guard<std::mutex> lk(queueMu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ctx_.metrics().counter("service.errors").add(1);
      t.conn->writeLine(writeJson(
          errResp(&t.req, "shutting_down", "server is draining")));
      return;
    }
    if (int(queue_.size()) >= opts_.queueDepth) {
      // Backpressure: never block the reader; the client sees the bound.
      ctx_.metrics().counter("service.queue_rejects").add(1);
      ctx_.metrics().counter("service.errors").add(1);
      t.conn->writeLine(writeJson(
          errResp(&t.req, "queue_full", "task queue is at capacity")));
      return;
    }
    queue_.push_back(std::move(t));
    const int depth = int(queue_.size());
    int peak = queuePeak_.load(std::memory_order_relaxed);
    while (depth > peak &&
           !queuePeak_.compare_exchange_weak(peak, depth,
                                             std::memory_order_relaxed)) {
    }
    ctx_.metrics().counter("service.requests").add(1);
  }
  queueCv_.notify_one();
}

void RouteServer::workerLoop() {
  for (;;) {
    Task t;
    {
      std::unique_lock<std::mutex> lk(queueMu_);
      queueCv_.wait(lk, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) return;  // stopping_ and fully drained
      t = std::move(queue_.front());
      queue_.pop_front();
    }
    handle(t);
  }
}

void RouteServer::handle(Task& t) {
  RunContext::Scope bind(ctx_);
  SADP_SPAN("service.request");
  const JsonValue& req = t.req;
  const std::string& op = req.find("op")->asString();

  // A task that waited past its deadline answers a timeout error instead
  // of routing (timeout_ms:0 deterministically exercises this path).
  if (Clock::now() >= t.deadline && op != "shutdown") {
    ctx_.metrics().counter("service.timeouts").add(1);
    ctx_.metrics().counter("service.errors").add(1);
    t.conn->writeLine(writeJson(
        errResp(&req, "timeout", "request exceeded its queue deadline")));
    return;
  }

  std::string errCode;
  JsonValue resp;
  if (op == "load") {
    resp = handleLoad(req, &errCode);
  } else if (op == "route") {
    resp = handleRoute(req, &errCode);
  } else if (op == "edit") {
    resp = handleEdit(req, &errCode);
  } else if (op == "query") {
    resp = handleQuery(req, &errCode);
  } else if (op == "stats") {
    resp = handleStats(req, &errCode);
  } else if (op == "shutdown") {
    resp = baseResp(&req, true);
    t.conn->writeLine(writeJson(resp));
    requestStop();
    return;
  } else {
    errCode = "unknown_op";
    resp = errResp(&req, "unknown_op", "unsupported op: " + op);
  }
  if (!errCode.empty()) ctx_.metrics().counter("service.errors").add(1);
  t.conn->writeLine(writeJson(resp));
}

std::shared_ptr<Session> RouteServer::findSession(const JsonValue& req,
                                                  std::string* errCode,
                                                  std::string* errMsg) {
  const JsonValue* s = req.find("session");
  if (s == nullptr || !s->isString() || s->asString().empty()) {
    *errCode = "bad_request";
    *errMsg = "missing string field 'session'";
    return nullptr;
  }
  std::lock_guard<std::mutex> lk(sessionsMu_);
  const auto it = sessions_.find(s->asString());
  if (it == sessions_.end()) {
    *errCode = "unknown_session";
    *errMsg = "no such session: " + s->asString();
    return nullptr;
  }
  return it->second;
}

void RouteServer::bumpCacheCounters() {
  const MaskCacheStats now = cache_.stats();
  std::lock_guard<std::mutex> lk(cacheSeenMu_);
  ctx_.metrics().counter("service.cache_hit").add(now.hits -
                                                  cacheSeen_.hits);
  ctx_.metrics().counter("service.cache_miss").add(now.misses -
                                                   cacheSeen_.misses);
  ctx_.metrics().counter("service.cache_evict").add(now.evictions -
                                                    cacheSeen_.evictions);
  cacheSeen_ = now;
}

JsonValue RouteServer::handleLoad(const JsonValue& req,
                                  std::string* errCode) {
  SADP_SPAN("service.load");
  const JsonValue* s = req.find("session");
  if (s == nullptr || !s->isString() || s->asString().empty()) {
    *errCode = "bad_request";
    return errResp(&req, "bad_request", "missing string field 'session'");
  }
  const std::string& name = s->asString();

  BenchmarkSpec spec;
  if (const JsonValue* b = req.find("benchmark"); b && b->isString()) {
    try {
      spec = paperBenchmark(b->asString());
    } catch (const std::invalid_argument& e) {
      *errCode = "bad_request";
      return errResp(&req, "bad_request", e.what());
    }
    if (const JsonValue* f = req.find("scale"); f && f->isNumber()) {
      const double scale = f->asDouble();
      if (!(scale > 0.0) || scale > 1.0) {
        *errCode = "bad_request";
        return errResp(&req, "bad_request", "scale must be in (0, 1]");
      }
      spec = spec.scaled(scale);
    }
  } else {
    const auto nets = intField(req, "nets");
    const auto width = intField(req, "width");
    const auto height = intField(req, "height");
    if (!nets || !width || !height || *nets < 1 || *width < 8 ||
        *height < 8) {
      *errCode = "bad_request";
      return errResp(&req, "bad_request",
                     "load wants 'benchmark' or nets/width/height >= 1/8/8");
    }
    std::optional<std::int64_t> layers, pinCandidates;
    std::string msg;
    if (!rangedIntField(req, "layers", 1, 16, &layers, &msg) ||
        !rangedIntField(req, "pin_candidates", 1, kNoMax, &pinCandidates,
                        &msg)) {
      *errCode = "bad_request";
      return errResp(&req, "bad_request", msg);
    }
    // Size limits apply before anything is allocated: one oversized load
    // must not take the daemon and every other session down.
    if (layers) spec.layers = int(*layers);
    msg = designSizeError(*width, *height, spec.layers, *nets);
    if (!msg.empty()) {
      *errCode = "bad_request";
      return errResp(&req, "bad_request", msg);
    }
    spec.name = name;
    spec.netCount = int(*nets);
    spec.width = Track(*width);
    spec.height = Track(*height);
    if (const auto v = intField(req, "seed")) spec.seed = std::uint64_t(*v);
    if (pinCandidates) spec.pinCandidates = int(*pinCandidates);
  }

  // {"cache":false} opts the session out of the shared MaskCache -- the
  // behaviour of a standalone cold route, used as the honest baseline by
  // the bench client's warm-vs-cold gate.
  MaskCache* cache = &cache_;
  if (const JsonValue* c = req.find("cache");
      c != nullptr && c->isBool() && !c->asBool()) {
    cache = nullptr;
  }
  // Removed knobs are errors that say why, not silently ignored fields:
  // nets always commit one at a time, and a run always uses one thread.
  if (req.find("route_jobs") != nullptr) {
    *errCode = "bad_request";
    return errResp(&req, "bad_request",
                   "route_jobs was removed: nets always route sequentially");
  }
  if (req.find("threads") != nullptr) {
    *errCode = "bad_request";
    return errResp(&req, "bad_request",
                   "threads was removed: a run always uses one thread");
  }
  RouterOptions routerOpts;
  // {"backend":"tpl3"} selects the session's patterning backend; absent
  // means sadp2 (byte-identical to the pre-backend service).
  if (const JsonValue* b = req.find("backend"); b != nullptr) {
    const PatterningBackend* backend =
        b->isString() ? findPatterningBackend(b->asString()) : nullptr;
    if (backend == nullptr) {
      *errCode = "bad_request";
      return errResp(&req, "bad_request",
                     std::string("unknown backend (expected one of: ") +
                         knownBackendNames() + ")");
    }
    routerOpts.backend = backend;
  }
  // {"timing":true} / {"negotiate":true} opt the session into the
  // timing-driven / negotiated-congestion modes (negotiate implies timing,
  // mirroring the CLI). Numeric knobs reject anything but their exact
  // JSON type and range -- a typo'd load must not silently route with
  // default knobs.
  if (const JsonValue* v = req.find("timing"); v != nullptr) {
    if (!v->isBool()) {
      *errCode = "bad_request";
      return errResp(&req, "bad_request", "timing must be a boolean");
    }
    routerOpts.timingDriven = v->asBool();
  }
  if (const JsonValue* v = req.find("negotiate"); v != nullptr) {
    if (!v->isBool()) {
      *errCode = "bad_request";
      return errResp(&req, "bad_request", "negotiate must be a boolean");
    }
    if (v->asBool()) {
      routerOpts.negotiate = true;
      routerOpts.timingDriven = true;
    }
  }
  std::optional<std::int64_t> negotiateIters;
  if (std::string msg; !rangedIntField(req, "negotiate_iters", 1,
                                       kMaxNegotiateIters, &negotiateIters,
                                       &msg)) {
    *errCode = "bad_request";
    return errResp(&req, "bad_request", msg);
  }
  if (negotiateIters) routerOpts.maxNegotiateIters = int(*negotiateIters);
  if (const JsonValue* v = req.find("history_cost"); v != nullptr) {
    if (!v->isNumber() || !(v->asDouble() >= 0.0) ||
        v->asDouble() > kMaxHistoryCost) {
      *errCode = "bad_request";
      return errResp(&req, "bad_request",
                     "history_cost must be a number in 0.." +
                         std::to_string(kMaxHistoryCost));
    }
    routerOpts.historyIncrement = float(v->asDouble());
  }
  auto session = std::make_shared<Session>(name, spec, cache, routerOpts);
  {
    std::lock_guard<std::mutex> lk(sessionsMu_);
    if (sessions_.count(name) != 0) {
      *errCode = "bad_request";
      return errResp(&req, "bad_request", "session already exists: " + name);
    }
    if (int(sessions_.size()) >= opts_.sessionCap) {
      *errCode = "session_cap";
      return errResp(&req, "session_cap",
                     "session cap reached (" +
                         std::to_string(opts_.sessionCap) + ")");
    }
    sessions_.emplace(name, session);
  }
  ctx_.metrics().counter("service.loads").add(1);
  JsonValue r = baseResp(&req, true);
  r.set("session", name);
  r.set("benchmark", session->spec().name);
  r.set("nets", session->netCount());
  r.set("width", std::int64_t(session->spec().width));
  r.set("height", std::int64_t(session->spec().height));
  r.set("layers", session->spec().layers);
  return r;
}

JsonValue RouteServer::handleRoute(const JsonValue& req,
                                   std::string* errCode) {
  SADP_SPAN("service.route");
  std::string msg;
  const std::shared_ptr<Session> session = findSession(req, errCode, &msg);
  if (!session) return errResp(&req, errCode->c_str(), msg);
  RouteOutcome out;
  {
    std::lock_guard<std::mutex> lk(session->mutex());
    out = session->routeFull();
  }
  bumpCacheCounters();
  ctx_.metrics().counter("service.routes").add(1);
  JsonValue r = baseResp(&req, true);
  r.set("session", session->name());
  addOutcome(r, out);
  return r;
}

JsonValue RouteServer::handleEdit(const JsonValue& req,
                                  std::string* errCode) {
  SADP_SPAN("service.edit");
  std::string msg;
  const std::shared_ptr<Session> session = findSession(req, errCode, &msg);
  if (!session) return errResp(&req, errCode->c_str(), msg);

  auto bad = [&](const std::string& m) {
    *errCode = "bad_request";
    return errResp(&req, "bad_request", m);
  };
  const JsonValue* kind = req.find("kind");
  const JsonValue* net = req.find("net");
  if (kind == nullptr || !kind->isString()) {
    return bad("missing string field 'kind'");
  }
  if (net == nullptr || !net->isString() || net->asString().empty()) {
    return bad("missing string field 'net'");
  }
  EditRequest e;
  e.net = net->asString();
  const BenchmarkSpec& spec = session->spec();
  std::string perr;
  if (kind->asString() == "add_net") {
    e.kind = EditRequest::Kind::AddNet;
    const JsonValue* pins = req.find("pins");
    if (pins == nullptr || !pins->isArray() || pins->asArray().size() < 2) {
      return bad("add_net wants 'pins': array of >= 2 pins");
    }
    for (const JsonValue& p : pins->asArray()) {
      Pin pin;
      if (!parsePin(p, spec, &pin, &perr)) return bad(perr);
      e.pins.push_back(std::move(pin));
    }
  } else if (kind->asString() == "remove_net") {
    e.kind = EditRequest::Kind::RemoveNet;
  } else if (kind->asString() == "move_pin") {
    e.kind = EditRequest::Kind::MovePin;
    const auto idx = intField(req, "pin_index");
    const JsonValue* pin = req.find("pin");
    if (!idx || *idx < 0) return bad("move_pin wants 'pin_index' >= 0");
    if (pin == nullptr) return bad("move_pin wants 'pin': [x,y,layer]");
    e.pinIndex = int(*idx);
    Pin p;
    if (!parsePin(*pin, spec, &p, &perr)) return bad(perr);
    e.pins.push_back(std::move(p));
  } else {
    return bad("unknown edit kind: " + kind->asString());
  }

  std::optional<RouteOutcome> out;
  std::string editErr;
  {
    std::lock_guard<std::mutex> lk(session->mutex());
    if (!session->routedOnce()) {
      return bad("route the session before editing");
    }
    out = session->applyEdit(e, &editErr);
  }
  if (!out) return bad(editErr);
  bumpCacheCounters();
  ctx_.metrics().counter("service.edits").add(1);
  JsonValue r = baseResp(&req, true);
  r.set("session", session->name());
  addOutcome(r, *out);
  return r;
}

JsonValue RouteServer::handleQuery(const JsonValue& req,
                                   std::string* errCode) {
  SADP_SPAN("service.query");
  std::string msg;
  const std::shared_ptr<Session> session = findSession(req, errCode, &msg);
  if (!session) return errResp(&req, errCode->c_str(), msg);
  JsonValue r = baseResp(&req, true);
  std::lock_guard<std::mutex> lk(session->mutex());
  r.set("session", session->name());
  r.set("benchmark", session->spec().name);
  r.set("nets", session->netCount());
  r.set("routed", session->routedOnce());
  if (session->routedOnce()) addOutcome(r, session->lastOutcome());
  // Opt-in pin dump so ECO clients can script local edits without
  // replicating the benchmark generator: {"pins":true} adds each net's
  // first candidate per pin as {"name":..., "pins":[[x,y,layer],...]}.
  const JsonValue* wantPins = req.find("pins");
  if (wantPins != nullptr && wantPins->isBool() && wantPins->asBool()) {
    JsonValue::Array nets;
    for (const NetSpec& n : session->netSpecs()) {
      JsonValue entry{JsonValue::Object{}};
      entry.set("name", n.name);
      JsonValue::Array pins;
      for (const Pin& p : n.pins) {
        const GridNode& g = p.candidates.front();
        JsonValue::Array node;
        node.emplace_back(std::int64_t(g.x));
        node.emplace_back(std::int64_t(g.y));
        node.emplace_back(std::int64_t(g.layer));
        pins.emplace_back(std::move(node));
      }
      entry.set("pins", std::move(pins));
      nets.emplace_back(std::move(entry));
    }
    r.set("net_pins", std::move(nets));
  }
  return r;
}

JsonValue RouteServer::handleStats(const JsonValue& req, std::string*) {
  SADP_SPAN("service.stats");
  bumpCacheCounters();
  JsonValue r = baseResp(&req, true);
  {
    std::lock_guard<std::mutex> lk(sessionsMu_);
    r.set("sessions", std::int64_t(sessions_.size()));
  }
  r.set("session_cap", opts_.sessionCap);
  {
    std::lock_guard<std::mutex> lk(queueMu_);
    r.set("queue_depth", std::int64_t(queue_.size()));
  }
  r.set("queue_capacity", opts_.queueDepth);
  r.set("queue_peak", queuePeak_.load(std::memory_order_relaxed));
  r.set("workers", opts_.workers);
  const MaskCacheStats cs = cache_.stats();
  JsonValue cache{JsonValue::Object{}};
  cache.set("hits", cs.hits);
  cache.set("misses", cs.misses);
  cache.set("evictions", cs.evictions);
  cache.set("entries", cs.entries);
  cache.set("bytes", cs.bytes);
  r.set("cache", std::move(cache));
  JsonValue counters{JsonValue::Object{}};
  for (const auto& [name, value] : ctx_.metrics().counterSnapshot()) {
    counters.set(name, value);
  }
  r.set("counters", std::move(counters));
  JsonValue spans{JsonValue::Object{}};
  for (const SpanAggregate& a : spanAggregates()) {
    JsonValue one{JsonValue::Object{}};
    one.set("count", a.count);
    one.set("wall_ns", a.wallNs);
    spans.set(a.name, std::move(one));
  }
  r.set("spans", std::move(spans));
  return r;
}

}  // namespace sadp
