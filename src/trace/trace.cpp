#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <vector>

namespace sadp {

namespace trace_detail {
std::atomic<int> g_level{0};
constinit thread_local const std::atomic<int>* t_level = nullptr;
}  // namespace trace_detail

namespace {

struct RawEvent {
  std::uint32_t nameId;
  int depth;
  std::int64_t startNs;
  std::int64_t durNs;
  std::int64_t arg;
  bool hasArg;
};

struct ThreadBuf {
  int tid = 0;
  int depth = 0;
  std::vector<RawEvent> events;
};

struct NameAgg {
  std::atomic<std::int64_t> count{0};
  std::atomic<std::int64_t> wallNs{0};
};

/// Process-wide intern table. Names are interned once per call site; every
/// sink indexes its aggregates by these ids.
struct InternTable {
  std::mutex mu;
  std::vector<std::string> names;
  std::unordered_map<std::string, std::uint32_t> ids;
};

InternTable& interns() {
  static InternTable* t = new InternTable();  // leaked: outlives TLS dtors
  return *t;
}

void escapeJson(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

/// Aggregate storage: chunked so Span::end can reach aggs[id] with two
/// relaxed/acquire loads and no lock while another thread interns a new
/// name (deque growth under a mutex would race with the lock-free read).
/// 64 chunks x 64 names bounds the interned-name universe at 4096 -- far
/// above the few dozen literal span names in the tree; ids beyond the cap
/// fall back to a mutex-guarded overflow map (correct, just slower).
struct TraceSink::Impl {
  static constexpr int kChunkSize = 64;
  static constexpr int kChunks = 64;

  std::atomic<int> ownLevel{0};
  /// Level storage: &trace_detail::g_level for the default sink (so the
  /// Span fast path needs no binding), &ownLevel for per-run sinks.
  std::atomic<int>* level = &ownLevel;

  mutable std::mutex mu;
  std::atomic<NameAgg*> chunks[kChunks] = {};
  std::unordered_map<std::uint32_t, std::unique_ptr<NameAgg>> overflow;
  std::vector<std::shared_ptr<ThreadBuf>> buffers;
  int nextTid = 0;
  std::uint64_t id = 0;  ///< unique per Impl, validates the TLS buf cache
  std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();

  ~Impl() {
    for (auto& c : chunks) delete[] c.load(std::memory_order_relaxed);
  }

  std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
  }

  NameAgg& aggFor(std::uint32_t nameId) {
    const std::uint32_t c = nameId / kChunkSize;
    if (c < kChunks) {
      NameAgg* chunk = chunks[c].load(std::memory_order_acquire);
      if (!chunk) {
        std::lock_guard<std::mutex> lock(mu);
        chunk = chunks[c].load(std::memory_order_relaxed);
        if (!chunk) {
          chunk = new NameAgg[kChunkSize];
          chunks[c].store(chunk, std::memory_order_release);
        }
      }
      return chunk[nameId % kChunkSize];
    }
    std::lock_guard<std::mutex> lock(mu);
    auto& slot = overflow[nameId];
    if (!slot) slot = std::make_unique<NameAgg>();
    return *slot;
  }

  /// The agg for nameId if it has storage already, else nullptr (read-only
  /// accessors must not allocate).
  const NameAgg* findAgg(std::uint32_t nameId) const {
    const std::uint32_t c = nameId / kChunkSize;
    if (c < kChunks) {
      const NameAgg* chunk = chunks[c].load(std::memory_order_acquire);
      return chunk ? &chunk[nameId % kChunkSize] : nullptr;
    }
    std::lock_guard<std::mutex> lock(mu);
    const auto it = overflow.find(nameId);
    return it == overflow.end() ? nullptr : it->second.get();
  }
};

namespace {

std::uint64_t nextSinkId() {
  static std::atomic<std::uint64_t> n{0};
  return n.fetch_add(1, std::memory_order_relaxed);
}

thread_local TraceSink* t_sink = nullptr;  ///< null = default sink

/// The thread's buffer within `im`, registered on first use. One-entry
/// cache keyed by the Impl's unique id: a thread alternating between sinks
/// re-registers (gaining a fresh tid in the sink it returns to), which
/// costs a lock + allocation but never mixes two sinks' events.
ThreadBuf& tlsBuf(TraceSink::Impl& im) {
  struct Slot {
    std::uint64_t sinkId = ~std::uint64_t(0);
    std::shared_ptr<ThreadBuf> buf;
  };
  thread_local Slot slot;
  if (slot.sinkId != im.id || !slot.buf) {
    auto b = std::make_shared<ThreadBuf>();
    {
      std::lock_guard<std::mutex> lock(im.mu);
      b->tid = im.nextTid++;
      im.buffers.push_back(b);
    }
    slot.sinkId = im.id;
    slot.buf = std::move(b);
  }
  return *slot.buf;
}

}  // namespace

TraceSink::TraceSink() : impl_(new Impl()) {
  impl_->id = nextSinkId();
}

TraceSink::~TraceSink() { delete impl_; }

TraceSink& TraceSink::defaultSink() {
  // Leaked so spans in late TLS destructors stay safe; its level aliases
  // trace_detail::g_level so unbound threads never dereference a binding.
  static TraceSink* s = [] {
    TraceSink* sink = new TraceSink();
    sink->impl_->level = &trace_detail::g_level;
    return sink;
  }();
  return *s;
}

void TraceSink::setLevel(TraceLevel lvl) {
  impl_->level->store(static_cast<int>(lvl), std::memory_order_relaxed);
}

TraceLevel TraceSink::level() const {
  return static_cast<TraceLevel>(
      impl_->level->load(std::memory_order_relaxed));
}

TraceSink* bindThreadTraceSink(TraceSink* sink) {
  TraceSink* prev = t_sink;
  t_sink = sink;
  trace_detail::t_level =
      sink ? sink->impl_->level : nullptr;
  return prev;
}

void setTraceLevel(TraceLevel lvl) {
  (t_sink ? *t_sink : TraceSink::defaultSink()).setLevel(lvl);
}

TraceLevel traceLevel() {
  return (t_sink ? *t_sink : TraceSink::defaultSink()).level();
}

std::uint32_t internSpanName(const char* name) {
  InternTable& t = interns();
  std::lock_guard<std::mutex> lock(t.mu);
  const auto it = t.ids.find(name);
  if (it != t.ids.end()) return it->second;
  const auto id = std::uint32_t(t.names.size());
  t.names.emplace_back(name);
  t.ids.emplace(name, id);
  return id;
}

std::vector<std::string> registeredSpanNames() {
  InternTable& t = interns();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.names;
}

void Span::begin(std::uint32_t nameId, std::int64_t arg, bool hasArg) {
  TraceSink& sink = t_sink ? *t_sink : TraceSink::defaultSink();
  TraceSink::Impl* im = sink.impl_;
  sink_ = im;
  nameId_ = nameId;
  mode_ = trace_detail::levelRelaxed();
  arg_ = arg;
  hasArg_ = hasArg;
  if (mode_ >= static_cast<int>(TraceLevel::Full)) {
    depth_ = tlsBuf(*im).depth++;
  }
  startNs_ = im->nowNs();  // last: exclude our own bookkeeping from the span
}

void Span::end() {
  TraceSink::Impl& im = *static_cast<TraceSink::Impl*>(sink_);
  const std::int64_t endNs = im.nowNs();
  NameAgg& agg = im.aggFor(nameId_);
  agg.count.fetch_add(1, std::memory_order_relaxed);
  agg.wallNs.fetch_add(endNs - startNs_, std::memory_order_relaxed);
  if (mode_ >= static_cast<int>(TraceLevel::Full)) {
    ThreadBuf& buf = tlsBuf(im);
    buf.depth = depth_;  // unwind even if the level changed mid-span
    buf.events.push_back(
        {nameId_, depth_, startNs_, endNs - startNs_, arg_, hasArg_});
  }
}

std::vector<TraceEvent> TraceSink::collectEvents() const {
  const std::vector<std::string> names = registeredSpanNames();
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<TraceEvent> out;
  for (const auto& buf : im.buffers) {
    for (const RawEvent& e : buf->events) {
      out.push_back({names[e.nameId], buf->tid, e.depth, e.startNs, e.durNs,
                     e.hasArg, e.arg});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.startNs != b.startNs) return a.startNs < b.startNs;
              return a.durNs > b.durNs;  // parent before child
            });
  return out;
}

std::vector<SpanAggregate> TraceSink::aggregates() const {
  const std::vector<std::string> names = registeredSpanNames();
  std::vector<SpanAggregate> out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const NameAgg* agg = impl_->findAgg(std::uint32_t(i));
    if (!agg) continue;
    const std::int64_t n = agg->count.load(std::memory_order_relaxed);
    if (n == 0) continue;
    out.push_back({names[i], n, agg->wallNs.load(std::memory_order_relaxed)});
  }
  std::sort(out.begin(), out.end(),
            [](const SpanAggregate& a, const SpanAggregate& b) {
              return a.name < b.name;
            });
  return out;
}

void TraceSink::clear() {
  const std::vector<std::string> names = registeredSpanNames();
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    for (auto& buf : im.buffers) {
      buf->events.clear();
      buf->depth = 0;
    }
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    // aggFor allocates the chunk if missing; acceptable for a clear().
    NameAgg& a = im.aggFor(std::uint32_t(i));
    a.count.store(0, std::memory_order_relaxed);
    a.wallNs.store(0, std::memory_order_relaxed);
  }
}

void TraceSink::writeChromeTrace(std::ostream& os) const {
  const std::vector<TraceEvent> events = collectEvents();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"";
    escapeJson(os, e.name);
    // Chrome trace timestamps are microseconds; keep ns precision in the
    // fraction so adjacent fine-grain spans stay ordered.
    os << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << e.tid << ",\"ts\":"
       << e.startNs / 1000 << "." << char('0' + (e.startNs / 100) % 10)
       << char('0' + (e.startNs / 10) % 10) << char('0' + e.startNs % 10)
       << ",\"dur\":" << e.durNs / 1000 << "."
       << char('0' + (e.durNs / 100) % 10) << char('0' + (e.durNs / 10) % 10)
       << char('0' + e.durNs % 10) << ",\"args\":{\"depth\":" << e.depth;
    if (e.hasArg) os << ",\"v\":" << e.arg;
    os << "}}";
  }
  os << "\n]}\n";
}

std::vector<TraceEvent> collectTraceEvents() {
  return (t_sink ? *t_sink : TraceSink::defaultSink()).collectEvents();
}

std::vector<SpanAggregate> spanAggregates() {
  return (t_sink ? *t_sink : TraceSink::defaultSink()).aggregates();
}

void clearTrace() {
  (t_sink ? *t_sink : TraceSink::defaultSink()).clear();
}

void writeChromeTrace(std::ostream& os) {
  (t_sink ? *t_sink : TraceSink::defaultSink()).writeChromeTrace(os);
}

}  // namespace sadp
