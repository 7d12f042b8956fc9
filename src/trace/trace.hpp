// Run-trace subsystem: RAII span scopes with thread-local event buffers
// and a Chrome trace-event (chrome://tracing / Perfetto) JSON exporter.
//
// Three levels (TraceSink::setLevel):
//   Off       -- a Span is one relaxed atomic load and a branch; no clock
//                is read, nothing allocates (the null-sink fast path).
//   Aggregate -- per-name {count, total wall ns} only; feeds the "phases"
//                section of the metrics report.
//   Full      -- additionally appends one event per span to the owning
//                thread's buffer for the Chrome trace export.
//
// Span names are interned string literals (the SADP_SPAN macro interns
// once per call site via a function-local static), so a live span carries
// only a 32-bit id. The intern table is process-wide; everything measured
// (level, aggregates, event buffers) lives in a TraceSink so concurrent
// runs can trace into isolated sinks. Each thread reports to the sink it
// is bound to (bindThreadTraceSink, normally via RunContext::Scope) and
// falls back to the process-default sink when unbound -- which is exactly
// the pre-context behaviour, so unscoped code keeps working.
//
// Buffers are owned by their sink and outlive their threads, so a sink
// shared by several threads (the service binds one context on every
// worker) keeps every worker's spans. Collection/clearing
// must happen while no traced work is in flight in that sink, and a
// non-default sink must outlive every span that began under it (every
// caller in this repo joins its workers first).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace sadp {

enum class TraceLevel : int { Off = 0, Aggregate = 1, Full = 2 };

class TraceSink;

/// Rebinds the calling thread's span destination; nullptr restores the
/// process-default sink. Returns the previous binding (nullptr = default).
/// RunContext::Scope is the intended caller.
TraceSink* bindThreadTraceSink(TraceSink* sink);

/// Level of the calling thread's bound sink (default sink when unbound).
void setTraceLevel(TraceLevel lvl);
TraceLevel traceLevel();

namespace trace_detail {
extern std::atomic<int> g_level;  ///< default sink's level, relaxed access
/// Bound sink's level storage for this thread; null = default sink.
/// constinit: no dynamic initializer, so reads are plain TLS loads rather
/// than calls through a TLS init wrapper (which UBSan flags as a load
/// through a null pointer).
extern constinit thread_local const std::atomic<int>* t_level;
inline int levelRelaxed() {
  const std::atomic<int>* p = t_level;
  return (p ? *p : g_level).load(std::memory_order_relaxed);
}
}  // namespace trace_detail

/// Interns a span name, returning its dense process-wide id. Idempotent
/// per name; ids are shared by every sink.
std::uint32_t internSpanName(const char* name);

/// Every name ever interned (the "registered names" a trace may reference).
std::vector<std::string> registeredSpanNames();

/// One completed span, name resolved (test/report access to the buffers).
struct TraceEvent {
  std::string name;
  int tid = 0;    ///< dense thread id within its sink (0 = first thread)
  int depth = 0;  ///< nesting depth within its thread at begin time
  std::int64_t startNs = 0;
  std::int64_t durNs = 0;
  bool hasArg = false;
  std::int64_t arg = 0;
};

/// Per-name wall-time totals accumulated at Aggregate and Full levels,
/// sorted by name. Counts are properties of the work and equal across
/// reruns; wallNs is wall clock and is not.
struct SpanAggregate {
  std::string name;
  std::int64_t count = 0;
  std::int64_t wallNs = 0;
};

/// One run's trace state: level, per-name aggregates, and (at Full level)
/// per-thread event buffers. A RunContext owns one; the process-default
/// sink backs every thread that never bound a context.
class TraceSink {
 public:
  TraceSink();
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void setLevel(TraceLevel lvl);
  TraceLevel level() const;

  /// All buffered events, sorted by (tid, startNs, -durNs) so a parent
  /// precedes its children.
  std::vector<TraceEvent> collectEvents() const;
  /// Per-name aggregates accumulated in this sink, sorted by name.
  std::vector<SpanAggregate> aggregates() const;
  /// Drops this sink's buffered events and aggregates (interned names are
  /// process-wide and survive).
  void clear();
  /// Chrome trace-event JSON: {"traceEvents":[{"ph":"X",...},...]}, one
  /// complete event per span, timestamps in microseconds.
  void writeChromeTrace(std::ostream& os) const;

  /// The process-default sink (what every unbound thread reports to).
  static TraceSink& defaultSink();

  struct Impl;  ///< opaque; public so trace.cpp helpers can name it

 private:
  friend class Span;
  friend TraceSink* bindThreadTraceSink(TraceSink* sink);
  Impl* impl_;  ///< owned; the default sink itself is leaked, see .cpp
};

/// RAII span scope. Construct via SADP_SPAN / SADP_SPAN_ARG. Reports to
/// the sink the thread is bound to at construction time.
class Span {
 public:
  explicit Span(std::uint32_t nameId) {
    if (trace_detail::levelRelaxed() != 0) begin(nameId, 0, false);
  }
  Span(std::uint32_t nameId, std::int64_t arg) {
    if (trace_detail::levelRelaxed() != 0) begin(nameId, arg, true);
  }
  ~Span() {
    if (mode_ != 0) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(std::uint32_t nameId, std::int64_t arg, bool hasArg);
  void end();

  std::uint32_t nameId_ = 0;
  int mode_ = 0;  ///< TraceLevel captured at begin (0 = inactive)
  int depth_ = 0;
  bool hasArg_ = false;
  std::int64_t arg_ = 0;
  std::int64_t startNs_ = 0;
  void* sink_ = nullptr;  ///< TraceSink::Impl captured at begin
};

/// Thread-bound-sink conveniences (default sink when unbound); these are
/// what pre-context call sites and tests use.
std::vector<TraceEvent> collectTraceEvents();
std::vector<SpanAggregate> spanAggregates();
void clearTrace();
void writeChromeTrace(std::ostream& os);

#define SADP_TRACE_CAT2(a, b) a##b
#define SADP_TRACE_CAT(a, b) SADP_TRACE_CAT2(a, b)

/// Opens a span covering the rest of the enclosing scope.
#define SADP_SPAN(name)                                                 \
  static const std::uint32_t SADP_TRACE_CAT(sadpSpanName_, __LINE__) =  \
      ::sadp::internSpanName(name);                                     \
  ::sadp::Span SADP_TRACE_CAT(sadpSpan_, __LINE__)(                     \
      SADP_TRACE_CAT(sadpSpanName_, __LINE__))

/// Span with one integer argument (net id, layer, pass, ...).
#define SADP_SPAN_ARG(name, argValue)                                   \
  static const std::uint32_t SADP_TRACE_CAT(sadpSpanName_, __LINE__) =  \
      ::sadp::internSpanName(name);                                     \
  ::sadp::Span SADP_TRACE_CAT(sadpSpan_, __LINE__)(                     \
      SADP_TRACE_CAT(sadpSpanName_, __LINE__),                          \
      static_cast<std::int64_t>(argValue))

}  // namespace sadp
