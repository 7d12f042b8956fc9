#include "run/run_context.hpp"

namespace sadp {

namespace {

thread_local RunContext* t_current = nullptr;

}  // namespace

RunContext::RunContext()
    : metrics_(new MetricsRegistry()),
      trace_(new TraceSink()),
      ownsRegistries_(true) {}

RunContext::RunContext(DefaultTag)
    : metrics_(&MetricsRegistry::instance()),
      trace_(&TraceSink::defaultSink()),
      ownsRegistries_(false) {}

RunContext::~RunContext() {
  if (ownsRegistries_) {
    delete trace_;
    delete metrics_;
  }
}

void RunContext::resetForRun() {
  metrics_->reset();
  trace_->clear();
}

RunContext& RunContext::defaultContext() {
  static RunContext* ctx = new RunContext(DefaultTag{});  // leaked
  return *ctx;
}

RunContext& RunContext::current() {
  RunContext* ctx = t_current;
  return ctx ? *ctx : defaultContext();
}

RunContext::Scope::Scope(RunContext& ctx) {
  prevCtx_ = t_current;
  t_current = &ctx;
  prevMetrics_ = bindThreadMetricsRegistry(ctx.metrics_);
  prevSink_ = bindThreadTraceSink(ctx.trace_);
}

RunContext::Scope::~Scope() {
  bindThreadTraceSink(prevSink_);
  bindThreadMetricsRegistry(prevMetrics_);
  t_current = prevCtx_;
}

}  // namespace sadp
