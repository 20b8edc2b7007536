#include "exp/run_context.hpp"

namespace now::exp {

namespace {
thread_local RunContext* t_current = nullptr;
}  // namespace

ScopedRunContext::ScopedRunContext(RunContext& ctx)
    : prev_ctx_(t_current),
      prev_metrics_(obs::set_thread_metrics(&ctx.metrics)),
      prev_tracer_(obs::set_thread_tracer(&ctx.tracer)) {
  t_current = &ctx;
}

ScopedRunContext::~ScopedRunContext() {
  obs::set_thread_tracer(prev_tracer_);
  obs::set_thread_metrics(prev_metrics_);
  t_current = prev_ctx_;
}

RunContext* current_context() { return t_current; }

}  // namespace now::exp
