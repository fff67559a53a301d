#include "support/obs.hpp"

#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace rader::obs {

Scope::Scope(trace::Session* session, const std::string& thread_name)
    : saved_(detail::tl_context) {
  detail::tl_context.session = session;
  detail::tl_context.buffer =
      session != nullptr ? session->make_buffer(thread_name) : nullptr;
}

Context attach(const Context& parent, metrics::Registry* registry,
               prof::Profiler* profiler, const char* trace_name,
               std::uint32_t worker) {
  Context ctx = parent;
  ctx.registry = parent.registry != nullptr ? registry : nullptr;
  ctx.profiler = parent.profiler != nullptr ? profiler : nullptr;
  if (parent.session != nullptr && trace_name != nullptr) {
    ctx.buffer =
        parent.session->make_buffer(trace_name + std::to_string(worker));
  }
  ctx.worker = worker;
  return ctx;
}

void fold(const Context& worker, const Context& parent) {
  if (parent.registry != nullptr && worker.registry != nullptr &&
      worker.registry != parent.registry) {
    parent.registry->absorb(worker.registry->snapshot());
  }
  if (parent.profiler != nullptr && worker.profiler != nullptr &&
      worker.profiler != parent.profiler) {
    parent.profiler->absorb(worker.profiler->root());
  }
}

}  // namespace rader::obs
