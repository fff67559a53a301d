// The observability context: the one thread-local through which every
// instrumentation hook finds its sink.
//
// A `Context` names the calling thread's metrics registry, phase profiler,
// trace session and trace buffer, plus the worker id stamped on trace
// events.  It is a plain struct held by value in one constant-initialized
// thread-local, so each hook (`metrics::bump`, `trace::emit`, `prof::Phase`)
// reads its field with a single thread-local load and no init guard; a null
// field means "nobody is listening" and the hook is a not-taken branch.
//
// `Scope` installs sinks (RAII, nestable): it saves the whole context and
// restores it on destruction, so any mix of registry, profiler and trace
// session composes.
//
// Fork/join: a worker thread adopts `attach(parent, ...)` — a context
// derived from its parent's in which the worker's own registry, profiler
// and trace buffer stand in for the parent's, and only for the sinks the
// parent has.  After the join, `fold(worker, parent)` adds the worker's
// sinks back into the parent's (`Snapshot::add`, `Profiler::absorb`).  The
// sweep workers, the parallel engine's workers, and the sweep's forward of
// its totals to the caller all use this one shape.
#pragma once

#include <cstdint>
#include <string>

namespace rader::metrics {
class Registry;
}  // namespace rader::metrics
namespace rader::prof {
class Profiler;
}  // namespace rader::prof
namespace rader::trace {
class Session;
class Buffer;
}  // namespace rader::trace

namespace rader::obs {

/// The sinks of one thread.  Every pointer is borrowed (the installer owns
/// the sink and outlives the scope); nullptr = that sink is off.
struct Context {
  metrics::Registry* registry = nullptr;
  prof::Profiler* profiler = nullptr;
  trace::Session* session = nullptr;
  trace::Buffer* buffer = nullptr;  // this thread's buffer in `session`
  std::uint32_t worker = 0;         // worker id stamped on trace events
};

namespace detail {
inline constinit thread_local Context tl_context{};
}  // namespace detail

/// The calling thread's context.
inline const Context& current() { return detail::tl_context; }

/// RAII: install sinks on the calling thread for the scope's lifetime; the
/// whole previous context is restored on destruction.
class Scope {
 public:
  explicit Scope(const Context& ctx) : saved_(detail::tl_context) {
    detail::tl_context = ctx;
  }
  /// Replace only the registry (nullptr silences metrics).
  explicit Scope(metrics::Registry* registry) : saved_(detail::tl_context) {
    detail::tl_context.registry = registry;
  }
  /// Replace only the profiler.
  explicit Scope(prof::Profiler* profiler) : saved_(detail::tl_context) {
    detail::tl_context.profiler = profiler;
  }
  /// Trace into `session` through a fresh buffer named `thread_name`
  /// (`session` == nullptr turns tracing off).
  Scope(trace::Session* session, const std::string& thread_name);
  ~Scope() { detail::tl_context = saved_; }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Context saved_;
};

/// Worker attach: the context a worker thread adopts under `parent`.
/// `registry` and `profiler` are the worker's own sinks; each stands in
/// for the parent's only where the parent has that sink, so a worker never
/// collects what nobody will fold.  Under a trace session the worker
/// records into a fresh buffer named `trace_name` + `worker` (a null
/// `trace_name` shares the parent's buffer).  `worker` is the id stamped on
/// the worker's trace events.
Context attach(const Context& parent, metrics::Registry* registry,
               prof::Profiler* profiler, const char* trace_name,
               std::uint32_t worker);

/// Worker fold: add a joined worker's registry and profiler into the
/// parent's (the profile tree lands under the parent's open phase).  Sinks
/// the worker shares with the parent are not folded again.
void fold(const Context& worker, const Context& parent);

}  // namespace rader::obs
