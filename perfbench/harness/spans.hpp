// In-memory spans for the traced benchmark run.
//
// A span records one call the benchmark makes into a layer's public
// functions: a driver entry point, a SerialEngine::run, or one spec
// execution inside a sweep (captured by wrapping the closure the
// benchmark's ProgramFactory returns).  Detector callbacks are too many to
// record one by one, so TimingTool (timing_tool.hpp) sums them per class
// and they land here as *aggregate* spans: a name, a total duration and a
// parent, but no interval of their own.
//
// Spans are kept in memory and written out once, at the end of the run.
// A span's self time is its duration minus the part of its interval that
// its child spans cover (aggregate children subtract their summed
// duration).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root span
  std::uint64_t check = 0;   // the check (driver call) this span serves
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;  // small per-process thread number
  bool aggregate = false;    // summed callback time, no interval of its own
  std::string counts;        // JSON object of registry counter deltas
};

/// Process-wide span store.  Appends are mutex-guarded; sweep workers
/// record their spec spans from their own threads.
class SpanLog {
 public:
  /// Open a span now.  `parent` / `check` of kInherit take the calling
  /// thread's innermost open span (and its check id).
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};
  std::uint64_t open(const std::string& name, std::uint64_t parent = kInherit,
                     std::uint64_t check = kInherit);
  /// Close span `id` now; `counts` is stored verbatim.
  void close(std::uint64_t id, std::string counts = {});

  /// Record an aggregate child of `parent` with a summed duration.
  void add_aggregate(const std::string& name, std::uint64_t parent,
                     std::uint64_t nanos);

  /// A fresh check id (one per driver call).
  std::uint64_t next_check();

  std::vector<Span> snapshot() const;

  /// Write one JSON object per span to `path`.  Returns false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_check_ = 1;  // guarded by mu_
};

SpanLog& spans();

/// RAII span around one call.
class SpanScope {
 public:
  explicit SpanScope(const std::string& name,
                     std::uint64_t parent = SpanLog::kInherit,
                     std::uint64_t check = SpanLog::kInherit);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return id_; }
  void set_counts(std::string counts) { counts_ = std::move(counts); }

 private:
  std::uint64_t id_;
  std::string counts_;
};

/// Per span name: how many spans, their total duration and total self time.
struct SelfTimeRow {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::vector<SelfTimeRow> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
