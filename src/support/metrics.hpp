// Run-metrics registry: counters, gauges, histograms, and phase time for
// the observability layer.
//
// Sampling-based and vector-clock race detectors expose per-run accounting
// (accesses seen, shadow cells touched, per-phase costs) so that partial
// monitoring is trustworthy and overhead is localizable; this registry gives
// Rader the same footing.  Every detector (SP-bags, Peer-Set, SP+,
// SP-order), the shadow spaces, the disjoint-set substrate, the RaceLog
// dedup layer, the view arena, both engines, and the sweep feed it.
//
// Design: a plain per-thread sink.  A `Registry` is a flat `Snapshot` —
// uint64 counters, signed gauges with per-thread high-water marks,
// log2-bucketed histograms, and per-phase nanosecond accumulators.  The
// calling thread's registry is the `registry` field of its observability
// context (support/obs.hpp); `Scope` (an alias of obs::Scope) installs one
// (RAII, nestable — the previous sink is restored).  The hot-path helpers
// `bump()`, `gauge_add()`, and `record()` are a thread-local load and a
// predictable branch when no registry is installed, so instrumented code
// pays ~nothing unless someone is listening (the dormant-hook budget is
// enforced by bench/fig7_overhead at <= 1.02x geomean).  Phase time is
// recorded by prof::Phase (support/profile.hpp), whose one clock pair feeds
// both the profiler and the registry's phase slot.
//
// Naming: every metric has a canonical dotted name in one of four stable
// namespaces — `sweep.*` (the spec-family sweep), `engine.*` (serial +
// parallel execution engines), `detector.*` (the four detectors and their
// substrates), `shadow.*` (shadow memory).  These names are the public
// exposition surface: the JSON report's "metrics" block, the Prometheus
// text format (core/metrics_export.hpp, dots become underscores there), and
// `rader --list-metrics` all derive from the descriptor tables here.
//
// Threading: a Registry is single-thread; parallel consumers (the sweep,
// the parallel engine) give each worker its own Registry and fold the
// snapshots together after joining (obs::attach / obs::fold).  A sweep also
// forwards its aggregate into the *calling* thread's current registry, so
// an outer Scope (e.g. the CLI's) observes the whole run: probe + workers +
// merge.  For LIVE consumers (the sweep's JSONL sampler, the crash handler)
// there is `SharedSnapshot`: a fixed array of per-writer slots of relaxed
// atomics that workers overwrite with their current totals and readers sum
// wait-free — approximate by design, exact once the writers quiesce.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/obs.hpp"

namespace rader::metrics {

/// Monotonic (steady-clock) nanoseconds since an arbitrary epoch.  The one
/// time source shared by prof::Phase, Stopwatch, and the trace subsystem.
std::uint64_t now_nanos();

/// Counter identities.  Canonical dotted names in counter_name().
enum class Counter : unsigned {
  kAccessesInstrumented,  // on_access events a detector processed
  kShadowPagesTouched,    // shadow pages lazily allocated
  kDsuFinds,              // disjoint-set find() calls
  kDsuUnions,             // disjoint-set link() calls
  kFramesEntered,         // frames a detector tracked
  kRacesReported,         // distinct race identities stored
  kRacesDeduped,          // duplicate reports folded into a stored identity
  kSpecRuns,              // SP+ executions performed by sweeps
  kSweepCheckpoints,      // engine+detector checkpoints captured (prefix
                          // sweep strategy, core/sweep.hpp)
  kSweepForks,             // runs resumed from a checkpointed fork
  kSweepResumeFallbacks,   // resumes abandoned (ResumeDiverged) and redone
                           // as fresh runs — nonzero means the program is
                           // not address-stable across executions
  kShadowPagesCoW,         // shared shadow pages copied on first write
  kEngineTasks,            // spawned tasks executed by the parallel engine
  kEngineSteals,           // successful steals in the parallel engine
  kShardEvents,            // instrumentation events recorded into shards
  kShardDrains,            // root-shard replays into the attached tool
  kPostmortemDumps,        // post-mortem reports written (signal/watchdog)
  kSweepDedupReuses,       // prefix-sweep members whose log was reused
                           // verbatim (identical decision trail, no
                           // execution); spec_runs == kSpecRuns + this
  kShadowEpochClears,      // O(1) epoch-bump bulk clears of a packed
                           // shadow space (shadow/packed_shadow.hpp)
  kShadowPageResets,       // stale-epoch pages lazily re-initialized on
                           // their first write after a bulk clear
  kSampledAccesses,        // access events (granule runs) a SamplingTool
                           // forwarded to its wrapped detector
  kSampledDropped,         // granules a SamplingTool dropped unsampled
  kSweepChildCrashes,      // sandbox children that died abnormally (signal,
                           // timeout kill, OOM exit, protocol truncation)
                           // during an isolated sweep (core/sweep.hpp)
  kSweepRetries,           // failed shards relaunched (same range, backoff)
                           // by the isolated-sweep supervisor
  kSweepQuarantined,       // specs quarantined into sweep.failures[] after
                           // retries were exhausted
};
inline constexpr unsigned kCounterCount = 25;
const char* counter_name(Counter c);

/// Gauge identities: instantaneous levels with a per-thread high-water
/// mark.  Folding sums the levels and takes the largest per-thread peak.
/// Canonical dotted names in gauge_name().
enum class Gauge : unsigned {
  kSweepQueueDepth,       // family members not yet completed (monitor-set)
  kSweepCheckpointsLive,  // prefix-sweep checkpoints currently held
  kArenaBytes,            // view-arena bytes handed out since last rewind
  kShadowPagesLive,       // shadow pages currently mapped across spaces
  kDequeSize,             // parallel-engine deque entries (pushes - takes)
};
inline constexpr unsigned kGaugeCount = 5;
const char* gauge_name(Gauge g);

/// Histogram identities: log2-bucketed distributions (value v lands in
/// bucket bit_width(v); bucket b>=1 covers [2^(b-1), 2^b - 1], bucket 0 is
/// exactly zero).  Canonical dotted names in histogram_name().
enum class Histogram : unsigned {
  kSpecRunNanos,     // wall nanoseconds of one sweep spec execution
  kAccessBytes,      // byte size of instrumented accesses
  kReduceNanos,      // wall nanoseconds of one simulated reduce delivery
  kDivergenceDepth,  // prefix-sweep divergence depth (trail index)
  kSampledRunBytes,  // byte length of each granule run a SamplingTool
                     // forwarded (coverage shape of the sampled stream)
  kChildRestartNanos,  // isolated sweep: latency from detecting a child
                       // failure to spawning its replacement
};
inline constexpr unsigned kHistogramCount = 6;
inline constexpr unsigned kHistogramBuckets = 64;
const char* histogram_name(Histogram h);

/// Bucket index of a value: 0 for 0, otherwise bit_width (1..64 clamped to
/// the last bucket).
inline unsigned histogram_bucket(std::uint64_t v) {
  const unsigned b = static_cast<unsigned>(std::bit_width(v));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

/// Inclusive upper bound of a bucket (the Prometheus `le` label).
inline std::uint64_t histogram_bucket_bound(unsigned b) {
  if (b == 0) return 0;
  if (b >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

/// Wall-clock phases.  kExecute brackets whole detector runs, so it
/// *includes* the kReduce time spent delivering simulated reduce
/// operations inside those runs; kMerge is RaceLog merging, outside runs.
enum class Phase : unsigned {
  kProbe,    // the serial Peer-Set probe of check_exhaustive
  kExecute,  // detector executions (sweep workers / family loops)
  kReduce,   // simulated reduce delivery inside the serial engine
  kMerge,    // folding per-spec RaceLogs into the result
};
inline constexpr unsigned kPhaseCount = 4;
const char* phase_name(Phase p);

/// One gauge's fold cell: the current level plus the high-water mark the
/// level reached on this sink.
struct GaugeCell {
  std::int64_t value = 0;
  std::int64_t max = 0;
};

/// One histogram's fold cell.
struct HistogramCell {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t buckets[kHistogramBuckets] = {};

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// target log2 bucket.  0 when the histogram is empty.
  double quantile(double q) const;
};

/// A value snapshot: plain data, addable, serializable.
struct Snapshot {
  std::uint64_t counters[kCounterCount] = {};
  std::uint64_t phase_nanos[kPhaseCount] = {};
  GaugeCell gauges[kGaugeCount] = {};
  HistogramCell hists[kHistogramCount] = {};

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<unsigned>(c)];
  }
  const GaugeCell& gauge(Gauge g) const {
    return gauges[static_cast<unsigned>(g)];
  }
  const HistogramCell& hist(Histogram h) const {
    return hists[static_cast<unsigned>(h)];
  }
  double phase_seconds(Phase p) const {
    return static_cast<double>(phase_nanos[static_cast<unsigned>(p)]) * 1e-9;
  }

  /// Elementwise accumulate `other` into this snapshot.  Counters, phase
  /// times, histograms, and gauge levels add; gauge high-water marks take
  /// the larger per-sink peak (the folded max is the largest single-thread
  /// peak, not the global simultaneous maximum).
  void add(const Snapshot& other);

  /// True when every counter, gauge, histogram, and timer is zero.
  bool empty() const;

  /// {"counters":{...},"phase_seconds":{...},"gauges":{...},
  ///  "histograms":{...}} — the metrics block of report schema v4
  /// (docs/API.md).  Histograms carry count/sum/p50/p90/p99 plus the
  /// nonzero [le, n] bucket pairs.
  std::string to_json() const;
};

/// A mutable per-thread sink.
class Registry {
 public:
  void bump(Counter c, std::uint64_t n = 1) {
    snap_.counters[static_cast<unsigned>(c)] += n;
  }
  void gauge_add(Gauge g, std::int64_t delta) {
    GaugeCell& cell = snap_.gauges[static_cast<unsigned>(g)];
    cell.value += delta;
    if (cell.value > cell.max) cell.max = cell.value;
  }
  void gauge_set(Gauge g, std::int64_t value) {
    GaugeCell& cell = snap_.gauges[static_cast<unsigned>(g)];
    cell.value = value;
    if (value > cell.max) cell.max = value;
  }
  void record(Histogram h, std::uint64_t value) {
    HistogramCell& cell = snap_.hists[static_cast<unsigned>(h)];
    ++cell.count;
    cell.sum += value;
    ++cell.buckets[histogram_bucket(value)];
  }
  void add_phase_nanos(Phase p, std::uint64_t nanos) {
    snap_.phase_nanos[static_cast<unsigned>(p)] += nanos;
  }
  void absorb(const Snapshot& s) { snap_.add(s); }
  const Snapshot& snapshot() const { return snap_; }
  void reset() { snap_ = Snapshot{}; }

 private:
  Snapshot snap_;
};

/// The calling thread's current sink (nullptr = metrics off).
inline Registry* current() { return obs::detail::tl_context.registry; }
inline bool enabled() { return current() != nullptr; }

/// Hot-path increment: no-op unless a Registry is installed.
inline void bump(Counter c, std::uint64_t n = 1) {
  if (Registry* r = obs::detail::tl_context.registry) r->bump(c, n);
}

/// Hot-path gauge level change (+/-): no-op unless a Registry is installed.
inline void gauge_add(Gauge g, std::int64_t delta) {
  if (Registry* r = obs::detail::tl_context.registry) r->gauge_add(g, delta);
}

/// Hot-path gauge level overwrite: no-op unless a Registry is installed.
inline void gauge_set(Gauge g, std::int64_t value) {
  if (Registry* r = obs::detail::tl_context.registry) r->gauge_set(g, value);
}

/// Hot-path histogram observation: no-op unless a Registry is installed.
inline void record(Histogram h, std::uint64_t value) {
  if (Registry* r = obs::detail::tl_context.registry) r->record(h, value);
}

/// RAII sink installation: `Scope scope(&reg)` makes `reg` the calling
/// thread's registry for the scope's lifetime (support/obs.hpp).
using Scope = obs::Scope;

/// One row of the registry-backed metric catalog (`rader --list-metrics`,
/// the Prometheus HELP lines).  `type` is "counter", "gauge", "histogram",
/// or "phase"; names are the canonical dotted identifiers.
struct MetricInfo {
  const char* name;
  const char* type;
  const char* help;
};

/// Every metric this build can emit, in exposition order: counters, gauges,
/// histograms, then phases.  The single source of truth for name stability
/// — exposition formats and tests iterate this, never ad-hoc lists.
std::vector<MetricInfo> list_metrics();

/// A wait-free live view over per-writer snapshots: `slots` writers each
/// overwrite their own slot with their current totals (relaxed atomic
/// stores, monotone per writer); any thread can `read()` the summed view at
/// any time (relaxed loads).  Values observed mid-run are approximate —
/// different cells may be from slightly different instants — but each cell
/// is a real value some writer published, and once writers quiesce (sweep
/// join) the read is exact.  This is what the sweep's JSONL sampler, the
/// watchdog, and the crash handler read; reading allocates nothing beyond
/// the returned Snapshot, and `read_into` allocates nothing at all
/// (async-signal usable).
class SharedSnapshot {
 public:
  explicit SharedSnapshot(unsigned slots);

  unsigned slots() const { return slots_; }

  /// Overwrite `slot`'s cells with `s`.  One writer per slot.
  void publish(unsigned slot, const Snapshot& s);

  /// Sum every slot into `out` (gauge maxes fold like Snapshot::add).
  void read_into(Snapshot* out) const;

  Snapshot read() const {
    Snapshot s;
    read_into(&s);
    return s;
  }

 private:
  // Cells per slot: the Snapshot flattened to uint64 words (gauge int64s
  // are bit-cast).
  static constexpr unsigned kWordsPerSlot =
      kCounterCount + kPhaseCount + 2 * kGaugeCount +
      kHistogramCount * (2 + kHistogramBuckets);

  unsigned slots_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

/// Free-running monotonic stopwatch (the benchmark harnesses' `Timer`).
class Stopwatch {
 public:
  Stopwatch() { reset(); }

  void reset() { start_ = now_nanos(); }

  /// Nanoseconds elapsed since construction or the last reset().
  std::uint64_t nanos() const { return now_nanos() - start_; }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const { return static_cast<double>(nanos()) * 1e-9; }

 private:
  std::uint64_t start_ = 0;
};

/// Run `fn` `reps` times and return the *minimum* wall-clock seconds of a
/// single run.  Minimum-of-N is the standard noise-robust estimator for
/// deterministic CPU-bound workloads.
double time_best_of(int reps, const std::function<void()>& fn);

}  // namespace rader::metrics
