#include "support/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "support/common.hpp"

namespace rader::metrics {

std::uint64_t now_nanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kAccessesInstrumented:
      return "detector.accesses_instrumented";
    case Counter::kShadowPagesTouched: return "shadow.pages_touched";
    case Counter::kDsuFinds: return "detector.dsu_finds";
    case Counter::kDsuUnions: return "detector.dsu_unions";
    case Counter::kFramesEntered: return "detector.frames_entered";
    case Counter::kRacesReported: return "detector.races_reported";
    case Counter::kRacesDeduped: return "detector.races_deduped";
    case Counter::kSpecRuns: return "sweep.spec_runs";
    case Counter::kSweepCheckpoints: return "sweep.checkpoints";
    case Counter::kSweepForks: return "sweep.forks";
    case Counter::kSweepResumeFallbacks: return "sweep.resume_fallbacks";
    case Counter::kShadowPagesCoW: return "shadow.pages_cow";
    case Counter::kEngineTasks: return "engine.tasks";
    case Counter::kEngineSteals: return "engine.steals";
    case Counter::kShardEvents: return "engine.shard_events";
    case Counter::kShardDrains: return "engine.shard_drains";
    case Counter::kPostmortemDumps: return "sweep.postmortem_dumps";
    case Counter::kSweepDedupReuses: return "sweep.dedup_reuses";
    case Counter::kShadowEpochClears: return "shadow.epoch_clears";
    case Counter::kShadowPageResets: return "shadow.page_resets";
    case Counter::kSampledAccesses: return "detector.sampled_accesses";
    case Counter::kSampledDropped: return "detector.sampled_dropped";
    case Counter::kSweepChildCrashes: return "sweep.child_crashes";
    case Counter::kSweepRetries: return "sweep.retries";
    case Counter::kSweepQuarantined: return "sweep.quarantined";
  }
  return "unknown";
}

namespace {

const char* counter_help(Counter c) {
  switch (c) {
    case Counter::kAccessesInstrumented:
      return "on_access events a detector processed";
    case Counter::kShadowPagesTouched:
      return "shadow pages lazily allocated";
    case Counter::kDsuFinds: return "disjoint-set find() calls";
    case Counter::kDsuUnions: return "disjoint-set link() calls";
    case Counter::kFramesEntered: return "frames a detector tracked";
    case Counter::kRacesReported: return "distinct race identities stored";
    case Counter::kRacesDeduped:
      return "duplicate reports folded into a stored identity";
    case Counter::kSpecRuns: return "SP+ executions performed by sweeps";
    case Counter::kSweepCheckpoints:
      return "engine+detector checkpoints captured (prefix strategy)";
    case Counter::kSweepForks: return "runs resumed from a checkpointed fork";
    case Counter::kSweepResumeFallbacks:
      return "resumes abandoned (ResumeDiverged) and redone fresh";
    case Counter::kShadowPagesCoW:
      return "shared shadow pages copied on first write";
    case Counter::kEngineTasks:
      return "spawned tasks executed by the parallel engine";
    case Counter::kEngineSteals:
      return "successful steals in the parallel engine";
    case Counter::kShardEvents:
      return "instrumentation events recorded into shards";
    case Counter::kShardDrains:
      return "root-shard replays into the attached tool";
    case Counter::kPostmortemDumps:
      return "post-mortem reports written (fatal signal or watchdog)";
    case Counter::kSweepDedupReuses:
      return "members whose log was reused from an identical-trail run";
    case Counter::kShadowEpochClears:
      return "O(1) epoch-bump bulk clears of packed shadow spaces";
    case Counter::kShadowPageResets:
      return "stale-epoch shadow pages lazily reset on first write";
    case Counter::kSampledAccesses:
      return "access granule runs forwarded by sampling wrappers";
    case Counter::kSampledDropped:
      return "granules dropped unsampled by sampling wrappers";
    case Counter::kSweepChildCrashes:
      return "sandbox children that died abnormally in isolated sweeps";
    case Counter::kSweepRetries:
      return "failed shards relaunched by the isolated-sweep supervisor";
    case Counter::kSweepQuarantined:
      return "specs quarantined into sweep.failures[] after retries";
  }
  return "";
}

const char* gauge_help(Gauge g) {
  switch (g) {
    case Gauge::kSweepQueueDepth:
      return "family members not yet completed by the sweep";
    case Gauge::kSweepCheckpointsLive:
      return "prefix-sweep checkpoints currently held";
    case Gauge::kArenaBytes:
      return "view-arena bytes handed out since the last rewind";
    case Gauge::kShadowPagesLive:
      return "shadow pages currently mapped across live spaces";
    case Gauge::kDequeSize:
      return "parallel-engine deque entries (pushes minus takes)";
  }
  return "";
}

const char* histogram_help(Histogram h) {
  switch (h) {
    case Histogram::kSpecRunNanos:
      return "wall nanoseconds of one sweep spec execution";
    case Histogram::kAccessBytes:
      return "byte size of instrumented accesses";
    case Histogram::kReduceNanos:
      return "wall nanoseconds of one simulated reduce delivery";
    case Histogram::kDivergenceDepth:
      return "prefix-sweep divergence depth (decision-trail index)";
    case Histogram::kSampledRunBytes:
      return "byte length of each forwarded sampled granule run";
    case Histogram::kChildRestartNanos:
      return "failure-detection to replacement-spawn latency (isolated "
             "sweep)";
  }
  return "";
}

const char* phase_help(Phase p) {
  switch (p) {
    case Phase::kProbe: return "serial Peer-Set probe of check_exhaustive";
    case Phase::kExecute: return "detector executions";
    case Phase::kReduce: return "simulated reduce delivery inside runs";
    case Phase::kMerge: return "folding per-spec RaceLogs into the result";
  }
  return "";
}

}  // namespace

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::kSweepQueueDepth: return "sweep.queue_depth";
    case Gauge::kSweepCheckpointsLive: return "sweep.checkpoints_live";
    case Gauge::kArenaBytes: return "engine.arena_bytes";
    case Gauge::kShadowPagesLive: return "shadow.pages_live";
    case Gauge::kDequeSize: return "engine.deque_size";
  }
  return "unknown";
}

const char* histogram_name(Histogram h) {
  switch (h) {
    case Histogram::kSpecRunNanos: return "sweep.spec_run_nanos";
    case Histogram::kAccessBytes: return "detector.access_bytes";
    case Histogram::kReduceNanos: return "engine.reduce_nanos";
    case Histogram::kDivergenceDepth: return "sweep.divergence_depth";
    case Histogram::kSampledRunBytes: return "detector.sampled_run_bytes";
    case Histogram::kChildRestartNanos: return "sweep.child_restart_nanos";
  }
  return "unknown";
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kProbe: return "probe";
    case Phase::kExecute: return "execute";
    case Phase::kReduce: return "reduce";
    case Phase::kMerge: return "merge";
  }
  return "unknown";
}

std::vector<MetricInfo> list_metrics() {
  std::vector<MetricInfo> out;
  out.reserve(kCounterCount + kGaugeCount + kHistogramCount + kPhaseCount);
  for (unsigned i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    out.push_back({counter_name(c), "counter", counter_help(c)});
  }
  for (unsigned i = 0; i < kGaugeCount; ++i) {
    const auto g = static_cast<Gauge>(i);
    out.push_back({gauge_name(g), "gauge", gauge_help(g)});
  }
  for (unsigned i = 0; i < kHistogramCount; ++i) {
    const auto h = static_cast<Histogram>(i);
    out.push_back({histogram_name(h), "histogram", histogram_help(h)});
  }
  for (unsigned i = 0; i < kPhaseCount; ++i) {
    const auto p = static_cast<Phase>(i);
    out.push_back({phase_name(p), "phase", phase_help(p)});
  }
  return out;
}

double HistogramCell::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count);
  double cum = 0.0;
  for (unsigned b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double next = cum + static_cast<double>(buckets[b]);
    if (next >= rank || b == kHistogramBuckets - 1) {
      if (b == 0) return 0.0;
      const double lo = static_cast<double>(std::uint64_t{1} << (b - 1));
      const double hi =
          static_cast<double>(histogram_bucket_bound(b)) + 1.0;
      const double frac =
          (rank - cum) / static_cast<double>(buckets[b]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    cum = next;
  }
  return 0.0;
}

void Snapshot::add(const Snapshot& other) {
  for (unsigned i = 0; i < kCounterCount; ++i) {
    counters[i] += other.counters[i];
  }
  for (unsigned i = 0; i < kPhaseCount; ++i) {
    phase_nanos[i] += other.phase_nanos[i];
  }
  for (unsigned i = 0; i < kGaugeCount; ++i) {
    gauges[i].value += other.gauges[i].value;
    gauges[i].max = std::max(gauges[i].max, other.gauges[i].max);
  }
  for (unsigned i = 0; i < kHistogramCount; ++i) {
    hists[i].count += other.hists[i].count;
    hists[i].sum += other.hists[i].sum;
    for (unsigned b = 0; b < kHistogramBuckets; ++b) {
      hists[i].buckets[b] += other.hists[i].buckets[b];
    }
  }
}

bool Snapshot::empty() const {
  for (unsigned i = 0; i < kCounterCount; ++i) {
    if (counters[i] != 0) return false;
  }
  for (unsigned i = 0; i < kPhaseCount; ++i) {
    if (phase_nanos[i] != 0) return false;
  }
  for (unsigned i = 0; i < kGaugeCount; ++i) {
    if (gauges[i].value != 0 || gauges[i].max != 0) return false;
  }
  for (unsigned i = 0; i < kHistogramCount; ++i) {
    if (hists[i].count != 0) return false;
  }
  return true;
}

std::string Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (unsigned i = 0; i < kCounterCount; ++i) {
    if (i != 0) os << ',';
    os << '"' << counter_name(static_cast<Counter>(i)) << "\":"
       << counters[i];
  }
  os << "},\"phase_seconds\":{";
  os.precision(9);
  os << std::fixed;
  for (unsigned i = 0; i < kPhaseCount; ++i) {
    if (i != 0) os << ',';
    os << '"' << phase_name(static_cast<Phase>(i)) << "\":"
       << phase_seconds(static_cast<Phase>(i));
  }
  os << "},\"gauges\":{";
  for (unsigned i = 0; i < kGaugeCount; ++i) {
    if (i != 0) os << ',';
    os << '"' << gauge_name(static_cast<Gauge>(i)) << "\":{\"value\":"
       << gauges[i].value << ",\"max\":" << gauges[i].max << '}';
  }
  os << "},\"histograms\":{";
  os.precision(1);
  for (unsigned i = 0; i < kHistogramCount; ++i) {
    const HistogramCell& h = hists[i];
    if (i != 0) os << ',';
    os << '"' << histogram_name(static_cast<Histogram>(i))
       << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"p50\":" << h.quantile(0.50) << ",\"p90\":" << h.quantile(0.90)
       << ",\"p99\":" << h.quantile(0.99) << ",\"buckets\":[";
    bool first = true;
    for (unsigned b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) os << ',';
      first = false;
      os << '[' << histogram_bucket_bound(b) << ',' << h.buckets[b] << ']';
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

SharedSnapshot::SharedSnapshot(unsigned slots)
    : slots_(slots),
      words_(new std::atomic<std::uint64_t>[static_cast<std::size_t>(slots) *
                                            kWordsPerSlot]) {
  const std::size_t n = static_cast<std::size_t>(slots) * kWordsPerSlot;
  for (std::size_t i = 0; i < n; ++i) {
    words_[i].store(0, std::memory_order_relaxed);
  }
}

void SharedSnapshot::publish(unsigned slot, const Snapshot& s) {
  RADER_DCHECK(slot < slots_);
  std::atomic<std::uint64_t>* w =
      words_.get() + static_cast<std::size_t>(slot) * kWordsPerSlot;
  std::size_t i = 0;
  const auto put = [&](std::uint64_t v) {
    w[i++].store(v, std::memory_order_relaxed);
  };
  for (unsigned c = 0; c < kCounterCount; ++c) put(s.counters[c]);
  for (unsigned p = 0; p < kPhaseCount; ++p) put(s.phase_nanos[p]);
  for (unsigned g = 0; g < kGaugeCount; ++g) {
    put(static_cast<std::uint64_t>(s.gauges[g].value));
    put(static_cast<std::uint64_t>(s.gauges[g].max));
  }
  for (unsigned h = 0; h < kHistogramCount; ++h) {
    put(s.hists[h].count);
    put(s.hists[h].sum);
    for (unsigned b = 0; b < kHistogramBuckets; ++b) {
      put(s.hists[h].buckets[b]);
    }
  }
  RADER_DCHECK(i == kWordsPerSlot);
}

void SharedSnapshot::read_into(Snapshot* out) const {
  for (unsigned slot = 0; slot < slots_; ++slot) {
    const std::atomic<std::uint64_t>* w =
        words_.get() + static_cast<std::size_t>(slot) * kWordsPerSlot;
    std::size_t i = 0;
    const auto get = [&] { return w[i++].load(std::memory_order_relaxed); };
    for (unsigned c = 0; c < kCounterCount; ++c) out->counters[c] += get();
    for (unsigned p = 0; p < kPhaseCount; ++p) out->phase_nanos[p] += get();
    for (unsigned g = 0; g < kGaugeCount; ++g) {
      out->gauges[g].value += static_cast<std::int64_t>(get());
      out->gauges[g].max =
          std::max(out->gauges[g].max, static_cast<std::int64_t>(get()));
    }
    for (unsigned h = 0; h < kHistogramCount; ++h) {
      out->hists[h].count += get();
      out->hists[h].sum += get();
      for (unsigned b = 0; b < kHistogramBuckets; ++b) {
        out->hists[h].buckets[b] += get();
      }
    }
  }
}

double time_best_of(int reps, const std::function<void()>& fn) {
  RADER_CHECK(reps > 0);
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    Stopwatch t;
    fn();
    const double s = t.seconds();
    best = (i == 0) ? s : std::min(best, s);
  }
  return best;
}

}  // namespace rader::metrics
