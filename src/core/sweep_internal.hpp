// Internals shared by the sweep's execution backends (core/sweep.cpp and
// core/sweep_isolated.cpp) — not part of the public sweep API.
//
// The heart is SpecExecutor: the per-spec execution engine extracted from
// the worker loops so the SAME code path runs a family member whether the
// caller is an in-process worker thread or a sandboxed child process
// (--isolate=procs).  That sharing is what makes the isolated sweep's
// surviving-spec results byte-identical to the in-process sweep's — there
// is only one way a spec gets executed.  SweepMonitor is the other shared
// piece: one heartbeat / JSONL sampler / watchdog for both backends.
//
// Metric accounting contract: SpecExecutor itself bumps only the metrics
// that describe work INTERNAL to a run (checkpoints, forks, resume
// fallbacks, divergence depth, the checkpoint gauge, detector-level
// counters via the run itself).  The three per-spec accounting metrics —
// kSpecRuns, kSweepDedupReuses, kSpecRunNanos — are the CALLER's job:
// thread workers bump them directly (exactly as before the extraction),
// while a sandbox child does NOT — its supervisor bumps them from the
// per-spec wire lines it actually received, so specs lost in a child crash
// are never counted and conservation (spec_runs == kSpecRuns +
// kSweepDedupReuses over the merged prefix) holds even across failures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/metrics_export.hpp"
#include "core/race_report.hpp"
#include "core/spplus.hpp"
#include "core/sweep.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/steal_spec.hpp"
#include "support/metrics.hpp"
#include "support/rolling_rate.hpp"
#include "tool/sampling.hpp"

namespace rader::sweep_internal {

/// One node of a run's checkpoint stack: the engine snapshot at a
/// continuation point, a frozen detector fork (never fed events — only
/// re-forked when a run resumes here), and the unstamped race log at capture
/// time.  The stack holds checkpoints of the latest run in increasing point
/// order; the entries at or above a divergence point stay valid for the next
/// run, which is exactly the trie structure of the family.
struct PrefixCheckpoint {
  EngineCheckpoint engine;
  std::unique_ptr<Tool> tool;
  RaceLog log;
};

/// First trail index where `spec` decides differently from the recorded
/// execution — computed offline, with no program execution, because
/// specifications are pure functions of the recorded contexts.  Returns
/// trail.size() when every decision matches — identical decisions mean an
/// identical execution.
std::size_t divergence_depth(const spec::StealSpec& spec,
                             const DecisionTrail& trail);

/// Executes family members one at a time, carrying the cross-spec state the
/// prefix strategy needs (decision trail, checkpoint stack, last run's log)
/// between calls.  One instance per worker thread / per sandbox child; the
/// family, factory, and options must outlive it.  run() calls with
/// ascending indices realize the prefix strategy's trie walk; any order is
/// correct (each run is self-contained), just slower.
///
/// Sampling (options.sampling.enabled) forces rerun semantics internally —
/// prefix checkpoints carry detector state across specs, and each spec
/// samples a different granule set, so a resumed checkpoint would mix two
/// sample sets.
class SpecExecutor {
 public:
  SpecExecutor(const ProgramFactory& make_program,
               const std::vector<std::unique_ptr<spec::StealSpec>>& family,
               const SweepOptions& options);
  ~SpecExecutor();

  SpecExecutor(const SpecExecutor&) = delete;
  SpecExecutor& operator=(const SpecExecutor&) = delete;

  struct RunOutcome {
    bool executed = false;     // false = prefix dedup reused the last log
    std::uint64_t nanos = 0;   // execution wall time (0 when !executed)
  };

  /// Execute (or dedup-reuse) family[i] into `*out`, which is overwritten
  /// and left UNSTAMPED (no found_under/eliciting_specs) — callers stamp
  /// with family[i]->describe() themselves.  Fires the "sweep.spec"
  /// faultpoint (detail = i) before doing anything, so injected crashes
  /// land attributably at spec granularity.
  RunOutcome run(std::size_t i, RaceLog* out);

 private:
  RunOutcome run_rerun(std::size_t i, RaceLog* out);
  RunOutcome run_prefix(std::size_t i, RaceLog* out);
  void on_point(std::size_t idx);
  void drop_checkpoints(std::size_t keep);

  const ProgramFactory& make_program_;
  const std::vector<std::unique_ptr<spec::StealSpec>>& family_;
  const SweepOptions& options_;
  const bool prefix_;
  const unsigned stride_;

  std::function<void()> program_;        // this executor's program instance
  DecisionTrail trail_;                  // decisions of the latest run
  std::vector<PrefixCheckpoint> ckpts_;  // checkpoints along it, ascending
  RaceLog last_log_;                     // latest run's UNSTAMPED log
  bool has_last_ = false;

  // Live-run plumbing for the point hook.
  SerialEngine* eng_ = nullptr;
  Tool* cur_tool_ = nullptr;
  RaceLog* cur_out_ = nullptr;
};

/// Progress as a sweep backend reports it to its monitor.
struct SweepCounts {
  std::uint64_t done = 0;  // members completed (or quarantined)
  std::uint64_t racy = 0;  // completed members that reported a race
  std::vector<std::uint64_t> per_worker;  // completions per worker slot
};

/// The sweep's live consumers behind one tick: the `--progress` heartbeat
/// (rolling-window rate/ETA), the JSONL metrics sampler (`--metrics-out`),
/// the queue-depth gauge, and the hang watchdog (`--watchdog-ms`).  Both
/// backends drive the same tick(): the in-process sweep from its monitor
/// thread, the isolated supervisor from its poll loop (it must stay
/// thread-free to fork safely).  Each consumer throttles itself, so tick()
/// may be called at any cadence at least as fast as tick_ms().
class SweepMonitor {
 public:
  /// True when some consumer is on (the in-process sweep then starts its
  /// monitor thread).
  static bool wanted(const SweepOptions& options);

  /// `counts` reports progress; `live` the metrics the JSONL sampler
  /// writes; `reg` receives the queue-depth gauge and watchdog dumps.
  SweepMonitor(const SweepOptions& options, std::size_t total,
               std::function<SweepCounts()> counts,
               std::function<metrics::Snapshot()> live,
               metrics::Registry* reg);

  /// The longest tick interval that still serves every consumer.
  unsigned tick_ms() const { return tick_ms_; }

  void tick();

  /// Final observations once the workers have quiesced: the exact gauge,
  /// the summary heartbeat line, the final JSONL sample.
  void finish();

 private:
  std::string line(const SweepCounts& c, bool final) const;

  const SweepOptions& options_;
  const std::size_t total_;
  std::function<SweepCounts()> counts_;
  std::function<metrics::Snapshot()> live_;
  metrics::Registry* reg_;
  std::ostream& out_;
  MetricsSampler sampler_;
  const unsigned heartbeat_interval_ms_;
  unsigned tick_ms_;
  support::RollingRate rate_;
  std::uint64_t last_heartbeat_nanos_ = 0;
  std::uint64_t last_done_ = 0;
  std::uint64_t last_change_nanos_ = 0;
  bool armed_ = true;
  metrics::Stopwatch clock_;
};

/// The --isolate=procs backend (core/sweep_isolated.cpp): shard the family
/// across sandboxed child processes and supervise retries/quarantine.
/// Called by sweep_family() — use that entry point, not this one.
SweepResult sweep_family_isolated(
    const ProgramFactory& make_program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SweepOptions& options);

}  // namespace rader::sweep_internal
