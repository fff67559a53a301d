#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "core/metrics_export.hpp"
#include "core/spplus.hpp"
#include "core/sweep_internal.hpp"
#include "runtime/run.hpp"
#include "runtime/serial_engine.hpp"
#include "runtime/view_arena.hpp"
#include "support/common.hpp"
#include "support/crash.hpp"
#include "support/faultpoint.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace rader {

namespace {

/// The in-process sweep's monitor thread: ticks the SweepMonitor at its
/// cadence, and finishes it once the workers have joined (destruction).
/// Everything the monitor reads is wait-free for the workers: per-worker
/// completion counters are relaxed atomics and the live metrics come from
/// the workers' SharedSnapshot slots.
class MonitorThread {
 public:
  explicit MonitorThread(sweep_internal::SweepMonitor* monitor)
      : monitor_(monitor), thread_([this] { loop(); }) {}

  ~MonitorThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    monitor_->finish();
  }

  MonitorThread(const MonitorThread&) = delete;
  MonitorThread& operator=(const MonitorThread&) = delete;

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(monitor_->tick_ms()),
                         [this] { return stop_; })) {
      monitor_->tick();
    }
  }

  sweep_internal::SweepMonitor* monitor_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: started once the members above exist
};

}  // namespace

namespace sweep_internal {

bool SweepMonitor::wanted(const SweepOptions& options) {
  return options.progress || options.metrics_out != nullptr ||
         options.watchdog_ms > 0;
}

SweepMonitor::SweepMonitor(const SweepOptions& options, std::size_t total,
                           std::function<SweepCounts()> counts,
                           std::function<metrics::Snapshot()> live,
                           metrics::Registry* reg)
    : options_(options),
      total_(total),
      counts_(std::move(counts)),
      live_(std::move(live)),
      reg_(reg),
      out_(options.progress_out != nullptr ? *options.progress_out
                                           : std::cerr),
      sampler_(options.metrics_out, std::max(1u, options.metrics_interval_ms)),
      heartbeat_interval_ms_(std::max(1u, options.progress_interval_ms)) {
  // Tick at the fastest cadence any consumer needs; each consumer then
  // throttles itself (the sampler internally, the heartbeat here).
  unsigned tick = heartbeat_interval_ms_;
  if (options.metrics_out != nullptr) {
    tick = std::min(tick, std::max(1u, options.metrics_interval_ms));
  }
  if (options.watchdog_ms > 0) {
    tick = std::min(tick, std::max(1u, options.watchdog_ms / 4));
  }
  tick_ms_ = std::max(1u, tick);
  rate_.sample(metrics::now_nanos(), 0);  // ETA baseline (first interval)
  last_change_nanos_ = metrics::now_nanos();
}

void SweepMonitor::tick() {
  const SweepCounts c = counts_();
  const std::uint64_t now = metrics::now_nanos();
  reg_->gauge_set(metrics::Gauge::kSweepQueueDepth,
                  static_cast<std::int64_t>(total_ - c.done));
  if (options_.progress &&
      now - last_heartbeat_nanos_ >=
          std::uint64_t{heartbeat_interval_ms_} * 1'000'000) {
    last_heartbeat_nanos_ = now;
    rate_.sample(now, c.done);
    out_ << line(c, /*final=*/false) << std::endl;
  }
  if (options_.metrics_out != nullptr) {
    sampler_.maybe_sample(c.done, total_, live_());
  }
  if (options_.watchdog_ms > 0) {
    if (c.done != last_done_) {
      last_done_ = c.done;
      last_change_nanos_ = now;
      armed_ = true;
    } else if (armed_ && c.done < total_ &&
               now - last_change_nanos_ >=
                   std::uint64_t{options_.watchdog_ms} * 1'000'000) {
      // No spec completed within the deadline: leave a post-mortem and
      // disarm until progress resumes (one report per stall episode).
      // Recovery (killing the stalled child) is the isolated supervisor's
      // business, under --watchdog-kill.
      crash::write_postmortem(options_.watchdog_fd, "watchdog: sweep stalled");
      reg_->bump(metrics::Counter::kPostmortemDumps);
      armed_ = false;
    }
  }
}

void SweepMonitor::finish() {
  const SweepCounts c = counts_();
  reg_->gauge_set(metrics::Gauge::kSweepQueueDepth,
                  static_cast<std::int64_t>(total_ - c.done));
  if (options_.progress) out_ << line(c, /*final=*/true) << std::endl;
  if (options_.metrics_out != nullptr) {
    sampler_.final_sample(c.done, total_, live_());
  }
}

std::string SweepMonitor::line(const SweepCounts& c, bool final) const {
  std::ostringstream workers;
  for (std::size_t w = 0; w < c.per_worker.size(); ++w) {
    workers << (w == 0 ? "" : " ") << 'w' << w << ':' << c.per_worker[w];
  }
  const std::uint64_t remaining = total_ > c.done ? total_ - c.done : 0;
  char perf[96];
  if (final) {
    // The summary reports the true whole-run average (clamped elapsed
    // time: a sub-millisecond sweep must not print inf).
    const double secs = std::max(clock_.seconds(), 1e-9);
    std::snprintf(perf, sizeof(perf), "%.1f specs/s, %.2fs elapsed",
                  static_cast<double>(c.done) / secs, secs);
  } else {
    // Live rate/ETA come from the rolling window, which tracks the current
    // completion regime of front-loaded prefix sweeps.  Until the window
    // has a usable rate (first interval, or a stall) the ETA is unknown —
    // printed as "--", never nan/inf.
    const double rate = rate_.rate_per_sec();
    if (rate > 0.0) {
      std::snprintf(perf, sizeof(perf), "%.1f specs/s, eta %.1fs", rate,
                    rate_.eta_seconds(remaining));
    } else {
      std::snprintf(perf, sizeof(perf), "%.1f specs/s, eta --", rate);
    }
  }
  std::ostringstream os;
  os << (final ? "sweep done: " : "sweep: ") << c.done << '/' << total_
     << " specs (" << perf << ", racy " << c.racy << ") [" << workers.str()
     << ']';
  return os.str();
}

/// The steal query context is the recorded pre-merge context with the
/// merges applied: post-merge live_epochs is exactly `pre - merges` (the
/// engine's frame sync discipline guarantees nested Reduce frames restore
/// the epoch stack).
std::size_t divergence_depth(const spec::StealSpec& spec,
                             const DecisionTrail& trail) {
  for (std::size_t i = 0; i < trail.size(); ++i) {
    const PointDecision& e = trail[i];
    const std::uint32_t m = std::min(spec.merges_now(e.ctx), e.ctx.live_epochs);
    if (m != e.merges) return i;
    spec::PointCtx after = e.ctx;
    after.live_epochs = e.ctx.live_epochs - m;
    if (spec.steal(after) != e.stole) return i;
  }
  return trail.size();
}

SpecExecutor::SpecExecutor(
    const ProgramFactory& make_program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SweepOptions& options)
    : make_program_(make_program),
      family_(family),
      options_(options),
      // Sampling forces the rerun strategy: prefix checkpoints carry
      // detector state across specs, and each spec samples a DIFFERENT
      // granule set (per-spec seed), so a resumed checkpoint would mix two
      // sample sets.
      prefix_(options.strategy == SweepStrategy::kPrefix &&
              !options.sampling.enabled),
      stride_(std::max(1u, options.checkpoint_stride)) {}

SpecExecutor::~SpecExecutor() { drop_checkpoints(0); }

/// Capture hook shared by fresh and resumed runs: snapshot the engine and
/// fork the detector at (stride-thinned) continuation points.  Re-runs over
/// a shared prefix skip points already covered by a live checkpoint.
void SpecExecutor::on_point(std::size_t idx) {
  if (idx < 1) return;
  // Geometric spacing: the gap to the next checkpoint is at least `stride`
  // and at least 1/8 of the current depth, so a run of n points takes
  // O(log n) checkpoints and O(n) amortized fork work (a fork at point p
  // costs O(p) detector state), while a divergence at depth d still resumes
  // within ~d/8 of it.
  const std::size_t base = ckpts_.empty() ? 0 : ckpts_.back().engine.point;
  if (!ckpts_.empty() &&
      idx < base + std::max<std::size_t>(stride_, base / 8)) {
    return;
  }
  PrefixCheckpoint ck;
  eng_->capture(&ck.engine);
  ck.tool = cur_tool_->fork(nullptr);
  RADER_CHECK_MSG(ck.tool != nullptr,
                  "prefix sweep requires a forkable detector");
  ck.log = *cur_out_;
  ckpts_.push_back(std::move(ck));
  metrics::bump(metrics::Counter::kSweepCheckpoints);
  metrics::gauge_add(metrics::Gauge::kSweepCheckpointsLive, 1);
}

/// Every checkpoint counted in must be counted out, whichever of the three
/// drop sites (divergence trim, fallback clear, executor destruction)
/// releases it — the folded gauge level is 0 once every executor is gone.
void SpecExecutor::drop_checkpoints(std::size_t keep) {
  while (ckpts_.size() > keep) {
    ckpts_.pop_back();
    metrics::gauge_add(metrics::Gauge::kSweepCheckpointsLive, -1);
  }
}

SpecExecutor::RunOutcome SpecExecutor::run(std::size_t i, RaceLog* out) {
  faultpoint::fire(faultpoint::kSiteSweepSpec,
                   static_cast<std::uint64_t>(i));
  return prefix_ ? run_prefix(i, out) : run_rerun(i, out);
}

SpecExecutor::RunOutcome SpecExecutor::run_rerun(std::size_t i,
                                                 RaceLog* out) {
  if (!program_) program_ = make_program_();
  *out = RaceLog();
  SpPlusDetector detector(out);
  // Sampling wraps each per-spec detector with a filter seeded from the
  // spec's describe() string — deterministic and jobs-invariant.
  Tool* tool = &detector;
  std::unique_ptr<SamplingTool> sampler;
  if (options_.sampling.enabled) {
    SamplingConfig cfg = options_.sampling;
    cfg.seed = sampling_seed_for_spec(cfg.seed, family_[i]->describe());
    sampler = std::make_unique<SamplingTool>(&detector, cfg);
    tool = sampler.get();
  }
  prof::Phase spec_phase("spec");
  const std::uint64_t t0 = metrics::now_nanos();
  {
    prof::Phase detect_phase("detect", metrics::Phase::kExecute);
    run_serial(program_, tool, family_[i].get());
  }
  return {true, metrics::now_nanos() - t0};
}

SpecExecutor::RunOutcome SpecExecutor::run_prefix(std::size_t i,
                                                  RaceLog* out) {
  if (!program_) program_ = make_program_();
  prof::Phase spec_phase("spec");
  const std::size_t d = has_last_ ? divergence_depth(*family_[i], trail_) : 0;
  if (has_last_) {
    metrics::record(metrics::Histogram::kDivergenceDepth, d);
  }
  if (has_last_ && d == trail_.size()) {
    // Every decision matches the previous run: the execution would be
    // identical, so its (unstamped) log is reused verbatim.  This is common
    // in coverage families, whose members often differ only on contexts the
    // program never reaches.  Accounted by the caller so spec_runs ==
    // kSpecRuns + kSweepDedupReuses stays exact.
    *out = last_log_;
    return {false, 0};
  }
  // Checkpoints past the divergence belong to the abandoned suffix.
  {
    std::size_t keep = ckpts_.size();
    while (keep > 0 && ckpts_[keep - 1].engine.point > d) --keep;
    drop_checkpoints(keep);
  }
  *out = RaceLog();
  cur_out_ = out;
  const auto hook = [this](std::size_t idx) { on_point(idx); };
  const std::uint64_t t0 = metrics::now_nanos();
  // The "resume" and "detect" phases partition the execution (kExecute):
  // a resume covers the fork, the fast-forward and any fallback.
  bool fresh = ckpts_.empty();
  if (!fresh) {
    prof::Phase resume_phase("resume", metrics::Phase::kExecute);
    PrefixCheckpoint& ck = ckpts_.back();
    trail_.resize(d);
    *out = ck.log;
    std::unique_ptr<Tool> detector = ck.tool->fork(out);
    metrics::bump(metrics::Counter::kSweepForks);
    SerialEngine engine(detector.get(), family_[i].get());
    eng_ = &engine;
    cur_tool_ = detector.get();
    engine.set_decision_trail(&trail_);
    engine.set_point_hook(hook);
    SerialEngine::ResumePlan plan;
    plan.replay = &trail_;
    plan.replay_count = d;
    plan.live_from = ck.engine.point;
    // Verified (then dropped) before the hook can grow `ckpts_` and
    // invalidate this pointer.
    plan.expect = &ck.engine;
    try {
      engine.resume_from(program_, plan);
    } catch (const ResumeDiverged&) {
      // The re-executed prefix did not regenerate the checkpointed state
      // (go_live verification, serial_engine.hpp): the program is not an
      // address-stable pure function of the decisions, so its runs cannot
      // share prefixes.  Degrade to rerun semantics for this member: drop
      // every checkpoint (their forks describe executions this program
      // cannot reproduce) and the possibly dirtied instance, and run the
      // member fresh.  Correctness is preserved — only the speedup is lost
      // — and the fallback is visible as kSweepResumeFallbacks in
      // rader.report.
      metrics::bump(metrics::Counter::kSweepResumeFallbacks);
      drop_checkpoints(0);
      *out = RaceLog();
      program_ = make_program_();
      fresh = true;
    }
  }
  if (fresh) {
    // No shared prefix survives (first member, divergence at the root,
    // stride left no checkpoint this shallow, or a resume fallback): fresh
    // run.
    prof::Phase detect_phase("detect", metrics::Phase::kExecute);
    trail_.clear();
    SpPlusDetector detector(out);
    SerialEngine engine(&detector, family_[i].get());
    eng_ = &engine;
    cur_tool_ = &detector;
    engine.set_decision_trail(&trail_);
    engine.set_point_hook(hook);
    engine.run(program_);
  }
  const std::uint64_t nanos = metrics::now_nanos() - t0;
  // The dedup shortcut needs the log as the run produced it, BEFORE
  // stamp_found_under seeds found_under/eliciting_specs.
  last_log_ = *out;
  has_last_ = true;
  return {true, nanos};
}

}  // namespace sweep_internal

ProgramFactory shared_program(std::function<void()> program) {
  return [program = std::move(program)] { return program; };
}

SweepResult sweep_family(
    const ProgramFactory& make_program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SweepOptions& options) {
  if (options.isolation == SweepIsolation::kProcs) {
    // Crash-isolated backend (core/sweep_isolated.cpp): same per-spec
    // execution code (SpecExecutor), but sharded across sandboxed child
    // processes under a retry/quarantine supervisor.
    return sweep_internal::sweep_family_isolated(make_program, family,
                                                 options);
  }
  SweepResult result;
  const std::size_t total = family.size();
  const std::size_t n =
      (options.budget != 0 && options.budget < total)
          ? static_cast<std::size_t>(options.budget)
          : total;
  if (n == 0) {
    result.specs_skipped = total;
    return result;
  }

  unsigned threads = options.threads != 0
                         ? options.threads
                         : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, n));

  // One log per family member, merged in family order afterwards: the sweep
  // result is deterministic and identical to the serial sweep's regardless
  // of thread count or scheduling.
  std::vector<RaceLog> per_spec(n);
  std::vector<char> ran(n, 0);
  // Each worker's own sinks (obs::attach), folded into the sweep's after
  // the join.
  std::vector<metrics::Registry> worker_regs(threads);
  std::vector<prof::Profiler> worker_profs(threads);
  // Telemetry counters sampled by the progress monitor (and mirrored by the
  // per-worker metrics snapshots merged into SweepResult::metrics).
  std::vector<std::atomic<std::uint64_t>> worker_done(threads);
  std::atomic<std::uint64_t> racy_specs{0};
  std::atomic<std::size_t> next{0};
  // Live observability surface: workers overwrite their SharedSnapshot
  // slot with their current totals after every spec, and keep their
  // current spec handle in the in-flight table.  The monitor thread, the
  // watchdog, and a fatal-signal handler (support/crash.hpp) read both
  // wait-free; the final SweepResult::metrics still folds the worker
  // registries directly, so live sampling never changes the result.
  metrics::SharedSnapshot shared(threads);
  crash::InflightTable inflight;
  {
    crash::PostmortemSources sources;
    sources.metrics = &shared;
    sources.inflight = &inflight;
    sources.trace_session = trace::session();
    sources.activity = "sweep";
    crash::set_sources(sources);
  }
  // Lowest family index whose run reported a race (n = none yet).  Under
  // stop_after_first_race, "first" means lowest FAMILY INDEX, not first in
  // wall-clock order: the result is the prefix [0, first_racy], so it is
  // invariant across thread counts.  The value only decreases; a skipped
  // index never runs, so it can never become first_racy itself.
  std::atomic<std::size_t> first_racy{n};

  // Post-run bookkeeping shared by both strategies: stamp the eliciting
  // spec, publish completion (counter, live snapshot slot, in-flight
  // clear), and (stop-first) lower the racy-index minimum.
  const auto finish_spec = [&](unsigned widx, std::size_t i) {
    per_spec[i].stamp_found_under(family[i]->describe());
    ran[i] = 1;
    shared.publish(widx, worker_regs[widx].snapshot());
    inflight.clear(widx);
    worker_done[widx].fetch_add(1, std::memory_order_relaxed);
    if (per_spec[i].any()) {
      racy_specs.fetch_add(1, std::memory_order_relaxed);
    }
    if (options.stop_after_first_race && per_spec[i].any()) {
      std::size_t cur = first_racy.load(std::memory_order_relaxed);
      while (i < cur && !first_racy.compare_exchange_weak(
                            cur, i, std::memory_order_relaxed)) {
      }
    }
  };

  // Publish the spec a worker is about to execute so a hang or crash names
  // it in the post-mortem.
  const auto begin_spec = [&](unsigned widx, std::size_t i) {
    char text[crash::InflightTable::kChars];
    std::snprintf(text, sizeof text, "spec[%zu] %s", i,
                  family[i]->describe().c_str());
    inflight.set(widx, text);
  };

  // Per-spec accounting shared by both strategies (see the contract in
  // core/sweep_internal.hpp: these bumps are the caller's job, not the
  // executor's, so the isolated sweep's supervisor can account only the
  // specs whose results actually arrived).
  const auto account_spec = [](const sweep_internal::SpecExecutor::RunOutcome&
                                   outcome) {
    if (outcome.executed) {
      metrics::record(metrics::Histogram::kSpecRunNanos, outcome.nanos);
      metrics::bump(metrics::Counter::kSpecRuns);
    } else {
      metrics::bump(metrics::Counter::kSweepDedupReuses);
    }
  };

  const auto rerun_worker = [&](unsigned widx,
                                sweep_internal::SpecExecutor& exec) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      // Indices above the current minimum racy index can never join the
      // result prefix (first_racy is monotonically decreasing), so abandon
      // them; indices at or below it always run, which guarantees the whole
      // prefix [0, final first_racy] executes at every thread count.
      if (i > first_racy.load(std::memory_order_relaxed)) break;
      begin_spec(widx, i);
      account_spec(exec.run(i, &per_spec[i]));
      finish_spec(widx, i);
    }
  };

  const auto prefix_worker = [&](unsigned widx,
                                 sweep_internal::SpecExecutor& exec) {
    // Claim ascending chunks instead of single indices: lexicographic
    // families are emitted in trie DFS order, so neighbouring indices share
    // the deepest prefixes, and those only pay off when the SAME worker
    // (whose trail and checkpoints describe the previous member) runs them.
    constexpr std::size_t kChunk = 8;
    for (;;) {
      const std::size_t start =
          next.fetch_add(kChunk, std::memory_order_relaxed);
      if (start >= n) break;
      const std::size_t end = std::min(start + kChunk, n);
      bool abandoned = false;
      for (std::size_t i = start; i < end; ++i) {
        // Same stop-first contract as the rerun worker.  Later indices in
        // this chunk — and any chunk claimed afterwards — are higher still,
        // so abandoning the whole worker is safe.
        if (i > first_racy.load(std::memory_order_relaxed)) {
          abandoned = true;
          break;
        }
        begin_spec(widx, i);
        account_spec(exec.run(i, &per_spec[i]));
        finish_spec(widx, i);
      }
      if (abandoned) break;
    }
  };

  const bool prefix = options.strategy == SweepStrategy::kPrefix &&
                      !options.sampling.enabled;
  // The sweep's own sinks: the registry behind SweepResult::metrics
  // (collected whether or not the caller listens) and a profiler that
  // gathers the workers' phase trees under one "sweep" node.  Both are
  // forwarded to the caller's sinks at the end.
  const obs::Context outer = obs::current();
  metrics::Registry sweep_reg;
  prof::Profiler sweep_prof;
  obs::Context sweep_ctx = outer;
  sweep_ctx.registry = &sweep_reg;
  sweep_ctx.profiler = &sweep_prof;

  const auto worker = [&](unsigned widx) {
    // Bound the thread's view-arena floor: the worker's program fixtures
    // allocate outside runs (promoting the floor), and without this a
    // long-lived process sweeping repeatedly would grow every worker
    // thread's arena monotonically.  Declared first so it is destroyed
    // last — after the program instances (and their views) are gone.
    view_arena::Scope arena_scope;
    // Under a trace session each worker records into its own buffer
    // ("sweep-wN") — one Chrome-trace process per worker.
    obs::Scope scope(obs::attach(sweep_ctx, &worker_regs[widx],
                                 &worker_profs[widx], "sweep-w", widx));
    {
      sweep_internal::SpecExecutor exec(make_program, family, options);
      if (prefix) {
        prefix_worker(widx, exec);
      } else {
        rerun_worker(widx, exec);
      }
    }
    // Quiescent totals: the monitor's final JSONL sample reads these slots
    // after the join, so publish everything one last time.
    shared.publish(widx, worker_regs[widx].snapshot());
  };

  {
    obs::Scope scope(sweep_ctx);
    prof::Phase sweep_phase("sweep");
    {
      // Scoped so the monitor finishes (final summary line, final JSONL
      // sample) as soon as the workers have joined.
      std::unique_ptr<sweep_internal::SweepMonitor> monitor;
      std::unique_ptr<MonitorThread> monitor_thread;
      if (sweep_internal::SweepMonitor::wanted(options)) {
        monitor = std::make_unique<sweep_internal::SweepMonitor>(
            options, n,
            [&] {
              sweep_internal::SweepCounts c;
              for (const auto& w : worker_done) {
                c.per_worker.push_back(w.load(std::memory_order_relaxed));
                c.done += c.per_worker.back();
              }
              c.racy = racy_specs.load(std::memory_order_relaxed);
              return c;
            },
            [&] { return shared.read(); }, &sweep_reg);
        monitor_thread = std::make_unique<MonitorThread>(monitor.get());
      }
      if (threads <= 1) {
        worker(0);
      } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
        for (auto& th : pool) th.join();
      }
    }
    for (unsigned w = 0; w < threads; ++w) {
      obs::fold({.registry = &worker_regs[w], .profiler = &worker_profs[w]},
                sweep_ctx);
    }

    // Merge exactly the deterministic prefix: everything up to and
    // including the lowest racy index (or the whole budgeted family when no
    // run raced).  Runs beyond the prefix — workers that were mid-flight on
    // a higher index when the race landed — are discarded, so race
    // identity, spec_runs, and specs_skipped are byte-identical at every
    // thread count.
    const std::size_t lowest = first_racy.load(std::memory_order_relaxed);
    const std::size_t limit = lowest < n ? lowest + 1 : n;
    {
      prof::Phase merge_phase("merge", metrics::Phase::kMerge);
      for (std::size_t i = 0; i < limit; ++i) {
        RADER_CHECK_MSG(ran[i] != 0, "sweep prefix member did not run");
        result.log.merge(per_spec[i]);
        ++result.spec_runs;
      }
    }
  }
  crash::clear_sources();
  result.specs_skipped = total - result.spec_runs;
  result.metrics = sweep_reg.snapshot();
  // Forward to the caller's registry/profiler (if installed) so an outer
  // Scope sees probe + sweep + merge in one snapshot.
  obs::fold(sweep_ctx, outer);
  return result;
}

}  // namespace rader
