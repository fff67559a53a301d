// The --isolate=procs sweep backend: shard the family across sandboxed
// child processes (support/subprocess.hpp) under a single-threaded
// retry/quarantine supervisor.
//
// Topology.  The supervisor splits the budgeted family into contiguous
// shards and keeps up to `threads` children alive, each executing one
// shard's specs in ascending order through the SAME SpecExecutor the
// in-process workers use (core/sweep_internal.hpp) — that sharing, plus the
// family-order merge at the end, is what makes the surviving-spec result
// byte-identical to the in-process sweep.  Children are fork()s without
// exec, so the ProgramFactory closure runs directly in the sandbox; results
// come back over a pipe as a line protocol:
//
//   begin <i>                        about to execute family index i
//   metrics <snapshot wire>          cumulative child metrics (report_wire)
//   spec <i> <ran> <nanos> <json>    family[i]'s stamped RaceLog::to_json()
//   done                             shard complete
//
// Each completed spec ships `metrics` THEN `spec`, so the last metrics line
// received always covers exactly the specs whose results were salvaged —
// detector work of a spec that died mid-run is never counted.  For the same
// reason the child never bumps the per-spec accounting metrics (kSpecRuns /
// kSweepDedupReuses / kSpecRunNanos); the supervisor bumps them per `spec`
// line it actually parses.
//
// Failure handling (docs/ROBUSTNESS.md has the full state machine).  A
// child that exits nonzero, dies on a signal, breaks protocol, or blows a
// deadline is classified (signal / timeout / oom / error) and its
// UNFINISHED range [next_expect, hi) re-enters the queue:
//   retry       while the shard has relaunches left (exponential backoff);
//   quarantine  once retries are exhausted and the culprit is attributable
//               (a `begin` with no matching `spec` names it) or the range
//               is a single spec — the spec lands in SweepResult::failures
//               and the REST of the range continues as a fresh shard;
//   bisect      retries exhausted but no attribution (the child died before
//               its first `begin`, e.g. in a constructor): split the range
//               and recurse — guaranteed to terminate at size 1.
// Salvaged results are never re-run and never double-counted.  The sweep
// therefore always completes: every index of the merged prefix either ran
// or is quarantined.
//
// Monitor duties (--progress / --metrics-out / --watchdog-ms) are the
// in-process sweep's SweepMonitor, ticked from the supervisor loop — forking
// a multithreaded process is a minefield, so the supervisor owns no threads
// at all.  --watchdog-kill escalates a stalled child from diagnosis to
// recovery through the same quarantine path.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/report_wire.hpp"
#include "core/sweep.hpp"
#include "core/sweep_internal.hpp"
#include "runtime/view_arena.hpp"
#include "support/common.hpp"
#include "support/crash.hpp"
#include "support/faultpoint.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/subprocess.hpp"
#include "support/trace.hpp"

namespace rader::sweep_internal {

namespace {

/// A contiguous range of family indices awaiting execution.
struct Shard {
  std::size_t lo = 0;
  std::size_t hi = 0;            // exclusive
  unsigned retries = 0;          // relaunches already spent on this range
  bool exhausted = false;        // bisection half of a retries-spent shard
  std::uint64_t not_before = 0;  // backoff: don't launch before this nanos
  std::uint64_t failed_at = 0;   // when the previous attempt failed (0 = ∅)
};

/// One live child slot.
struct Slot {
  subprocess::Child child;
  Shard shard;
  std::string buf;              // partial-line pipe buffer
  std::size_t next_expect = 0;  // next family index owed a `spec` line
  bool begun = false;           // `begin next_expect` seen, no `spec` yet
  bool done_seen = false;
  bool protocol_error = false;
  bool eof = false;
  bool discard = false;  // stop-first: remaining results not needed
  std::uint64_t spec_start = 0;     // when `begin` of the in-flight spec hit
  std::uint64_t last_activity = 0;  // last pipe line (watchdog-kill clock)
  metrics::Snapshot child_metrics;  // newest `metrics` line
  bool has_metrics = false;
  std::string postmortem;  // where this attempt's crash handler dumps
};

std::uint64_t ms_to_nanos(std::uint64_t ms) { return ms * 1'000'000ull; }

/// Exponential backoff before relaunching a failed shard: 25ms doubling,
/// capped at 400ms — enough to ride out transient resource exhaustion
/// without stretching deterministic-failure quarantines.
std::uint64_t backoff_nanos(unsigned retries) {
  return ms_to_nanos(25ull << std::min(retries, 4u));
}

/// Flush `text` to the pipe, raw write(2) (the child must not stdio-buffer:
/// the supervisor attributes failures by which lines ARRIVED).
void write_raw(int fd, const std::string& text) {
  const char* p = text.data();
  std::size_t left = text.size();
  while (left > 0) {
    const ssize_t w = ::write(fd, p, left);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // supervisor gone; the child will die of SIGKILL shortly
    }
    p += static_cast<std::size_t>(w);
    left -= static_cast<std::size_t>(w);
  }
}

void write_line(int fd, const std::string& text) {
  write_raw(fd, text + "\n");
}

std::string classify(const subprocess::Status& st) {
  switch (st.kind) {
    case subprocess::ExitKind::kTimedOut:
      return "timeout";
    case subprocess::ExitKind::kSignaled:
      return "signal";
    case subprocess::ExitKind::kExited:
      return st.exit_code == subprocess::kOomExitCode ? "oom" : "error";
    default:
      return "error";
  }
}

/// The sandboxed shard runner (executes in the forked child).
int child_main(int fd, const ProgramFactory& make_program,
               const std::vector<std::unique_ptr<spec::StealSpec>>& family,
               const SweepOptions& options, const Shard& shard,
               const std::string& postmortem) {
  // Crash diagnostics: this child's fatal-signal dumps go to its own file
  // (or inherit the parent's destination when no --postmortem-dir).
  if (!postmortem.empty()) {
    crash::install_signal_handler(postmortem.c_str());
  }
  faultpoint::fire(faultpoint::kSiteSweepChild, shard.lo);
  view_arena::Scope arena_scope;
  metrics::Registry reg;
  obs::Scope scope(&reg);
  metrics::SharedSnapshot shared(1);
  crash::InflightTable inflight;
  {
    crash::PostmortemSources sources;
    sources.metrics = &shared;
    sources.inflight = &inflight;
    sources.activity = "sweep-child";
    crash::set_sources(sources);
  }
  {
    SpecExecutor exec(make_program, family, options);
    // One write(2) per spec: the previous spec's `metrics` + `spec` lines
    // ride in the same flush as the next `begin`, so the attribution
    // invariant holds (a spec's `begin` always reaches the supervisor
    // before the spec runs) at a third of the syscall/wakeup traffic.
    std::string pending;
    for (std::size_t i = shard.lo; i < shard.hi; ++i) {
      {
        char text[crash::InflightTable::kChars];
        std::snprintf(text, sizeof text, "spec[%zu] %s", i,
                      family[i]->describe().c_str());
        inflight.set(0, text);
      }
      pending += "begin " + std::to_string(i) + "\n";
      write_raw(fd, pending);
      pending.clear();
      RaceLog log;
      const SpecExecutor::RunOutcome outcome = exec.run(i, &log);
      log.stamp_found_under(family[i]->describe());
      const metrics::Snapshot snap = reg.snapshot();
      shared.publish(0, snap);
      inflight.clear(0);
      // metrics BEFORE spec: the newest metrics line the supervisor holds
      // then always covers exactly the salvaged specs.
      pending += "metrics " + snapshot_to_wire(snap) + "\n";
      std::ostringstream line;
      line << "spec " << i << ' ' << (outcome.executed ? 1 : 0) << ' '
           << outcome.nanos << ' ' << log.to_json() << '\n';
      pending += line.str();
    }
    write_raw(fd, pending);
  }
  // Final totals AFTER the executor is destroyed, so live-level gauges
  // (checkpoints) read zero, exactly like a joined in-process worker.
  write_line(fd, "metrics " + snapshot_to_wire(reg.snapshot()));
  write_line(fd, "done");
  crash::clear_sources();
  return 0;
}

}  // namespace

SweepResult sweep_family_isolated(
    const ProgramFactory& make_program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SweepOptions& options) {
  SweepResult result;
  const std::size_t total = family.size();
  const std::size_t n = (options.budget != 0 && options.budget < total)
                            ? static_cast<std::size_t>(options.budget)
                            : total;
  if (n == 0) {
    result.specs_skipped = total;
    return result;
  }

  unsigned threads = options.threads != 0
                         ? options.threads
                         : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, n));

  // Same determinism backbone as the in-process sweep: one log per family
  // member, merged in family order at the end.
  std::vector<RaceLog> per_spec(n);
  std::vector<char> ran(n, 0);
  std::map<std::size_t, SweepFailure> quarantined;
  std::size_t first_racy = n;  // lowest racy index (stop-first prefix bound)
  std::uint64_t done_specs = 0;   // salvaged + quarantined
  std::uint64_t racy_specs = 0;
  std::vector<std::uint64_t> slot_done(threads, 0);

  // The supervisor's own registry: per-spec accounting replayed from wire
  // lines, the isolation counters, the monitor's gauge and the merge.
  // Child registries arrive as wire snapshots and fold into `child_totals`.
  metrics::Registry sup_reg;
  metrics::Snapshot child_totals;
  metrics::SharedSnapshot shared(1);
  crash::InflightTable inflight;
  {
    crash::PostmortemSources sources;
    sources.metrics = &shared;
    sources.inflight = &inflight;
    sources.trace_session = trace::session();
    sources.activity = "sweep";
    crash::set_sources(sources);
  }

  // The sweep's own sinks, forwarded to the caller's at the end.
  const obs::Context outer = obs::current();
  prof::Profiler sweep_prof;
  obs::Context sweep_ctx = outer;
  sweep_ctx.registry = &sup_reg;
  sweep_ctx.profiler = &sweep_prof;
  {
    obs::Scope scope(sweep_ctx);
    prof::Phase sweep_phase("sweep");

    // Shard geometry: ~4 shards per concurrent child bounds the work lost
    // to one crash, capped at 64 specs so a single shard can't serialize
    // the tail; at least 1.
    const std::size_t shard_size = std::clamp<std::size_t>(
        n / (static_cast<std::size_t>(threads) * 4), 1, 64);
    std::deque<Shard> queue;
    for (std::size_t lo = 0; lo < n; lo += shard_size) {
      Shard s;
      s.lo = lo;
      s.hi = std::min(lo + shard_size, n);
      queue.push_back(s);
    }

    subprocess::Limits limits;
    limits.memory_bytes =
        std::uint64_t{options.child_mem_mb} * 1024 * 1024;
    if (options.spec_timeout_ms > 0) {
      // CPU-time backstop in case the supervisor itself dies: generous
      // multiple of the shard's total wall budget, so it never fires first.
      limits.cpu_seconds = std::max<unsigned>(
          5, static_cast<unsigned>(std::uint64_t{options.spec_timeout_ms} *
                                   (shard_size + 1) * 4 / 1000));
    }

    std::vector<std::unique_ptr<Slot>> slots(threads);
    unsigned attempt_counter = 0;

    const auto live_totals = [&] {
      metrics::Snapshot live = sup_reg.snapshot();
      live.add(child_totals);
      for (const auto& s : slots) {
        if (s && s->has_metrics) live.add(s->child_metrics);
      }
      return live;
    };

    // The supervisor ticks the monitor from its poll loop, every pass: the
    // queue-depth gauge always, the heartbeat / JSONL sampler / watchdog
    // when asked for.
    SweepMonitor monitor(
        options, n,
        [&] {
          SweepCounts c;
          c.done = done_specs;
          c.racy = racy_specs;
          c.per_worker = slot_done;
          return c;
        },
        live_totals, &sup_reg);

    // ----- supervisor actions ---------------------------------------------

    const auto quarantine = [&](std::size_t index, const std::string& cause,
                                int sig, unsigned retries,
                                const std::string& postmortem) {
      SweepFailure f;
      f.index = index;
      f.spec = family[index]->describe();
      f.cause = cause;
      f.signal = sig;
      f.retries = retries;
      if (!postmortem.empty() && ::access(postmortem.c_str(), F_OK) == 0) {
        f.postmortem = postmortem;
      }
      quarantined.emplace(index, std::move(f));
      sup_reg.bump(metrics::Counter::kSweepQuarantined);
      ++done_specs;
    };

    // A failed attempt over [lo, hi): decide retry / quarantine / bisect.
    // `culprit_known` means `lo` itself is attributable (its `begin`
    // arrived, its `spec` line did not).
    const auto on_shard_failure = [&](const Shard& shard, std::size_t lo,
                                      bool culprit_known,
                                      const std::string& cause, int sig,
                                      const std::string& postmortem) {
      const std::size_t hi = shard.hi;
      if (lo >= hi) return;  // died after its last result: nothing lost
      const std::uint64_t now = metrics::now_nanos();
      if (!shard.exhausted && shard.retries < options.max_retries) {
        Shard retry;
        retry.lo = lo;
        retry.hi = hi;
        retry.retries = shard.retries + 1;
        retry.not_before = now + backoff_nanos(retry.retries);
        retry.failed_at = now;
        sup_reg.bump(metrics::Counter::kSweepRetries);
        queue.push_back(retry);
        return;
      }
      if (culprit_known || hi - lo == 1) {
        quarantine(lo, cause, sig, shard.retries, postmortem);
        if (lo + 1 < hi) {
          // The rest of the range is presumed innocent: fresh shard with a
          // fresh retry allowance.
          Shard rest;
          rest.lo = lo + 1;
          rest.hi = hi;
          rest.failed_at = now;
          queue.push_back(rest);
        }
        return;
      }
      // Retries spent, no attribution: bisect.  Halves keep `exhausted` so
      // a further unattributed failure keeps narrowing; an attributed one
      // quarantines immediately.  Terminates: every split strictly shrinks
      // the range, and size-1 ranges take the quarantine branch above.
      const std::size_t mid = lo + (hi - lo) / 2;
      for (const auto& half :
           {std::pair<std::size_t, std::size_t>{lo, mid},
            std::pair<std::size_t, std::size_t>{mid, hi}}) {
        Shard s;
        s.lo = half.first;
        s.hi = half.second;
        s.retries = shard.retries;
        s.exhausted = true;
        s.not_before = now + backoff_nanos(0);
        s.failed_at = now;
        queue.push_back(s);
      }
    };

    const auto record_spec = [&](unsigned widx, std::size_t i, bool executed,
                                 std::uint64_t nanos, RaceLog&& log) {
      if (i >= n || ran[i] != 0 || quarantined.count(i) != 0) return;
      per_spec[i] = std::move(log);
      ran[i] = 1;
      ++done_specs;
      ++slot_done[widx];
      if (executed) {
        sup_reg.bump(metrics::Counter::kSpecRuns);
        sup_reg.record(metrics::Histogram::kSpecRunNanos, nanos);
      } else {
        sup_reg.bump(metrics::Counter::kSweepDedupReuses);
      }
      if (per_spec[i].any()) {
        ++racy_specs;
        if (options.stop_after_first_race && i < first_racy) first_racy = i;
      }
    };

    const auto process_line = [&](unsigned widx, Slot& s,
                                  const std::string& line) {
      s.last_activity = metrics::now_nanos();
      std::istringstream in(line);
      std::string verb;
      in >> verb;
      if (verb == "begin") {
        std::size_t i = 0;
        in >> i;
        if (!in || i != s.next_expect) {
          s.protocol_error = true;
          return;
        }
        s.begun = true;
        s.spec_start = s.last_activity;
        char text[crash::InflightTable::kChars];
        std::snprintf(text, sizeof text, "child[%d] spec[%zu] %s",
                      s.child.pid(), i, family[i]->describe().c_str());
        inflight.set(widx, text);
      } else if (verb == "metrics") {
        const std::size_t at = line.find(' ');
        metrics::Snapshot snap;
        if (at == std::string::npos ||
            !snapshot_from_wire(line.substr(at + 1), &snap)) {
          s.protocol_error = true;
          return;
        }
        s.child_metrics = snap;
        s.has_metrics = true;
      } else if (verb == "spec") {
        std::size_t i = 0;
        int executed = 0;
        std::uint64_t nanos = 0;
        in >> i >> executed >> nanos;
        std::string json;
        std::getline(in, json);
        if (!in || i != s.next_expect || json.size() < 2) {
          s.protocol_error = true;
          return;
        }
        json.erase(0, 1);  // the separating space
        RaceLog log;
        std::string error;
        if (!race_log_from_json(json, &log, &error)) {
          s.protocol_error = true;
          return;
        }
        record_spec(widx, i, executed != 0, nanos, std::move(log));
        s.next_expect = i + 1;
        s.begun = false;
        inflight.clear(widx);
      } else if (verb == "done") {
        s.done_seen = true;
      } else {
        s.protocol_error = true;
      }
    };

    const auto spawn_shard = [&](unsigned widx, Shard shard) {
      const std::uint64_t now = metrics::now_nanos();
      if (shard.failed_at != 0) {
        // Failure-detection → replacement-spawn latency (includes backoff).
        sup_reg.record(metrics::Histogram::kChildRestartNanos,
                       now - shard.failed_at);
      }
      std::string postmortem;
      if (!options.postmortem_dir.empty()) {
        postmortem = options.postmortem_dir + "/child-" +
                     std::to_string(shard.lo) + "-" +
                     std::to_string(attempt_counter++) + ".postmortem";
      }
      auto slot = std::make_unique<Slot>();
      slot->shard = shard;
      slot->next_expect = shard.lo;
      slot->postmortem = postmortem;
      slot->last_activity = now;
      slot->child = subprocess::Child::spawn(
          [&make_program, &family, &options, shard, postmortem](int fd) {
            return child_main(fd, make_program, family, options, shard,
                              postmortem);
          },
          limits);
      if (!slot->child.valid()) {
        // fork()/pipe() failure — possibly transient resource exhaustion;
        // send the whole range through the ordinary failure path.
        on_shard_failure(shard, shard.lo, /*culprit_known=*/false, "error",
                         0, postmortem);
        return;
      }
      slots[widx] = std::move(slot);
    };

    // Reap + account a slot whose pipe closed.  Returns true when the slot
    // was fully processed and freed.
    const auto finalize_slot = [&](unsigned widx) {
      Slot& s = *slots[widx];
      if (!s.child.try_wait()) return false;
      inflight.clear(widx);
      if (s.has_metrics) {
        const bool clean_exit =
            s.child.status().kind == subprocess::ExitKind::kExited &&
            s.child.status().exit_code == 0;
        if (!clean_exit) {
          // A dead child's live-level gauges (checkpoints) vanished with
          // its address space: fold the high-water marks, not the levels.
          for (auto& g : s.child_metrics.gauges) g.value = 0;
        }
        child_totals.add(s.child_metrics);
      }
      const bool success =
          s.child.status().kind == subprocess::ExitKind::kExited &&
          s.child.status().exit_code == 0 && s.done_seen &&
          s.next_expect >= s.shard.hi && !s.protocol_error;
      if (!s.discard && !success) {
        sup_reg.bump(metrics::Counter::kSweepChildCrashes);
        const bool culprit_known = s.begun && !s.protocol_error;
        on_shard_failure(s.shard, s.next_expect, culprit_known,
                         classify(s.child.status()),
                         s.child.status().term_signal, s.postmortem);
      }
      slots[widx].reset();
      return true;
    };

    const auto running_count = [&] {
      std::size_t c = 0;
      for (const auto& s : slots) c += (s != nullptr);
      return c;
    };

    // ----- main loop ------------------------------------------------------
    for (;;) {
      std::uint64_t now = metrics::now_nanos();

      // Launch: fill free slots with eligible shards (backoff honored;
      // stop-first trims ranges past the racy prefix).
      for (unsigned w = 0; w < threads && !queue.empty(); ++w) {
        if (slots[w]) continue;
        auto it = std::find_if(queue.begin(), queue.end(), [&](Shard& q) {
          return q.not_before <= now;
        });
        if (it == queue.end()) break;
        Shard shard = *it;
        queue.erase(it);
        if (options.stop_after_first_race) {
          shard.hi = std::min(shard.hi, first_racy + 1);
          if (shard.lo >= shard.hi) continue;
        }
        spawn_shard(w, shard);
        now = metrics::now_nanos();
      }

      if (queue.empty() && running_count() == 0) break;

      // Drain pipes (bounded poll so deadlines and heartbeats stay live).
      {
        std::vector<int> fds;
        for (const auto& s : slots) {
          if (s && !s->eof && s->child.out_fd() >= 0) {
            fds.push_back(s->child.out_fd());
          }
        }
        if (fds.empty()) {
          struct timespec ts = {0, 5'000'000};  // 5ms: backoff/reap wait
          nanosleep(&ts, nullptr);
        } else {
          subprocess::poll_readable(fds, 20);
        }
      }
      for (unsigned w = 0; w < threads; ++w) {
        if (!slots[w]) continue;
        Slot& s = *slots[w];
        if (!s.eof && !s.child.read_available(&s.buf)) s.eof = true;
        std::size_t nl;
        while ((nl = s.buf.find('\n')) != std::string::npos) {
          const std::string line = s.buf.substr(0, nl);
          s.buf.erase(0, nl + 1);
          if (!line.empty()) process_line(w, s, line);
        }
      }

      // Deadlines: per-spec timeout, watchdog-kill, stop-first discard.
      now = metrics::now_nanos();
      for (unsigned w = 0; w < threads; ++w) {
        if (!slots[w] || slots[w]->eof) continue;
        Slot& s = *slots[w];
        const bool spec_overdue =
            options.spec_timeout_ms > 0 && s.begun &&
            now - s.spec_start > ms_to_nanos(options.spec_timeout_ms);
        const bool stalled =
            options.watchdog_kill && options.watchdog_ms > 0 &&
            now - s.last_activity > ms_to_nanos(options.watchdog_ms);
        const bool irrelevant = options.stop_after_first_race &&
                                s.next_expect > first_racy;
        if (spec_overdue || stalled) {
          s.child.kill_timeout();
        } else if (irrelevant) {
          // Results already salvaged stay; the rest can never join the
          // deterministic prefix [0, first_racy].
          s.discard = true;
          s.child.kill_hard();
        } else {
          continue;
        }
        // Drain what the pipe still holds, then let finalize classify.
        while (s.child.read_available(&s.buf)) {
        }
        s.eof = true;
        std::size_t nl;
        while ((nl = s.buf.find('\n')) != std::string::npos) {
          const std::string line = s.buf.substr(0, nl);
          s.buf.erase(0, nl + 1);
          if (!line.empty() && !s.discard) process_line(w, s, line);
        }
      }

      // Reap.
      for (unsigned w = 0; w < threads; ++w) {
        if (slots[w] && slots[w]->eof) finalize_slot(w);
      }

      // Monitor duties (the crash handler's live slot first, so a watchdog
      // post-mortem carries the current totals).
      shared.publish(0, live_totals());
      monitor.tick();
    }

    // Final monitor output (exact totals: everything has been reaped).
    monitor.finish();

    // Merge exactly the deterministic prefix, skipping quarantined holes —
    // identical to the in-process merge on the surviving members.
    const std::size_t limit = first_racy < n ? first_racy + 1 : n;
    {
      prof::Phase merge_phase("merge", metrics::Phase::kMerge);
      for (std::size_t i = 0; i < limit; ++i) {
        if (ran[i] != 0) {
          result.log.merge(per_spec[i]);
          ++result.spec_runs;
          continue;
        }
        const auto it = quarantined.find(i);
        RADER_CHECK_MSG(it != quarantined.end(),
                        "isolated sweep left a hole in the merged prefix");
        result.failures.push_back(it->second);
      }
    }
  }
  crash::clear_sources();
  result.specs_skipped = total - result.spec_runs - result.failures.size();
  sup_reg.absorb(child_totals);
  result.metrics = sup_reg.snapshot();
  obs::fold(sweep_ctx, outer);
  return result;
}

}  // namespace rader::sweep_internal
