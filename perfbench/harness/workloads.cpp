#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "apps/collision.hpp"
#include "apps/dedup.hpp"
#include "apps/ferret.hpp"
#include "apps/graph.hpp"
#include "apps/pbfs.hpp"
#include "core/driver.hpp"
#include "core/peerset.hpp"
#include "core/spplus.hpp"
#include "dag/random_program.hpp"
#include "fuzz/differ.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/spec_family.hpp"
#include "spec/steal_spec.hpp"
#include "spans.hpp"
#include "support/metrics.hpp"
#include "timing_tool.hpp"

namespace perfbench {
namespace {

using rader::RaceLog;
using rader::SerialEngine;
using rader::metrics::Counter;
using rader::metrics::Gauge;
using rader::metrics::Histogram;
using rader::metrics::Phase;
using rader::metrics::Registry;
using rader::metrics::Snapshot;
using StealSpecPtr = std::unique_ptr<rader::spec::StealSpec>;

// ---- Input sizes -----------------------------------------------------------
// Paper programs of check-access.  Uninstrumented runs on a 4-thread x86
// VM: collision ~17 ms, dedup ~58 ms, ferret ~67 ms, pbfs ~78 ms.  Collision
// stays smaller because set-up computes its O(n^2) brute-force reference,
// at every one of the 3-15 set-ups that setup_s takes the median of.
constexpr std::uint32_t kCollisionSpheres = 24000;
constexpr std::size_t kDedupBytes = 2'000'000;
constexpr std::uint32_t kFerretImages = 8000;
constexpr std::uint32_t kFerretQueries = 64;
constexpr std::uint32_t kPbfsVertices = 300000;
constexpr std::uint64_t kPbfsEdges = 1900000;
// sweep-prefix: paper programs with large shadow footprints.
constexpr std::size_t kPrefixDedupBytes = 1'000'000;
constexpr std::uint32_t kPrefixPbfsVertices = 15000;
constexpr std::uint64_t kPrefixPbfsEdges = 95000;
// Each input is the candidate whose Section-7 family size is closest to
// this (dedup: K=10, D=10; pbfs: K=9, D=13, the most common shapes),
// because the family size sets a sweep's work and varies with the input.
constexpr std::uint64_t kPrefixDedupFamily = 177;
constexpr std::uint64_t kPrefixPbfsFamily = 135;
constexpr int kPrefixCandidates = 16;
// sweep-racy: seeded racy random programs.
// A fixed number of programs, each drawn with its size and its Section-7
// family size inside a band, so the probes and the sweeps do similar work at
// every seed.
constexpr int kRacyPrograms = 96;
constexpr int kRacyCandidates = 20000;
constexpr std::size_t kRacyMinActions = 650;
constexpr std::size_t kRacyMaxActions = 850;
constexpr std::uint64_t kRacyMinFamily = 20;
constexpr std::uint64_t kRacyMaxFamily = 60;
constexpr std::size_t kRacyMaxIdentities = 96;
// RaceLog's default storage cap (core/race_report.hpp).
constexpr std::size_t kRaceLogCap = 1024;
// Section-7 family caps (Rader::check_exhaustive's defaults).
constexpr std::uint32_t kKCap = 16;
constexpr std::uint64_t kDepthCap = 64;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double since(std::uint64_t t0) {
  return static_cast<double>(rader::metrics::now_nanos() - t0) * 1e-9;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// JSON object of the counters that moved between two snapshots.
std::string counter_deltas(const Snapshot& before, const Snapshot& after) {
  std::string out = "{";
  for (unsigned c = 0; c < rader::metrics::kCounterCount; ++c) {
    const std::uint64_t d = after.counters[c] - before.counters[c];
    if (d == 0) continue;
    if (out.size() > 1) out += ',';
    out += '"';
    out += rader::metrics::counter_name(static_cast<Counter>(c));
    out += "\":" + std::to_string(d);
  }
  return out + "}";
}

/// Run one check: time `check()`, then judge its result with `verify`
/// outside the timed interval.  A throw counts as a failed check.
template <class CheckFn, class VerifyFn>
double timed_check(Tally& tally, const std::string& what, CheckFn&& check,
                   VerifyFn&& verify) {
  double secs = 0;
  try {
    const std::uint64_t t0 = rader::metrics::now_nanos();
    auto result = check();
    secs = since(t0);
    tally.record(verify(result), what);
  } catch (const std::exception& e) {
    tally.record(false, what + ": threw " + e.what());
  } catch (...) {
    tally.record(false, what + ": threw");
  }
  return secs;
}

SerialEngine::Stats& operator+=(SerialEngine::Stats& a,
                                const SerialEngine::Stats& b) {
  a.frames += b.frames;
  a.spawns += b.spawns;
  a.syncs += b.syncs;
  a.steals += b.steals;
  a.reduces += b.reduces;
  a.user_reduces += b.user_reduces;
  a.identities += b.identities;
  a.accesses += b.accesses;
  a.reducer_ops += b.reducer_ops;
  return a;
}

TimingTool::Totals& operator+=(TimingTool::Totals& a,
                               const TimingTool::Totals& b) {
  for (unsigned c = 0; c < TimingTool::kClasses; ++c) {
    a.nanos[c] += b.nanos[c];
    a.events[c] += b.events[c];
  }
  return a;
}

const char* const kClassSpan[TimingTool::kClasses] = {
    "tool.access", "tool.control", "tool.reducer_op", "tool.clear"};

/// Traced serial-engine run inside a span named `span`.  With `totals`,
/// `tool` runs behind a TimingTool whose callback classes become aggregate
/// child spans; otherwise `tool` (may be null) is attached as is.  With
/// `reg`, the span carries the registry's counter deltas.
struct TracedRun {
  double seconds = 0;
  SerialEngine::Stats stats;
};
TracedRun traced_engine_run(const std::string& span, rader::Tool* tool,
                            const rader::spec::StealSpec* spec,
                            rader::FnView program, TimingTool::Totals* totals,
                            const Registry* reg) {
  SpanScope scope(span);
  const Snapshot before = reg != nullptr ? reg->snapshot() : Snapshot{};
  TimingTool::Totals local;
  TimingTool timing(tool, &local);
  SerialEngine engine(totals != nullptr ? &timing : tool, spec);
  const std::uint64_t t0 = rader::metrics::now_nanos();
  engine.run(program);
  TracedRun out;
  out.seconds = since(t0);
  out.stats = engine.stats();
  if (totals != nullptr) {
    for (unsigned c = 0; c < TimingTool::kClasses; ++c) {
      if (local.events[c] != 0) {
        spans().add_aggregate(kClassSpan[c], scope.id(), local.nanos[c]);
      }
    }
    *totals += local;
  }
  if (reg != nullptr) scope.set_counts(counter_deltas(before, reg->snapshot()));
  return out;
}

/// Metrics every workload reads from a registry snapshot.
void registry_layer_metrics(const Snapshot& s, LayerMetrics& m) {
  m["dsu.finds"] = static_cast<double>(s.counter(Counter::kDsuFinds));
  m["dsu.unions"] = static_cast<double>(s.counter(Counter::kDsuUnions));
  m["shadow.pages_touched"] =
      static_cast<double>(s.counter(Counter::kShadowPagesTouched));
  m["shadow.pages_cow"] =
      static_cast<double>(s.counter(Counter::kShadowPagesCoW));
  m["shadow.epoch_clears"] =
      static_cast<double>(s.counter(Counter::kShadowEpochClears));
  m["shadow.pages_live.max"] =
      static_cast<double>(s.gauge(Gauge::kShadowPagesLive).max);
  // Stored + deduplicated is the scheduling-independent total; the split
  // is taken from serial (jobs=1) work only.
  const double stored = static_cast<double>(s.counter(Counter::kRacesReported));
  const double identities =
      stored + static_cast<double>(s.counter(Counter::kRacesDeduped));
  m["core.race_report.identities"] = identities;
  m["core.race_report.new_frac"] = identities > 0 ? stored / identities : 0;
}

void runtime_layer_metrics(const SerialEngine::Stats& stats,
                           const Snapshot& s, LayerMetrics& m) {
  m["runtime.spawns"] = static_cast<double>(stats.spawns);
  m["runtime.steals"] = static_cast<double>(stats.steals);
  m["runtime.reduces"] = static_cast<double>(stats.reduces);
  m["runtime.identities"] = static_cast<double>(stats.identities);
  m["runtime.reduce_ns.p50"] = s.hist(Histogram::kReduceNanos).quantile(0.5);
  m["runtime.reduce_ns.p99"] = s.hist(Histogram::kReduceNanos).quantile(0.99);
  m["runtime.arena_bytes.max"] =
      static_cast<double>(s.gauge(Gauge::kArenaBytes).max);
}

void detector_layer_metrics(const TimingTool::Totals& spplus,
                            const TimingTool::Totals& peerset, double base_s,
                            double empty_s, LayerMetrics& m) {
  m["runtime.base_s"] = base_s;
  m["tool.dispatch_s"] = empty_s - base_s;
  m["tool.events"] =
      static_cast<double>(spplus.all_events() + peerset.all_events());
  m["core.spplus.access_s"] =
      static_cast<double>(spplus.nanos[TimingTool::kAccess]) * 1e-9;
  m["core.spplus.ns_per_access"] =
      spplus.events[TimingTool::kAccess] != 0
          ? static_cast<double>(spplus.nanos[TimingTool::kAccess]) /
                static_cast<double>(spplus.events[TimingTool::kAccess])
          : 0;
  m["core.spplus.control_s"] =
      static_cast<double>(spplus.nanos[TimingTool::kControl]) * 1e-9;
  m["core.peerset.s"] = static_cast<double>(peerset.all_nanos()) * 1e-9;
}

// ===========================================================================
// check-access: single checks of seeded paper programs.
// ===========================================================================

/// A re-runnable program and its known answer.  Copies share one instance.
struct Program {
  std::string name;
  std::function<void()> run;
  std::function<bool()> verify;  // compares, then forgets, the last output
  /// A random program's shared pool (an empty range otherwise).
  std::pair<std::uintptr_t, std::uintptr_t> pool{0, 0};
};

template <class T>
std::function<bool()> compare_and_reset(std::shared_ptr<T> out,
                                        std::shared_ptr<const T> expected) {
  return [out, expected] {
    const bool ok = *out == *expected;
    *out = T{};
    return ok;
  };
}

Program collision_program(std::uint64_t seed) {
  using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  auto scene = std::make_shared<const rader::apps::CollisionScene>(
      rader::apps::make_scene(kCollisionSpheres, seed));
  auto expected =
      std::make_shared<const Pairs>(rader::apps::find_collisions_brute(*scene));
  auto out = std::make_shared<Pairs>();
  return {"collision",
          [scene, out] { *out = rader::apps::find_collisions(*scene); },
          compare_and_reset(out, expected)};
}

Program dedup_program(std::shared_ptr<const std::string> input) {
  auto archive = std::make_shared<std::string>();
  return {"dedup",
          [input, archive] { rader::apps::dedup_compress(*input, *archive); },
          [input, archive] {
            const bool ok = rader::apps::dedup_restore(*archive) == *input;
            archive->clear();
            return ok;
          }};
}

std::shared_ptr<const std::string> dedup_input(std::size_t bytes,
                                               std::uint64_t seed) {
  return std::make_shared<const std::string>(
      rader::apps::make_dedup_input(bytes, 0.5, seed));
}

Program ferret_program(std::uint64_t seed) {
  using Results = std::vector<std::vector<std::uint32_t>>;
  auto db = std::make_shared<const rader::apps::FerretDatabase>(
      rader::apps::make_ferret_db(kFerretImages, kFerretQueries, seed));
  auto expected = std::make_shared<const Results>(
      rader::apps::ferret_search_serial(*db, 10));
  auto out = std::make_shared<Results>();
  return {"ferret",
          [db, out] {
            std::string report;
            *out = rader::apps::ferret_search(*db, 10, report);
          },
          compare_and_reset(out, expected)};
}

using Dist = std::vector<std::uint32_t>;

Program pbfs_program(std::shared_ptr<const rader::apps::Graph> graph,
                     std::shared_ptr<const Dist> expected) {
  auto out = std::make_shared<Dist>();
  return {"pbfs", [graph, out] { *out = rader::apps::pbfs(*graph, 0); },
          compare_and_reset(out, std::move(expected))};
}

/// pbfs on a seeded R-MAT graph; the returned maker gives every call its
/// own output buffer over the shared graph and known answer.
std::function<Program()> pbfs_maker(std::uint32_t v, std::uint64_t e,
                                    std::uint64_t seed) {
  auto graph = std::make_shared<const rader::apps::Graph>(
      rader::apps::Graph::rmat(v, e, seed));
  auto expected =
      std::make_shared<const Dist>(rader::apps::serial_bfs(*graph, 0));
  return [graph, expected] { return pbfs_program(graph, expected); };
}

enum class CheckKind { kPeerSet, kNoSteal, kRandomTriple };

const char* check_name(CheckKind k) {
  switch (k) {
    case CheckKind::kPeerSet: return "peerset";
    case CheckKind::kNoSteal: return "sp+nosteal";
    case CheckKind::kRandomTriple: return "sp+triple";
  }
  return "?";
}

/// Each program is checked with Peer-Set, SP+ with no steals and SP+ under a
/// seeded random triple, then with parallel Peer-Set.
class CheckWorkload final : public Workload {
 public:
  CheckWorkload(std::vector<Program> programs, std::uint64_t seed,
                unsigned jobs)
      : programs_(std::move(programs)), jobs_(jobs) {
    for (std::size_t p = 0; p < programs_.size(); ++p) {
      // Probe: the sync-block size sizes the random triple, and the
      // uninstrumented output must already match the known answer.
      SerialEngine probe;
      probe.run(programs_[p].run);
      if (!programs_[p].verify()) {
        throw std::runtime_error(programs_[p].name +
                                 ": reference mismatch at set-up");
      }
      const std::uint32_t max_sync_block =
          std::max<std::uint32_t>(1, probe.stats().max_sync_block);
      for (const CheckKind k : {CheckKind::kPeerSet, CheckKind::kNoSteal,
                                CheckKind::kRandomTriple}) {
        Pair pair{p, k, nullptr};
        switch (k) {
          case CheckKind::kPeerSet:
          case CheckKind::kNoSteal:
            pair.spec = std::make_unique<rader::spec::NoSteal>();
            break;
          case CheckKind::kRandomTriple:
            pair.spec = std::make_unique<rader::spec::RandomTripleSteal>(
                mix(seed, 100 + p), max_sync_block);
            break;
        }
        pairs_.push_back(std::move(pair));
      }
    }
  }

  void round(Tally& tally, RoundTimes& times) override {
    for (const Pair& pair : pairs_) {
      const Program& prog = programs_[pair.program];
      const std::string what = prog.name + "/" + check_name(pair.check);
      Registry reg;
      rader::metrics::Scope scope(&reg);
      const double secs = timed_check(
          tally, what,
          [&] {
            return pair.check == CheckKind::kPeerSet
                       ? rader::Rader::check_view_read(prog.run)
                       : rader::Rader::check_determinacy(prog.run,
                                                         *pair.spec);
          },
          [&](const RaceLog& log) { return !log.any() && prog.verify(); });
      times[what] = {secs, false,
                     pair.check == CheckKind::kPeerSet ? 0.0 : 1.0};
    }
    for (const Program& prog : programs_) {
      const std::string what = prog.name + "/parallel";
      Registry reg;
      rader::metrics::Scope scope(&reg);
      const double secs = timed_check(
          tally, what,
          [&] { return rader::Rader::check_parallel(prog.run, jobs_); },
          [&](const RaceLog& log) { return !log.any() && prog.verify(); });
      times[what] = {secs, true, 0};
    }
  }

  void traced_round(Tally& tally, const RoundTimes& untraced,
                    LayerMetrics& m) override {
    Registry reg;
    TimingTool::Totals spplus, peerset;
    SerialEngine::Stats stats;
    double base_s = 0, empty_s = 0, traced_s = 0;
    std::vector<double> overheads;
    for (const Pair& pair : pairs_) {
      const Program& prog = programs_[pair.program];
      const std::string what = prog.name + "/" + check_name(pair.check);
      SpanScope check_span("check." + what, 0, spans().next_check());
      // Baselines on the same program/spec pair, outside the registry.
      const double base =
          traced_engine_run("runtime.base", nullptr, pair.spec.get(),
                            prog.run, nullptr, nullptr)
              .seconds;
      rader::EmptyTool empty;
      empty_s += traced_engine_run("tool.empty", &empty, pair.spec.get(),
                                   prog.run, nullptr, nullptr)
                     .seconds;
      base_s += base;
      prog.verify();
      rader::metrics::Scope scope(&reg);
      RaceLog log;
      std::unique_ptr<rader::Tool> detector;
      if (pair.check == CheckKind::kPeerSet) {
        detector = std::make_unique<rader::PeerSetDetector>(&log);
      } else {
        detector = std::make_unique<rader::SpPlusDetector>(&log);
      }
      const double t = timed_check(
          tally, what + " (traced)",
          [&] {
            const TracedRun run = traced_engine_run(
                "engine.run", detector.get(), pair.spec.get(), prog.run,
                pair.check == CheckKind::kPeerSet ? &peerset : &spplus, &reg);
            stats += run.stats;
            return run.seconds;
          },
          [&](double) { return !log.any() && prog.verify(); });
      traced_s += t;
      const auto it = untraced.find(what);
      if (it != untraced.end() && base > 0) {
        overheads.push_back(it->second.seconds / base);
      }
    }
    Registry preg;
    double peerset_serial_s = 0, peerset_parallel_s = 0;
    for (const Program& prog : programs_) {
      const std::string what = prog.name + "/parallel";
      SpanScope check_span("check." + what, 0, spans().next_check());
      rader::metrics::Scope scope(&preg);
      timed_check(
          tally, what + " (traced)",
          [&] {
            SpanScope span("driver.check_parallel");
            return rader::Rader::check_parallel(prog.run, jobs_);
          },
          [&](const RaceLog& log) { return !log.any() && prog.verify(); });
      const auto serial = untraced.find(prog.name + "/peerset");
      const auto parallel = untraced.find(what);
      if (serial != untraced.end() && parallel != untraced.end()) {
        peerset_serial_s += serial->second.seconds;
        peerset_parallel_s += parallel->second.seconds;
      }
    }
    const Snapshot s = reg.snapshot();
    const Snapshot ps = preg.snapshot();
    runtime_layer_metrics(stats, s, m);
    detector_layer_metrics(spplus, peerset, base_s, empty_s, m);
    registry_layer_metrics(s, m);
    m["sched.tasks"] = static_cast<double>(ps.counter(Counter::kEngineTasks));
    m["sched.steals"] =
        static_cast<double>(ps.counter(Counter::kEngineSteals));
    m["sched.shard_events"] =
        static_cast<double>(ps.counter(Counter::kShardEvents));
    m["sched.shard_drains"] =
        static_cast<double>(ps.counter(Counter::kShardDrains));
    m["runtime.overhead_x"] = geomean(overheads);
    m["sched.speedup"] =
        peerset_parallel_s > 0 ? peerset_serial_s / peerset_parallel_s : 0;
    const double untraced_serial_s = summarize(untraced).serial_s;
    m["trace.overhead_frac"] =
        untraced_serial_s > 0 ? traced_s / untraced_serial_s - 1 : 0;
  }

 private:
  struct Pair {
    std::size_t program;
    CheckKind check;
    StealSpecPtr spec;
  };
  std::vector<Program> programs_;
  std::vector<Pair> pairs_;
  unsigned jobs_;
};

// ===========================================================================
// sweep-racy / sweep-prefix: Section-7 sweeps through check_exhaustive.
// ===========================================================================

/// A sweep's program: make() returns a fresh instance, one per sweep worker.
struct SweepCase {
  std::string name;
  std::function<Program()> make;
  std::uint64_t expected_specs = 0;       // Section-7 family size
  std::vector<std::string> expected_keys;  // canonical race keys
};

/// Race keys of a sweep over several instances, in the address space of
/// `instances[0]`.  Pool accesses move to the same offset of the first
/// instance's pool; every other racing address is reducer-view storage,
/// renamed per run, which canonical_race_keys renders as "view".
std::vector<std::string> sweep_keys(const RaceLog& log,
                                    const std::vector<Program>& instances) {
  const auto [base_lo, base_hi] = instances.front().pool;
  RaceLog normalized(static_cast<std::size_t>(-1));
  for (rader::DeterminacyRace r : log.determinacy_races()) {
    const bool pool_label =
        r.current_label == "pool read" || r.current_label == "pool write";
    std::uintptr_t addr = 0;  // outside every pool: rendered "view"
    if (pool_label) {
      addr = r.addr;
      for (const auto& inst : instances) {
        const auto [lo, hi] = inst.pool;
        if (r.addr >= lo && r.addr < hi) {
          addr = base_lo + (r.addr - lo);
          break;
        }
      }
    }
    r.addr = addr;
    normalized.report_determinacy(r);
  }
  for (const rader::ViewReadRace& r : log.view_read_races()) {
    normalized.report_view_read(r);
  }
  return rader::fuzz::canonical_race_keys(normalized, base_lo, base_hi);
}

/// The Section-7 family check_exhaustive runs for a probe's K and D
/// (driver.cpp: no-steals plus spec::full_coverage_family).
std::vector<StealSpecPtr> family_for(const SerialEngine::Stats& probe) {
  std::vector<StealSpecPtr> family;
  family.push_back(std::make_unique<rader::spec::NoSteal>());
  for (auto& s : rader::spec::full_coverage_family(
           std::min<std::uint32_t>(probe.max_sync_block, kKCap),
           std::min<std::uint64_t>(probe.max_spawn_depth, kDepthCap))) {
    family.push_back(std::move(s));
  }
  return family;
}

/// One check_exhaustive call judged against the case's known answer.
/// `span_parent` != 0 records every spec execution as its child span.
struct SweepRun {
  double seconds = 0;
  std::uint64_t spec_runs = 0;
};
SweepRun sweep_case(Tally& tally, const SweepCase& c, unsigned jobs,
                    rader::SweepStrategy strategy,
                    std::uint64_t span_parent = 0, std::uint64_t check = 0) {
  std::mutex mu;
  std::vector<Program> instances;  // guarded by mu
  const rader::ProgramFactory factory = [&]() -> std::function<void()> {
    Program inst = c.make();
    {
      std::lock_guard<std::mutex> lock(mu);
      instances.push_back(inst);
    }
    if (span_parent == 0) return inst.run;
    return [run = inst.run, span_parent, check] {
      SpanScope span("sweep.spec", span_parent, check);
      run();
    };
  };
  rader::SweepOptions options;
  options.threads = jobs;
  options.strategy = strategy;
  SweepRun out;
  out.seconds = timed_check(
      tally, c.name + "/sweep@" + std::to_string(jobs),
      [&] {
        return rader::Rader::check_exhaustive(factory, options, kKCap,
                                              kDepthCap);
      },
      [&](const rader::Rader::ExhaustiveResult& r) {
        out.spec_runs = r.spec_runs;
        bool ok = r.spec_runs == c.expected_specs && r.specs_skipped == 0 &&
                  r.failures.empty();
        ok = ok && (c.expected_keys.empty()
                        ? !r.log.any()
                        : sweep_keys(r.log, instances) == c.expected_keys);
        for (const Program& inst : instances) ok = inst.verify() && ok;
        return ok;
      });
  return out;
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::vector<SweepCase> cases, rader::SweepStrategy strategy,
                unsigned jobs)
      : cases_(std::move(cases)), strategy_(strategy), jobs_(jobs) {}

  void round(Tally& tally, RoundTimes& times) override {
    for (const SweepCase& c : cases_) {
      Registry reg;
      rader::metrics::Scope scope(&reg);
      const SweepRun run = sweep_case(tally, c, jobs_, strategy_);
      times[c.name + "/sweep"] = {run.seconds, true,
                                  static_cast<double>(run.spec_runs)};
      times[c.name + "/probe"] = {
          reg.snapshot().phase_seconds(Phase::kProbe), false, 0};
    }
  }

  void traced_round(Tally& tally, const RoundTimes& untraced,
                    LayerMetrics& m) override {
    // 1. Counts: the same sweeps at jobs=1, so every count is independent
    //    of how workers claim specs.
    Registry creg;
    double spec_runs = 0, serial_sweep_s = 0;
    std::vector<double> serial_sweep_per_case;
    {
      rader::metrics::Scope scope(&creg);
      for (const SweepCase& c : cases_) {
        SpanScope check_span("check.exhaustive.jobs1", 0,
                             spans().next_check());
        const SweepRun run = sweep_case(tally, c, 1, strategy_);
        spec_runs += static_cast<double>(run.spec_runs);
        serial_sweep_s += run.seconds;
        serial_sweep_per_case.push_back(run.seconds);
      }
    }
    // 2. Timing: the jobs=nproc sweeps with every spec execution in a span.
    double wall = 0, execute_s = 0, merge_s = 0, probe_s = 0;
    std::vector<std::uint64_t> sweep_spans;
    for (const SweepCase& c : cases_) {
      Registry treg;
      rader::metrics::Scope scope(&treg);
      const std::uint64_t check = spans().next_check();
      SpanScope check_span("check.exhaustive", 0, check);
      sweep_spans.push_back(check_span.id());
      const SweepRun run =
          sweep_case(tally, c, jobs_, strategy_, check_span.id(), check);
      wall += run.seconds;
      const Snapshot s = treg.snapshot();
      execute_s += s.phase_seconds(Phase::kExecute);
      merge_s += s.phase_seconds(Phase::kMerge);
      probe_s += s.phase_seconds(Phase::kProbe);
    }
    std::vector<double> spec_ms, gap_ms;
    spec_and_gap_ms(sweep_spans, &spec_ms, &gap_ms);
    // 3. Layers: each case's family run serially through TimingTool-wrapped
    //    detectors; its race keys must equal the untraced known answer.
    Registry lreg;
    TimingTool::Totals spplus, peerset;
    SerialEngine::Stats stats;
    double base_s = 0, empty_s = 0;
    std::vector<double> overheads;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      double case_base = 0;
      serial_family(tally, cases_[i], lreg, spplus, peerset, stats,
                    case_base, empty_s);
      base_s += case_base;
      if (case_base > 0) {
        overheads.push_back(serial_sweep_per_case[i] / case_base);
      }
    }
    const Snapshot cs = creg.snapshot();
    const Snapshot ls = lreg.snapshot();
    runtime_layer_metrics(stats, ls, m);
    detector_layer_metrics(spplus, peerset, base_s, empty_s, m);
    registry_layer_metrics(cs, m);
    m["core.race_report.merge_s"] = merge_s;
    m["core.sweep.spec_runs"] = spec_runs;
    m["core.sweep.execute_s"] = execute_s;
    m["core.sweep.busy_frac"] = wall > 0 ? execute_s / (wall * jobs_) : 0;
    m["core.sweep.spec_ms.p50"] = quantile(spec_ms, 0.5);
    m["core.sweep.spec_ms.p99"] = quantile(spec_ms, 0.99);
    m["core.sweep.gap_ms.p50"] = quantile(gap_ms, 0.5);
    const double forks =
        static_cast<double>(cs.counter(Counter::kSweepForks));
    m["core.sweep.checkpoints"] =
        static_cast<double>(cs.counter(Counter::kSweepCheckpoints));
    m["core.sweep.forks"] = forks;
    m["core.sweep.fork_frac"] = spec_runs > 0 ? forks / spec_runs : 0;
    m["core.sweep.resume_fallbacks"] =
        static_cast<double>(cs.counter(Counter::kSweepResumeFallbacks));
    m["core.sweep.dedup_reuses"] =
        static_cast<double>(cs.counter(Counter::kSweepDedupReuses));
    m["core.sweep.checkpoints_live.max"] =
        static_cast<double>(cs.gauge(Gauge::kSweepCheckpointsLive).max);
    m["core.sweep.divergence_depth.p50"] =
        cs.hist(Histogram::kDivergenceDepth).quantile(0.5);
    m["core.driver.probe_s"] = probe_s;
    m["runtime.overhead_x"] = geomean(overheads);
    const double untraced_parallel_s = summarize(untraced).parallel_s;
    m["sched.speedup"] =
        untraced_parallel_s > 0 ? serial_sweep_s / untraced_parallel_s : 0;
    m["trace.overhead_frac"] =
        untraced_parallel_s > 0 ? wall / untraced_parallel_s - 1 : 0;
  }

 private:
  /// Per-spec span durations and the per-worker gaps between them.
  static void spec_and_gap_ms(const std::vector<std::uint64_t>& sweep_spans,
                              std::vector<double>* spec_ms,
                              std::vector<double>* gap_ms) {
    const std::vector<Span> all = spans().snapshot();
    std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<const Span*>>
        per_worker;
    for (const Span& s : all) {
      if (s.name != "sweep.spec" ||
          std::find(sweep_spans.begin(), sweep_spans.end(), s.parent) ==
              sweep_spans.end()) {
        continue;
      }
      spec_ms->push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
      per_worker[{s.parent, s.thread}].push_back(&s);
    }
    for (auto& [key, list] : per_worker) {
      std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
        return a->start_ns < b->start_ns;
      });
      for (std::size_t i = 1; i < list.size(); ++i) {
        gap_ms->push_back(
            static_cast<double>(list[i]->start_ns - list[i - 1]->end_ns) *
            1e-6);
      }
    }
  }

  /// The case's probe and Section-7 family on one instance, each run with
  /// a TimingTool-wrapped detector, plus uninstrumented and empty-tool
  /// baselines of every (program, spec) pair.
  void serial_family(Tally& tally, const SweepCase& c, Registry& reg,
                     TimingTool::Totals& spplus, TimingTool::Totals& peerset,
                     SerialEngine::Stats& stats, double& base_s,
                     double& empty_s) {
    SpanScope check_span("check." + c.name + ".traced_family", 0,
                         spans().next_check());
    const Program inst = c.make();
    const std::function<void()>& run = inst.run;
    timed_check(
        tally, c.name + "/traced family",
        [&] {
          rader::spec::NoSteal no_steal;
          RaceLog merged;
          SerialEngine::Stats probe;
          {
            rader::metrics::Scope scope(&reg);
            rader::PeerSetDetector detector(&merged);
            probe = traced_engine_run("engine.run.probe", &detector,
                                      &no_steal, run, &peerset, &reg)
                        .stats;
          }
          for (const StealSpecPtr& s : family_for(probe)) {
            base_s += traced_engine_run("runtime.base", nullptr, s.get(), run,
                                        nullptr, nullptr)
                          .seconds;
            rader::EmptyTool empty;
            empty_s += traced_engine_run("tool.empty", &empty, s.get(), run,
                                         nullptr, nullptr)
                           .seconds;
            rader::metrics::Scope scope(&reg);
            RaceLog log;
            rader::SpPlusDetector detector(&log);
            stats += traced_engine_run("engine.run", &detector, s.get(), run,
                                       &spplus, &reg)
                         .stats;
            log.stamp_found_under(s->describe());
            merged.merge(log);
          }
          return merged;
        },
        [&](const RaceLog& merged) {
          const bool keys_ok =
              c.expected_keys.empty()
                  ? !merged.any()
                  : sweep_keys(merged, {inst}) == c.expected_keys;
          return keys_ok && inst.verify();
        });
  }

  std::vector<SweepCase> cases_;
  rader::SweepStrategy strategy_;
  unsigned jobs_;
};

/// fuzz::fuzz_params widened to deeper, wider programs with more races.
rader::dag::RandomProgramParams racy_params(std::uint64_t seed) {
  rader::dag::RandomProgramParams params = rader::fuzz::fuzz_params(seed);
  params.max_depth = 5;
  params.max_actions = 14 + seed % 3;
  params.num_locations = 4;
  params.p_access = 0.30;
  // No raw-view pokes or pool-writing updates: their races sit at
  // reducer-view addresses, which move between runs, so each would be a new
  // race identity per run and the logs would hit RaceLog's storage cap.
  // Pool races stay bounded by the pool size.
  params.p_raw_view = 0;
  params.p_update_shared = 0;
  return params;
}

/// Most race identities a swept racy program may have.  Each sweep worker
/// runs its own instance, and the probe one more, each with its own pool
/// addresses, so a sweep at `jobs` stores up to jobs + 1 times the
/// program's identities, which must fit under RaceLog's storage cap.
std::size_t racy_identity_limit(unsigned jobs) {
  return std::min<std::size_t>(kRacyMaxIdentities, kRaceLogCap / (jobs + 1));
}

/// A random program instance for a sweep worker.
Program random_program(const rader::dag::RandomProgramParams& params) {
  auto program = std::make_shared<rader::dag::RandomProgram>(params);
  return {"random", [program] { (*program)(); }, [] { return true; },
          program->pool_range()};
}

/// A racy random program with its oracle-checked known answer, or nullopt
/// when the candidate turns out race-free or too racy to store when swept
/// at `jobs`.
std::optional<SweepCase> racy_case(Tally& tally, std::uint64_t seed,
                                   unsigned jobs) {
  const rader::dag::RandomProgramParams params = racy_params(seed);
  rader::dag::RandomProgram program(params);
  // Similar-sized programs keep the per-spec cost, and so specs_per_s,
  // comparable across seeds.
  if (program.action_count() < kRacyMinActions ||
      program.action_count() > kRacyMaxActions) {
    return std::nullopt;
  }
  SerialEngine probe;
  probe.run([&program] { program(); });
  const std::uint64_t family = family_for(probe.stats()).size();
  if (family < kRacyMinFamily || family > kRacyMaxFamily) return std::nullopt;
  // The reference: the serial Section-7 check on one instance ...
  const auto reference = rader::Rader::check_exhaustive(
      [&program] { program(); }, kKCap, kDepthCap);
  if (!reference.log.any() ||
      reference.log.determinacy_races().size() > racy_identity_limit(jobs)) {
    return std::nullopt;
  }
  // ... accepted only if the detectors agree with the DAG oracle.
  bool agrees = true;
  for (const StealSpecPtr& s : rader::fuzz::spec_battery(seed)) {
    agrees = agrees &&
             rader::fuzz::check_execution(program, *s).divergences.empty();
  }
  tally.record(agrees, "racy program " + std::to_string(seed) +
                           " agrees with the DAG oracle");
  if (!agrees) return std::nullopt;
  const auto [lo, hi] = program.pool_range();
  SweepCase c;
  c.name = "random-" + std::to_string(seed);
  c.make = [params] { return random_program(params); };
  c.expected_specs = reference.spec_runs;
  c.expected_keys = rader::fuzz::canonical_race_keys(reference.log, lo, hi);
  return c;
}

std::vector<SweepCase> racy_cases(Tally& tally, std::uint64_t seed, int count,
                                  unsigned jobs) {
  std::vector<SweepCase> cases;
  for (int i = 0; i < kRacyCandidates && static_cast<int>(cases.size()) < count;
       ++i) {
    if (auto c = racy_case(tally, mix(seed, 1000 + i), jobs)) {
      cases.push_back(std::move(*c));
    }
  }
  if (static_cast<int>(cases.size()) < count) {
    throw std::runtime_error("too few racy programs for this seed");
  }
  return cases;
}

SweepCase paper_case(std::function<Program()> make) {
  SweepCase c;
  const Program probe_program = make();
  SerialEngine probe;
  probe.run(probe_program.run);
  if (!probe_program.verify()) {
    throw std::runtime_error(probe_program.name +
                             ": reference mismatch at set-up");
  }
  c.name = probe_program.name;
  c.expected_specs = family_for(probe.stats()).size();
  c.make = std::move(make);
  return c;
}

// The checkpoint self-test's program: races on a global pool (so every run
// accesses the same addresses, as resuming from a checkpoint requires),
// with reducer updates so steals mint and merge views.
long g_fork_pool[8];

void fork_test_program() {
  rader::reducer<rader::monoid::op_add<long>> sum(rader::SrcTag{"fork sum"});
  for (int i = 0; i < 4; ++i) {
    rader::spawn([i, &sum] {
      rader::shadow_write(&g_fork_pool[i], sizeof(long),
                          rader::SrcTag{"fork spawned write"});
      g_fork_pool[i] = i;
      sum += i;
    });
    rader::shadow_read(&g_fork_pool[i], sizeof(long),
                       rader::SrcTag{"fork continuation read"});
    sum += 1;
  }
  rader::sync();
}

/// Among a fixed number of candidate inputs of `seed` (so set-up does the
/// same work at every seed), the first whose family size is closest to
/// `family`.
SweepCase paper_case_with_family(
    const std::function<std::function<Program()>(std::uint64_t)>& maker_for,
    std::uint64_t seed, std::uint64_t family) {
  std::optional<SweepCase> best;
  for (int i = 0; i < kPrefixCandidates; ++i) {
    SweepCase c = paper_case(maker_for(mix(seed, i)));
    const auto distance = [family](const SweepCase& x) {
      return x.expected_specs > family ? x.expected_specs - family
                                       : family - x.expected_specs;
    };
    if (!best || distance(c) < distance(*best)) best = std::move(c);
  }
  return std::move(*best);
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

RoundTimes median_round(const std::vector<RoundTimes>& rounds) {
  std::map<std::string, std::vector<double>> seconds;
  for (const RoundTimes& round : rounds) {
    for (const auto& [name, t] : round) seconds[name].push_back(t.seconds);
  }
  RoundTimes out = rounds.empty() ? RoundTimes{} : rounds.front();
  for (auto& [name, t] : out) t.seconds = quantile(seconds[name], 0.5);
  return out;
}

Summary summarize(const RoundTimes& round) {
  Summary s;
  double specs = 0, spec_s = 0;
  for (const auto& [name, t] : round) {
    (t.parallel ? s.parallel_s : s.serial_s) += t.seconds;
    if (t.specs > 0) {
      specs += t.specs;
      spec_s += t.seconds;
    }
  }
  s.specs_per_s = spec_s > 0 ? specs / spec_s : 0;
  return s;
}

void Tally::record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "check-access", "sweep-racy", "sweep-prefix"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, unsigned jobs) {
  if (name == "check-access") {
    std::vector<Program> programs;
    programs.push_back(collision_program(mix(seed, 1)));
    programs.push_back(dedup_program(dedup_input(kDedupBytes, mix(seed, 2))));
    programs.push_back(ferret_program(mix(seed, 3)));
    programs.push_back(pbfs_maker(kPbfsVertices, kPbfsEdges, mix(seed, 4))());
    return std::make_unique<CheckWorkload>(std::move(programs), seed, jobs);
  }
  if (name == "sweep-racy") {
    Tally setup;
    auto cases = racy_cases(setup, seed, kRacyPrograms, jobs);
    if (setup.failed != 0) {
      throw std::runtime_error("DAG oracle rejected a reference: " +
                               setup.failures.front());
    }
    return std::make_unique<SweepWorkload>(
        std::move(cases), rader::SweepStrategy::kRerun, jobs);
  }
  if (name == "sweep-prefix") {
    std::vector<SweepCase> cases;
    cases.push_back(paper_case_with_family(
        [](std::uint64_t s) -> std::function<Program()> {
          auto input = dedup_input(kPrefixDedupBytes, s);
          return [input] { return dedup_program(input); };
        },
        mix(seed, 6), kPrefixDedupFamily));
    cases.push_back(paper_case_with_family(
        [](std::uint64_t s) {
          return pbfs_maker(kPrefixPbfsVertices, kPrefixPbfsEdges, s);
        },
        mix(seed, 7), kPrefixPbfsFamily));
    return std::make_unique<SweepWorkload>(
        std::move(cases), rader::SweepStrategy::kPrefix, jobs);
  }
  return nullptr;
}

const std::vector<LayerMetricInfo>& layer_metrics() {
  static const std::vector<LayerMetricInfo> kMetrics = {
      {"runtime.base_s", "s", false},
      {"runtime.spawns", "count", true},
      {"runtime.steals", "count", true},
      {"runtime.reduces", "count", true},
      {"runtime.identities", "count", true},
      {"runtime.reduce_ns.p50", "ns", false},
      {"runtime.reduce_ns.p99", "ns", false},
      {"runtime.arena_bytes.max", "bytes", true},
      {"tool.dispatch_s", "s", false},
      {"tool.events", "count", true},
      {"core.spplus.access_s", "s", false},
      {"core.spplus.ns_per_access", "ns", false},
      {"core.spplus.control_s", "s", false},
      {"core.peerset.s", "s", false},
      // Shadow pages follow the program's heap addresses, which move with
      // the allocator's history; and on sweep-prefix, resumes that diverge
      // (the paper programs are not address-stable across runs) are redone
      // fresh after doing a layout-dependent amount of detector work and
      // race reporting.  These counts are medians, not exact.
      {"dsu.finds", "count", false},
      {"dsu.unions", "count", false},
      {"shadow.pages_touched", "count", false},
      {"shadow.pages_cow", "count", false},
      {"shadow.epoch_clears", "count", true},
      {"shadow.pages_live.max", "count", false},
      {"core.race_report.identities", "count", false},
      {"core.race_report.new_frac", "fraction", false},
      {"core.race_report.merge_s", "s", false},
      {"core.sweep.spec_runs", "count", true},
      {"core.sweep.execute_s", "s", false},
      {"core.sweep.busy_frac", "fraction", false},
      {"core.sweep.spec_ms.p50", "ms", false},
      {"core.sweep.spec_ms.p99", "ms", false},
      {"core.sweep.gap_ms.p50", "ms", false},
      {"core.sweep.checkpoints", "count", true},
      {"core.sweep.forks", "count", true},
      {"core.sweep.fork_frac", "fraction", true},
      {"core.sweep.resume_fallbacks", "count", true},
      {"core.sweep.dedup_reuses", "count", true},
      {"core.sweep.checkpoints_live.max", "count", true},
      {"core.sweep.divergence_depth.p50", "count", true},
      // The parallel engine's steals (and the tasks/events that follow
      // from where they land) depend on real thread timing.
      {"sched.tasks", "count", false},
      {"sched.steals", "count", false},
      {"sched.shard_events", "count", false},
      {"sched.shard_drains", "count", false},
      {"core.driver.probe_s", "s", false},
      {"runtime.overhead_x", "x", false},
      {"sched.speedup", "x", false},
      {"trace.overhead_frac", "fraction", false},
  };
  return kMetrics;
}

int self_test(std::uint64_t seed) {
  int bad = 0;
  const auto expect = [&bad](bool ok, const std::string& what) {
    std::printf("selftest %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
    bad += ok ? 0 : 1;
  };

  {
    Tally tally;
    timed_check(
        tally, "throwing check",
        []() -> int { throw std::runtime_error("injected"); },
        [](int) { return true; });
    expect(tally.attempted == 1 && tally.failed == 1,
           "a check that throws counts as failed");
  }

  Tally setup;
  const std::vector<SweepCase> cases = racy_cases(setup, seed, 1, 2);
  expect(setup.failed == 0, "racy references agree with the DAG oracle");
  {
    Tally tally;
    sweep_case(tally, cases.front(), 2, rader::SweepStrategy::kRerun);
    expect(tally.attempted == 1 && tally.failed == 0,
           "a racy sweep matches its reference keys");
    SweepCase perturbed = cases.front();
    perturbed.expected_keys.front() += " perturbed";
    Tally perturbed_tally;
    sweep_case(perturbed_tally, perturbed, 2, rader::SweepStrategy::kRerun);
    expect(perturbed_tally.attempted == 1 && perturbed_tally.failed == 1,
           "a perturbed reference key set counts as failed");
    SweepCase dropped = cases.front();
    dropped.expected_keys.pop_back();
    Tally dropped_tally;
    sweep_case(dropped_tally, dropped, 2, rader::SweepStrategy::kRerun);
    expect(dropped_tally.failed == 1,
           "a reference with a key removed counts as failed");
  }

  // TimingTool across a checkpoint: fork mid-run, resume from the fork, and
  // compare race keys with an untimed straight run.
  {
    const std::function<void()> run = [] { fork_test_program(); };
    const auto lo = reinterpret_cast<std::uintptr_t>(&g_fork_pool[0]);
    const auto hi = lo + sizeof g_fork_pool;
    rader::spec::StealAll all;
    RaceLog plain;
    rader::DecisionTrail probe_trail;
    {
      rader::SpPlusDetector detector(&plain);
      SerialEngine engine(&detector, &all);
      engine.set_decision_trail(&probe_trail);
      engine.run(run);
    }
    const std::size_t depth = probe_trail.size() / 2;

    RaceLog straight;
    rader::SpPlusDetector detector(&straight);
    TimingTool::Totals totals;
    TimingTool timing(&detector, &totals);
    SerialEngine engine(&timing, &all);
    rader::DecisionTrail trail;
    rader::EngineCheckpoint ck;
    std::unique_ptr<rader::Tool> frozen;
    RaceLog ck_log;
    engine.set_decision_trail(&trail);
    engine.set_point_hook([&](std::size_t idx) {
      if (idx != depth || frozen) return;
      engine.capture(&ck);
      frozen = timing.fork(nullptr);
      ck_log = straight;
    });
    engine.run(run);
    expect(frozen != nullptr, "TimingTool forks its detector");
    if (!frozen) return bad;

    RaceLog resumed = ck_log;
    std::unique_ptr<rader::Tool> live = frozen->fork(&resumed);
    const std::uint64_t events_before = totals.all_events();
    SerialEngine resume_engine(live.get(), &all);
    rader::SerialEngine::ResumePlan plan;
    plan.replay = &trail;
    plan.replay_count = trail.size();
    plan.live_from = ck.point;
    plan.expect = &ck;
    bool resumed_ok = true;
    try {
      resume_engine.resume_from(run, plan);
    } catch (const rader::ResumeDiverged& e) {
      resumed_ok = false;
      std::printf("selftest: resume diverged: %s\n", e.reason);
    }
    const auto keys = [lo = lo, hi = hi](const RaceLog& log) {
      return rader::fuzz::canonical_race_keys(log, lo, hi);
    };
    expect(resumed_ok && keys(straight) == keys(plain) &&
               keys(resumed) == keys(plain) && !keys(plain).empty(),
           "race keys through TimingTool equal the untimed run's, "
           "straight and resumed from a fork");
    expect(totals.all_events() > events_before,
           "the forked TimingTool keeps timing into the same totals");
  }
  return bad;
}

}  // namespace perfbench
