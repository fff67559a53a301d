// Parallel-vs-serial Peer-Set equivalence: check_parallel must report the
// EXACT race log of a serial no-steal Peer-Set run — same reducer ids, same
// frame ids, same labels, same occurrence counts, same stored order — at
// every worker count, on the whole litmus suite, on random programs, and on
// the fuzzer's distilled reproducer corpus.  This is the tentpole contract
// of the shard replay design (tool/shard.hpp): the event stream worker 0
// replays is byte-identical to the serial projection's, so anything short of
// exact equality is a splice-order or renumbering bug.
//
// Race logs cannot see a reducer that is renumbered but never races, so the
// ParallelStream tests below compare the replayed callback STREAM itself —
// every frame, sync and reducer-op callback with its ids, ops and labels —
// against a serial no-steal recording.
//
// Built twice (tests/CMakeLists.txt): the fast gate runs a small random
// batch, the stress tier the full 200-program battery; the
// RADER_PAR_EQ_PROGRAMS environment variable overrides either.
//
// NOT part of the sched/TSan label on purpose: random programs and several
// litmus cases contain deliberate data races (torn pool writes, raw-view
// pokes) that are the detector's subject matter, not bugs in the engine.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "../litmus/litmus_cases.hpp"
#include "core/driver.hpp"
#include "dag/program_serial.hpp"
#include "dag/random_program.hpp"
#include "fuzz/differ.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "sched/parallel_engine.hpp"
#include "tool/tool.hpp"

#ifndef RADER_PAR_EQ_DEFAULT
#define RADER_PAR_EQ_DEFAULT 8
#endif
#ifndef RADER_FUZZ_CORPUS_DIR
#error "RADER_FUZZ_CORPUS_DIR must point at tests/fuzz/corpus"
#endif

namespace rader {
namespace {

constexpr unsigned kJobs[] = {1, 2, 4, 8};

// The one litmus case that is undefined behavior on a REAL parallel engine:
// it destroys the reducer while a spawned updater is still running, so the
// updater's `*sum += 1` is a use-after-free when the child executes on
// another worker.  The serial engines merely simulate the schedule and can
// report the misuse safely; the parallel engine actually executes it.
constexpr const char* kUnsafeUnderRealParallelism = "destroy-before-sync";

using RaceTuple = std::tuple<ReducerId, FrameId, FrameId, std::string,
                             std::string, std::uint64_t>;

std::vector<RaceTuple> race_tuples(const RaceLog& log) {
  std::vector<RaceTuple> out;
  for (const ViewReadRace& r : log.view_read_races()) {
    out.emplace_back(r.reducer, r.prior_frame, r.current_frame, r.prior_label,
                     r.current_label, r.occurrences);
  }
  return out;
}

std::size_t program_count() {
  if (const char* env = std::getenv("RADER_PAR_EQ_PROGRAMS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) return n;
  }
  return RADER_PAR_EQ_DEFAULT;
}

TEST(ParallelEquivalence, LitmusSuiteIsExactAtEveryJobsValue) {
  std::size_t checked = 0;
  for (const litmus::Case& c : litmus::all_cases()) {
    if (c.name == kUnsafeUnderRealParallelism) continue;
    SCOPED_TRACE(c.name + " — " + c.why);
    const RaceLog serial = Rader::check_view_read([&] { c.program(); });
    EXPECT_EQ(serial.view_read_count() > 0, c.peerset);
    for (const unsigned jobs : kJobs) {
      const RaceLog par = Rader::check_parallel([&] { c.program(); }, jobs);
      EXPECT_EQ(par.view_read_count(), serial.view_read_count())
          << "jobs=" << jobs;
      EXPECT_EQ(race_tuples(par), race_tuples(serial)) << "jobs=" << jobs;
    }
    ++checked;
  }
  EXPECT_GE(checked, 20u) << "litmus corpus shrank unexpectedly";
}

TEST(ParallelEquivalence, RandomProgramsAreExactAtEveryJobsValue) {
  const std::size_t n = program_count();
  std::size_t racy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const dag::RandomProgramParams params =
        fuzz::fuzz_params(/*seed=*/0x9a7a11e1u + 17 * i);
    dag::RandomProgram program(params);
    SCOPED_TRACE("seed=" + std::to_string(params.seed) +
                 " actions=" + std::to_string(program.action_count()));
    const RaceLog serial = Rader::check_view_read([&] { program(); });
    if (serial.view_read_count() > 0) ++racy;
    for (const unsigned jobs : kJobs) {
      const RaceLog par = Rader::check_parallel([&] { program(); }, jobs);
      EXPECT_EQ(par.view_read_count(), serial.view_read_count())
          << "jobs=" << jobs;
      EXPECT_EQ(race_tuples(par), race_tuples(serial)) << "jobs=" << jobs;
    }
    // One-worker schedules are deterministic, so the reducer arithmetic must
    // be too (raw-view actions make cross-schedule totals uncomparable, but
    // a FIXED schedule replayed twice has exactly one meaning).
    long first_total = 0;
    {
      const RaceLog unused = Rader::check_parallel([&] { program(); }, 1);
      (void)unused;
      first_total = program.reducer_total();
    }
    const RaceLog unused = Rader::check_parallel([&] { program(); }, 1);
    (void)unused;
    EXPECT_EQ(program.reducer_total(), first_total);
  }
  // Non-vacuity: the batch must actually exercise the view-read reporting
  // path, not just compare empty logs.
  EXPECT_GT(racy, 0u) << "no random program produced a view-read race; "
                         "reseed the batch";
}

TEST(ParallelEquivalence, FuzzCorpusReplaysAreExactAtEveryJobsValue) {
  const char* kCorpusFiles[] = {
      "fig6_shadow_slot.rprog",
      "view_read_race.rprog",
      "reduce_vs_oblivious.rprog",
  };
  for (const char* name : kCorpusFiles) {
    std::string error;
    auto repro = dag::load_reproducer(
        std::string(RADER_FUZZ_CORPUS_DIR) + "/" + name, &error);
    ASSERT_TRUE(repro.has_value()) << name << ": " << error;
    dag::RandomProgram program(repro->tree, repro->params);
    SCOPED_TRACE(name);
    const RaceLog serial = Rader::check_view_read([&] { program(); });
    for (const unsigned jobs : kJobs) {
      const RaceLog par = Rader::check_parallel([&] { program(); }, jobs);
      EXPECT_EQ(par.view_read_count(), serial.view_read_count())
          << "jobs=" << jobs;
      EXPECT_EQ(race_tuples(par), race_tuples(serial)) << "jobs=" << jobs;
    }
  }
}

// ---- Stream-level equivalence ---------------------------------------------

// Logs every callback a Peer-Set-style tool receives, with its ids, ops and
// labels.  Accesses and clears are left out: the parallel engine delivers
// them only to tools that opt in, and then deduplicated per strand
// (ParallelTool::wants_accesses), so their multiplicity is not part of the
// byte-identical contract.
class StreamRecorder final : public ParallelTool {
 public:
  std::vector<std::string> events;

  void on_run_begin() override { events.push_back("run-begin"); }
  void on_run_end() override { events.push_back("run-end"); }
  void on_frame_enter(FrameId frame, FrameId parent, FrameKind kind,
                      ViewId vid) override {
    add("enter", frame, parent, static_cast<int>(kind), vid);
  }
  void on_frame_return(FrameId frame, FrameId parent,
                       FrameKind kind) override {
    add("return", frame, parent, static_cast<int>(kind), 0);
  }
  void on_sync(FrameId frame) override { add("sync", frame, 0, 0, 0); }
  void on_steal(FrameId frame, std::uint32_t cont_index,
                ViewId new_vid) override {
    add("steal", frame, cont_index, 0, new_vid);
  }
  void on_reduce(FrameId frame, ViewId left_vid, ViewId right_vid) override {
    add("reduce", frame, left_vid, 0, right_vid);
  }
  void on_reducer_op(ReducerOp op, ReducerId h, SrcTag tag) override {
    events.push_back("op " + std::to_string(static_cast<int>(op)) + " r" +
                     std::to_string(h) + " " + tag.label);
  }

 private:
  void add(const char* what, std::uint64_t a, std::uint64_t b, int kind,
           std::uint64_t c) {
    events.push_back(std::string(what) + " " + std::to_string(a) + " " +
                     std::to_string(b) + " " + std::to_string(kind) + " " +
                     std::to_string(c));
  }
};

std::vector<std::string> serial_stream(FnView program) {
  StreamRecorder rec;
  SerialEngine engine(&rec);  // no spec: NoSteal
  engine.run(program);
  return rec.events;
}

std::vector<std::string> parallel_stream(ParallelEngine& engine,
                                         FnView program) {
  StreamRecorder rec;
  engine.set_tool(&rec);
  engine.run(program);
  engine.set_tool(nullptr);
  return rec.events;
}

void expect_stream_exact(FnView program) {
  const std::vector<std::string> serial = serial_stream(program);
  ASSERT_FALSE(serial.empty());
  for (const unsigned jobs : kJobs) {
    ParallelEngine engine(jobs);
    EXPECT_EQ(parallel_stream(engine, program), serial) << "jobs=" << jobs;
  }
}

TEST(ParallelStream, LitmusSuiteStreamsAreExact) {
  for (const litmus::Case& c : litmus::all_cases()) {
    if (c.name == kUnsafeUnderRealParallelism) continue;
    SCOPED_TRACE(c.name);
    expect_stream_exact([&] { c.program(); });
  }
}

TEST(ParallelStream, RandomProgramStreamsAreExact) {
  const std::size_t n = program_count();
  for (std::size_t i = 0; i < n; ++i) {
    const dag::RandomProgramParams params =
        fuzz::fuzz_params(/*seed=*/0x57a3e11u + 31 * i);
    dag::RandomProgram program(params);
    SCOPED_TRACE("seed=" + std::to_string(params.seed));
    expect_stream_exact([&] { program(); });
  }
}

// The first contact is a bare view() — no Tool event of its own — in a
// continuation segment, and a reducer created right after it must still be
// numbered after it.
TEST(ParallelStream, BareViewFirstContactInAContinuation) {
  reducer<monoid::op_add<long>> q(SrcTag{"q"});  // bound lazily in the run
  expect_stream_exact([&] {
    reducer<monoid::op_add<long>> a(SrcTag{"a"});
    spawn([&a] { a += 1; });
    (void)q.view();
    reducer<monoid::op_add<long>> z(SrcTag{"z"});
    sync();
    (void)z.get_value(SrcTag{"z read"});
    (void)q.get_value(SrcTag{"q read"});
  });
}

// A reducer destroyed and a new one built in the same storage within one
// run is a new reducer with a new id, not the old slot.
TEST(ParallelStream, ReducerRebuiltAtTheSameAddress) {
  expect_stream_exact([] {
    std::optional<reducer<monoid::op_add<long>>> r;
    for (int round = 0; round < 3; ++round) {
      r.emplace(SrcTag{"r"});
      spawn([&r] { *r += 1; });
      *r += 1;
      sync();
      (void)r->get_value(SrcTag{"r read"});
      r.reset();
      reducer<monoid::op_add<long>> other(SrcTag{"other"});
      other += 1;
    }
  });
}

// One reducer object, created outside any run, used by runs of two engines
// in turn.  The number of reducers registered before it varies per run, so
// a stamp that leaked from another run or engine would name a wrong slot.
TEST(ParallelStream, OuterReducerAcrossRunsAndEngines) {
  reducer<monoid::op_add<long>> outer(SrcTag{"outer"});
  auto program = [&outer](int locals) {
    return [&outer, locals] {
      std::vector<std::unique_ptr<reducer<monoid::op_add<long>>>> mine;
      for (int i = 0; i < locals; ++i) {
        mine.push_back(std::make_unique<reducer<monoid::op_add<long>>>(
            SrcTag{"local"}));
      }
      spawn([&outer, &mine] {
        outer += 1;
        for (auto& l : mine) *l += 1;
      });
      outer += 1;
      sync();
      for (auto& l : mine) (void)l->get_value(SrcTag{"local read"});
      (void)outer.get_value(SrcTag{"outer read"});
    };
  };
  for (const unsigned jobs : kJobs) {
    ParallelEngine first(jobs);
    ParallelEngine second(jobs);
    const struct {
      ParallelEngine* engine;
      int locals;
      const char* what;
    } runs[] = {{&first, 0, "first engine, run 1"},
                {&first, 2, "first engine, run 2"},
                {&second, 1, "second engine, run 1"},
                {&first, 3, "first engine, run 3"},
                {&second, 0, "second engine, run 2"}};
    for (const auto& run : runs) {
      auto p = program(run.locals);
      EXPECT_EQ(parallel_stream(*run.engine, p), serial_stream(p))
          << "jobs=" << jobs << ", " << run.what;
    }
  }
}

// Reduce code is engine-internal on the parallel engine (suppressed: a
// serial no-steal run never reduces), so a reducer first touched there is
// first touched, as far as the serial stream knows, by the later bare
// view() — which must therefore still be announced.
reducer<monoid::op_add<long>>* g_touched_in_reduce = nullptr;

struct add_touching_aux {
  using value_type = long;
  static long identity() { return 0; }
  static void reduce(long& left, long& right) {
    (void)g_touched_in_reduce->view();
    left += right;
  }
};

TEST(ParallelStream, FirstContactInsideSuppressedReduce) {
  reducer<monoid::op_add<long>> aux(SrcTag{"aux"});  // bound lazily
  g_touched_in_reduce = &aux;
  expect_stream_exact([&aux] {
    reducer<add_touching_aux> r(SrcTag{"r"});
    spawn([&r] { r += 1; });
    r += 1;  // a second view in the continuation: the sync reduces
    sync();
    (void)aux.view();
    reducer<monoid::op_add<long>> z(SrcTag{"z"});
    (void)z.get_value(SrcTag{"z read"});
    (void)aux.get_value(SrcTag{"aux read"});
  });
  g_touched_in_reduce = nullptr;
}

}  // namespace
}  // namespace rader
