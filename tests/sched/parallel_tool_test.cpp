// On-the-fly detection inside the work-stealing engine: a ParallelTool
// attached via ParallelEngine::set_tool receives the serial no-steal event
// stream on worker 0 while the program runs on all cores, per-worker
// metrics fold into the caller's registry after every run (nothing is
// dropped at teardown), and trace buffers outlive the engine because the
// Session owns them.  Everything here is race-free by construction — this
// file runs under the TSan CI slice (ctest -L sched).
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/driver.hpp"
#include "core/peerset.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "sched/parallel_engine.hpp"
#include "spec/steal_spec.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rader {
namespace {

constexpr int kBlocks = 8;
constexpr int kSpawnsPerBlock = 8;
constexpr int kSpawns = kBlocks * kSpawnsPerBlock;

// Disciplined reducer use (set before spawns, read after the sync): clean
// under Peer-Set, and every shared mutation goes through the reducer, so
// the program is also TSan-clean at any worker count.
void clean_program() {
  reducer<monoid::op_add<long>> sum(SrcTag{"sum"});
  for (int b = 0; b < kBlocks; ++b) {
    call([&] {
      for (int i = 0; i < kSpawnsPerBlock; ++i) {
        spawn([&sum] {
          for (int spin = 0; spin < 2000; ++spin) {
            asm volatile("" ::: "memory");
          }
          sum += 1;
        });
      }
      sync();
    });
  }
  sync();
  volatile long v = sum.get_value(SrcTag{"total"});
  (void)v;
}

// The canonical §2 misuse: get_value with a spawned updater outstanding.
// A view-read race semantically, yet TSan-clean on this engine — the
// updater writes its own segment view, never the leftmost the read sees.
void racy_program() {
  reducer<monoid::op_add<long>> sum(SrcTag{"sum"});
  spawn([&sum] { sum += 1; });
  volatile long v = sum.get_value(SrcTag{"get before sync"});
  (void)v;
  sync();
}

TEST(ParallelTool, CleanProgramStaysCleanAtEveryWorkerCount) {
  const RaceLog serial = Rader::check_view_read([] { clean_program(); });
  ASSERT_EQ(serial.view_read_count(), 0u);
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    const RaceLog par = Rader::check_parallel([] { clean_program(); }, jobs);
    EXPECT_EQ(par.view_read_count(), 0u) << "jobs=" << jobs;
  }
}

// Stored reports in stored order: the streams are byte-identical, so even
// report ORDER must match the serial run, not just the set.
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

TEST(ParallelTool, RacyProgramMatchesSerialVerdict) {
  const RaceLog serial = Rader::check_view_read([] { racy_program(); });
  ASSERT_GT(serial.view_read_count(), 0u);
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    const RaceLog par = Rader::check_parallel([] { racy_program(); }, jobs);
    EXPECT_EQ(par.view_read_count(), serial.view_read_count())
        << "jobs=" << jobs;
    EXPECT_EQ(race_tuples(par), race_tuples(serial)) << "jobs=" << jobs;
  }
}

// Counter conservation: every worker's private registry folds into the
// caller's sink at the end of run() — no bump is lost when helpers idle
// through the join or when the engine is torn down afterwards.
TEST(ParallelTool, WorkerMetricsFoldIntoTheCallersRegistry) {
  // Serial baseline for the schedule-independent counters.
  metrics::Registry baseline;
  {
    metrics::Scope scope(&baseline);
    const RaceLog log = Rader::check_view_read([] { clean_program(); });
    ASSERT_EQ(log.view_read_count(), 0u);
  }
  const std::uint64_t serial_frames =
      baseline.snapshot().counter(metrics::Counter::kFramesEntered);
  // Root + every spawned child + every called block.
  ASSERT_EQ(serial_frames, 1u + kSpawns + kBlocks);

  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    metrics::Registry outer;
    RaceLog log;
    ParallelPeerSet tool(&log);
    {
      metrics::Scope scope(&outer);
      ParallelEngine engine(jobs);
      engine.set_tool(&tool);
      engine.run([] { clean_program(); });
      engine.run([] { clean_program(); });  // folds must accumulate, not leak
    }
    const metrics::Snapshot snap = outer.snapshot();
    // Exactly one execution per spawned task, regardless of who stole what.
    EXPECT_EQ(snap.counter(metrics::Counter::kEngineTasks), 2u * kSpawns)
        << "jobs=" << jobs;
    // The replayed detector saw the serial frame stream — twice.
    EXPECT_EQ(snap.counter(metrics::Counter::kFramesEntered),
              2u * serial_frames)
        << "jobs=" << jobs;
    EXPECT_GT(snap.counter(metrics::Counter::kShardEvents), 0u)
        << "jobs=" << jobs;
    EXPECT_GE(snap.counter(metrics::Counter::kShardDrains), 2u)
        << "jobs=" << jobs;
    EXPECT_EQ(log.view_read_count(), 0u) << "jobs=" << jobs;
  }
}

// Without an installed outer registry the engine must still quiesce the
// per-worker registries (a later run with a registry sees only its own).
TEST(ParallelTool, UntrackedRunDoesNotLeakIntoTheNextOne) {
  ParallelEngine engine(2);
  engine.run([] { clean_program(); });  // no outer registry: discarded
  metrics::Registry outer;
  {
    metrics::Scope scope(&outer);
    engine.run([] { clean_program(); });
  }
  EXPECT_EQ(outer.snapshot().counter(metrics::Counter::kEngineTasks),
            static_cast<std::uint64_t>(kSpawns));
}

// ---- Access delivery to tools that opt in ----------------------------------

// Annotate-only cells (never stored to, so the program is TSan-clean).
// More cells than the engine's per-worker dedup cache has entries, so
// entries collide and evict.
constexpr int kCells = 3000;
long g_cells[kCells];

// Each spawned child sweeps a window of cells twice — the second sweep is
// what per-strand dedup drops — and the continuation writes into the
// neighbouring child's window.
void access_program() {
  for (int b = 0; b < 4; ++b) {
    for (int i = 0; i < 6; ++i) {
      const int base = (b * 6 + i) * 97 % kCells;
      spawn([base] {
        for (int pass = 0; pass < 2; ++pass) {
          for (int c = 0; c < 1200; ++c) {
            shadow_read(&g_cells[(base + c) % kCells], sizeof(long));
            shadow_write(&g_cells[(base + 2 * c) % kCells], sizeof(long));
          }
        }
      });
      shadow_write(&g_cells[(base + 600) % kCells], sizeof(long));
      shadow_write(&g_cells[(base + 600) % kCells], sizeof(long));
    }
    sync();
    shadow_read(&g_cells[b], sizeof(long));
  }
}

// Records every delivered access as (strand, address, kind), numbering
// strands by the control events (enter, return, sync) of the stream.
class AccessSetRecorder final : public ParallelTool {
 public:
  bool wants_accesses() const override { return true; }

  std::set<std::tuple<std::uint64_t, std::uintptr_t, int>> accesses;
  std::uint64_t deliveries = 0;

  void on_frame_enter(FrameId, FrameId, FrameKind, ViewId) override {
    ++strand_;
  }
  void on_frame_return(FrameId, FrameId, FrameKind) override { ++strand_; }
  void on_sync(FrameId) override { ++strand_; }
  void on_access(AccessKind kind, std::uintptr_t addr, std::size_t, bool,
                 ViewId, SrcTag) override {
    accesses.emplace(strand_, addr, static_cast<int>(kind));
    ++deliveries;
  }

 private:
  std::uint64_t strand_ = 0;
};

TEST(ParallelTool, DedupedAccessesKeepEveryStrandLocationAndKind) {
  // The wants_accesses contract: multiplicity may drop, but every
  // (strand, location, kind) of the serial no-steal stream arrives.
  AccessSetRecorder serial;
  {
    spec::NoSteal none;
    SerialEngine engine(&serial, &none);
    engine.run([] { access_program(); });
  }
  ASSERT_GT(serial.accesses.size(), 1000u);
  for (const unsigned jobs : {1u, 2u, 4u}) {
    AccessSetRecorder par;
    ParallelEngine engine(jobs);
    engine.set_tool(&par);
    engine.run([] { access_program(); });
    EXPECT_TRUE(par.accesses == serial.accesses)
        << "jobs=" << jobs << ": " << par.accesses.size() << " vs "
        << serial.accesses.size() << " (strand, address, kind) triples";
    EXPECT_LT(par.deliveries, serial.deliveries)
        << "jobs=" << jobs << ": repeats within a strand were not dropped";
  }
}

// Trace buffers are owned by the Session, not the engine: events recorded
// by pool workers must survive the engine's teardown.
TEST(ParallelTool, TraceBuffersSurviveEngineTeardown) {
  trace::Session session;
  {
    TraceScope ts(&session, "main");
    ParallelEngine engine(4);
    engine.run([] { clean_program(); });
    // Give every helper at least one idle-loop iteration inside the scope
    // so it attaches its buffer (helpers re-check the session each loop).
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }  // engine destroyed before the scope closes
  EXPECT_GT(session.total_recorded(), 0u);
  bool saw_worker_buffer = false;
  for (const trace::Buffer* b : session.buffers()) {
    if (b->name().rfind("pe-worker-", 0) == 0) saw_worker_buffer = true;
  }
  EXPECT_TRUE(saw_worker_buffer)
      << "helper threads never attached to the session";
}

}  // namespace
}  // namespace rader
