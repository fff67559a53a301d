// ParallelEngine: a work-stealing runtime for real parallel execution.
//
// This is the substrate the paper's benchmarks presume — a Cilk-style
// work-stealing scheduler with reducer support.  The calling thread becomes
// worker 0 and executes the root; helper threads steal from Chase–Lev
// deques.  Scheduling is CHILD-stealing (a spawned task is pushed and the
// continuation keeps running): continuation stealing requires compiler
// support that a library cannot express.
//
// Reducer determinism under child stealing is achieved with ordered view
// segments rather than Cilk's steal-lazy hypermaps (see DESIGN.md §2): each
// frame keeps, in serial order, one join item per spawn — the child's
// folded view map plus the continuation segment that follows it — and the
// sync folds them left-to-right with the monoid's reduce.  Because the fold
// order is positional, not temporal, any schedule produces the serial
// projection's value for associative monoids; views are created lazily (on
// first update within a segment), so update-free segments cost nothing.
//
// Detection (set_tool): the serial detectors also run ON this engine, not
// just beside it.  Each segment records its instrumentation events into a
// private shard exactly as it keeps a private hypermap, joins splice child
// shards positionally alongside the view fold, and worker 0 drains the root
// frame's shard through a ShardReplayer at every root-level sync — so an
// attached ParallelTool receives the byte-identical event stream of a
// serial no-steal run while the program executes on all cores
// (tool/shard.hpp has the full argument, DESIGN.md §5 the design notes).
//
// The reducer path takes no lock: a reducer's slot is read from the stamp
// the engine leaves in HyperobjectBase::hyper_stamp at first contact, and
// only that first contact registers under the registry lock.  Helper
// threads are run-scoped: they park between runs, run() wakes them all and
// waits until each has joined — on its own CPU — before the root starts,
// and during the run they spin-steal (spinning, then yielding) instead of
// sleeping, so no spawn ever pays for a wake-up.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/hyperobject.hpp"
#include "sched/worksteal_deque.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "tool/shard.hpp"

namespace rader {

class ParallelTool;

class ParallelEngine final : public Engine {
 public:
  /// `workers` total workers including the calling thread (0 = hardware
  /// concurrency).
  explicit ParallelEngine(unsigned workers = 0);
  ~ParallelEngine() override;

  /// Attach `tool` (nullptr to detach) for subsequent run()s: its serial
  /// Tool callbacks are invoked on worker 0, in the depth-first order of the
  /// computation, byte-identical to a serial no-steal run of the same
  /// program.  The tool must outlive the runs; not callable mid-run.
  void set_tool(ParallelTool* tool);

  /// Execute `root` to completion using all workers.  The calling thread
  /// participates; not reentrant.  Unwind-safe for an exception thrown by
  /// `root` while none of its spawned children is outstanding (no spawn
  /// since the last sync): the run's state is reset and the engine is
  /// usable again.  A throw with children in flight is not supported.
  void run(FnView root);

  unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Total successful steals across the last run (scheduler telemetry).
  std::uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  // ---- Engine interface ----
  bool inline_tasks() const override { return false; }
  void spawn_inline(FnView fn) override;
  void spawn_task(Task task) override;
  void call_inline(FnView fn) override;
  void sync() override;
  void access(AccessKind kind, std::uintptr_t addr, std::size_t size,
              SrcTag tag) override;
  void clear_shadow(std::uintptr_t addr, std::size_t size) override;
  void register_reducer(HyperobjectBase* r, void* leftmost_view,
                        SrcTag tag) override;
  void unregister_reducer(HyperobjectBase* r, SrcTag tag) override;
  void* current_view(HyperobjectBase* r, SrcTag tag) override;
  void reducer_read(HyperobjectBase* r, ReducerOp op, SrcTag tag) override;
  void begin_update(HyperobjectBase* r, SrcTag tag) override;
  void end_update(HyperobjectBase* r) override;

 private:
  // A segment's view of one reducer.  `announced` is set once a kBind or
  // kCreate naming the reducer was recorded (not suppressed) into the
  // segment's aligned shard; the flag travels with the view through
  // fold_map, and an announced entry makes later kBind markers redundant.
  struct SegView {
    void* view = nullptr;
    bool announced = false;
  };

  // Views of one segment, keyed by reducer.  std::map keeps the fold order
  // deterministic (registration order) without a sort at every fold.
  using Hypermap = std::map<ReducerId, SegView>;

  struct ChildRecord {
    explicit ChildRecord(Task t) : task(std::move(t)) {}
    Task task;
    std::atomic<bool> done{false};
    Hypermap result;      // child's folded views, published with `done`
    EventShard result_ev;  // child's spliced event shard, ditto
  };

  struct JoinItem {
    std::unique_ptr<ChildRecord> child;
    std::unique_ptr<Hypermap> segment;  // continuation segment after it
    std::unique_ptr<EventShard> segment_ev;  // its events (tool attached)
  };

  struct FrameCtx {
    Hypermap* seg0 = nullptr;  // leftmost segment (aliased for called frames)
    bool owns_seg0 = false;
    Hypermap* cur = nullptr;   // segment the worker is currently updating
    // Event-shard mirror of the two pointers above; null when no tool is
    // attached.  ev0 aliases the parent's current shard for called frames
    // and the ChildRecord's shard for spawned ones (owns_ev0 only for the
    // root frame).
    EventShard* ev0 = nullptr;
    bool owns_ev0 = false;
    EventShard* cur_ev = nullptr;
    std::vector<JoinItem> items;
  };

  struct AccessDedup {
    std::uintptr_t addr;
    std::uint64_t tag;  // (strand epoch << 1) | is_write; 0 = never set
  };
  static constexpr std::size_t kDedupEntries = 1024;

  struct WorkerState {
    sched::WorkStealDeque deque;
    Rng rng;
    std::vector<FrameCtx> frames;
    unsigned index = 0;
    // Per-worker accounting, folded into the caller's metrics sink at the
    // end of each run (sweep workers fold theirs the same way).
    metrics::Registry metrics;
    // Per-worker access dedup, so hot loops don't flood the event shards:
    // a direct-mapped cache from an access's first byte to the tag
    // (strand epoch, kind) that last recorded it.  A hit drops the access;
    // a collision only evicts, so the next access to the evicted address
    // re-emits.  Private to the worker; epochs are monotonic across runs,
    // so stale entries never match and the cache never needs clearing.
    // Allocated by the first run that records accesses.
    std::unique_ptr<AccessDedup[]> dedup;
    std::uint32_t strand_epoch = 1;
    // Nested engine-internal user code (Reduce / CreateIdentity) whose
    // events have no counterpart in the serial no-steal stream.
    int suppress = 0;
    // User Update code depth (begin_update/end_update), for the view_aware
    // flag on recorded accesses.
    unsigned view_aware_depth = 0;
  };

  static thread_local WorkerState* tl_worker_;

  WorkerState& self() {
    RADER_CHECK_MSG(tl_worker_ != nullptr,
                    "rader parallel API used off a worker thread");
    return *tl_worker_;
  }

  void helper_loop(unsigned index);
  ChildRecord* try_get_work(WorkerState& w);
  void execute_child(WorkerState& w, ChildRecord* rec);
  void do_sync(WorkerState& w);
  void fold_map(Hypermap& acc, Hypermap& right);

  /// Wake every helper into the current run and wait until each has joined.
  void start_helpers();
  /// Everything after the root's final sync, on every exit path of run():
  /// park the helpers, drop leftover run state, fold worker metrics.
  void end_run();

  /// Append `e` to the calling worker's current segment shard.  Returns
  /// false (recording nothing) without a tool, under suppression, or
  /// outside a frame.  Control events and clears advance the worker's
  /// strand epoch.
  bool record(WorkerState& w, const ShardEvent& e);

  /// `r`'s slot in the current run: a lock-free stamp check, registering
  /// under reg_mu_ only at first contact.
  ReducerId slot_of(HyperobjectBase* r);
  ReducerId register_slot(HyperobjectBase* r);

  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::thread> threads_;

  // Helper parking, between runs only.  A run bumps `generation_`; a parked
  // helper joins every generation it has not yet seen, so one still leaving
  // run k cannot miss the start of run k+1.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::uint64_t generation_ = 0;  // guarded by park_mu_
  bool stop_ = false;             // guarded by park_mu_
  int home_cpu_ = -1;             // worker 0's CPU at run start; ditto
  // In-run helper protocol: helpers steal while `in_run_` holds; run()
  // waits for all of them to count in before the root starts and for all
  // to count out before it returns.
  std::atomic<bool> in_run_{false};
  std::atomic<unsigned> helpers_in_run_{0};

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> steals_{0};
  // Pseudo frame ids for trace slices (real frames have no global ids here);
  // only advanced while a TraceScope is active.
  std::atomic<std::uint32_t> trace_frames_{0};

  // Written between runs only; read by workers during a run (ordered by
  // park_mu_, which every helper takes to join the run).
  ParallelTool* tool_ = nullptr;
  bool record_accesses_ = false;
  std::uint32_t run_id_ = 0;  // process-unique, never 0
  std::unique_ptr<ShardReplayer> replayer_;  // worker 0 only

  // Slot -> reducer for the current run (nullptr once destroyed).  Grows
  // at first contact; fold and run-end reads snapshot under the lock.
  std::mutex reg_mu_;
  std::vector<HyperobjectBase*> reducers_;
};

}  // namespace rader
