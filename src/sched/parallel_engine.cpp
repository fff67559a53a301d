#include "sched/parallel_engine.hpp"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

#include "support/hash.hpp"
#include "support/trace.hpp"
#include "tool/tool.hpp"

namespace rader {

namespace {

// The CPU the calling thread runs on, or -1 where that is unknown.
int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

// Move helper `index` onto the index-th allowed CPU after `home_cpu` (worker
// 0's), then hand the scheduler the whole mask back.  Woken from worker 0,
// helpers otherwise tend to land on worker 0's CPU or on one shared CPU —
// the guest scheduler passes over idle vCPUs that the host has descheduled
// — and a short run then ends before any of them is scheduled.
void place_helper(unsigned index, int home_cpu) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (home_cpu < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  const int n = CPU_COUNT(&allowed);
  if (n < 2) return;
  int home = 0;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && static_cast<int>(cpus.size()) < n; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (c == home_cpu) home = static_cast<int>(cpus.size());
    cpus.push_back(c);
  }
  const int target = cpus[(home + static_cast<int>(index)) % n];
  if (sched_getcpu() == target) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(target, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
#else
  (void)index, (void)home_cpu;
#endif
}

// Failed steal rounds a helper spins through before it starts yielding.
constexpr unsigned kSpinRounds = 4096;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Run ids stamp reducers (HyperobjectBase::hyper_stamp), so they are unique
// across every engine in the process; 0 is reserved for "never stamped".
std::atomic<std::uint32_t> g_next_run_id{1};

std::uint32_t next_run_id() {
  std::uint32_t id;
  do {
    id = g_next_run_id.fetch_add(1, std::memory_order_relaxed);
  } while (id == 0);
  return id;
}

}  // namespace

thread_local ParallelEngine::WorkerState* ParallelEngine::tl_worker_ = nullptr;

ParallelEngine::ParallelEngine(unsigned workers) {
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < workers; ++i) {
    auto w = std::make_unique<WorkerState>();
    w->index = i;
    w->rng.reseed(0x9e3779b97f4a7c15ull + i);
    workers_.push_back(std::move(w));
  }
  // Worker 0 is the calling thread; helpers are 1..n-1.
  for (unsigned i = 1; i < workers; ++i) {
    threads_.emplace_back([this, i] { helper_loop(i); });
  }
}

ParallelEngine::~ParallelEngine() {
  // run() always returns with every helper parked, so they all see this.
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    stop_ = true;
  }
  park_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ParallelEngine::set_tool(ParallelTool* tool) {
  RADER_CHECK_MSG(!running_.load(std::memory_order_acquire),
                  "ParallelEngine::set_tool during a run");
  tool_ = tool;
}

bool ParallelEngine::record(WorkerState& w, const ShardEvent& e) {
  if (tool_ == nullptr || w.suppress > 0 || w.frames.empty()) return false;
  switch (e.kind) {
    case ShardEvent::Kind::kFrameEnter:
    case ShardEvent::Kind::kFrameReturn:
    case ShardEvent::Kind::kSync:
      // A parallel-control event ends the worker's current strand.
      ++w.strand_epoch;
      break;
    case ShardEvent::Kind::kClear:
      // Freed addresses may be reused by a later allocation: retire the
      // whole strand's dedup state (clears are rare; coarse is fine).
      ++w.strand_epoch;
      break;
    default:
      break;
  }
  w.frames.back().cur_ev->push_back(e);
  metrics::bump(metrics::Counter::kShardEvents);
  return true;
}

void ParallelEngine::helper_loop(unsigned index) {
  WorkerState& w = *workers_[index];
  tl_worker_ = &w;
  Engine::Scope scope(this);
  std::uint64_t seen = 0;
  for (;;) {
    obs::Context parent;
    int home_cpu = -1;
    {
      // Parked between runs.  The generation check is made under the lock
      // that run() bumps it under, so no start is ever missed; the caller's
      // context travels with it.
      std::unique_lock<std::mutex> lock(park_mu_);
      park_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) break;
      seen = generation_;
      home_cpu = home_cpu_;
      parent = run_ctx_;
    }
    place_helper(index, home_cpu);
    // The worker's own sinks for this run; end_run() folds them into the
    // caller's after the join.
    obs::Scope attach(
        obs::attach(parent, &w.metrics, nullptr, "pe-worker-", index));
    helpers_in_run_.fetch_add(1, std::memory_order_release);
    // In a run: steal until the root finishes.  Never sleep here — a wake
    // costs a trip through the OS scheduler on every spawn-heavy phase.
    // Failed rounds spin at first and yield only once work has been scarce
    // for a while, so a helper that has just joined keeps its CPU for the
    // root's first spawns even on a busy host.
    unsigned idle = 0;
    while (in_run_.load(std::memory_order_acquire)) {
      if (ChildRecord* rec = try_get_work(w)) {
        execute_child(w, rec);
        idle = 0;
      } else if (++idle < kSpinRounds) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    helpers_in_run_.fetch_sub(1, std::memory_order_release);
  }
  tl_worker_ = nullptr;
}

ParallelEngine::ChildRecord* ParallelEngine::try_get_work(WorkerState& w) {
  const std::size_t n = workers_.size();
  // A few random-victim rounds, as in the Cilk scheduler.
  for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
    const auto victim = static_cast<std::size_t>(w.rng.below(n));
    if (victim == w.index) continue;
    if (workers_[victim]->deque.empty()) continue;  // skip drained victims
    if (void* task = workers_[victim]->deque.steal()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      metrics::bump(metrics::Counter::kEngineSteals);
      // The thief counts the entry out on its own sink; the victim counted
      // it in.  Per-thread values go negative/positive, the fold sums to 0.
      metrics::gauge_add(metrics::Gauge::kDequeSize, -1);
      trace::emit(trace::EventKind::kSteal, kInvalidFrame, victim, 0);
      return static_cast<ChildRecord*>(task);
    }
  }
  return nullptr;
}

void ParallelEngine::start_helpers(const obs::Context& parent) {
  const auto helpers = static_cast<unsigned>(threads_.size());
  if (helpers == 0) return;
  in_run_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    home_cpu_ = current_cpu();
    run_ctx_ = parent;
    ++generation_;
  }
  park_cv_.notify_all();
  while (helpers_in_run_.load(std::memory_order_acquire) < helpers) {
    std::this_thread::yield();
  }
}

void ParallelEngine::run(FnView root) {
  RADER_CHECK_MSG(!running_.exchange(true), "ParallelEngine::run reentered");
  steals_.store(0, std::memory_order_relaxed);
  reducers_.clear();  // helpers are parked: nothing else can touch it
  run_id_ = next_run_id();
  record_accesses_ = tool_ != nullptr && tool_->wants_accesses();
  if (record_accesses_) {
    for (auto& wk : workers_) {
      if (!wk->dedup) {
        wk->dedup = std::make_unique<AccessDedup[]>(kDedupEntries);
      }
    }
  }

  WorkerState& w = *workers_[0];
  tl_worker_ = &w;
  // Worker 0 is the calling thread: it keeps the caller's profiler and
  // trace buffer, and counts into its own registry like every helper.
  const obs::Context parent = obs::current();
  obs::Scope attach(obs::attach(parent, &w.metrics, parent.profiler,
                                /*trace_name=*/nullptr, 0));
  trace::emit(trace::EventKind::kRunBegin, kInvalidFrame);
  start_helpers(parent);
  // Declared before the scope below so it runs after it closes, on the
  // normal path and when `root` throws alike.
  struct EndRun {
    ParallelEngine* engine;
    const obs::Context& parent;
    ~EndRun() { engine->end_run(parent); }
  } end_run_guard{this, parent};
  {
    Engine::Scope scope(this);

    if (tool_ != nullptr) {
      replayer_ = std::make_unique<ShardReplayer>(tool_);
      replayer_->begin();
    }

    FrameCtx frame;
    frame.seg0 = new Hypermap();
    frame.owns_seg0 = true;
    frame.cur = frame.seg0;
    if (tool_ != nullptr) {
      // The root frame's enter/return are minted by the replayer itself
      // (begin()/end()), so its shard holds body events only.
      frame.ev0 = new EventShard();
      frame.owns_ev0 = true;
      frame.cur_ev = frame.ev0;
    }
    w.frames.push_back(std::move(frame));

    const FrameId root_tfid =
        trace::enabled()
            ? trace_frames_.fetch_add(1, std::memory_order_relaxed)
            : kInvalidFrame;
    trace::emit(trace::EventKind::kFrameEnter, root_tfid, kInvalidFrame, 0,
                static_cast<std::uint8_t>(FrameKind::kRoot));
    root();
    do_sync(w);  // implicit sync of the root frame (drains the shard too)
    trace::emit(trace::EventKind::kFrameReturn, root_tfid, kInvalidFrame, 0,
                static_cast<std::uint8_t>(FrameKind::kRoot));

    FrameCtx done = std::move(w.frames.back());
    w.frames.pop_back();
    RADER_CHECK(w.frames.empty());

    // Fold any views left in the root segment into their reducers' leftmost
    // views (reducers bound lazily never had their leftmost in a segment).
    // A serial no-steal run has no counterpart for these reduces (updates
    // land directly in the leftmost view there), so the user code runs
    // suppressed.
    ++w.suppress;
    for (auto& [h, sv] : *done.seg0) {
      HyperobjectBase* r;
      {
        std::lock_guard<std::mutex> lock(reg_mu_);
        r = reducers_[h];
      }
      if (r == nullptr) continue;  // destroyed during the run
      if (sv.view != r->hyper_leftmost()) {
        r->hyper_reduce(r->hyper_leftmost(), sv.view);
        r->hyper_destroy(sv.view);
      }
    }
    --w.suppress;
    delete done.seg0;

    if (tool_ != nullptr) {
      if (!done.ev0->empty()) {
        // Events recorded after the last root-level sync.
        metrics::bump(metrics::Counter::kShardDrains);
        replayer_->feed(*done.ev0);
      }
      delete done.ev0;
      replayer_->end();
    }
  }
}

void ParallelEngine::end_run(const obs::Context& parent) {
  in_run_.store(false, std::memory_order_release);
  while (helpers_in_run_.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }

  // A normal exit has popped every frame; unwinding out of `root` leaves
  // the root frame (and any called frames) behind.
  WorkerState& w = *workers_[0];
  for (FrameCtx& f : w.frames) {
    if (f.owns_seg0) delete f.seg0;
    if (f.owns_ev0) delete f.ev0;
  }
  w.frames.clear();
  w.suppress = 0;
  w.view_aware_depth = 0;
  replayer_.reset();

  // Fold every worker's accounting into the caller's sink — the same
  // attach/fold shape sweep workers use.  Every helper has counted itself
  // out above (release/acquire), so the registries are quiescent here.
  for (auto& wk : workers_) {
    obs::fold({.registry = &wk->metrics}, parent);
    wk->metrics.reset();
  }

  record_accesses_ = false;
  trace::emit(trace::EventKind::kRunEnd, kInvalidFrame,
              steals_.load(std::memory_order_relaxed), 0);
  tl_worker_ = nullptr;
  running_.store(false, std::memory_order_release);
}

void ParallelEngine::spawn_inline(FnView) {
  // Engine contract: inline_tasks() is false, so rader::spawn always hands a
  // parallel engine an owning Task.  A non-owning FnView must never reach a
  // deque (the referent dies with the spawning full-expression).
  RADER_UNREACHABLE("spawn_inline on a parallel engine");
}

void ParallelEngine::spawn_task(Task task) {
  WorkerState& w = self();
  RADER_CHECK_MSG(!w.frames.empty(), "spawn outside of ParallelEngine::run");
  FrameCtx& f = w.frames.back();
  JoinItem item;
  item.child = std::make_unique<ChildRecord>(std::move(task));
  item.segment = std::make_unique<Hypermap>();
  f.cur = item.segment.get();  // continuation runs in a fresh segment
  if (tool_ != nullptr) {
    item.segment_ev = std::make_unique<EventShard>();
    f.cur_ev = item.segment_ev.get();
    ++w.strand_epoch;  // the continuation is a new strand
  }
  ChildRecord* rec = item.child.get();
  f.items.push_back(std::move(item));
  w.deque.push(rec);
  metrics::gauge_add(metrics::Gauge::kDequeSize, 1);
}

void ParallelEngine::call_inline(FnView fn) {
  WorkerState& w = self();
  RADER_CHECK_MSG(!w.frames.empty(), "call outside of ParallelEngine::run");
  FrameCtx frame;
  frame.seg0 = w.frames.back().cur;  // series: share the parent's segment
  frame.owns_seg0 = false;
  frame.cur = frame.seg0;
  if (tool_ != nullptr) {
    frame.ev0 = w.frames.back().cur_ev;  // series: share the shard too
    frame.owns_ev0 = false;
    frame.cur_ev = frame.ev0;
  }
  w.frames.push_back(std::move(frame));
  record(w, ShardEvent{ShardEvent::Kind::kFrameEnter,
                       static_cast<std::uint8_t>(FrameKind::kCalled)});
  const FrameId tfid =
      trace::enabled()
          ? trace_frames_.fetch_add(1, std::memory_order_relaxed)
          : kInvalidFrame;
  trace::emit(trace::EventKind::kFrameEnter, tfid, kInvalidFrame, 0,
              static_cast<std::uint8_t>(FrameKind::kCalled));
  fn();
  do_sync(w);
  record(w, ShardEvent{ShardEvent::Kind::kFrameReturn,
                       static_cast<std::uint8_t>(FrameKind::kCalled)});
  trace::emit(trace::EventKind::kFrameReturn, tfid, kInvalidFrame, 0,
              static_cast<std::uint8_t>(FrameKind::kCalled));
  w.frames.pop_back();
}

void ParallelEngine::execute_child(WorkerState& w, ChildRecord* rec) {
  FrameCtx frame;
  frame.seg0 = new Hypermap();
  frame.owns_seg0 = true;
  frame.cur = frame.seg0;
  if (tool_ != nullptr) {
    // Record straight into the join record: the shard is published to the
    // joining worker with the done flag, like the view map.
    frame.ev0 = &rec->result_ev;
    frame.owns_ev0 = false;
    frame.cur_ev = frame.ev0;
  }
  w.frames.push_back(std::move(frame));
  metrics::bump(metrics::Counter::kEngineTasks);
  record(w, ShardEvent{ShardEvent::Kind::kFrameEnter,
                       static_cast<std::uint8_t>(FrameKind::kSpawned)});

  const FrameId tfid =
      trace::enabled()
          ? trace_frames_.fetch_add(1, std::memory_order_relaxed)
          : kInvalidFrame;
  trace::emit(trace::EventKind::kFrameEnter, tfid, kInvalidFrame, 0,
              static_cast<std::uint8_t>(FrameKind::kSpawned));
  rec->task();
  do_sync(w);  // implicit sync before "returning"
  record(w, ShardEvent{ShardEvent::Kind::kFrameReturn,
                       static_cast<std::uint8_t>(FrameKind::kSpawned)});
  trace::emit(trace::EventKind::kFrameReturn, tfid, kInvalidFrame, 0,
              static_cast<std::uint8_t>(FrameKind::kSpawned));

  FrameCtx done = std::move(w.frames.back());
  w.frames.pop_back();
  rec->result = std::move(*done.seg0);
  delete done.seg0;
  rec->done.store(true, std::memory_order_release);
}

void ParallelEngine::sync() {
  WorkerState& w = self();
  if (w.frames.empty()) return;
  do_sync(w);
}

void ParallelEngine::do_sync(WorkerState& w) {
  // Join: every spawned child of this frame must complete.  While waiting,
  // keep the machine busy — pop our own deque (our children / descendants)
  // or steal elsewhere.  Because the view fold below is positional, helping
  // with unrelated work never perturbs reducer semantics.
  {
    const std::size_t frame_idx = w.frames.size() - 1;
    for (std::size_t i = 0;; ++i) {
      FrameCtx& f = w.frames[frame_idx];
      if (i >= f.items.size()) break;
      ChildRecord* child = f.items[i].child.get();
      while (!child->done.load(std::memory_order_acquire)) {
        if (void* task = w.deque.pop()) {
          metrics::gauge_add(metrics::Gauge::kDequeSize, -1);
          execute_child(w, static_cast<ChildRecord*>(task));
        } else if (ChildRecord* stolen = try_get_work(w)) {
          execute_child(w, stolen);
        } else {
          std::this_thread::yield();
        }
      }
    }
  }
  // Fold in serial order: seg0 ⊗ child₁ ⊗ seg₁ ⊗ child₂ ⊗ seg₂ ⊗ …
  // The event shards splice in the same positional order, which is exactly
  // the depth-first order the serial engine would have visited: everything
  // a child did sits at its spawn point, before the continuation.
  FrameCtx& f = w.frames.back();
  const bool had_items = !f.items.empty();
  ++w.suppress;  // user Reduce code below has no serial-no-steal counterpart
  for (auto& item : f.items) {
    fold_map(*f.seg0, item.child->result);
    fold_map(*f.seg0, *item.segment);
    if (tool_ != nullptr) {
      f.ev0->splice(item.child->result_ev);
      f.ev0->splice(*item.segment_ev);
    }
  }
  --w.suppress;
  f.items.clear();
  f.cur = f.seg0;
  if (tool_ != nullptr) {
    f.cur_ev = f.ev0;
    // The serial engine's sync is a no-op (no event) when nothing was
    // spawned since the last sync; mirror that exactly.
    if (had_items) {
      record(w, ShardEvent{ShardEvent::Kind::kSync});
    }
    // Root-level syncs on worker 0 bound shard memory and detector latency:
    // everything up to here is final depth-first prefix, so replay it now.
    if (w.index == 0 && w.frames.size() == 1 && !f.ev0->empty()) {
      metrics::bump(metrics::Counter::kShardDrains);
      replayer_->feed(*f.ev0);
      f.ev0->clear();
    }
  }
  trace::emit(trace::EventKind::kSync, kInvalidFrame);
}

void ParallelEngine::fold_map(Hypermap& acc, Hypermap& right) {
  for (auto& [h, sv] : right) {
    auto it = acc.find(h);
    if (it == acc.end()) {
      acc.emplace(h, sv);  // transplant (preserves leftmost pointers)
      continue;
    }
    // Both segments' shards are spliced into the accumulator's, so an
    // announcement on either side precedes everything recorded after.
    it->second.announced = it->second.announced || sv.announced;
    HyperobjectBase* r;
    {
      // register_slot may grow reducers_ concurrently; snapshot the
      // pointer under the registry lock (but run user Reduce code outside).
      std::lock_guard<std::mutex> lock(reg_mu_);
      r = reducers_[h];
    }
    if (r == nullptr) {
      // The reducer was destroyed while sibling segments still held views —
      // the program destroyed it before the sync that joins its updaters.
      // That is a view-read race (the kDestroy reducer-read against the
      // updates), which an attached detector reports; without the monoid we
      // can only leak the orphan view rather than abort the whole run.
      continue;
    }
    trace::emit(trace::EventKind::kReduceBegin, kInvalidFrame, h, 0);
    r->hyper_reduce(it->second.view, sv.view);
    r->hyper_destroy(sv.view);
    trace::emit(trace::EventKind::kReduceEnd, kInvalidFrame, h, 0);
  }
  right.clear();
}

ReducerId ParallelEngine::slot_of(HyperobjectBase* r) {
  const std::uint64_t stamp = r->hyper_stamp.load(std::memory_order_acquire);
  if ((stamp >> 32) == run_id_) return static_cast<ReducerId>(stamp);
  return register_slot(r);
}

ReducerId ParallelEngine::register_slot(HyperobjectBase* r) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  // Another worker may have made first contact since the caller looked.
  const std::uint64_t stamp = r->hyper_stamp.load(std::memory_order_relaxed);
  if ((stamp >> 32) == run_id_) return static_cast<ReducerId>(stamp);
  const auto h = static_cast<ReducerId>(reducers_.size());
  reducers_.push_back(r);
  r->hyper_stamp.store((std::uint64_t{run_id_} << 32) | h,
                       std::memory_order_release);
  return h;
}

void ParallelEngine::register_reducer(HyperobjectBase* r, void* leftmost_view,
                                      SrcTag tag) {
  if (!running_.load(std::memory_order_acquire) || tl_worker_ == nullptr) {
    return;  // created outside the computation: bound lazily on first use
  }
  const ReducerId h = slot_of(r);
  trace::emit(trace::EventKind::kViewCreate, kInvalidFrame, 0, h, /*aux=*/0);
  ShardEvent e{ShardEvent::Kind::kReducerOp,
               static_cast<std::uint8_t>(ReducerOp::kCreate)};
  e.slot = h;
  e.label = tag.label;
  // The leftmost view lives in the creating strand's current segment and
  // folds leftward from there, exactly like the serial engine's base view.
  (*self().frames.back().cur)[h] = SegView{leftmost_view, record(self(), e)};
}

void ParallelEngine::unregister_reducer(HyperobjectBase* r, SrcTag tag) {
  if (!running_.load(std::memory_order_acquire) || tl_worker_ == nullptr) {
    return;
  }
  const std::uint64_t stamp = r->hyper_stamp.load(std::memory_order_acquire);
  if ((stamp >> 32) != run_id_) return;  // never contacted in this run
  const auto h = static_cast<ReducerId>(stamp);
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    reducers_[h] = nullptr;
    r->hyper_stamp.store(0, std::memory_order_relaxed);
  }
  // Contract (as in Cilk): destroy a reducer only after the sync that joins
  // all its updaters; at that point its only view is in the current
  // segment.
  if (!self().frames.empty()) self().frames.back().cur->erase(h);
  ShardEvent e{ShardEvent::Kind::kReducerOp,
               static_cast<std::uint8_t>(ReducerOp::kDestroy)};
  e.slot = h;
  e.label = tag.label;
  record(self(), e);
  if (record_accesses_) {
    // The leftmost view's storage dies with the reducer (the serial
    // engine's teardown clear).
    ShardEvent c{ShardEvent::Kind::kClear};
    c.addr = reinterpret_cast<std::uintptr_t>(r->hyper_leftmost());
    c.size = static_cast<std::uint32_t>(r->hyper_view_size());
    record(self(), c);
  }
}

void* ParallelEngine::current_view(HyperobjectBase* r, SrcTag) {
  const ReducerId h = slot_of(r);
  WorkerState& w = self();
  // The serial engine binds reducers silently at view lookups; the marker
  // pins the slot's first-contact position in the spliced stream so the
  // replayer renumbers reducers in serial bind order (tool/shard.hpp).  A
  // segment announces each reducer once: after that the marker is
  // redundant, since an earlier event of the same shard names the slot.
  ShardEvent bind{ShardEvent::Kind::kBind};
  bind.slot = h;
  Hypermap& m = *w.frames.back().cur;
  auto it = m.find(h);
  if (it != m.end()) {
    if (!it->second.announced) it->second.announced = record(w, bind);
    return it->second.view;
  }
  const bool announced = record(w, bind);
  // Identity creation runs user code, but a serial no-steal execution never
  // creates identities (every lookup hits the leftmost view): suppress.
  ++w.suppress;
  void* view = r->hyper_create_identity();
  --w.suppress;
  m.emplace(h, SegView{view, announced});
  trace::emit(trace::EventKind::kViewCreate, kInvalidFrame, 0, h, /*aux=*/1);
  return view;
}

void ParallelEngine::reducer_read(HyperobjectBase* r, ReducerOp op,
                                  SrcTag tag) {
  if (tool_ == nullptr || !running_.load(std::memory_order_acquire) ||
      tl_worker_ == nullptr) {
    return;
  }
  const ReducerId h = slot_of(r);
  ShardEvent e{ShardEvent::Kind::kReducerOp, static_cast<std::uint8_t>(op)};
  e.slot = h;
  e.label = tag.label;
  record(self(), e);
}

void ParallelEngine::begin_update(HyperobjectBase* r, SrcTag tag) {
  if (!running_.load(std::memory_order_acquire) || tl_worker_ == nullptr) {
    return;
  }
  WorkerState& w = self();
  ++w.view_aware_depth;
  if (tool_ == nullptr) return;
  const ReducerId h = slot_of(r);
  ShardEvent e{ShardEvent::Kind::kReducerOp,
               static_cast<std::uint8_t>(ReducerOp::kUpdate)};
  e.slot = h;
  e.label = tag.label;
  record(w, e);
}

void ParallelEngine::end_update(HyperobjectBase*) {
  if (!running_.load(std::memory_order_acquire) || tl_worker_ == nullptr) {
    return;
  }
  WorkerState& w = self();
  if (w.view_aware_depth > 0) --w.view_aware_depth;
}

void ParallelEngine::access(AccessKind kind, std::uintptr_t addr,
                            std::size_t size, SrcTag tag) {
  if (!record_accesses_ || tl_worker_ == nullptr) return;
  WorkerState& w = *tl_worker_;
  if (w.suppress > 0 || w.frames.empty()) return;
  // Per-strand dedup through the worker's private cache: the tag keys
  // (strand epoch, access kind) on the access's first byte, so a hot loop
  // records one event per strand instead of millions.  Best-effort by
  // contract (ParallelTool::wants_accesses): at least one event per
  // (strand, location, kind) survives; multiplicity does not.
  const std::uint64_t strand_tag = (std::uint64_t{w.strand_epoch} << 1) |
                                   (kind == AccessKind::kWrite ? 1u : 0u);
  AccessDedup& seen = w.dedup[mix64(addr) & (kDedupEntries - 1)];
  if (seen.addr == addr && seen.tag == strand_tag) return;
  seen = {addr, strand_tag};
  ShardEvent e{ShardEvent::Kind::kAccess, static_cast<std::uint8_t>(kind)};
  e.view_aware = w.view_aware_depth > 0;
  e.addr = addr;
  e.size = static_cast<std::uint32_t>(size);
  e.label = tag.label;
  record(w, e);
}

void ParallelEngine::clear_shadow(std::uintptr_t addr, std::size_t size) {
  if (!record_accesses_ || tl_worker_ == nullptr) return;
  WorkerState& w = *tl_worker_;
  if (w.suppress > 0 || w.frames.empty()) return;
  ShardEvent e{ShardEvent::Kind::kClear};
  e.addr = addr;
  e.size = static_cast<std::uint32_t>(size);
  record(w, e);
}

}  // namespace rader
