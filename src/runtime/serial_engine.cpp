#include "runtime/serial_engine.hpp"

#include <algorithm>

#include "runtime/view_arena.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rader {

void SerialEngine::run(FnView root) {
  replay_ = nullptr;
  replay_count_ = 0;
  live_from_ = 0;
  expect_ = nullptr;
  run_impl(root, /*from_start=*/true);
}

void SerialEngine::resume_from(FnView root, const ResumePlan& plan) {
  RADER_CHECK_MSG(plan.replay != nullptr, "resume plan without a trail");
  RADER_CHECK_MSG(plan.replay_count <= plan.replay->size(),
                  "resume plan replays beyond its trail");
  // live_from == 0 would mean "deliver everything", i.e. a fresh run whose
  // tool must receive on_run_begin — call run() for that.
  RADER_CHECK_MSG(plan.live_from >= 1 && plan.live_from <= plan.replay_count,
                  "resume plan live_from out of range");
  replay_ = plan.replay;
  replay_count_ = plan.replay_count;
  live_from_ = plan.live_from;
  expect_ = plan.expect;
  try {
    run_impl(root, /*from_start=*/false);
  } catch (const ResumeDiverged&) {
    // The throw unwound through live user frames, skipping all the frame /
    // epoch bookkeeping below the throw point: restore the engine to a
    // runnable state by hand.  Identity views minted by the abandoned
    // partial run are leaked — Reduce cannot run mid-unwind.
    close_replay_phase();
    running_ = false;
    stack_.clear();
    epochs_ = ViewEpochs();
    view_aware_depth_ = 0;
    replay_ = nullptr;
    replay_count_ = 0;
    live_from_ = 0;
    expect_ = nullptr;
    throw;
  }
}

void SerialEngine::run_impl(FnView root, bool from_start) {
  RADER_CHECK_MSG(!running_, "SerialEngine::run is not reentrant");
#if defined(__GNUC__)
  // Canonicalize the stack position before entering user code.  Fresh and
  // resumed runs reach this point through different call chains (run() vs
  // resume_from()), so without this the program's stack locals would sit at
  // slightly shifted addresses in otherwise identical executions — enough
  // to fail resume verification ("access addresses drifted") and drive
  // every prefix-sweep resume into fallback.  Every run on a thread pads
  // down to one thread-local anchor, the 64 KiB boundary at least 64 KiB
  // below the thread's first entry, which makes the frame user code runs in
  // independent of the entry point.  (Rounding each entry down to its own
  // 64 KiB boundary fails whenever two entry frames straddle one.)  The
  // boundary keeps the user frame's offset within a 64 KiB window, and so
  // within every shadow page, the same in every process.  A run entered
  // more than 64 KiB deeper than the thread's first stays unpadded, and a
  // resume of it falls back.  Frame addresses are 16-aligned, so the alloca
  // amount is exact.
  static thread_local std::uintptr_t stack_anchor = 0;
  const auto frame =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  if (stack_anchor == 0) {
    stack_anchor = (frame - 0x10000) & ~std::uintptr_t{0xFFFF};
  }
  void* stack_pad =
      __builtin_alloca(frame > stack_anchor ? frame - stack_anchor : 0);
  asm volatile("" : : "r"(stack_pad));  // the pad must not be elided
#endif
  running_ = true;
  Engine::Scope scope(this);

  stats_ = Stats{};
  access_hash_ = 0;
  // Rewind the identity-view arena so this run's view #j lands at the same
  // address as every other run's view #j (see runtime/view_arena.hpp); all
  // views from the previous run were folded away by its end.
  view_arena::rewind();
  next_frame_ = 0;
  next_vid_ = 0;
  view_aware_depth_ = 0;
  point_index_ = 0;
  live_ = from_start;
  reducer_ids_.clear();
  reducers_.clear();

  // A resumed run's fast-forward interval (entry to go_live) is the
  // profiler's "replay" phase; no lexical scope covers it, so open it by
  // hand here and close it in go_live / on the ResumeDiverged unwind.
  if (!from_start) {
    if (prof::Profiler* p = prof::current()) {
      replay_prof_ = p;
      replay_parent_ = p->current_node();
      replay_node_ = p->enter("replay");
      replay_t0_ = metrics::now_nanos();
    }
  }

  // A resumed run's tool is a detector fork that already holds the prefix
  // state; on_run_begin (which resets detectors) is for fresh runs only.
  if (Tool* t = live_tool()) t->on_run_begin();
  trace::set_worker(0);
  next_sim_worker_ = 1;
  trace::emit(trace::EventKind::kRunBegin, kInvalidFrame);
  epochs_.push(next_vid_++);  // base epoch (view ID 0)

  enter_frame(FrameKind::kRoot);
  root();
  leave_frame();

  RADER_CHECK(stack_.empty());
  RADER_CHECK(epochs_.size() == 1);
  // Entries left in the base epoch are reducers' leftmost views, owned by
  // the reducer objects themselves; simply drop the records.
  epochs_.pop();

  if (!live_) {
    throw ResumeDiverged{"resume plan's live_from point was never reached"};
  }
  trace::emit(trace::EventKind::kRunEnd, kInvalidFrame, stats_.steals,
              stats_.reduces);
  if (tool_ != nullptr) tool_->on_run_end();
  running_ = false;
  // A later plain run() starts from scratch.
  replay_ = nullptr;
  replay_count_ = 0;
  live_from_ = 0;
  expect_ = nullptr;
}

void SerialEngine::capture(EngineCheckpoint* out) const {
  RADER_DCHECK(out != nullptr);
  RADER_CHECK_MSG(point_index_ > 0,
                  "capture() outside a continuation-point hook");
  out->point = point_index_ - 1;
  out->next_frame = next_frame_;
  out->next_vid = next_vid_;
  out->next_sim_worker = next_sim_worker_;
  out->access_hash = access_hash_;
  out->stats = stats_;
  out->frames = stack_;
  out->epoch_vids.clear();
  out->epoch_reducers.clear();
  for (const ViewEpochs::Epoch& e : epochs_.epochs()) {
    out->epoch_vids.push_back(e.vid);
    std::vector<ReducerId> rs;
    rs.reserve(e.views.size());
    for (const auto& [h, view] : e.views) rs.push_back(h);
    std::sort(rs.begin(), rs.end());
    out->epoch_reducers.push_back(std::move(rs));
  }
}

void SerialEngine::close_replay_phase() {
  if (replay_prof_ == nullptr) return;
  replay_prof_->leave(replay_node_, replay_parent_,
                      metrics::now_nanos() - replay_t0_);
  replay_prof_ = nullptr;
  replay_node_ = nullptr;
  replay_parent_ = nullptr;
}

void SerialEngine::go_live(std::size_t point) {
  close_replay_phase();
  live_ = true;
  if (expect_ == nullptr) return;
  // Fast-forward re-execution must have regenerated the checkpointed state
  // bit-for-bit; anything else means the program is not a pure function of
  // the steal decisions (e.g. it branches on wall-clock or on view
  // addresses) and the prefix-sharing sweep would silently miscompare.
  const EngineCheckpoint& e = *expect_;
  RADER_CHECK_MSG(e.point == point, "checkpoint verifies a different point");
  if (!(e.next_frame == next_frame_ && e.next_vid == next_vid_ &&
        e.next_sim_worker == next_sim_worker_)) {
    throw ResumeDiverged{"ID allocators mismatch the checkpoint"};
  }
  if (!(e.stats.frames == stats_.frames && e.stats.spawns == stats_.spawns &&
        e.stats.syncs == stats_.syncs && e.stats.steals == stats_.steals &&
        e.stats.reduces == stats_.reduces &&
        e.stats.user_reduces == stats_.user_reduces &&
        e.stats.identities == stats_.identities &&
        e.stats.accesses == stats_.accesses &&
        e.stats.reducer_ops == stats_.reducer_ops)) {
    throw ResumeDiverged{"statistics mismatch the checkpoint"};
  }
  // Equal counts are not enough: the forked detector's shadow state is keyed
  // on raw addresses, so the re-executed prefix must touch the SAME bytes as
  // the original run.  Heap-allocated state (reducer identity views above
  // all) can legitimately land elsewhere when the allocator's free lists
  // differ between runs; resuming anyway would bolt a suffix at new
  // addresses onto prefix history at old ones — stale entries then collide
  // with recycled allocations and fabricate races.
  if (e.access_hash != access_hash_) {
    throw ResumeDiverged{"access addresses drifted between runs"};
  }
  if (e.frames.size() != stack_.size()) {
    throw ResumeDiverged{"frame stack depth mismatch"};
  }
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    const Frame& a = e.frames[i];
    const Frame& b = stack_[i];
    if (!(a.id == b.id && a.kind == b.kind && a.sync_block == b.sync_block &&
          a.ls == b.ls && a.as == b.as && a.epoch_base == b.epoch_base)) {
      throw ResumeDiverged{"frame stack mismatch"};
    }
  }
  const auto& epochs = epochs_.epochs();
  if (e.epoch_vids.size() != epochs.size()) {
    throw ResumeDiverged{"view-epoch stack depth mismatch"};
  }
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    if (e.epoch_vids[i] != epochs[i].vid) {
      throw ResumeDiverged{"view IDs mismatch the checkpoint"};
    }
    std::vector<ReducerId> rs;
    rs.reserve(epochs[i].views.size());
    for (const auto& [h, view] : epochs[i].views) rs.push_back(h);
    std::sort(rs.begin(), rs.end());
    if (rs != e.epoch_reducers[i]) {
      throw ResumeDiverged{"reducer-view map mismatch"};
    }
  }
  // The point hook may grow the caller's checkpoint storage, so the pointer
  // into it must not outlive this verification.
  expect_ = nullptr;
}

void SerialEngine::enter_frame(FrameKind kind) {
  Frame f;
  f.id = next_frame_++;
  f.kind = kind;
  FrameId parent_id = kInvalidFrame;
  if (!stack_.empty()) {
    const Frame& parent = stack_.back();
    f.as = parent.as + parent.ls;
    parent_id = parent.id;
  }
  f.epoch_base = static_cast<std::uint32_t>(epochs_.size());
  stack_.push_back(f);
  ++stats_.frames;
  trace::emit(trace::EventKind::kFrameEnter, f.id, parent_id,
              epochs_.empty() ? 0 : epochs_.top_vid(),
              static_cast<std::uint8_t>(kind));
  if (Tool* t = live_tool()) {
    t->on_frame_enter(f.id, parent_id, kind, epochs_.top_vid());
  }
}

void SerialEngine::leave_frame() {
  do_sync();  // the implicit cilk_sync before every return
  const Frame f = stack_.back();
  stack_.pop_back();
  RADER_CHECK_MSG(epochs_.size() == f.epoch_base,
                  "view epochs leaked across a frame boundary");
  const FrameId parent_id = stack_.empty() ? kInvalidFrame : stack_.back().id;
  trace::emit(trace::EventKind::kFrameReturn, f.id, parent_id, 0,
              static_cast<std::uint8_t>(f.kind));
  if (Tool* t = live_tool()) t->on_frame_return(f.id, parent_id, f.kind);
}

void SerialEngine::spawn_inline(FnView fn) {
  RADER_CHECK_MSG(running_, "spawn outside of rader::run");
  {
    Frame& parent = top();
    parent.ls += 1;
    ++stats_.spawns;
    stats_.max_spawn_depth =
        std::max(stats_.max_spawn_depth, parent.as + parent.ls);
  }
  enter_frame(FrameKind::kSpawned);
  fn();
  leave_frame();
  continuation_point();
}

void SerialEngine::continuation_point() {
  if (spec_ == nullptr && replay_ == nullptr) return;
  const std::size_t idx = point_index_++;
  if (!live_ && idx == live_from_) go_live(idx);
  if (live_ && point_hook_) point_hook_(idx);

  spec::PointCtx ctx;
  {
    const Frame& parent = top();
    ctx.frame = parent.id;
    ctx.sync_block = parent.sync_block;
    ctx.cont_index = parent.ls - 1;
    ctx.spawn_depth = parent.as + parent.ls;
    ctx.live_epochs = live_epochs(parent);
  }

  // Reduce operations the specification wants *before* the steal decision:
  // this is how a spec shapes the reduce tree (Theorem 7 construction).
  const bool replayed = idx < replay_count_;
  std::uint32_t merges = 0;
  bool stole = false;
  std::size_t rec_slot = 0;
  const bool record = trail_ != nullptr && !replayed;
  if (replayed) {
    // Replay is only sound if the recorded execution and this one agree on
    // everything the decision depended on.
    const PointDecision& d = (*replay_)[idx];
    if (!(d.ctx.frame == ctx.frame && d.ctx.sync_block == ctx.sync_block &&
          d.ctx.cont_index == ctx.cont_index &&
          d.ctx.spawn_depth == ctx.spawn_depth &&
          d.ctx.live_epochs == ctx.live_epochs)) {
      throw ResumeDiverged{"replay diverged from the recorded execution"};
    }
    merges = d.merges;
    stole = d.stole;
  } else {
    merges = spec_ == nullptr
                 ? 0
                 : std::min(spec_->merges_now(ctx), ctx.live_epochs);
    if (record) {
      // Reserve the slot NOW so trail index == point index even when a user
      // Reduce below spawns (nested points record after this one); the steal
      // verdict is patched in once known.  The push may grow a trail that
      // aliases `replay_`, but all replayed slots were read before the first
      // recorded one, so no reference is invalidated.
      rec_slot = trail_->size();
      RADER_CHECK_MSG(rec_slot == idx, "decision trail out of step");
      trail_->push_back(PointDecision{ctx, merges, false});
    }
  }
  for (std::uint32_t m = merges; m > 0; --m) top_merge();

  // Re-resolve the parent: nested Reduce frames may have grown stack_.
  ctx.live_epochs = live_epochs(top());
  if (!replayed) {
    stole = spec_ != nullptr && spec_->steal(ctx);
    if (record) (*trail_)[rec_slot].stole = stole;
  }
  if (stole) {
    const ViewId vid = next_vid_++;
    epochs_.push(vid);
    ++stats_.steals;
    if (trace::enabled()) {
      // The continuation migrates to a fresh simulated worker; the steal
      // event lands on the thief's track.
      trace::set_worker(next_sim_worker_++);
      trace::emit(trace::EventKind::kSteal, top().id, ctx.cont_index, vid);
    }
    if (Tool* t = live_tool()) t->on_steal(top().id, ctx.cont_index, vid);
  }
}

void SerialEngine::call_inline(FnView fn) {
  RADER_CHECK_MSG(running_, "call outside of rader::run");
  enter_frame(FrameKind::kCalled);
  fn();
  leave_frame();
}

void SerialEngine::sync() {
  if (!running_) return;  // serial fallback: sync is a no-op
  do_sync();
}

void SerialEngine::do_sync() {
  {
    Frame& f = top();
    stats_.max_sync_block = std::max(stats_.max_sync_block, f.ls);
    if (f.ls == 0 && live_epochs(f) == 0) return;  // no-op sync
  }
  // All views created in this sync block must be reduced before the sync
  // strand executes (view invariant 3): fold the remaining epochs.
  while (live_epochs(top()) > 0) top_merge();
  Frame& f = top();
  f.ls = 0;
  f.sync_block += 1;
  ++stats_.syncs;
  trace::emit(trace::EventKind::kSync, f.id);
  if (Tool* t = live_tool()) t->on_sync(f.id);
}

void SerialEngine::top_merge() {
  // One clock pair feeds both the kReduce phase accumulator and the
  // per-delivery latency histogram, covering the early-return path too.
  struct ReduceTiming {
    metrics::Registry* reg;
    std::uint64_t t0;
    ReduceTiming()
        : reg(metrics::current()),
          t0(reg != nullptr ? metrics::now_nanos() : 0) {}
    ~ReduceTiming() {
      if (reg == nullptr) return;
      const std::uint64_t d = metrics::now_nanos() - t0;
      reg->add_phase_nanos(metrics::Phase::kReduce, d);
      reg->record(metrics::Histogram::kReduceNanos, d);
    }
  } timing;
  const FrameId frame_id = top().id;
  ViewEpochs::Epoch dead = epochs_.pop();
  ++stats_.reduces;
  const ViewId left_vid = epochs_.top_vid();
  trace::emit(trace::EventKind::kReduceBegin, frame_id, left_vid, dead.vid);
  if (Tool* t = live_tool()) {
    t->on_reduce(frame_id, left_vid, dead.vid);
  }
  if (dead.views.empty()) {
    trace::emit(trace::EventKind::kReduceEnd, frame_id, left_vid, dead.vid);
    return;
  }

  // Deterministic reduce order across reducers: registration order.
  std::vector<std::pair<ReducerId, void*>> items(dead.views.begin(),
                                                 dead.views.end());
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [h, view] : items) {
    if (void* left = epochs_.lookup_top(h)) {
      run_user_reduce(h, left, view);
      // The dominated view dies: drop its shadow so a reusing allocation
      // cannot inherit its access history.
      clear_shadow(reinterpret_cast<std::uintptr_t>(view),
                   reducers_[h]->hyper_view_size());
      trace::emit(trace::EventKind::kViewDestroy, frame_id, dead.vid, h);
      reducers_[h]->hyper_destroy(view);
    } else {
      // No view of h in the dominating epoch: the dominated view survives
      // unchanged (transplant) — no Reduce runs, matching the runtime.
      epochs_.insert_top(h, view);
    }
  }
  trace::emit(trace::EventKind::kReduceEnd, frame_id, left_vid, dead.vid);
}

void SerialEngine::run_user_reduce(ReducerId h, void* left, void* right) {
  HyperobjectBase* r = reducers_[h];
  ++stats_.user_reduces;
  // The Reduce operation executes as its own (view-aware) frame: its strand
  // must end up logically in series with the two merged view subsequences
  // but in parallel with reduce strands of other views (Section 6).
  enter_frame(FrameKind::kReduce);
  ++view_aware_depth_;
  trace::emit(trace::EventKind::kReducerOp, top().id, h, 0,
              static_cast<std::uint8_t>(ReducerOp::kReduce),
              r->hyper_tag().label);
  if (Tool* t = live_tool()) {
    t->on_reducer_op(ReducerOp::kReduce, h, r->hyper_tag());
  }
  r->hyper_reduce(left, right);
  --view_aware_depth_;
  leave_frame();
}

void SerialEngine::access(AccessKind kind, std::uintptr_t addr,
                          std::size_t size, SrcTag tag) {
  if (tool_ == nullptr || !running_) return;
  // Counted and hashed whenever a tool is attached — even while a resumed
  // prefix is suppressing delivery — so stats and the address-stream hash
  // match the checkpointed original run.
  ++stats_.accesses;
  mix_hash(static_cast<std::uint64_t>(addr));
  mix_hash((static_cast<std::uint64_t>(size) << 2) |
           static_cast<std::uint64_t>(kind));
  if (Tool* t = live_tool()) {
    t->on_access(kind, addr, size, view_aware_depth_ > 0, epochs_.top_vid(),
                 tag);
  }
}

void SerialEngine::clear_shadow(std::uintptr_t addr, std::size_t size) {
  if (tool_ == nullptr || !running_) return;
  mix_hash(~static_cast<std::uint64_t>(addr));
  mix_hash(static_cast<std::uint64_t>(size));
  if (Tool* t = live_tool()) t->on_clear(addr, size);
}

ReducerId SerialEngine::bind(HyperobjectBase* r) {
  auto it = reducer_ids_.find(r);
  if (it != reducer_ids_.end()) return it->second;
  // First contact with a reducer created before run(): its leftmost view
  // conceptually exists in the outermost (base) epoch.
  const auto h = static_cast<ReducerId>(reducers_.size());
  reducers_.push_back(r);
  reducer_ids_.emplace(r, h);
  RADER_CHECK(!epochs_.empty());
  if (epochs_.size() == 1) {
    epochs_.insert_top(h, r->hyper_leftmost());
  } else {
    // Stash the leftmost view in the base epoch without disturbing newer
    // epochs: updates in the current epoch still get a fresh identity view.
    epochs_.insert_base(h, r->hyper_leftmost());
  }
  return h;
}

void SerialEngine::register_reducer(HyperobjectBase* r, void* leftmost_view,
                                    SrcTag tag) {
  if (!running_) return;
  RADER_CHECK_MSG(reducer_ids_.find(r) == reducer_ids_.end(),
                  "reducer registered twice");
  const auto h = static_cast<ReducerId>(reducers_.size());
  reducers_.push_back(r);
  reducer_ids_.emplace(r, h);
  epochs_.insert_top(h, leftmost_view);
  ++stats_.reducer_ops;
  trace::emit(trace::EventKind::kViewCreate, top().id, epochs_.top_vid(), h,
              /*aux=*/0, tag.label);
  if (Tool* t = live_tool()) t->on_reducer_op(ReducerOp::kCreate, h, tag);
}

void SerialEngine::unregister_reducer(HyperobjectBase* r, SrcTag tag) {
  if (!running_) return;
  auto it = reducer_ids_.find(r);
  if (it == reducer_ids_.end()) return;
  const ReducerId h = it->second;
  ++stats_.reducer_ops;
  trace::emit(trace::EventKind::kViewDestroy,
              stack_.empty() ? kInvalidFrame : top().id, 0, h, /*aux=*/0,
              tag.label);
  if (Tool* t = live_tool()) t->on_reducer_op(ReducerOp::kDestroy, h, tag);
  // Fold any outstanding views into the leftmost one so the reducer's final
  // value is the serial-order reduction.  (Destroying a reducer while views
  // are outstanding is itself a view-read race — the kDestroy event above
  // lets Peer-Set flag it — but the engine must not leak or misfold.)
  std::vector<void*> views = epochs_.extract_all(h);
  if (!views.empty()) {
    void* left = views.front();
    for (std::size_t i = 1; i < views.size(); ++i) {
      ++view_aware_depth_;
      r->hyper_reduce(left, views[i]);
      --view_aware_depth_;
      clear_shadow(reinterpret_cast<std::uintptr_t>(views[i]),
                   r->hyper_view_size());
      r->hyper_destroy(views[i]);
    }
    RADER_CHECK_MSG(left == r->hyper_leftmost(),
                    "leftmost view lost during reducer teardown");
  }
  // The leftmost view's storage dies with the reducer: drop its shadow so a
  // later object reusing the address (the next loop iteration's reducer on
  // the same stack slot, say) does not inherit its access history.
  clear_shadow(reinterpret_cast<std::uintptr_t>(r->hyper_leftmost()),
               r->hyper_view_size());
  reducer_ids_.erase(it);
  reducers_[h] = nullptr;
}

void* SerialEngine::current_view(HyperobjectBase* r, SrcTag tag) {
  RADER_CHECK(running_);
  const ReducerId h = bind(r);
  void* v = epochs_.lookup_top(h);
  if (v == nullptr) {
    // Lazy identity-view creation: the first Update access after a steal
    // creates a new identity view (view invariant 2).  CreateIdentity runs
    // user code and is a view-aware strand.
    ++view_aware_depth_;
    ++stats_.reducer_ops;
    ++stats_.identities;
    trace::emit(trace::EventKind::kViewCreate, top().id, epochs_.top_vid(), h,
                /*aux=*/1, tag.label);
    if (Tool* t = live_tool()) {
      t->on_reducer_op(ReducerOp::kCreateIdentity, h, tag);
    }
    v = r->hyper_create_identity();
    --view_aware_depth_;
    epochs_.insert_top(h, v);
  }
  return v;
}

void SerialEngine::reducer_read(HyperobjectBase* r, ReducerOp op, SrcTag tag) {
  if (!running_) return;
  const ReducerId h = bind(r);
  ++stats_.reducer_ops;
  trace::emit(trace::EventKind::kReducerOp, top().id, h, 0,
              static_cast<std::uint8_t>(op), tag.label);
  if (Tool* t = live_tool()) t->on_reducer_op(op, h, tag);
}

void SerialEngine::begin_update(HyperobjectBase* r, SrcTag tag) {
  RADER_CHECK(running_);
  const ReducerId h = bind(r);
  ++view_aware_depth_;
  ++stats_.reducer_ops;
  trace::emit(trace::EventKind::kReducerOp, top().id, h, 0,
              static_cast<std::uint8_t>(ReducerOp::kUpdate), tag.label);
  if (Tool* t = live_tool()) t->on_reducer_op(ReducerOp::kUpdate, h, tag);
}

void SerialEngine::end_update(HyperobjectBase*) {
  RADER_DCHECK(view_aware_depth_ > 0);
  --view_aware_depth_;
}

}  // namespace rader
