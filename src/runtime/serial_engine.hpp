// SerialEngine: serial execution of a Cilk-style computation with simulated
// steals and reduce operations.
//
// "Like the Peer-Set and SP-bags algorithms, the SP+ algorithm is a serial
// algorithm that evaluates the strands of a Cilk computation in their serial
// order" — and Rader "triggers operations in the runtime system to simulate
// steals at program points specified in a given steal specification ...
// When the worker resumes the parent later, it acts as if it stole the
// parent, and appropriately creates a new reducer view for the continuation."
//
// This engine is that simulation:
//   * spawned and called children execute depth-first, in serial order;
//   * at each continuation point the steal specification is consulted; a
//     simulated steal mints a fresh view ID and pushes a view epoch;
//   * reduce operations execute at the points the specification requests
//     (plus, lazily, at the sync), as instrumented user code in frames of
//     kind kReduce — so determinacy races *inside* Reduce are observable;
//   * every frame implicitly syncs before returning (Cilk semantics), which
//     restores the view-epoch stack to its depth at frame entry.
//
// Every event is streamed to the attached Tool (detector / recorder / empty
// tool); with a null Tool the run is the "no instrumentation" baseline.
//
// Checkpoint / resume (the prefix-sharing sweep substrate, core/sweep.hpp):
// native C++ stacks cannot be snapshotted, so a "checkpoint" is a *recipe*
// for fast-forwarding, not a frozen continuation.  Specifications are pure
// functions of PointCtx, so a run is fully determined by the per-point
// decisions it took; the engine can therefore record a DecisionTrail during
// a run and later `resume_from()` a checkpoint by re-executing the program
// natively while (a) REPLAYING the recorded decisions instead of consulting
// the specification for the shared prefix and (b) SUPPRESSING all tool
// callbacks until the checkpointed point, where a forked detector
// (Tool::fork) takes over.  Engine-side state (frame IDs, view IDs, view
// epochs, reducer bindings) regenerates deterministically; the
// EngineCheckpoint snapshot exists to *verify* that regeneration at the
// hand-over point.  Detector work dominates instrumented runs, so skipping
// it across the prefix is where the sweep speedup comes from.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/hyperobject.hpp"
#include "runtime/view_epochs.hpp"
#include "spec/steal_spec.hpp"
#include "support/profile.hpp"
#include "tool/tool.hpp"

namespace rader {

/// One recorded continuation-point decision: the context the specification
/// saw (BEFORE the requested merges were applied), the merge count actually
/// performed (already clamped to ctx.live_epochs), and the steal verdict.
/// Trail index == continuation-point index, even when a user Reduce spawns
/// (nested points record after their enclosing point's slot is reserved).
struct PointDecision {
  spec::PointCtx ctx;
  std::uint32_t merges = 0;
  bool stole = false;
};

/// The decisions of one execution, in continuation-point order.  Two steal
/// specifications produce identical executions up to (excluding) the first
/// trail index where their decisions differ — computable OFFLINE, with no
/// program execution, because specs are pure functions of the recorded
/// contexts (core/sweep.cpp's divergence_depth).
using DecisionTrail = std::vector<PointDecision>;

/// Thrown by resume_from() when fast-forward re-execution fails to
/// regenerate the checkpointed state — the program is not a pure,
/// address-stable function of the steal decisions (it mutates captured
/// state across runs, or its heap layout drifts between executions, e.g.
/// reducer views landing at different addresses).  The engine is left
/// re-runnable; callers recover by running the specification fresh
/// (core/sweep.cpp falls back and counts kSweepResumeFallbacks).
struct ResumeDiverged {
  const char* reason;
};

struct EngineCheckpoint;  // below (needs SerialEngine's nested types)

class SerialEngine final : public Engine {
 public:
  /// Execution statistics, also used to size specification families
  /// (max_sync_block is the paper's K; max_spawn_depth bounds the Theorem 6
  /// depth classes).
  struct Stats {
    std::uint64_t frames = 0;
    std::uint64_t spawns = 0;
    std::uint64_t syncs = 0;
    std::uint64_t steals = 0;
    std::uint64_t reduces = 0;       // epoch merges (on_reduce events)
    std::uint64_t user_reduces = 0;  // user Reduce invocations (kReduce frames)
    std::uint64_t identities = 0;    // lazy Create-Identity view creations
    std::uint64_t accesses = 0;
    std::uint64_t reducer_ops = 0;
    std::uint32_t max_sync_block = 0;
    std::uint64_t max_spawn_depth = 0;
  };

  /// Frame bookkeeping (public so EngineCheckpoint can snapshot the stack).
  struct Frame {
    FrameId id = kInvalidFrame;
    FrameKind kind = FrameKind::kRoot;
    std::uint32_t sync_block = 0;  // syncs executed so far in this frame
    std::uint32_t ls = 0;          // local spawns since last sync
    std::uint64_t as = 0;          // unsynced ancestor spawns at entry
    std::uint32_t epoch_base = 0;  // view-epoch stack depth at entry
  };

  /// Fast-forward resume plan: re-execute the program, replaying
  /// `replay[0, replay_count)` instead of consulting the specification, and
  /// deliver tool callbacks only from continuation point `live_from` on
  /// (the point the detector fork was checkpointed at).  Requires
  /// 1 <= live_from <= replay_count; the attached tool must be a fork
  /// captured at point `live_from` of an execution whose decisions match
  /// `replay` (Tool::fork).  `expect`, when given, is verified against the
  /// regenerated engine state the moment point `live_from` begins.
  struct ResumePlan {
    const DecisionTrail* replay = nullptr;
    std::size_t replay_count = 0;
    std::size_t live_from = 0;
    const EngineCheckpoint* expect = nullptr;
  };

  /// `tool` may be nullptr (uninstrumented baseline); `steal_spec` may be
  /// nullptr (equivalent to spec::NoSteal).
  explicit SerialEngine(Tool* tool = nullptr,
                        const spec::StealSpec* steal_spec = nullptr)
      : tool_(tool), spec_(steal_spec) {}

  /// Execute `root` as the root frame of a computation.
  void run(FnView root);

  /// Execute `root` as a fast-forwarded continuation of a checkpointed
  /// execution (see the file comment and ResumePlan).  The run is
  /// byte-for-byte equivalent — same frame/view IDs, same stats, same tool
  /// event suffix — to run() under a specification that takes `plan.replay`'s
  /// decisions at points [0, replay_count) (tests/sched/checkpoint_test).
  /// Throws ResumeDiverged (leaving the engine re-runnable) when the
  /// re-execution does not reproduce the recorded prefix — wrong decisions
  /// possible only for impure programs, or an access stream whose addresses
  /// drifted (verified against EngineCheckpoint::access_hash).  Identity
  /// views minted during the abandoned partial run are leaked, not
  /// destroyed: the engine cannot run user Reduce code mid-unwind.
  void resume_from(FnView root, const ResumePlan& plan);

  /// Record every continuation-point decision of subsequent runs into
  /// `sink` (nullptr = stop recording).  During resume_from, replayed
  /// points are NOT re-recorded; `sink` may alias `plan.replay`, in which
  /// case the trail extends past the replayed prefix in place.
  void set_decision_trail(DecisionTrail* sink) { trail_ = sink; }

  /// Hook invoked at the start of every continuation point whose events are
  /// live (always, for run(); from `live_from` on, for resume_from()) with
  /// the point index — the window where capture() may be called.
  void set_point_hook(std::function<void(std::size_t)> hook) {
    point_hook_ = std::move(hook);
  }

  /// Snapshot the engine state into `out`.  Only meaningful from a point
  /// hook: the snapshot then describes the state at the start of that
  /// continuation point, before its merges and steal decision.
  void capture(EngineCheckpoint* out) const;

  const Stats& stats() const { return stats_; }

  // ---- Engine interface ----
  bool inline_tasks() const override { return true; }
  void spawn_inline(FnView fn) override;
  void spawn_task(Task task) override { spawn_inline(FnView(task)); }
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
  Frame& top() {
    RADER_DCHECK(!stack_.empty());
    return stack_.back();
  }

  std::uint32_t live_epochs(const Frame& f) const {
    return static_cast<std::uint32_t>(epochs_.size()) - f.epoch_base;
  }

  /// The tool to deliver events to right now: null while fast-forwarding a
  /// resumed prefix, the attached tool otherwise.
  Tool* live_tool() const { return live_ ? tool_ : nullptr; }

  void run_impl(FnView root, bool from_start);
  void go_live(std::size_t point);  // verify expect_, start delivering events
  void enter_frame(FrameKind kind);
  void leave_frame();
  void do_sync();
  void top_merge();  // pop newest epoch, run the reduce operations
  void run_user_reduce(ReducerId h, void* left, void* right);
  void continuation_point();  // spec consultation after a spawned child

  /// Bind `r` to this engine, assigning a dense ReducerId.  If the reducer
  /// was created before run() (so register_reducer never saw it), its
  /// leftmost view joins the base epoch.
  ReducerId bind(HyperobjectBase* r);

  Tool* tool_;
  const spec::StealSpec* spec_;
  ViewEpochs epochs_;
  std::vector<Frame> stack_;
  std::unordered_map<HyperobjectBase*, ReducerId> reducer_ids_;
  std::vector<HyperobjectBase*> reducers_;
  FrameId next_frame_ = 0;
  ViewId next_vid_ = 0;
  // Simulated-worker accounting for the trace subsystem: worker 0 runs the
  // root strand; each simulated steal hands the continuation to a fresh
  // worker id, exactly as a real scheduler would.  Only advanced while a
  // trace session is active.
  std::uint32_t next_sim_worker_ = 1;
  int view_aware_depth_ = 0;
  bool running_ = false;
  // Checkpoint/resume state (run() resets to the pass-through defaults).
  DecisionTrail* trail_ = nullptr;
  std::function<void(std::size_t)> point_hook_;
  const DecisionTrail* replay_ = nullptr;
  std::size_t replay_count_ = 0;
  std::size_t live_from_ = 0;
  const EngineCheckpoint* expect_ = nullptr;
  std::size_t point_index_ = 0;
  bool live_ = true;
  // Open "replay" profiler phase of a resumed run (support/profile.hpp):
  // the fast-forward interval spans run_impl entry to go_live, which no
  // single lexical scope covers; no other phase opens inside it, so the
  // phases still nest.  Reset at go_live and on the ResumeDiverged unwind.
  std::optional<prof::Phase> replay_phase_;
  // FNV-1a over the (kind, addr, size) access/clear stream delivered while a
  // tool is attached.  Captured into checkpoints and compared at go_live:
  // equal counts with drifted ADDRESSES (heap layout changing between runs)
  // would silently corrupt a forked detector's shadow state, so the hash is
  // what makes resume verification sound, not just plausible.
  std::uint64_t access_hash_ = 0;
  Stats stats_;

  void mix_hash(std::uint64_t v) {
    access_hash_ = (access_hash_ ^ v) * 0x100000001b3ULL;
  }
};

/// A copyable snapshot of the engine at the start of a continuation point:
/// the frame stack, the view-epoch structure (IDs plus which reducers hold
/// views in each epoch — the reducer-view map, minus the unportable raw
/// view pointers), and the ID allocators.  Captured via
/// SerialEngine::capture() from a point hook; consumed by
/// SerialEngine::resume_from() to VERIFY that fast-forward re-execution
/// regenerated the identical state before a forked detector takes over.
/// The "pending steal decisions" half of a checkpoint is the DecisionTrail
/// prefix [0, point) that accompanies it in the sweep scheduler.
struct EngineCheckpoint {
  std::size_t point = 0;  // continuation-point index captured at
  FrameId next_frame = 0;
  ViewId next_vid = 0;
  std::uint32_t next_sim_worker = 1;
  std::uint64_t access_hash = 0;  // hash of the access stream up to `point`
  SerialEngine::Stats stats;
  std::vector<SerialEngine::Frame> frames;  // the frame stack, bottom-up
  std::vector<ViewId> epoch_vids;           // view-epoch stack, bottom-up
  // Per epoch (parallel to epoch_vids): sorted IDs of reducers with a view
  // bound in that epoch.
  std::vector<std::vector<ReducerId>> epoch_reducers;
};

}  // namespace rader
