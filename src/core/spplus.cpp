#include "core/spplus.hpp"

#include "core/access_kernel.hpp"
#include "support/metrics.hpp"

namespace rader {

std::unique_ptr<Tool> SpPlusDetector::fork(RaceLog* log) const {
  auto copy = std::make_unique<SpPlusDetector>(log, granule_bits_);
  copy->ds_ = ds_;
  copy->stack_ = stack_;
  for (auto& f : copy->stack_) {
    f.s.rebind(&copy->ds_);
    for (auto& b : f.p_stack) b.rebind(&copy->ds_);
  }
  copy->shadow_ = shadow_.fork();
  return copy;
}

void SpPlusDetector::on_run_begin() {
  RADER_CHECK_MSG(granule_bits_ < 12, "granule_bits must be < 12");
  ds_.clear();
  stack_.clear();
  shadow_.clear();
}

void SpPlusDetector::on_frame_enter(FrameId frame, FrameId, FrameKind kind,
                                    ViewId vid) {
  metrics::bump(metrics::Counter::kFramesEntered);
  // Figure 6, "F spawns or calls G": G.S = MakeBag(G, Top(F.P).vid);
  // G.P = ⟨MakeBag(∅, Top(F.P).vid)⟩.  The engine hands us the view ID
  // current at entry, which equals our Top(F.P).vid invariantly.
  FrameState g;
  g.node = ds_.make_node();
  RADER_DCHECK(g.node == frame);
  (void)frame;
  g.is_reduce = (kind == FrameKind::kReduce);
  RADER_DCHECK(stack_.empty() || stack_.back().p_stack.back().vid() == vid);
  g.s = dsu::Bag(&ds_, g.node, dsu::BagKind::kS, vid);
  g.p_stack.emplace_back(&ds_, dsu::BagKind::kP, vid);
  stack_.push_back(std::move(g));
}

void SpPlusDetector::on_frame_return(FrameId, FrameId, FrameKind kind) {
  FrameState child = std::move(stack_.back());
  stack_.pop_back();
  // The implicit sync before return leaves exactly one (empty) P bag.
  RADER_DCHECK(child.p_stack.size() == 1);
  RADER_DCHECK(child.p_stack.back().empty());
  if (stack_.empty()) return;  // root returned
  FrameState& parent = stack_.back();
  if (kind == FrameKind::kCalled) {
    // "Called G returns to F: F.S ∪= G.S."
    parent.s.merge_from(child.s);
  } else {
    // "Spawned G returns to F: Top(F.P) ∪= G.S."  Reduce invocations return
    // the same way: the reduce strand's IDs join the merged top P bag, so
    // the reduce strand stays parallel with other views' descendants but
    // serializes (same vid) with the views it merged.
    parent.p_stack.back().merge_from(child.s);
  }
}

void SpPlusDetector::on_sync(FrameId) {
  // "F syncs: F.S ∪= Top(F.P); Top(F.P) = MakeBag(∅, F.S.vid)."  All
  // reduces for the sync block have been delivered, so one P bag remains.
  FrameState& f = stack_.back();
  RADER_DCHECK(f.p_stack.size() == 1);
  f.s.merge_from(f.p_stack.back());
  f.p_stack.back() = dsu::Bag(&ds_, dsu::BagKind::kP, f.s.vid());
}

void SpPlusDetector::on_steal(FrameId, std::uint32_t, ViewId new_vid) {
  // "F executes a stolen continuation: Push(F.P, MakeBag(∅, new view ID))."
  stack_.back().p_stack.emplace_back(&ds_, dsu::BagKind::kP, new_vid);
}

void SpPlusDetector::on_reduce(FrameId, ViewId left_vid, ViewId right_vid) {
  // "F executes Reduce: p = Pop(F.P); Top(F.P) ∪= p."  The destination (the
  // dominating view's bag) keeps its view ID.
  FrameState& f = stack_.back();
  RADER_DCHECK(f.p_stack.size() >= 2);
  dsu::Bag popped = std::move(f.p_stack.back());
  f.p_stack.pop_back();
  RADER_DCHECK(popped.vid() == right_vid);
  (void)right_vid;
  RADER_DCHECK(f.p_stack.back().vid() == left_vid);
  (void)left_vid;
  f.p_stack.back().merge_from(popped);
}

void SpPlusDetector::on_clear(std::uintptr_t addr, std::size_t size) {
  detect_clear(shadow_, granule_bits_, addr, size);
}

void SpPlusDetector::on_access(AccessKind kind, std::uintptr_t addr,
                               std::size_t size, bool view_aware, ViewId,
                               SrcTag tag) {
  const FrameState& f = stack_.back();
  const dsu::ViewId cur_vid = f.p_stack.back().vid();
  const bool in_reduce = f.is_reduce;
  // Figure 6: a view-oblivious access races with a prior access in any P
  // bag; a view-aware one only with a prior in a P bag of a DIFFERENT view.
  // A prior in series (S bag) is replaced, and so, for a view-aware access
  // inside a Reduce invocation, is a prior on the view being merged (same
  // vid): the reduce strand serializes after it.
  const auto resolve = [&](shadow::PackedShadow::Payload prior) {
    const auto& meta = ds_.meta_of(prior);
    const bool same_view = view_aware && meta.vid == cur_vid;
    return PriorFacts{meta.kind == dsu::BagKind::kP && !same_view,
                      meta.kind == dsu::BagKind::kS || (in_reduce && same_view),
                      static_cast<FrameId>(prior)};
  };
  detect_access(AccessPolicy{f.node, static_cast<FrameId>(f.node), resolve},
                shadow_, *log_, granule_bits_, kind, addr, size, view_aware,
                tag.label);
}

}  // namespace rader
