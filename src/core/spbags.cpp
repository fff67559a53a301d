#include "core/spbags.hpp"

#include "core/access_kernel.hpp"
#include "support/metrics.hpp"

namespace rader {

std::unique_ptr<Tool> SpBagsDetector::fork(RaceLog* log) const {
  auto copy = std::make_unique<SpBagsDetector>(log, granule_bits_);
  copy->ds_ = ds_;
  copy->stack_ = stack_;
  for (auto& f : copy->stack_) {
    f.s.rebind(&copy->ds_);
    f.p.rebind(&copy->ds_);
  }
  copy->shadow_ = shadow_.fork();
  return copy;
}

void SpBagsDetector::on_run_begin() {
  RADER_CHECK_MSG(granule_bits_ < 12, "granule_bits must be < 12");
  ds_.clear();
  stack_.clear();
  shadow_.clear();
}

void SpBagsDetector::on_frame_enter(FrameId frame, FrameId, FrameKind, ViewId) {
  metrics::bump(metrics::Counter::kFramesEntered);
  FrameState f;
  f.node = ds_.make_node();
  RADER_DCHECK(f.node == frame);  // frame IDs and DSU nodes advance together
  (void)frame;
  f.s = dsu::Bag(&ds_, f.node, dsu::BagKind::kS);
  f.p = dsu::Bag(&ds_, dsu::BagKind::kP);
  stack_.push_back(std::move(f));
}

void SpBagsDetector::on_frame_return(FrameId, FrameId, FrameKind kind) {
  FrameState child = std::move(stack_.back());
  stack_.pop_back();
  if (stack_.empty()) return;  // root returned
  FrameState& parent = stack_.back();
  // SP-bags: "If F spawned G: F.P = F.P ∪ G.S ∪ G.P.
  //           If F called G:  F.S = F.S ∪ G.S, F.P = F.P ∪ G.P."
  // Reduce frames (which SP-bags does not know about) are treated like
  // spawned children; under a no-steal spec none exist.
  parent.p.merge_from(child.p);
  if (kind == FrameKind::kCalled) {
    parent.s.merge_from(child.s);
  } else {
    parent.p.merge_from(child.s);
  }
}

void SpBagsDetector::on_sync(FrameId) {
  FrameState& f = stack_.back();
  // "F syncs: F.S = F.S ∪ F.P, F.P = ∅."
  f.s.merge_from(f.p);
}

void SpBagsDetector::on_clear(std::uintptr_t addr, std::size_t size) {
  detect_clear(shadow_, granule_bits_, addr, size);
}

void SpBagsDetector::on_access(AccessKind kind, std::uintptr_t addr,
                               std::size_t size, bool, ViewId, SrcTag tag) {
  const dsu::Node node = stack_.back().node;
  // A prior access races iff it sits in a P bag; one in an S bag is
  // replaced.
  const auto resolve = [this](shadow::PackedShadow::Payload prior) {
    const dsu::BagKind bag = ds_.meta_of(prior).kind;
    return PriorFacts{bag == dsu::BagKind::kP, bag == dsu::BagKind::kS,
                      static_cast<FrameId>(prior)};
  };
  detect_access(AccessPolicy{node, static_cast<FrameId>(node), resolve},
                shadow_, *log_, granule_bits_, kind, addr, size,
                /*view_aware=*/false, tag.label);
}

}  // namespace rader
