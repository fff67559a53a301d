#include "core/sporder.hpp"

#include "core/access_kernel.hpp"
#include "support/metrics.hpp"

namespace rader {

std::unique_ptr<Tool> SpOrderDetector::fork(RaceLog* log) const {
  auto copy = std::make_unique<SpOrderDetector>(log, granule_bits_);
  // OrderMaintenance and the strand registry are flat vectors of
  // position-independent handles: plain copies stay valid.
  copy->eng_ = eng_;
  copy->heb_ = heb_;
  copy->stack_ = stack_;
  copy->strands_ = strands_;
  copy->strand_frame_ = strand_frame_;
  copy->top_ref_ = top_ref_;
  copy->shadow_ = shadow_.fork();
  return copy;
}

void SpOrderDetector::on_run_begin() {
  RADER_CHECK_MSG(granule_bits_ < 12, "granule_bits must be < 12");
  eng_.clear();
  heb_.clear();
  stack_.clear();
  strands_.clear();
  strand_frame_.clear();
  shadow_.clear();
}

void SpOrderDetector::new_strand_ref() {
  FrameState& f = stack_.back();
  top_ref_ = static_cast<std::uint32_t>(strands_.size());
  strands_.emplace_back(f.eng, f.heb);
  strand_frame_.push_back(f.id);
  f.strand_ref = top_ref_;
}

void SpOrderDetector::on_frame_enter(FrameId frame, FrameId, FrameKind kind,
                                     ViewId) {
  metrics::bump(metrics::Counter::kFramesEntered);
  if (stack_.empty()) {
    // Root frame: first nodes of both orders.
    FrameState root;
    root.id = frame;
    root.eng = eng_.make_first();
    root.heb = heb_.make_first();
    root.heb_frontier = root.heb;
    stack_.push_back(root);
    new_strand_ref();
    return;
  }

  FrameState& parent = stack_.back();
  FrameState child;
  child.id = frame;
  if (kind == FrameKind::kCalled) {
    // Series composition: the child's first strand directly follows the
    // caller's current strand in BOTH orders.
    child.eng = eng_.insert_after(parent.eng);
    child.heb = heb_.insert_after(parent.heb);
  } else {
    // Spawn (and runtime Reduce frames, which SP-order — being
    // reducer-oblivious — treats like spawns, as SP-bags does):
    //   English: spawn-strand < child < continuation;
    //   Hebrew:  spawn-strand < continuation < child.
    const OmNode cf_eng = eng_.insert_after(parent.eng);
    const OmNode ct_eng = eng_.insert_after(cf_eng);
    const OmNode ct_heb = heb_.insert_after(parent.heb);
    const OmNode cf_heb = heb_.insert_after(ct_heb);
    child.eng = cf_eng;
    child.heb = cf_heb;
    parent.eng = ct_eng;
    parent.heb = ct_heb;
    parent.heb_frontier = heb_.max(parent.heb_frontier, cf_heb);
    new_strand_ref();  // the parent's continuation strand
  }
  child.heb_frontier = child.heb;
  stack_.push_back(child);
  new_strand_ref();  // the child's first strand
}

void SpOrderDetector::on_frame_return(FrameId, FrameId, FrameKind kind) {
  const FrameState child = stack_.back();
  stack_.pop_back();
  if (stack_.empty()) return;  // root finished
  FrameState& parent = stack_.back();
  parent.heb_frontier = heb_.max(parent.heb_frontier, child.heb_frontier);
  if (kind == FrameKind::kCalled) {
    // Series: the caller resumes after the child's last strand.
    parent.eng = eng_.insert_after(child.eng);
    parent.heb = heb_.insert_after(child.heb);
    parent.heb_frontier = heb_.max(parent.heb_frontier, parent.heb);
  }
  // Spawned children: the continuation strand was created at the spawn and
  // is already the parent's current strand.
  new_strand_ref();
}

void SpOrderDetector::on_sync(FrameId) {
  FrameState& f = stack_.back();
  // The sync strand follows every strand of the block in both orders: the
  // last continuation is the English maximum, the frontier is the Hebrew
  // maximum.
  f.eng = eng_.insert_after(f.eng);
  f.heb = heb_.insert_after(f.heb_frontier);
  f.heb_frontier = f.heb;
  new_strand_ref();
}

void SpOrderDetector::on_access(AccessKind kind, std::uintptr_t addr,
                                std::size_t size, bool, ViewId, SrcTag tag) {
  // A prior strand races iff it is not in series with the current one; a
  // prior in series is replaced.
  const auto resolve = [this](shadow::PackedShadow::Payload prior) {
    const bool series = in_series_with_current(prior);
    return PriorFacts{!series, series, strand_frame_[prior]};
  };
  detect_access(AccessPolicy{top_ref_, stack_.back().id, resolve}, shadow_,
                *log_, granule_bits_, kind, addr, size, /*view_aware=*/false,
                tag.label);
}

void SpOrderDetector::on_clear(std::uintptr_t addr, std::size_t size) {
  detect_clear(shadow_, granule_bits_, addr, size);
}

}  // namespace rader
