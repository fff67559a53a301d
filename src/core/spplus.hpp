// The SP+ algorithm (Sections 5–6 of the paper, pseudocode in Figure 6).
//
// SP+ detects DETERMINACY RACES in computations that use reducers, for the
// fixed execution selected by a steal specification.  It extends SP-bags:
//
//  * Each function F keeps an S bag and a *stack* of P bags, F.P.  Each P
//    bag carries a view ID.  Together the P bags hold F's completed
//    descendants logically parallel with the current strand, partitioned by
//    which view their initial strands share.
//  * Executing a stolen continuation pushes a fresh P bag with a brand-new
//    view ID — imitating the runtime creating a new view after a steal.
//  * Executing a Reduce pops the newest P bag and unions it into the one
//    below (the destination's view ID survives) — imitating how Reduce
//    combines views and destroys the dominated one.  The user Reduce code
//    then runs as a view-aware frame whose IDs return into the merged top P
//    bag, making the reduce strand in-series with the descendants whose
//    views it merged but parallel with everything in other P bags.
//  * Race conditions (Figure 6): a view-OBLIVIOUS access races with a prior
//    access recorded in any P bag; a view-AWARE access races only if the
//    prior access is in a P bag with a DIFFERENT view ID — two strands on
//    the same view are executed serially by one worker between steals and
//    cannot race in any schedule consistent with this specification.
//  * Shadow update rule: the last reader/writer is replaced when the prior
//    access is in series (an S bag), and additionally, inside a Reduce
//    invocation, when the prior access shares the current view ID (the
//    reduce strand serializes after those accesses).
//
// Runs in O((T + Mτ) α(v, v)) for M simulated steals with reduce cost τ
// (Theorem 5), and is exact for the given execution.
#pragma once

#include <vector>

#include "core/race_report.hpp"
#include "dsu/disjoint_set.hpp"
#include "shadow/packed_shadow.hpp"
#include "tool/tool.hpp"

namespace rader {

class SpPlusDetector final : public Tool {
 public:
  /// `granule_bits`: shadow cells cover 2^granule_bits bytes (0 = exact;
  /// see SpBagsDetector for the tradeoff).
  explicit SpPlusDetector(RaceLog* log, unsigned granule_bits = 0)
      : granule_bits_(granule_bits), log_(log) {}

  void on_run_begin() override;
  void on_frame_enter(FrameId frame, FrameId parent, FrameKind kind,
                      ViewId vid) override;
  void on_frame_return(FrameId frame, FrameId parent, FrameKind kind) override;
  void on_sync(FrameId frame) override;
  void on_steal(FrameId frame, std::uint32_t cont_index,
                ViewId new_vid) override;
  void on_reduce(FrameId frame, ViewId left_vid, ViewId right_vid) override;
  void on_access(AccessKind kind, std::uintptr_t addr, std::size_t size,
                 bool view_aware, ViewId vid, SrcTag tag) override;
  void on_clear(std::uintptr_t addr, std::size_t size) override;

  /// Deep clone of the detection state (bags, DSU forest, shadow spaces —
  /// the latter shared copy-on-write), reporting into `log`.
  std::unique_ptr<Tool> fork(RaceLog* log) const override;

 private:
  struct FrameState {
    dsu::Node node = dsu::kInvalidNode;
    bool is_reduce = false;  // F is an invocation of Reduce
    dsu::Bag s;
    std::vector<dsu::Bag> p_stack;
  };

  unsigned granule_bits_;
  dsu::DisjointSets ds_;
  std::vector<FrameState> stack_;
  shadow::PackedShadow shadow_;
  RaceLog* log_;
};

}  // namespace rader
