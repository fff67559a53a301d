// The SP-order algorithm (Bender, Fineman, Gilbert & Leiserson, SPAA'04) —
// serial variant.
//
// SP-order maintains series-parallel relationships with TWO total orders
// over strands, kept in order-maintenance structures:
//   * the ENGLISH order: a left-to-right walk — spawned children before
//     their continuations;
//   * the HEBREW order: a right-to-left walk — continuations before the
//     children.
// For strands u executed before v in the serial order, u ≺ v iff u precedes
// v in BOTH orders; they are logically parallel iff the orders disagree —
// an O(1) check per query, with O(log n) amortized relabeling on insertion
// (compared to SP-bags' α(v,v) disjoint-set bound).
//
// The paper under reproduction notes that "to the best of our knowledge, no
// implementation of the SP-order ... algorithms exists"; this one serves as
// an additional reducer-OBLIVIOUS baseline: it detects plain determinacy
// races exactly (validated against the brute-force oracle and against
// SP-bags), but — like SP-bags and unlike SP+ — it has no notion of views,
// so races inside Reduce operations are invisible to it under the serial
// schedule.
#pragma once

#include <utility>
#include <vector>

#include "core/race_report.hpp"
#include "shadow/packed_shadow.hpp"
#include "support/order_maintenance.hpp"
#include "tool/tool.hpp"

namespace rader {

class SpOrderDetector final : public Tool {
 public:
  /// `granule_bits`: shadow cells cover 2^granule_bits bytes (0 = exact).
  explicit SpOrderDetector(RaceLog* log, unsigned granule_bits = 0)
      : granule_bits_(granule_bits), log_(log) {}

  void on_run_begin() override;
  void on_frame_enter(FrameId frame, FrameId parent, FrameKind kind,
                      ViewId vid) override;
  void on_frame_return(FrameId frame, FrameId parent, FrameKind kind) override;
  void on_sync(FrameId frame) override;
  void on_access(AccessKind kind, std::uintptr_t addr, std::size_t size,
                 bool view_aware, ViewId vid, SrcTag tag) override;
  void on_clear(std::uintptr_t addr, std::size_t size) override;

  /// Deep clone of the detection state (both order-maintenance structures,
  /// the strand registry, shadow spaces — the latter shared copy-on-write),
  /// reporting into `log`.
  std::unique_ptr<Tool> fork(RaceLog* log) const override;

  /// Total order-maintenance relabels performed (telemetry for the bench).
  std::uint64_t relabel_count() const {
    return eng_.relabel_count() + heb_.relabel_count();
  }

 private:
  using OmNode = OrderMaintenance::Node;

  struct FrameState {
    FrameId id = kInvalidFrame;               // engine frame ID (for reports)
    OmNode eng = OrderMaintenance::kInvalid;  // current strand, English
    OmNode heb = OrderMaintenance::kInvalid;  // current strand, Hebrew
    OmNode heb_frontier = OrderMaintenance::kInvalid;  // Heb-max of subtree
    std::uint32_t strand_ref = 0;  // registry slot of the current strand
  };

  /// Register the top frame's current strand (after its OM nodes changed).
  void new_strand_ref();

  /// u precedes-or-equals the CURRENT strand v iff u precedes v in both
  /// orders; since u was recorded earlier, English order always agrees, so
  /// the test reduces to the Hebrew order (equal Hebrew nodes = the same
  /// strand, trivially in series).
  bool in_series_with_current(std::uint32_t ref) const {
    const OmNode h = strands_[ref].second;
    const OmNode cur = strands_[top_ref_].second;
    return h == cur || heb_.precedes(h, cur);
  }

  unsigned granule_bits_;
  OrderMaintenance eng_;
  OrderMaintenance heb_;
  std::vector<FrameState> stack_;
  // Strand registry: per strand, its (english, hebrew) OM nodes plus the
  // owning frame ID (so reports name real frames, as the other detectors do).
  std::vector<std::pair<OmNode, OmNode>> strands_;
  std::vector<FrameId> strand_frame_;
  std::uint32_t top_ref_ = 0;  // current strand's registry slot
  shadow::PackedShadow shadow_;
  RaceLog* log_;
};

}  // namespace rader
