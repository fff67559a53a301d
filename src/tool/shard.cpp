#include "tool/shard.hpp"

#include <algorithm>

#include "support/common.hpp"
#include "tool/tool.hpp"

namespace rader {

// The replayed stream simulates a steal-free execution, which lives entirely
// in the base view epoch: every strand sees view ID 0, exactly like
// SerialEngine under spec::NoSteal (epochs_.top_vid() is the base epoch for
// the whole run).
namespace {
constexpr ViewId kBaseView = 0;

// A segment typically records a handful of events (a spawned child's
// enter/return plus its reducer ops), so chains start small; long strands
// double up to the cap, keeping appends amortized O(1) allocations.
constexpr std::uint32_t kFirstChunkEvents = 8;
constexpr std::uint32_t kMaxChunkEvents = 4096;
}  // namespace

void EventShard::grow() {
  const std::uint32_t capacity =
      tail_ == nullptr ? kFirstChunkEvents
                       : std::min(2 * tail_->capacity, kMaxChunkEvents);
  void* mem =
      ::operator new(sizeof(Chunk) + capacity * sizeof(ShardEvent));
  Chunk* c = new (mem) Chunk();
  c->capacity = capacity;
  if (tail_ == nullptr) {
    head_ = c;
  } else {
    tail_->next = c;
  }
  tail_ = c;
}

void EventShard::splice(EventShard& other) {
  if (other.head_ == nullptr) return;
  if (tail_ == nullptr) {
    head_ = other.head_;
  } else {
    tail_->next = other.head_;
  }
  tail_ = other.tail_;
  other.head_ = other.tail_ = nullptr;
}

void EventShard::clear() {
  for (Chunk* c = head_; c != nullptr;) {
    Chunk* next = c->next;
    c->~Chunk();
    ::operator delete(c);
    c = next;
  }
  head_ = tail_ = nullptr;
}

void ShardReplayer::begin() {
  next_frame_ = 0;
  frame_stack_.clear();
  slot_to_id_.clear();
  next_reducer_ = 0;
  tool_->on_run_begin();
  const FrameId root = next_frame_++;
  tool_->on_frame_enter(root, kInvalidFrame, FrameKind::kRoot, kBaseView);
  frame_stack_.push_back(root);
}

ReducerId ShardReplayer::map_slot(ReducerId slot) {
  RADER_DCHECK(slot != kInvalidReducer);
  if (slot >= slot_to_id_.size()) {
    slot_to_id_.resize(slot + 1, kInvalidReducer);
  }
  if (slot_to_id_[slot] == kInvalidReducer) {
    slot_to_id_[slot] = next_reducer_++;
  }
  return slot_to_id_[slot];
}

void ShardReplayer::feed(const EventShard& shard) {
  shard.for_each([this](const ShardEvent& e) {
    switch (e.kind) {
      case ShardEvent::Kind::kFrameEnter: {
        const FrameId id = next_frame_++;
        tool_->on_frame_enter(id, frame_stack_.back(),
                              static_cast<FrameKind>(e.a), kBaseView);
        frame_stack_.push_back(id);
        break;
      }
      case ShardEvent::Kind::kFrameReturn: {
        RADER_CHECK_MSG(frame_stack_.size() > 1,
                        "shard replay underflowed the frame stack");
        const FrameId id = frame_stack_.back();
        frame_stack_.pop_back();
        tool_->on_frame_return(id, frame_stack_.back(),
                               static_cast<FrameKind>(e.a));
        break;
      }
      case ShardEvent::Kind::kSync:
        tool_->on_sync(frame_stack_.back());
        break;
      case ShardEvent::Kind::kBind:
        // First contact may carry no Tool event (a bare view lookup); the
        // marker exists purely to pin the serial renumbering order, and
        // map_slot is idempotent, so a repeated marker is a no-op.
        (void)map_slot(e.slot);
        break;
      case ShardEvent::Kind::kReducerOp:
        tool_->on_reducer_op(static_cast<ReducerOp>(e.a), map_slot(e.slot),
                             SrcTag{e.label});
        break;
      case ShardEvent::Kind::kAccess:
        tool_->on_access(static_cast<AccessKind>(e.a), e.addr, e.size,
                         e.view_aware, kBaseView, SrcTag{e.label});
        break;
      case ShardEvent::Kind::kClear:
        tool_->on_clear(e.addr, e.size);
        break;
    }
  });
}

void ShardReplayer::end() {
  RADER_CHECK_MSG(frame_stack_.size() == 1,
                  "shard replay ended with frames still open");
  tool_->on_frame_return(frame_stack_.back(), kInvalidFrame, FrameKind::kRoot);
  frame_stack_.clear();
  tool_->on_run_end();
}

}  // namespace rader
