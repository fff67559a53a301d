// Event shards: how the parallel engine feeds serial detectors.
//
// The serial engine streams Tool callbacks in the computation's depth-first
// (serial-projection) order as a side effect of executing in that order.  A
// work-stealing execution visits strands in schedule-dependent order, so the
// parallel engine cannot call a serial detector directly — instead each
// execution segment records the SCHEDULE-INDEPENDENT events of its strands
// into a private append-only shard, and joins splice child shards into the
// parent's shard at the exact position of the spawn, mirroring the engine's
// positional hypermap fold:
//
//     shard(F) = ev0 ⊕ shard(child₁) ⊕ seg₁ ⊕ shard(child₂) ⊕ seg₂ ⊕ …
//
// Splicing at every sync re-creates the depth-first event order regardless
// of which workers executed what, so replaying the root frame's shard
// through a Tool delivers the byte-identical callback sequence of a serial
// NO-STEAL run over the same DAG (the stream Peer-Set is exact on,
// Theorem 4).  Shard events therefore carry no frame or view IDs — those are
// serial-order artifacts, minted by the replayer below in depth-first order
// exactly as runtime/serial_engine.cpp would have.
//
// Reducer IDs need the same treatment: the parallel engine numbers reducers
// in first-REGISTRATION order (racy, schedule-dependent), while the serial
// engine numbers them in first-CONTACT order of the depth-first execution.
// Events carry the engine's slot number, and the replayer renumbers slots in
// order of first appearance in the spliced stream; kBind markers (recorded
// at view lookups, the serial engine's one silent binding point) pin that
// order even for reducers whose first contact produces no Tool event.  The
// engine records a kBind only when the current segment has not yet
// announced the reducer: an announced segment entry means an earlier event
// of the aligned shard already names the slot, and renumbering is
// idempotent, so a second marker could change no callback.
#pragma once

#include <cstdint>
#include <new>
#include <vector>

#include "runtime/types.hpp"

namespace rader {

class Tool;

/// One recorded instrumentation event, a trivially copyable tagged union.
struct ShardEvent {
  enum class Kind : std::uint8_t {
    kFrameEnter,   // a = FrameKind
    kFrameReturn,  // a = FrameKind
    kSync,         // frame executed a non-trivial sync
    kBind,         // silent first-contact marker; slot = engine reducer slot
    kReducerOp,    // a = ReducerOp; slot; label
    kAccess,       // a = AccessKind; addr/size/view_aware; label
    kClear,        // addr/size
  };

  Kind kind;
  std::uint8_t a = 0;        // FrameKind / ReducerOp / AccessKind payload
  bool view_aware = false;   // kAccess: inside Update user code
  ReducerId slot = kInvalidReducer;  // engine reducer slot (kBind/kReducerOp)
  std::uintptr_t addr = 0;   // kAccess / kClear
  std::uint32_t size = 0;    // kAccess / kClear
  const char* label = "";    // SrcTag (string literals; outlive the run)
};

/// A segment's recorded events, in that segment's execution order: a chain
/// of chunks whose capacities grow geometrically, so appends never move
/// recorded events and a join splices a whole child shard in O(1) by
/// relinking its chunks instead of copying them.  One writer at a time (the
/// segment's executor); the chunks migrate with splice() and are freed by
/// whichever shard owns them last.
class EventShard {
 public:
  EventShard() = default;
  ~EventShard() { clear(); }
  EventShard(const EventShard&) = delete;
  EventShard& operator=(const EventShard&) = delete;

  bool empty() const { return head_ == nullptr; }

  void push_back(const ShardEvent& e) {
    if (tail_ == nullptr || tail_->size == tail_->capacity) grow();
    new (tail_->events() + tail_->size++) ShardEvent(e);
  }

  /// Append all of `other`'s events after this shard's, leaving `other`
  /// empty.  O(1).
  void splice(EventShard& other);

  /// Drop every event and free the chunks.
  void clear();

  /// Visit the events in order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Chunk* c = head_; c != nullptr; c = c->next) {
      const ShardEvent* ev = c->events();
      for (std::uint32_t i = 0; i < c->size; ++i) f(ev[i]);
    }
  }

 private:
  struct Chunk {
    Chunk* next = nullptr;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
    ShardEvent* events() { return reinterpret_cast<ShardEvent*>(this + 1); }
    const ShardEvent* events() const {
      return reinterpret_cast<const ShardEvent*>(this + 1);
    }
  };
  static_assert(sizeof(Chunk) % alignof(ShardEvent) == 0);

  void grow();

  Chunk* head_ = nullptr;  // never holds an empty chunk
  Chunk* tail_ = nullptr;
};

/// Replays spliced shards through a serial Tool, minting frame and reducer
/// IDs in depth-first order so the delivered callback stream is
/// byte-identical to a serial no-steal run's.
///
/// Protocol (all on one thread — worker 0 of the parallel engine):
///   begin();            // on_run_begin + root on_frame_enter
///   feed(shard); ...    // any prefix-preserving chunking of the root shard
///   end();              // root on_frame_return + on_run_end
///
/// feed() may be called many times: the engine drains the root frame's
/// shard at every root-level sync, so detector state and shard memory stay
/// proportional to the live computation, not the whole run.
class ShardReplayer {
 public:
  explicit ShardReplayer(Tool* tool) : tool_(tool) {}

  void begin();
  void feed(const EventShard& shard);
  void end();

 private:
  ReducerId map_slot(ReducerId slot);

  Tool* tool_;
  FrameId next_frame_ = 0;
  std::vector<FrameId> frame_stack_;   // open frames, serial IDs
  std::vector<ReducerId> slot_to_id_;  // engine slot -> serial reducer id
  ReducerId next_reducer_ = 0;
};

}  // namespace rader
