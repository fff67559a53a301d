// The detectors' shadow memory: reader and writer ids per granule, packed
// into one 64-bit slot, behind a paged directory with O(1) clear and
// copy-on-write forks.  SP-bags, SP+ and SP-order each own one PackedShadow
// and walk it through the access kernel (core/access_kernel.hpp).
//
//  * ONE SLOT ENCODING — reader and writer live in ONE 64-bit slot:
//      bits [ 0,28)  reader id   (28-bit field, all-ones = empty)
//      bits [28,56)  writer id   (28-bit field, all-ones = empty)
//      bits [56,60)  reader offset: first byte of the recorded access
//                    within its granule, clamped to 15
//      bits [60,64)  writer offset, same clamp
//    One load serves both fields, and memset(0xFF) initializes every
//    field to empty.  Detector payloads (disjoint-set nodes / strand refs)
//    must fit 28 bits — 2^28-1 ids, ~16x beyond anything the engines mint
//    — enforced by RADER_CHECK in encode_field().  The offsets are
//    diagnostic: race reports take their addresses from the current
//    access, never from a stored offset (tests/core/granularity_test).
//
//  * PAGE RUNS — the kernel's interface.  A page holds 4096 consecutive
//    granules, so an access splits into at most one run per page it
//    crosses.  read_run(g) finds g's page once and hands back its slots
//    from g on (or nullptr: the page is absent or stale and every slot
//    reads kEmptySlot); the kernel then decodes and re-encodes slots
//    inline with the static codecs.  write_run(g) is called only when a
//    slot actually changes: it allocates, un-shares or resets the page
//    and returns the exclusive slots, which keep the values read_run
//    showed.  clear_run(g, n) empties a run without materializing an
//    absent or stale page.  The per-granule accessors (fields, set_reader,
//    set_writer, clear_granule) are thin wrappers over the same calls.
//
//  * SHARDED TWO-LEVEL DIRECTORY WITH LOCK-FREE LOOKUP — granule space is
//    covered by chunks of 512 pages x 4096 slots (2^21 granules per
//    chunk).  Chunk pointers live in kShards open-addressed hash tables;
//    a single writer (the owning thread) publishes new chunks and pages
//    with release stores, so readers on other threads locate any
//    published slot with acquire loads and zero locking.  Within a chunk,
//    page lookup is an array index — no hashing.
//
//  * EPOCH-TAGGED BULK CLEAR — clear() increments the space's epoch and
//    returns: O(1) instead of a page walk (shadow.epoch_clears).  Pages
//    carry the epoch they were last reset under; a page whose epoch is
//    stale reads as all-empty and is lazily memset + re-stamped on its
//    first write (shadow.page_resets).  Epochs only grow per space, and
//    a written page is always re-stamped to the CURRENT epoch, so a
//    stale page can never spuriously revalidate.  On (unlikely) epoch
//    exhaustion clear() degrades to one full release.
//
//  * ARENA-BACKED PAGE POOL WITH TWO-LEVEL CoW FORKS — pages come from a
//    PageArena shared (shared_ptr) between a space and its forks, with an
//    intrusive free list so epoch-cleared footprints recycle without
//    malloc churn.  Sharing is copy-on-write at BOTH directory levels:
//    fork() copies only the shard tables and bumps each CHUNK's refcount
//    — O(#chunks), a few hundred nanoseconds for a multi-MB footprint.
//    The first write through a shared chunk clones the chunk (bumping its
//    pages' refcounts), and the first write to a shared page un-shares
//    the page (shadow.pages_cow).  Since the kernel rewrites only slots
//    that change, a race-free re-access of a shared page copies nothing.
//    Page refcounts count referencing CHUNKS; chunk refcounts count
//    referencing SPACES.  This is what makes the prefix sweep's per-spec
//    checkpoint forks cheap even when the checkpoint shadows millions of
//    granules.  A space and its forks must stay on one thread (refcounts
//    and the arena are intentionally non-atomic); the lock-free
//    guarantees above cover foreign READERS only.
//
// Gauge conservation (shadow.pages_live): every directory reference counts
// in once (allocation or fork) and out once (release, full reset,
// destruction).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/common.hpp"

namespace rader::shadow {

/// Paged granule -> packed (reader, writer, offsets) map; see file header.
class PackedShadow {
 public:
  using Payload = std::uint32_t;
  /// One packed slot (see the file header for its layout).
  using Slot = std::uint64_t;
  /// "No payload", as the accessors and Fields report it.
  static constexpr Payload kEmpty = static_cast<Payload>(-1);
  /// In-slot empty field (28 ones) and the largest storable id.
  static constexpr Payload kFieldEmpty = (Payload{1} << 28) - 1;
  static constexpr Payload kMaxPayload = kFieldEmpty - 1;
  static constexpr unsigned kMaxOffset = 15;  // 4-bit extent field
  /// A slot with both fields empty: what absent and stale pages read as.
  static constexpr Slot kEmptySlot = ~Slot{0};

  // Geometry (shared with the kernel and the benches).
  static constexpr unsigned kSlotBits = 12;  // 4096 slots per page
  static constexpr std::size_t kPageSlots = std::size_t{1} << kSlotBits;
  static constexpr unsigned kChunkBits = 9;  // 512 pages per chunk
  static constexpr std::size_t kChunkPages = std::size_t{1} << kChunkBits;

  PackedShadow();
  PackedShadow(const PackedShadow&) = delete;
  PackedShadow& operator=(const PackedShadow&) = delete;
  PackedShadow(PackedShadow&& other) noexcept;
  PackedShadow& operator=(PackedShadow&& other) noexcept;
  ~PackedShadow();

  /// Both ids of one granule, each kEmpty when unset.
  struct Fields {
    Payload reader;
    Payload writer;
  };

  // ---- Slot codecs -------------------------------------------------------

  static Fields decode_fields(Slot slot) {
    return {decode(slot), decode(slot >> 28)};
  }
  /// The 28-bit field storing `v` (kFieldEmpty for kEmpty).  Checks that
  /// `v` fits; the kernel encodes its payload once per access.
  static Slot encode_field(Payload v) {
    if (v == kEmpty) return kFieldEmpty;
    RADER_CHECK_MSG(v <= kMaxPayload,
                    "packed shadow payload exceeds the 28-bit slot field");
    return v;
  }
  /// `slot` with its reader (writer) replaced by the encoded `field` and
  /// the access's byte offset within the granule, clamped to kMaxOffset.
  static Slot with_reader(Slot slot, Slot field, unsigned offset) {
    return (slot & ~(Slot{kFieldEmpty} | (Slot{0xF} << 56))) | field |
           (Slot{clamp_offset(offset)} << 56);
  }
  static Slot with_writer(Slot slot, Slot field, unsigned offset) {
    return (slot & ~((Slot{kFieldEmpty} << 28) | (Slot{0xF} << 60))) |
           (field << 28) | (Slot{clamp_offset(offset)} << 60);
  }

  // ---- Page runs ---------------------------------------------------------

  /// Granules from `g` to the end of its page: the longest run one
  /// read_run / write_run pointer covers.
  static std::size_t run_length(std::uintptr_t g) {
    return kPageSlots - slot_index(g);
  }

  /// The current-epoch slots of g's page from `g` on, or nullptr when the
  /// page is absent or stale (every slot then reads kEmptySlot).  Never
  /// allocates.  Valid until the next write_run, clear_run, clear() or
  /// fork() on this space.
  const Slot* read_run(std::uintptr_t g) {
    if (page_key(g) != cached_pkey_) return read_run_slow(g);
    return cached_page_->epoch == epoch_ ? &cached_page_->slots[slot_index(g)]
                                         : nullptr;
  }

  /// Exclusive current-epoch slots of g's page from `g` on, allocating,
  /// un-sharing or resetting the page as needed.  The slots hold what
  /// read_run showed.  Valid until the next clear() or fork().
  Slot* write_run(std::uintptr_t g) {
    if (page_key(g) == wcached_pkey_) return &wcached_slots_[slot_index(g)];
    return write_run_slow(g);
  }

  /// Empty the `n` granules from `g` on; they must lie in g's page
  /// (n <= run_length(g)).  Absent and stale pages already read empty and
  /// stay unmaterialized, and a fork-shared page is un-shared only when
  /// one of the slots holds something.
  void clear_run(std::uintptr_t g, std::size_t n);

  // ---- Per-granule accessors (tests, benches) ------------------------------

  /// Reader / writer id recorded for granule `g`, or kEmpty.
  Payload reader(std::uintptr_t g) { return fields(g).reader; }
  Payload writer(std::uintptr_t g) { return fields(g).writer; }
  Fields fields(std::uintptr_t g) { return decode_fields(load_slot(g)); }

  /// Recorded access extent: first byte of the recorded access within
  /// granule `g`, clamped to kMaxOffset (meaningless when the id is
  /// empty).  Diagnostic only — race reports derive addresses from the
  /// CURRENT access, never from this field (tests/core/granularity_test).
  unsigned reader_offset(std::uintptr_t g) {
    return static_cast<unsigned>((load_slot(g) >> 56) & 0xF);
  }
  unsigned writer_offset(std::uintptr_t g) {
    return static_cast<unsigned>((load_slot(g) >> 60) & 0xF);
  }

  /// Record reader/writer `v` for granule `g` with the access's byte
  /// offset within the granule (clamped to the 4-bit extent field).
  void set_reader(std::uintptr_t g, Payload v, unsigned offset = 0) {
    Slot& slot = *write_run(g);
    slot = with_reader(slot, encode_field(v), offset);
  }
  void set_writer(std::uintptr_t g, Payload v, unsigned offset = 0) {
    Slot& slot = *write_run(g);
    slot = with_writer(slot, encode_field(v), offset);
  }

  /// Reset both fields of one granule to empty.
  void clear_granule(std::uintptr_t g) { clear_run(g, 1); }

  /// O(1) bulk clear: bump the epoch; stale pages read empty and reset
  /// lazily.  Degrades to a full release on epoch exhaustion.
  void clear();

  /// Copy-on-write snapshot sharing every current chunk and page (and
  /// the arena).  O(#chunks): only the shard tables are copied.
  PackedShadow fork() const;

  /// Directory pages currently referenced by THIS space (stale-epoch
  /// pages still count: they are mapped until released or reset).
  std::size_t page_count() const { return page_count_; }

  /// Bytes of shadow slot storage currently referenced by this space.
  std::size_t bytes() const { return page_count_ * sizeof(Page); }

  /// Current epoch (tests).
  std::uint64_t epoch() const { return epoch_; }

  /// Jump the epoch counter near its limit so tests can exercise the
  /// rollover path without 2^64 clears.  Must be >= the current epoch.
  void set_epoch_for_testing(std::uint64_t epoch);

 private:
  struct Page {
    std::uint64_t epoch;  // epoch this page was last reset under
    std::uint32_t refs;   // referencing CHUNKS (mine + shared forks')
    Page* next_free;      // arena free-list link (only while free)
    Slot slots[kPageSlots];
  };

  /// Second directory level: page pointers for one aligned group of
  /// kChunkPages pages.  The array entries are published with release
  /// stores so foreign readers can traverse concurrently; the chunk's
  /// key is immutable after publication.  Chunks are shared CoW between
  /// a space and its forks (`refs` counts owning spaces): only an
  /// exclusive chunk's cells may be mutated — a shared chunk is cloned
  /// first (unshare_chunk).
  struct Chunk {
    std::uintptr_t key;
    std::uint32_t refs;  // referencing SPACES (this one + sharing forks)
    std::atomic<Page*> pages[kChunkPages];
  };

  /// One shard of the chunk directory: a power-of-two open-addressed
  /// table of chunk pointers.  Lookup is lock-free (acquire loads);
  /// insertion is single-writer (the owning thread).  Grown tables are
  /// retired, not freed, so readers racing a resize stay safe.
  struct Shard {
    std::vector<std::atomic<Chunk*>> table;
    std::size_t count = 0;
    std::vector<std::vector<std::atomic<Chunk*>>> retired;
  };

  /// Pool of pages shared by a space and all its forks (single thread).
  struct PageArena {
    std::vector<std::unique_ptr<Page[]>> slabs;
    Page* free_list = nullptr;
    std::size_t next_in_slab = 0;
    Page* alloc();
    void release(Page* page);
  };

  static constexpr unsigned kShardBits = 3;  // 8 shards
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;
  static constexpr std::uintptr_t kNoKey = static_cast<std::uintptr_t>(-1);

  static std::uintptr_t page_key(std::uintptr_t g) { return g >> kSlotBits; }
  static std::uintptr_t chunk_key(std::uintptr_t g) {
    return g >> (kSlotBits + kChunkBits);
  }
  static std::size_t slot_index(std::uintptr_t g) {
    return g & (kPageSlots - 1);
  }
  static std::size_t page_index(std::uintptr_t g) {
    return page_key(g) & (kChunkPages - 1);
  }
  /// The id in the low 28 bits of `bits`, or kEmpty.
  static Payload decode(Slot bits) {
    const Payload field = static_cast<Payload>(bits & kFieldEmpty);
    return field == kFieldEmpty ? kEmpty : field;
  }
  static unsigned clamp_offset(unsigned offset) {
    return offset > kMaxOffset ? kMaxOffset : offset;
  }

  /// Slot value for `g`, or kEmptySlot when no current-epoch page covers
  /// it.  Never allocates.
  Slot load_slot(std::uintptr_t g) {
    const Slot* run = read_run(g);
    return run != nullptr ? *run : kEmptySlot;
  }

  /// read_run / write_run past their lookaside caches.
  const Slot* read_run_slow(std::uintptr_t g);
  Slot* write_run_slow(std::uintptr_t g);

  Chunk* find_chunk(std::uintptr_t key);
  Chunk* ensure_chunk(std::uintptr_t key);
  /// Clone a fork-shared chunk so its cells become mutable; replaces it
  /// in this space's shard table and returns the exclusive clone.
  Chunk* unshare_chunk(Chunk* chunk);
  void shard_insert(Shard& shard, Chunk* chunk);
  /// Drop every chunk reference (releasing chunks and pages that hit
  /// refcount zero) and empty the shard tables.
  void release_directory();
  void invalidate_caches();
  void steal_from(PackedShadow&& other);

  std::shared_ptr<PageArena> arena_;
  Shard shards_[kShards];  // tables are per space; chunks are shared CoW
  std::uint64_t epoch_ = 1;
  std::size_t page_count_ = 0;

  // Lookasides.  The read page cache may hold a stale-epoch page (checked
  // on use); the write cache only ever holds a page PROVEN exclusive and
  // current-epoch — a write through a stale pointer would leak into forks
  // or resurrect cleared state.  fork() drops the write cache (mutable,
  // const source).
  std::uintptr_t cached_ckey_ = kNoKey;
  Chunk* cached_chunk_ = nullptr;
  std::uintptr_t cached_pkey_ = kNoKey;
  Page* cached_page_ = nullptr;
  mutable std::uintptr_t wcached_pkey_ = kNoKey;
  mutable Slot* wcached_slots_ = nullptr;
};

}  // namespace rader::shadow
