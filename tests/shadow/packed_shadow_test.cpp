// PackedShadow unit coverage: the compressed slot encoding, the epoch-
// tagged bulk clear (including rollover), lookaside-cache staleness, and
// the two-level CoW fork economics — the corners the shadow-equivalence
// battery exercises only statistically.
#include "shadow/packed_shadow.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "shadow/access_shadow.hpp"

namespace rader::shadow {
namespace {

constexpr std::uintptr_t kTop = ~std::uintptr_t{0};

TEST(PackedShadow, UnsetGranulesAreEmpty) {
  PackedShadow s;
  EXPECT_EQ(s.reader(0), PackedShadow::kEmpty);
  EXPECT_EQ(s.writer(0xdeadbeef), PackedShadow::kEmpty);
  EXPECT_EQ(s.page_count(), 0u);  // reads never allocate
}

TEST(PackedShadow, ReaderAndWriterShareOneSlotIndependently) {
  PackedShadow s;
  s.set_reader(0x1000, 7, 3);
  EXPECT_EQ(s.reader(0x1000), 7u);
  EXPECT_EQ(s.writer(0x1000), PackedShadow::kEmpty);
  s.set_writer(0x1000, 9, 5);
  EXPECT_EQ(s.reader(0x1000), 7u);
  EXPECT_EQ(s.writer(0x1000), 9u);
  EXPECT_EQ(s.reader_offset(0x1000), 3u);
  EXPECT_EQ(s.writer_offset(0x1000), 5u);
  // Overwriting one field must not disturb the other field or offset.
  s.set_reader(0x1000, 11, 1);
  EXPECT_EQ(s.writer(0x1000), 9u);
  EXPECT_EQ(s.writer_offset(0x1000), 5u);
  EXPECT_EQ(s.reader_offset(0x1000), 1u);
}

TEST(PackedShadow, OffsetsClampToTheFourBitExtentField) {
  PackedShadow s;
  s.set_writer(0x2000, 1, 200);
  EXPECT_EQ(s.writer_offset(0x2000), PackedShadow::kMaxOffset);
}

TEST(PackedShadow, MaxPayloadRoundTripsAndKEmptyClearsAField) {
  PackedShadow s;
  s.set_writer(0x3000, PackedShadow::kMaxPayload);
  EXPECT_EQ(s.writer(0x3000), PackedShadow::kMaxPayload);
  s.set_writer(0x3000, PackedShadow::kEmpty);
  EXPECT_EQ(s.writer(0x3000), PackedShadow::kEmpty);
}

TEST(PackedShadow, ClearGranuleEmptiesBothFieldsWithoutMaterializing) {
  PackedShadow s;
  s.clear_granule(0x4000);  // absent: must not allocate a page
  EXPECT_EQ(s.page_count(), 0u);
  s.set_reader(0x4000, 1);
  s.set_writer(0x4000, 2);
  s.clear_granule(0x4000);
  EXPECT_EQ(s.reader(0x4000), PackedShadow::kEmpty);
  EXPECT_EQ(s.writer(0x4000), PackedShadow::kEmpty);
}

// ---- Epoch clear -----------------------------------------------------------

TEST(PackedShadow, EpochClearEmptiesEverythingWithoutTouchingPages) {
  PackedShadow s;
  for (std::uintptr_t g = 0; g < 3 * PackedShadow::kPageSlots; g += 97) {
    s.set_writer(g, 5);
  }
  const std::size_t pages = s.page_count();
  const std::uint64_t epoch = s.epoch();
  s.clear();
  EXPECT_EQ(s.epoch(), epoch + 1);
  EXPECT_EQ(s.page_count(), pages);  // stale pages stay mapped (lazy reset)
  for (std::uintptr_t g = 0; g < 3 * PackedShadow::kPageSlots; g += 97) {
    EXPECT_EQ(s.writer(g), PackedShadow::kEmpty) << "granule " << g;
  }
}

TEST(PackedShadow, WritesAfterClearReStampWithoutResurrectingOldData) {
  PackedShadow s;
  s.set_writer(0x5000, 1);
  s.set_writer(0x5001, 2);
  s.clear();
  s.set_writer(0x5000, 3);  // same page: lazy reset + re-stamp
  EXPECT_EQ(s.writer(0x5000), 3u);
  EXPECT_EQ(s.writer(0x5001), PackedShadow::kEmpty)
      << "the lazy page reset must wipe the whole page, not just the "
         "written granule";
}

TEST(PackedShadow, ClearAfterWritesAdjacentToUintptrMax) {
  // Regression: granules at the very top of the address space exercise the
  // highest page/chunk keys; clear() (epoch bump) and the subsequent lazy
  // resets must behave identically there.
  PackedShadow s;
  s.set_writer(kTop, 1, 15);
  s.set_writer(kTop - 1, 2);
  s.set_reader(kTop - PackedShadow::kPageSlots, 3);  // previous page
  EXPECT_EQ(s.writer(kTop), 1u);
  s.clear();
  EXPECT_EQ(s.writer(kTop), PackedShadow::kEmpty);
  EXPECT_EQ(s.writer(kTop - 1), PackedShadow::kEmpty);
  EXPECT_EQ(s.reader(kTop - PackedShadow::kPageSlots), PackedShadow::kEmpty);
  s.set_writer(kTop, 9);
  EXPECT_EQ(s.writer(kTop), 9u);
  EXPECT_EQ(s.writer(kTop - 1), PackedShadow::kEmpty);
}

TEST(PackedShadow, LookasideCachesGoStaleAcrossEpochRollover) {
  // Regression: the read lookaside may hold a page pointer across clear();
  // every hit must revalidate the page's epoch stamp — including across
  // the rollover path, where the directory is rebuilt and the epoch
  // RESTARTS at 1 (a stale cache entry stamped with a LOWER epoch must not
  // revalidate against the restarted counter).
  PackedShadow s;
  s.set_writer(0x6000, 1);
  EXPECT_EQ(s.writer(0x6000), 1u);  // warm the read cache
  s.set_epoch_for_testing(kTop);
  EXPECT_EQ(s.writer(0x6000), PackedShadow::kEmpty);  // stale via jump
  s.set_writer(0x6000, 2);  // re-stamp at the jumped epoch, re-warm caches
  EXPECT_EQ(s.writer(0x6000), 2u);
  s.clear();  // epoch == ~0: rollover — full release, epoch restarts at 1
  EXPECT_EQ(s.epoch(), 1u);
  EXPECT_EQ(s.page_count(), 0u);
  EXPECT_EQ(s.writer(0x6000), PackedShadow::kEmpty)
      << "a cached pre-rollover page must not satisfy post-rollover reads";
  s.set_writer(0x6000, 3);
  EXPECT_EQ(s.writer(0x6000), 3u);
  s.clear();  // ordinary epoch bump after the restart
  EXPECT_EQ(s.writer(0x6000), PackedShadow::kEmpty);
}

TEST(PackedShadow, WriteLookasideIsDroppedByClear) {
  PackedShadow s;
  s.set_writer(0x7000, 1);  // warms the write cache for this page
  s.clear();
  // A write-cache hit after clear() would scribble into the stale page
  // without re-stamping it, making the value invisible to reads.
  s.set_writer(0x7000, 2);
  EXPECT_EQ(s.writer(0x7000), 2u);
}

// ---- Forks (two-level CoW) -------------------------------------------------

TEST(PackedShadow, ForkSeesParentStateAndDivergesOnWrite) {
  PackedShadow parent;
  parent.set_writer(0x8000, 1);
  parent.set_reader(0x9000, 2);
  PackedShadow child = parent.fork();
  EXPECT_EQ(child.writer(0x8000), 1u);
  EXPECT_EQ(child.reader(0x9000), 2u);
  child.set_writer(0x8000, 7);
  parent.set_reader(0x9000, 8);
  EXPECT_EQ(parent.writer(0x8000), 1u);
  EXPECT_EQ(child.writer(0x8000), 7u);
  EXPECT_EQ(child.reader(0x9000), 2u);
  EXPECT_EQ(parent.reader(0x9000), 8u);
}

TEST(PackedShadow, ForkThenParentClearLeavesForkIntact) {
  // Regression: the epoch is PER SPACE.  A clear() in one holder must not
  // leak through shared pages into the other — in either direction.
  PackedShadow parent;
  parent.set_writer(0xA000, 1);
  PackedShadow child = parent.fork();
  parent.clear();
  EXPECT_EQ(parent.writer(0xA000), PackedShadow::kEmpty);
  EXPECT_EQ(child.writer(0xA000), 1u)
      << "the parent's epoch bump must not clear the fork";
  parent.set_writer(0xA000, 5);  // must CoW, not reset the shared page
  EXPECT_EQ(child.writer(0xA000), 1u);
  child.clear();
  EXPECT_EQ(child.writer(0xA000), PackedShadow::kEmpty);
  EXPECT_EQ(parent.writer(0xA000), 5u);
  child.set_writer(0xA000, 9);
  EXPECT_EQ(parent.writer(0xA000), 5u);
}

TEST(PackedShadow, SiblingForksDivergeIndependently) {
  PackedShadow base;
  base.set_writer(0xB000, 1);
  PackedShadow a = base.fork();
  PackedShadow b = base.fork();
  a.set_writer(0xB000, 2);
  b.set_writer(0xB000, 3);
  EXPECT_EQ(base.writer(0xB000), 1u);
  EXPECT_EQ(a.writer(0xB000), 2u);
  EXPECT_EQ(b.writer(0xB000), 3u);
}

TEST(PackedShadow, WritesInOneChunkStayInvisibleAcrossTheForkBoundary) {
  // Chunk-level CoW: the first write through a shared chunk clones the
  // chunk.  Writes to DIFFERENT pages of the same chunk from both holders
  // must still be isolated.
  PackedShadow parent;
  const std::uintptr_t page0 = 0;
  const std::uintptr_t page1 = PackedShadow::kPageSlots;
  parent.set_writer(page0, 1);
  parent.set_writer(page1, 2);
  PackedShadow child = parent.fork();
  parent.set_writer(page0, 10);  // parent clones the chunk, CoWs page 0
  child.set_writer(page1, 20);   // child writes page 1 through its copy
  EXPECT_EQ(parent.writer(page0), 10u);
  EXPECT_EQ(parent.writer(page1), 2u);
  EXPECT_EQ(child.writer(page0), 1u);
  EXPECT_EQ(child.writer(page1), 20u);
}

TEST(PackedShadow, ForkAfterForkChains) {
  PackedShadow base;
  base.set_writer(0xC000, 1);
  PackedShadow child = base.fork();
  child.set_writer(0xC000, 2);
  PackedShadow grand = child.fork();
  grand.set_writer(0xC000, 3);
  EXPECT_EQ(base.writer(0xC000), 1u);
  EXPECT_EQ(child.writer(0xC000), 2u);
  EXPECT_EQ(grand.writer(0xC000), 3u);
}

TEST(PackedShadow, MoveTransfersStateAndLeavesSourceEmpty) {
  PackedShadow a;
  a.set_writer(0xD000, 4);
  PackedShadow b = std::move(a);
  EXPECT_EQ(b.writer(0xD000), 4u);
  PackedShadow c;
  c.set_writer(0xE000, 5);
  c = std::move(b);
  EXPECT_EQ(c.writer(0xD000), 4u);
  EXPECT_EQ(c.writer(0xE000), PackedShadow::kEmpty);
}

// ---- Facade ----------------------------------------------------------------

TEST(AccessShadow, BothEncodingsAgreeOnTheLogicalInterface) {
  for (const SlotEncoding enc : {SlotEncoding::kPacked,
                                 SlotEncoding::kLegacy}) {
    AccessShadow s(enc);
    EXPECT_EQ(s.fields(0x100).reader, AccessShadow::kEmpty);
    s.set_reader(0x100, 1, 2);
    s.set_writer(0x100, 2, 3);
    EXPECT_EQ(s.fields(0x100).reader, 1u);
    EXPECT_EQ(s.fields(0x100).writer, 2u);
    s.clear_granule(0x100);
    EXPECT_EQ(s.fields(0x100).reader, AccessShadow::kEmpty);
    EXPECT_EQ(s.fields(0x100).writer, AccessShadow::kEmpty);
    s.set_writer(0x200, 7);
    AccessShadow f = s.fork();
    f.set_writer(0x200, 8);
    s.clear();
    EXPECT_EQ(s.fields(0x200).writer, AccessShadow::kEmpty);
    EXPECT_EQ(f.fields(0x200).writer, 8u);
  }
}

TEST(AccessShadow, DefaultEncodingIsPackedAndOverridable) {
  EXPECT_EQ(default_encoding(), SlotEncoding::kPacked);
  AccessShadow s;
  EXPECT_EQ(s.encoding(), SlotEncoding::kPacked);
  set_default_encoding(SlotEncoding::kLegacy);
  AccessShadow t;
  EXPECT_EQ(t.encoding(), SlotEncoding::kLegacy);
  set_default_encoding(SlotEncoding::kPacked);
}

}  // namespace
}  // namespace rader::shadow
