// PackedShadow unit coverage: the compressed slot encoding, the epoch-
// tagged bulk clear (including rollover), lookaside-cache staleness, the
// two-level CoW fork economics, and the page-run edges the access kernel
// relies on — the corners the shadow-equivalence battery exercises only
// statistically.
#include "shadow/packed_shadow.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/access_kernel.hpp"
#include "core/race_report.hpp"
#include "reference_shadow.hpp"
#include "support/metrics.hpp"

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

// ---- Page runs -------------------------------------------------------------

TEST(PackedShadow, ClearRunLeavesAbsentAndStalePagesUnmaterialized) {
  PackedShadow s;
  s.clear_run(0x10000, PackedShadow::kPageSlots);  // absent page
  EXPECT_EQ(s.page_count(), 0u);
  s.set_writer(0x20000, 1);
  EXPECT_EQ(s.page_count(), 1u);
  s.clear();
  s.clear_run(0x20000, 64);  // stale page: reads empty, stays stale
  EXPECT_EQ(s.page_count(), 1u);
  EXPECT_EQ(s.read_run(0x20000), nullptr) << "clear_run reset a stale page";
  EXPECT_EQ(s.writer(0x20000), PackedShadow::kEmpty);
}

TEST(PackedShadow, ClearRunOnAForkSharedPageLeavesTheForkIntact) {
  metrics::Registry reg;
  metrics::Scope scope(&reg);
  PackedShadow parent;
  parent.set_writer(0x30000, 1);
  parent.set_reader(0x30010, 2);
  PackedShadow child = parent.fork();
  const std::size_t pages = parent.page_count();
  // Already-empty slots of the shared page: nothing to forget, no copy.
  parent.clear_run(0x30100, 16);
  EXPECT_EQ(reg.snapshot().counter(metrics::Counter::kShadowPagesCoW), 0u);
  parent.clear_run(0x30000, 32);
  EXPECT_EQ(parent.page_count(), pages);
  EXPECT_EQ(child.page_count(), pages);
  EXPECT_EQ(parent.writer(0x30000), PackedShadow::kEmpty);
  EXPECT_EQ(parent.reader(0x30010), PackedShadow::kEmpty);
  EXPECT_EQ(child.writer(0x30000), 1u) << "clear_run leaked into the fork";
  EXPECT_EQ(child.reader(0x30010), 2u) << "clear_run leaked into the fork";
}

TEST(PackedShadow, RaceFreeReaccessOfAForkSharedPageCopiesNothing) {
  // The prefix sweep's checkpoints share pages with every resumed spec.
  // A strand re-accessing bytes it already owns leaves each slot as it
  // was, so the kernel must not un-share the page to store it again.
  metrics::Registry reg;
  metrics::Scope scope(&reg);
  const auto own = [](PackedShadow::Payload) {
    return PriorFacts{false, true, 0};  // every prior is in series
  };
  RaceLog log;
  PackedShadow base;
  detect_access(AccessPolicy{7, 7, own}, base, log, 0, AccessKind::kWrite,
                0x40000, 64, false, "w");
  detect_access(AccessPolicy{7, 7, own}, base, log, 0, AccessKind::kRead,
                0x40000, 64, false, "r");
  PackedShadow fork = base.fork();
  for (const AccessKind kind : {AccessKind::kWrite, AccessKind::kRead}) {
    detect_access(AccessPolicy{7, 7, own}, fork, log, 0, kind, 0x40000, 64,
                  false, "again");
  }
  EXPECT_EQ(reg.snapshot().counter(metrics::Counter::kShadowPagesCoW), 0u);
  // A different strand does change the slots: exactly one page copy.
  detect_access(AccessPolicy{8, 8, own}, fork, log, 0, AccessKind::kWrite,
                0x40000, 64, false, "other");
  EXPECT_EQ(reg.snapshot().counter(metrics::Counter::kShadowPagesCoW), 1u);
  EXPECT_EQ(base.writer(0x40000), 7u);
  EXPECT_EQ(fork.writer(0x40000), 8u);
  EXPECT_FALSE(log.any());
}

TEST(PackedShadow, RangesEndingAtUintptrMaxTerminate) {
  // The kernel's last granule may be the top of the address space; the
  // run walk must stop there instead of wrapping to granule 0.
  const auto parallel = [](PackedShadow::Payload prior) {
    return PriorFacts{true, false, static_cast<FrameId>(prior)};
  };
  RaceLog log;
  PackedShadow s;
  const std::uintptr_t start = kTop - PackedShadow::kPageSlots - 7;
  detect_access(AccessPolicy{1, 1, parallel}, s, log, 0, AccessKind::kWrite,
                start, PackedShadow::kPageSlots + 8, false, "top");
  EXPECT_EQ(s.writer(kTop), 1u);
  EXPECT_EQ(s.writer(start), 1u);
  EXPECT_EQ(s.writer(0), PackedShadow::kEmpty) << "the walk wrapped";
  detect_access(AccessPolicy{2, 2, parallel}, s, log, 0, AccessKind::kRead,
                kTop, 1, false, "top read");
  ASSERT_EQ(log.determinacy_races().size(), 1u);
  EXPECT_EQ(log.determinacy_races()[0].addr, kTop);
  detect_clear(s, 0, start, ~std::size_t{0});  // clamps to the top byte
  EXPECT_EQ(s.writer(kTop), PackedShadow::kEmpty);
  EXPECT_EQ(s.writer(start), PackedShadow::kEmpty);
}

// ---- The legacy encoding ---------------------------------------------------

template <class Shadow>
void logical_interface_round_trip() {
  Shadow s;
  EXPECT_EQ(s.fields(0x100).reader, Shadow::kEmpty);
  s.set_reader(0x100, 1, 2);
  s.set_writer(0x100, 2, 3);
  EXPECT_EQ(s.fields(0x100).reader, 1u);
  EXPECT_EQ(s.fields(0x100).writer, 2u);
  s.clear_granule(0x100);
  EXPECT_EQ(s.fields(0x100).reader, Shadow::kEmpty);
  EXPECT_EQ(s.fields(0x100).writer, Shadow::kEmpty);
  s.set_writer(0x200, 7);
  Shadow f = s.fork();
  f.set_writer(0x200, 8);
  s.clear();
  EXPECT_EQ(s.fields(0x200).writer, Shadow::kEmpty);
  EXPECT_EQ(f.fields(0x200).writer, 8u);
}

TEST(AccessShadow, BothEncodingsAgreeOnTheLogicalInterface) {
  // The production packed slot and the legacy reader/writer pair (the
  // reference in tests/support) behave alike through the per-granule
  // accessors.
  logical_interface_round_trip<PackedShadow>();
  logical_interface_round_trip<ReferenceShadow>();
}

}  // namespace
}  // namespace rader::shadow
