// Shadow-granularity ablation semantics: granule_bits = 0 is byte-exact;
// granule_bits = 3 (word cells) keeps true races, costs ~8x fewer shadow
// operations, and may conflate adjacent objects sharing a word (the
// ThreadSanitizer-style tradeoff).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/spbags.hpp"
#include "core/sporder.hpp"
#include "core/spplus.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/run.hpp"
#include "reference_shadow.hpp"
#include "shadow/packed_shadow.hpp"
#include "spec/steal_spec.hpp"

namespace rader {
namespace {

RaceLog check_spplus(FnView program, unsigned granule_bits) {
  RaceLog log;
  SpPlusDetector detector(&log, granule_bits);
  spec::NoSteal none;
  run_serial(program, &detector, &none);
  return log;
}

/// One access of a two-strand replay: strand 1 runs logically in parallel
/// with strand 2, and each strand's own priors are in series.
struct StrandAccess {
  shadow::PackedShadow::Payload strand;
  AccessKind kind;
  const void* addr;
  std::size_t size;
};

/// Replay `accesses` through the production kernel over the packed slot
/// and through the reference per-granule loop over the legacy pair;
/// returns both logs (packed first).
std::pair<RaceLog, RaceLog> replay_both_encodings(
    unsigned granule_bits, const std::vector<StrandAccess>& accesses) {
  std::pair<RaceLog, RaceLog> logs;
  shadow::PackedShadow packed;
  shadow::ReferenceShadow legacy;
  for (const StrandAccess& a : accesses) {
    const auto resolve = [&a](shadow::PackedShadow::Payload prior) {
      return PriorFacts{prior != a.strand, prior == a.strand,
                        static_cast<FrameId>(prior)};
    };
    const AccessPolicy policy{a.strand, static_cast<FrameId>(a.strand),
                              resolve};
    const auto addr = reinterpret_cast<std::uintptr_t>(a.addr);
    detect_access(policy, packed, logs.first, granule_bits, a.kind, addr,
                  a.size, false, "replay");
    reference_detect_access(policy, legacy, logs.second, granule_bits, a.kind,
                            addr, a.size, false, "replay");
  }
  return logs;
}

TEST(Granularity, WordCellsStillCatchTrueRaces) {
  alignas(8) long x = 0;
  for (const unsigned bits : {0u, 3u}) {
    const RaceLog log = check_spplus(
        [&] {
          spawn([&] { shadow_write(&x, 8); });
          shadow_read(&x, 8);
          sync();
        },
        bits);
    EXPECT_TRUE(log.any()) << "granule_bits=" << bits;
  }
}

TEST(Granularity, WordCellsCoalesceAnEightByteAccess) {
  alignas(8) long x = 0;
  const RaceLog exact = check_spplus(
      [&] {
        spawn([&] { shadow_write(&x, 8); });
        shadow_write(&x, 8);
        sync();
      },
      0);
  const RaceLog coarse = check_spplus(
      [&] {
        spawn([&] { shadow_write(&x, 8); });
        shadow_write(&x, 8);
        sync();
      },
      3);
  EXPECT_EQ(exact.determinacy_count(), 8u);   // one occurrence per byte
  EXPECT_EQ(coarse.determinacy_count(), 1u);  // one occurrence per word
  EXPECT_TRUE(exact.any() && coarse.any());
}

TEST(Granularity, ByteExactSeparatesAdjacentBytes) {
  alignas(8) char buf[8] = {};
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[0], 1); });
        shadow_write(&buf[1], 1);  // disjoint byte, same word
        sync();
      },
      0);
  EXPECT_FALSE(log.any());
}

TEST(Granularity, WordCellsConflateAdjacentBytes) {
  // The documented imprecision of coarse mode: two disjoint bytes in one
  // word share a shadow cell and are reported as racing.
  alignas(8) char buf[8] = {};
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[0], 1); });
        shadow_write(&buf[1], 1);
        sync();
      },
      3);
  EXPECT_TRUE(log.any());
}

TEST(Granularity, UnalignedAccessCoversBothWords) {
  alignas(8) char buf[16] = {};
  // A 4-byte access straddling a word boundary must conflict with accesses
  // to either word under coarse granularity.
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[6], 4); });  // words 0 and 1
        shadow_read(&buf[8], 1);                   // word 1
        sync();
      },
      3);
  EXPECT_TRUE(log.any());
}

TEST(Granularity, ClearRespectsGranules) {
  const RaceLog log = check_spplus(
      [&] {
        auto* p = new long(0);
        spawn([p] { shadow_write(p, 8); });
        sync();
        shadow_clear(p, 8);
        delete p;
        auto* q = new long(0);  // may reuse p's address
        shadow_read(q, 8);      // must not see p's stale writer
        sync();
        delete q;
      },
      3);
  EXPECT_FALSE(log.any());
}

TEST(Granularity, DistinctRacesInOneGranuleKeepDistinctReports) {
  // Two different bytes of one word each race with a word-wide writer,
  // under the SAME label.  Coarse mode must report each at its true byte
  // address (clamped to the access extent), not at the granule base —
  // otherwise the two collapse into one frame-free dedup identity.
  alignas(8) char buf[8] = {};
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[0], 8, SrcTag{"word writer"}); });
        shadow_read(&buf[1], 1, SrcTag{"byte read"});
        shadow_read(&buf[5], 1, SrcTag{"byte read"});
        sync();
      },
      3);
  EXPECT_EQ(log.determinacy_count(), 2u);
  ASSERT_EQ(log.determinacy_races().size(), 2u);
  EXPECT_EQ(log.determinacy_races()[0].addr,
            reinterpret_cast<std::uintptr_t>(&buf[1]));
  EXPECT_EQ(log.determinacy_races()[1].addr,
            reinterpret_cast<std::uintptr_t>(&buf[5]));
}

TEST(Granularity, DistinctReportsSurviveBothSlotEncodings) {
  // The packed slot stores the access extent in a 4-bit field; the report
  // address must come from the CURRENT access, never from that (possibly
  // clamped) stored extent — so the byte addresses match the legacy
  // reader/writer pair's, which stores no extent at all.
  alignas(8) char buf[8] = {};
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[0], 8, SrcTag{"word writer"}); });
        shadow_read(&buf[1], 1, SrcTag{"byte read"});
        shadow_read(&buf[5], 1, SrcTag{"byte read"});
        sync();
      },
      3);
  ASSERT_EQ(log.determinacy_races().size(), 2u);
  EXPECT_EQ(log.determinacy_races()[0].addr,
            reinterpret_cast<std::uintptr_t>(&buf[1]));
  EXPECT_EQ(log.determinacy_races()[1].addr,
            reinterpret_cast<std::uintptr_t>(&buf[5]));

  const auto [packed, legacy] = replay_both_encodings(
      3, {{1, AccessKind::kWrite, &buf[0], 8},
          {2, AccessKind::kRead, &buf[1], 1},
          {2, AccessKind::kRead, &buf[5], 1}});
  ASSERT_EQ(packed.determinacy_races().size(), 2u);
  EXPECT_EQ(packed.determinacy_races()[1].addr,
            reinterpret_cast<std::uintptr_t>(&buf[5]));
  EXPECT_EQ(packed.to_json(), legacy.to_json());
}

TEST(Granularity, OffsetsBeyondThePackedExtentFieldKeepTrueAddresses) {
  // granule_bits = 5: a 32-byte granule, so byte offsets run to 31 — past
  // the packed slot's 4-bit extent field, which saturates at 15.  The
  // saturation must stay diagnostic: a race at offset 29 still reports the
  // true byte address, not an address clamped to the extent field's reach.
  alignas(32) char buf[32] = {};
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[0], 32, SrcTag{"granule writer"}); });
        shadow_read(&buf[1], 1, SrcTag{"byte read"});
        shadow_read(&buf[29], 1, SrcTag{"byte read"});
        sync();
      },
      5);
  ASSERT_EQ(log.determinacy_races().size(), 2u);
  EXPECT_EQ(log.determinacy_races()[0].addr,
            reinterpret_cast<std::uintptr_t>(&buf[1]));
  EXPECT_EQ(log.determinacy_races()[1].addr,
            reinterpret_cast<std::uintptr_t>(&buf[29]));

  // The stored extent saturates, and the legacy pair agrees regardless.
  const auto [packed, legacy] = replay_both_encodings(
      5, {{1, AccessKind::kWrite, &buf[0], 32},
          {2, AccessKind::kRead, &buf[29], 1},
          {1, AccessKind::kWrite, &buf[30], 1}});
  ASSERT_EQ(packed.determinacy_races().size(), 2u);
  EXPECT_EQ(packed.determinacy_races()[0].addr,
            reinterpret_cast<std::uintptr_t>(&buf[29]));
  EXPECT_EQ(packed.determinacy_races()[1].addr,
            reinterpret_cast<std::uintptr_t>(&buf[30]));
  EXPECT_EQ(packed.to_json(), legacy.to_json());
}

TEST(Granularity, AccessAtTopOfAddressSpaceDoesNotWrap) {
  // An 8-byte access whose extent would overflow uintptr_t (regression: the
  // pre-clamp range loop computed last < first and silently tracked
  // nothing, so the race vanished).  Annotation-only accesses, so the bogus
  // address is never dereferenced.
  void* const top = reinterpret_cast<void*>(~std::uintptr_t{0} - 2);
  const auto program = [&] {
    spawn([&] { shadow_write(top, 8); });
    shadow_read(top, 8);
    sync();
  };
  for (const unsigned bits : {0u, 3u}) {
    const RaceLog log = check_spplus(program, bits);
    EXPECT_TRUE(log.any()) << "sp+ granule_bits=" << bits;
  }
  {
    RaceLog log;
    SpBagsDetector detector(&log);
    spec::NoSteal none;
    run_serial(program, &detector, &none);
    EXPECT_TRUE(log.any()) << "spbags";
  }
}

TEST(Granularity, SpBagsSupportsCoarseModeToo) {
  int x = 0;
  RaceLog log;
  SpBagsDetector detector(&log, 3);
  spec::NoSteal none;
  run_serial(
      [&] {
        spawn([&] { shadow_write(&x, 4); });
        shadow_read(&x, 4);
        sync();
      },
      &detector, &none);
  EXPECT_EQ(log.determinacy_count(), 1u);
}

// ---- Per-access prior memo ------------------------------------------------
// The access kernel resolves each distinct prior payload once per access.
// These programs give the bytes of ONE 8-byte read and ONE 8-byte write
// different priors -- in series (S bag), parallel (P bags of two different
// children), and a parallel reader -- so a memo keyed by anything but the
// payload would misreport some byte.

/// "+OFF KIND pw=0|1 prior=F cur=F 'LABEL' xN" per stored report, with the
/// address as an offset from `base`.
std::vector<std::string> report_lines(const RaceLog& log, const void* base) {
  std::vector<std::string> lines;
  for (const auto& r : log.determinacy_races()) {
    std::ostringstream os;
    os << '+' << r.addr - reinterpret_cast<std::uintptr_t>(base) << ' '
       << (r.current_kind == AccessKind::kWrite ? "write" : "read")
       << (r.current_view_aware ? " va" : "") << " pw=" << r.prior_was_write
       << " prior=" << r.prior_frame << " cur=" << r.current_frame << " '"
       << r.current_label << "' x" << r.occurrences;
    lines.push_back(os.str());
  }
  return lines;
}

std::unique_ptr<Tool> make_detector(const std::string& name, RaceLog* log,
                                    unsigned granule_bits) {
  if (name == "sp-bags") {
    return std::make_unique<SpBagsDetector>(log, granule_bits);
  }
  if (name == "sp-order") {
    return std::make_unique<SpOrderDetector>(log, granule_bits);
  }
  return std::make_unique<SpPlusDetector>(log, granule_bits);
}

alignas(8) char g_mixed[8];

// Frames: root 0, called 1, spawned 2 ("A"), 3 ("B"), 4 ("reader").
void mixed_priors_program() {
  call([] { shadow_write(&g_mixed[0], 2, SrcTag{"serial write"}); });
  spawn([] { shadow_write(&g_mixed[2], 2, SrcTag{"write A"}); });
  spawn([] { shadow_write(&g_mixed[4], 2, SrcTag{"write B"}); });
  spawn([] { shadow_read(&g_mixed[6], 2, SrcTag{"parallel read"}); });
  shadow_read(&g_mixed[0], 8, SrcTag{"wide read"});
  shadow_write(&g_mixed[0], 8, SrcTag{"wide write"});
  sync();
}

TEST(AccessMemo, EightByteAccessesOverMixedPriors) {
  // Bytes 0-1: serial prior (no race, replaced); 2-3 and 4-5: writers of
  // two different parallel children; 6-7: a parallel reader, which only
  // the write races with.
  const std::vector<std::string> exact = {
      "+2 read pw=1 prior=2 cur=0 'wide read' x1",
      "+3 read pw=1 prior=2 cur=0 'wide read' x1",
      "+4 read pw=1 prior=3 cur=0 'wide read' x1",
      "+5 read pw=1 prior=3 cur=0 'wide read' x1",
      "+2 write pw=1 prior=2 cur=0 'wide write' x1",
      "+3 write pw=1 prior=2 cur=0 'wide write' x1",
      "+4 write pw=1 prior=3 cur=0 'wide write' x1",
      "+5 write pw=1 prior=3 cur=0 'wide write' x1",
      "+6 write pw=0 prior=4 cur=0 'wide write' x1",
      "+7 write pw=0 prior=4 cur=0 'wide write' x1",
  };
  // One word cell: A's write stays the recorded writer (B and the reader
  // race with it and cannot replace it), and the reader stays recorded.
  const std::vector<std::string> word = {
      "+4 write pw=1 prior=2 cur=3 'write B' x1",
      "+6 read pw=1 prior=2 cur=4 'parallel read' x1",
      "+0 read pw=1 prior=2 cur=0 'wide read' x1",
      "+0 write pw=0 prior=4 cur=0 'wide write' x1",
      "+0 write pw=1 prior=2 cur=0 'wide write' x1",
  };
  for (const std::string name : {"sp-bags", "sp+", "sp-order"}) {
    for (const unsigned bits : {0u, 3u}) {
      RaceLog log;
      const auto detector = make_detector(name, &log, bits);
      spec::NoSteal none;
      run_serial([] { mixed_priors_program(); }, detector.get(), &none);
      EXPECT_EQ(report_lines(log, g_mixed), bits == 0 ? exact : word)
          << name << " granule_bits=" << bits;
    }
  }
}

alignas(8) char g_merge[8];

// A view whose `touch` is set makes the Reduce that merges it read and
// write all of g_merge, view-aware.
struct TouchView {
  bool touch = false;
};
struct touch_monoid {
  using value_type = TouchView;
  static TouchView identity() { return {}; }
  static void reduce(TouchView&, TouchView& right) {
    if (!right.touch) return;
    shadow_read(&g_merge[0], 8, SrcTag{"reduce read"});
    shadow_write(&g_merge[0], 8, SrcTag{"reduce write"});
  }
};

TEST(AccessMemo, ViewAwareReduceStrandOverMixedPriors) {
  // Under steal-all each continuation gets a new view: child A runs on
  // view 0, child B on view 1, child C on view 2.  At the sync the Reduce
  // merging views 1 and 2 touches g_merge with view 1, so B's and C's
  // writes share its view (no race; replaced), the root's serial write is
  // in series (no race; replaced), and only A's write, on view 0, races.
  const auto program = [] {
    shadow_write(&g_merge[0], 2, SrcTag{"serial write"});
    reducer<touch_monoid> red;
    spawn([] { shadow_write(&g_merge[2], 2, SrcTag{"write A"}); });
    red.update([](TouchView&) {});
    spawn([] { shadow_write(&g_merge[4], 2, SrcTag{"write B"}); });
    red.update([](TouchView& view) { view.touch = true; });
    spawn([] { shadow_write(&g_merge[6], 2, SrcTag{"write C"}); });
    sync();
  };
  // Frames: root 0, A 1, B 2, C 3, the Reduce 4.
  const std::vector<std::string> exact = {
      "+2 read va pw=1 prior=1 cur=4 'reduce read' x1",
      "+3 read va pw=1 prior=1 cur=4 'reduce read' x1",
      "+2 write va pw=1 prior=1 cur=4 'reduce write' x1",
      "+3 write va pw=1 prior=1 cur=4 'reduce write' x1",
  };
  // One word cell: A replaces the serial write, then B, C (on other views)
  // and the Reduce all race with A, which stays the recorded writer.
  const std::vector<std::string> word = {
      "+4 write pw=1 prior=1 cur=2 'write B' x1",
      "+6 write pw=1 prior=1 cur=3 'write C' x1",
      "+0 read va pw=1 prior=1 cur=4 'reduce read' x1",
      "+0 write va pw=1 prior=1 cur=4 'reduce write' x1",
  };
  for (const unsigned bits : {0u, 3u}) {
    RaceLog log;
    SpPlusDetector detector(&log, bits);
    spec::StealAll all;
    run_serial(program, &detector, &all);
    EXPECT_EQ(report_lines(log, g_merge), bits == 0 ? exact : word)
        << "granule_bits=" << bits;
  }
}

}  // namespace
}  // namespace rader
