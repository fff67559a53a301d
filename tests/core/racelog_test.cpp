// RaceLog bookkeeping: dedup, caps, merge, clear, serialization.
#include "core/race_report.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace rader {
namespace {

DeterminacyRace det(std::uintptr_t addr, FrameId cur = 2) {
  DeterminacyRace r;
  r.addr = addr;
  r.current_kind = AccessKind::kWrite;
  r.prior_frame = 1;
  r.current_frame = cur;
  r.current_label = "label";
  return r;
}

TEST(RaceLog, CountsOccurrencesButStoresDistinct) {
  RaceLog log;
  for (int i = 0; i < 10; ++i) log.report_determinacy(det(0x100));
  log.report_determinacy(det(0x200));
  EXPECT_EQ(log.determinacy_count(), 11u);
  EXPECT_EQ(log.determinacy_races().size(), 2u);
}

TEST(RaceLog, StorageCapLimitsReportsNotCounts) {
  RaceLog log(/*max_stored=*/3);
  for (std::uintptr_t a = 0; a < 10; ++a) log.report_determinacy(det(a));
  EXPECT_EQ(log.determinacy_count(), 10u);
  EXPECT_EQ(log.determinacy_races().size(), 3u);
}

TEST(RaceLog, ViewReadDedupPerReducer) {
  RaceLog log;
  ViewReadRace r;
  r.reducer = 5;
  log.report_view_read(r);
  log.report_view_read(r);
  r.reducer = 6;
  log.report_view_read(r);
  EXPECT_EQ(log.view_read_count(), 3u);
  EXPECT_EQ(log.view_read_races().size(), 2u);
}

TEST(RaceLog, MergeDedupsAcrossLogs) {
  RaceLog a, b;
  a.report_determinacy(det(0x1));
  b.report_determinacy(det(0x1));
  b.report_determinacy(det(0x2));
  a.merge(b);
  EXPECT_EQ(a.determinacy_count(), 3u);
  EXPECT_EQ(a.determinacy_races().size(), 2u);
}

TEST(RaceLog, ClearResetsEverything) {
  RaceLog log;
  log.report_determinacy(det(0x1));
  ViewReadRace r;
  r.reducer = 1;
  log.report_view_read(r);
  log.clear();
  EXPECT_FALSE(log.any());
  EXPECT_TRUE(log.determinacy_races().empty());
  EXPECT_TRUE(log.view_read_races().empty());
  // Dedup sets must be reset too: the same address reports again.
  log.report_determinacy(det(0x1));
  EXPECT_EQ(log.determinacy_races().size(), 1u);
}

TEST(RaceLog, StampOnlyFillsEmptyFields) {
  RaceLog log;
  auto r = det(0x1);
  r.found_under = "original";
  log.report_determinacy(r);
  log.report_determinacy(det(0x2));
  log.stamp_found_under("fresh");
  EXPECT_EQ(log.determinacy_races()[0].found_under, "original");
  EXPECT_EQ(log.determinacy_races()[1].found_under, "fresh");
}

TEST(RaceLog, JsonEscapesLabels) {
  RaceLog log;
  auto r = det(0x1);
  r.current_label = "quote\" backslash\\ newline\n";
  log.report_determinacy(r);
  const std::string json = log.to_json();
  EXPECT_NE(json.find("quote\\\" backslash\\\\ newline\\n"),
            std::string::npos);
}

TEST(RaceLog, PartsAndStructReportsAgreeIncludingPastTheCap) {
  // The detectors' allocation-free overload and the struct overload share
  // one identity table: a random stream with many repeats, fed through
  // each, must give identical logs, also once new identities are dropped
  // by the storage cap.
  static const char* const kLabels[] = {"a", "b", "longer label"};
  RaceLog parts(/*max_stored=*/8);
  RaceLog structs(/*max_stored=*/8);
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    const std::uintptr_t addr = 0x100 + rng.below(12);
    const AccessKind kind =
        rng.below(2) != 0 ? AccessKind::kWrite : AccessKind::kRead;
    const bool view_aware = rng.below(2) != 0;
    const bool prior_was_write = rng.below(2) != 0;
    const auto prior = static_cast<FrameId>(rng.below(50));
    const auto current = static_cast<FrameId>(rng.below(50));
    const char* label = kLabels[rng.below(3)];
    parts.report_determinacy(addr, kind, view_aware, prior_was_write, prior,
                             current, label);
    structs.report_determinacy(make_determinacy_race(
        addr, kind, view_aware, prior_was_write, prior, current, label));
  }
  ASSERT_EQ(parts.determinacy_races().size(), 8u);  // the cap was reached
  EXPECT_EQ(parts.determinacy_count(), 4000u);
  EXPECT_EQ(parts.determinacy_count(), structs.determinacy_count());
  EXPECT_EQ(parts.to_json(), structs.to_json());

  // merge() goes through the same table.
  RaceLog merged_parts(8), merged_structs(8);
  merged_parts.merge(parts);
  merged_parts.merge(parts);
  merged_structs.merge(structs);
  merged_structs.merge(structs);
  EXPECT_EQ(merged_parts.determinacy_count(), 8000u);
  EXPECT_EQ(merged_parts.to_json(), merged_structs.to_json());
}

TEST(RaceLog, LabelsDedupByContentNotPointer) {
  char first[] = "same text";
  char second[] = "same text";  // a distinct buffer, equal content
  RaceLog log;
  log.report_determinacy(0x10, AccessKind::kWrite, false, true, 1, 2, first);
  log.report_determinacy(0x10, AccessKind::kWrite, false, true, 3, 4, second);
  ASSERT_EQ(log.determinacy_races().size(), 1u);
  EXPECT_EQ(log.determinacy_races()[0].occurrences, 2u);
  EXPECT_EQ(log.determinacy_races()[0].prior_frame, 1u);  // first one kept
  EXPECT_EQ(log.determinacy_count(), 2u);

  // The same buffer with new content is a new identity.
  first[0] = 'S';
  log.report_determinacy(0x10, AccessKind::kWrite, false, true, 1, 2, first);
  ASSERT_EQ(log.determinacy_races().size(), 2u);
  EXPECT_EQ(log.determinacy_races()[1].current_label, "Same text");
}

TEST(RaceLog, JsonEscapesControlCharactersWithFourHexDigits) {
  RaceLog log;
  log.report_determinacy(0x1, AccessKind::kWrite, false, true, 1, 2,
                         "a\rb\x01" "c\x1f");
  EXPECT_NE(log.to_json().find("a\\u000db\\u0001c\\u001f"),
            std::string::npos)
      << log.to_json();
}

TEST(RaceLog, EmptyLogSerializes) {
  RaceLog log;
  EXPECT_EQ(log.to_json(),
            "{\"view_read_occurrences\":0,\"determinacy_occurrences\":0,"
            "\"view_read_races\":[],\"determinacy_races\":[]}");
  EXPECT_NE(log.to_string().find("0 view-read"), std::string::npos);
}

}  // namespace
}  // namespace rader
