// The cross-process wire codecs (core/report_wire.hpp): the fidelity
// contract that makes the crash-isolated sweep's surviving-spec merge
// byte-identical to the in-process sweep's.
#include "core/report_wire.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/driver.hpp"
#include "core/race_report.hpp"
#include "runtime/api.hpp"
#include "spec/steal_spec.hpp"
#include "support/metrics.hpp"
#include "../test_util.hpp"

namespace rader {
namespace {

int g_a = 0;

void racy_program() {
  spawn([] { shadow_write(&g_a, 4, SrcTag{"writer"}); });
  shadow_read(&g_a, 4, SrcTag{"reader"});
  sync();
}

RaceLog detect_under(const spec::StealSpec& s) {
  return Rader::check_determinacy([] { racy_program(); }, s);
}

TEST(ReportWire, RaceLogRoundTripsByteIdentical) {
  spec::TripleSteal triple(0, 1, 2);
  const RaceLog log = detect_under(triple);
  ASSERT_TRUE(log.any());

  RaceLog restored;
  std::string error;
  ASSERT_TRUE(race_log_from_json(log.to_json(), &restored, &error)) << error;
  EXPECT_EQ(restored.to_json(), log.to_json());
  EXPECT_EQ(restored.determinacy_count(), log.determinacy_count());
  EXPECT_EQ(restored.view_read_count(), log.view_read_count());
}

TEST(ReportWire, ControlCharacterLabelsCrossTheWire) {
  // Control characters other than \n and \t travel as four-digit \u
  // escapes; a shorter form would make the parser reject the whole log.
  const std::string label = "ctl\r\x01\x1f";
  RaceLog log;
  log.report_determinacy(0x10, AccessKind::kWrite, false, true, 1, 2,
                         label.c_str());
  log.report_view_read(make_view_read_race(3, 1, 2, label, "plain"));
  log.stamp_found_under("spec\x02");
  const std::string json = log.to_json();
  EXPECT_TRUE(testing::JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("ctl\\u000d\\u0001\\u001f"), std::string::npos)
      << json;

  RaceLog restored;
  std::string error;
  ASSERT_TRUE(race_log_from_json(json, &restored, &error)) << error;
  ASSERT_EQ(restored.determinacy_races().size(), 1u);
  EXPECT_EQ(restored.determinacy_races()[0].current_label, label);
  EXPECT_EQ(restored.determinacy_races()[0].found_under, "spec\x02");
  ASSERT_EQ(restored.view_read_races().size(), 1u);
  EXPECT_EQ(restored.view_read_races()[0].prior_label, label);
  EXPECT_EQ(restored.to_json(), json);
}

TEST(ReportWire, RestoredLogMergesLikeTheOriginal) {
  // The supervisor merges restored per-spec logs in family order; the result
  // must match merging the originals — dedup keys, eliciting-spec unions,
  // and occurrence arithmetic all have to survive the wire.
  spec::TripleSteal triple(0, 1, 2);
  spec::StealAll all;
  const RaceLog log_a = detect_under(triple);
  const RaceLog log_b = detect_under(all);
  ASSERT_TRUE(log_a.any());
  ASSERT_TRUE(log_b.any());

  RaceLog direct;
  direct.merge(log_a);
  direct.merge(log_b);

  RaceLog wire_a, wire_b;
  ASSERT_TRUE(race_log_from_json(log_a.to_json(), &wire_a));
  ASSERT_TRUE(race_log_from_json(log_b.to_json(), &wire_b));
  RaceLog via_wire;
  via_wire.merge(wire_a);
  via_wire.merge(wire_b);

  EXPECT_EQ(via_wire.to_json(), direct.to_json());
}

TEST(ReportWire, CapDroppedOccurrenceTotalsSurvive) {
  // A log whose stored-report cap dropped identities still tallies their
  // occurrences in the global counters; the reconstruction must preserve
  // the totals or cross-process merge arithmetic drifts.
  RaceLog tiny(1);  // store at most one report
  for (int i = 0; i < 3; ++i) {
    auto r = make_determinacy_race(0x1000 + static_cast<std::uintptr_t>(i),
                                   AccessKind::kRead, false, true, 1, 2,
                                   "label-" + std::to_string(i));
    tiny.report_determinacy(r);
  }
  tiny.stamp_found_under("no-steals");
  ASSERT_EQ(tiny.determinacy_races().size(), 1u);
  ASSERT_EQ(tiny.determinacy_count(), 3u);

  RaceLog restored;
  ASSERT_TRUE(race_log_from_json(tiny.to_json(), &restored));
  EXPECT_EQ(restored.determinacy_count(), 3u);
  EXPECT_EQ(restored.to_json(), tiny.to_json());
}

TEST(ReportWire, EmptyLogRoundTrips) {
  RaceLog empty;
  RaceLog restored;
  ASSERT_TRUE(race_log_from_json(empty.to_json(), &restored));
  EXPECT_FALSE(restored.any());
  EXPECT_EQ(restored.to_json(), empty.to_json());
}

TEST(ReportWire, MalformedJsonIsRejectedNotThrown) {
  RaceLog out;
  std::string error;
  EXPECT_FALSE(race_log_from_json("", &out, &error));
  EXPECT_FALSE(race_log_from_json("not json at all", &out, &error));
  EXPECT_FALSE(race_log_from_json("{\"view_read_occurrences\":", &out,
                                  &error));
  EXPECT_FALSE(error.empty());
  // Truncated mid-array: a crashing child can tear its last line.
  spec::StealAll all;
  const std::string good = detect_under(all).to_json();
  EXPECT_FALSE(
      race_log_from_json(good.substr(0, good.size() / 2), &out, &error));
}

TEST(ReportWire, SnapshotRoundTripsEveryBlock) {
  metrics::Snapshot snap;
  for (unsigned i = 0; i < metrics::kCounterCount; ++i) {
    snap.counters[i] = 100 + i;
  }
  for (unsigned i = 0; i < metrics::kPhaseCount; ++i) {
    snap.phase_nanos[i] = 7'000'000ull * (i + 1);
  }
  for (unsigned i = 0; i < metrics::kGaugeCount; ++i) {
    snap.gauges[i].value = 3 + i;
    snap.gauges[i].max = 9 + i;
  }
  for (unsigned i = 0; i < metrics::kHistogramCount; ++i) {
    snap.hists[i].count = 2;
    snap.hists[i].sum = 3000ull * (i + 1);
    snap.hists[i].buckets[i % metrics::kHistogramBuckets] = 2;
  }
  const std::string wire = snapshot_to_wire(snap);
  metrics::Snapshot restored;
  ASSERT_TRUE(snapshot_from_wire(wire, &restored));
  EXPECT_EQ(snapshot_to_wire(restored), wire);
  EXPECT_EQ(restored.counters[0], snap.counters[0]);
  EXPECT_EQ(restored.gauges[0].max, snap.gauges[0].max);
}

TEST(ReportWire, SnapshotWireRejectsWordCountMismatch) {
  metrics::Snapshot snap;
  const std::string wire = snapshot_to_wire(snap);
  metrics::Snapshot out;
  EXPECT_FALSE(snapshot_from_wire("", &out));
  EXPECT_FALSE(snapshot_from_wire("3 1 2", &out));
  EXPECT_FALSE(snapshot_from_wire(wire + " 42", &out));
  EXPECT_FALSE(snapshot_from_wire(wire.substr(0, wire.size() / 2), &out));
}

}  // namespace
}  // namespace rader
