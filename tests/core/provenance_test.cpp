// Race provenance (core/provenance.hpp): replaying a report's found_under
// spec must yield a record naming the fork frame, the eliciting steal, and
// the involved Reduce strand, cross-checked against the DAG oracle — and the
// record must surface in both the text report and the schema-v2 JSON.
#include "core/provenance.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "apps/mylist.hpp"
#include "core/driver.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "spec/steal_spec.hpp"
#include "../test_util.hpp"

namespace rader {
namespace {

using apps::list_monoid;
using apps::MyList;

// The Figure 1 program (tests/core/fig_examples_test.cpp): its determinacy
// race happens inside the Reduce of the list reducer, elicited only under a
// steal spec — the canonical target for a provenance explanation.
void update_list(int n, MyList& list) {
  call([&] {
    reducer<list_monoid> list_reducer(SrcTag{"list_reducer"});
    list_reducer.set_value(list, SrcTag{"set_value(list)"});
    parallel_for_flat<int>(
        0, n,
        [&](int i) {
          list_reducer.update([&](MyList& view) { view.insert(i); },
                              SrcTag{"list insert"});
        },
        /*chunks=*/6);
    sync();
    list = list_reducer.take_value(SrcTag{"get_value()"});
  });
}

void race_fig1(int n, MyList& list) {
  int length = 0;
  MyList copy(list);  // BUG: shallow copy
  spawn([&] { length = list.scan(SrcTag{"scan_list"}); });
  update_list(n, copy);
  sync();
  (void)length;
}

struct ProvenanceFig1 : ::testing::Test {
  MyList owned;
  void SetUp() override {
    for (int i = 0; i < 8; ++i) owned.insert(100 + i);
  }
  void TearDown() override { owned.destroy(); }

  std::function<void()> program() {
    return [this] {
      MyList working = owned;  // fresh shallow handle per run
      race_fig1(6, working);
    };
  }
};

TEST_F(ProvenanceFig1, NamesTheElicitingStealAndReduceStrand) {
  const auto prog = program();
  spec::TripleSteal triple(0, 1, 2);
  RaceLog log = Rader::check_determinacy(prog, triple);
  log.stamp_found_under(triple.describe());
  ASSERT_TRUE(log.any());

  const std::size_t annotated = annotate_provenance(log, prog);
  EXPECT_EQ(annotated, log.determinacy_races().size());
  ASSERT_GT(annotated, 0u);

  bool reduce_explained = false;
  for (const auto& r : log.determinacy_races()) {
    ASSERT_FALSE(r.provenance_json.empty());
    ASSERT_FALSE(r.provenance_text.empty());
    // The JSON object carries the replay spec and the structural fields.
    EXPECT_NE(r.provenance_json.find("\"spec\":\"steal-triple(0,1,2)\""),
              std::string::npos);
    EXPECT_NE(r.provenance_json.find("\"lca_frame\":"), std::string::npos);
    EXPECT_NE(r.provenance_json.find("\"eliciting_steal\":"),
              std::string::npos);
    // The replay is deterministic, so the oracle confirms every SP+ report.
    EXPECT_NE(r.provenance_json.find("\"oracle\":\"confirmed\""),
              std::string::npos)
        << r.provenance_json;
    // The Figure 1 race executes inside the Reduce: the record must name
    // the Reduce strand and the epoch merge that invoked it.
    if (r.provenance_json.find("\"reduce\":{") != std::string::npos) {
      reduce_explained = true;
      EXPECT_NE(r.provenance_text.find("Reduce strand"), std::string::npos);
      EXPECT_NE(r.provenance_text.find("eliciting steal"), std::string::npos);
    }
  }
  EXPECT_TRUE(reduce_explained);

  // Rendering: text report indents the record; JSON embeds it verbatim.
  EXPECT_NE(log.to_string().find("provenance (replay steal-triple(0,1,2))"),
            std::string::npos);
  EXPECT_NE(log.to_json().find("\"provenance\":{\"spec\":"),
            std::string::npos);
}

TEST_F(ProvenanceFig1, AlreadyAnnotatedRacesAreLeftUntouched) {
  const auto prog = program();
  spec::TripleSteal triple(0, 1, 2);
  RaceLog log = Rader::check_determinacy(prog, triple);
  log.stamp_found_under(triple.describe());
  ASSERT_GT(annotate_provenance(log, prog), 0u);
  const std::string first = log.determinacy_races()[0].provenance_json;
  EXPECT_EQ(annotate_provenance(log, prog), 0u);  // all carry records already
  EXPECT_EQ(log.determinacy_races()[0].provenance_json, first);
}

int g_slot = 0;

TEST(Provenance, SerialSpawnRaceHasNoStealOnTheForkPath) {
  const auto prog = [] {
    spawn([] { shadow_write(&g_slot, 4, SrcTag{"writer"}); });
    shadow_read(&g_slot, 4, SrcTag{"reader"});
    sync();
  };
  spec::NoSteal none;
  RaceLog log = Rader::check_determinacy(prog, none);
  log.stamp_found_under(none.describe());
  ASSERT_TRUE(log.any());
  ASSERT_GT(annotate_provenance(log, prog), 0u);
  const auto& r = log.determinacy_races()[0];
  EXPECT_NE(r.provenance_json.find("\"spec\":\"no-steals\""),
            std::string::npos);
  EXPECT_EQ(r.provenance_json.find("\"eliciting_steal\""), std::string::npos);
  EXPECT_NE(r.provenance_text.find("no steal on the fork path"),
            std::string::npos);
  EXPECT_NE(r.provenance_json.find("\"oracle\":\"confirmed\""),
            std::string::npos);
}

TEST(Provenance, ControlCharacterLabelsStayValidJson) {
  // Under steal-all the update after the spawn creates an identity view in
  // the racing frame, so the record names it with the update's label.
  const auto prog = [] {
    reducer<monoid::op_add<long>> sum;
    spawn([] { shadow_write(&g_slot, 4, SrcTag{"writer"}); });
    sum.update([](long& v) { v += 1; }, SrcTag{"update\r\x01\x1f"});
    shadow_read(&g_slot, 4, SrcTag{"reader"});
    sync();
  };
  spec::StealAll all;
  RaceLog log = Rader::check_determinacy(prog, all);
  log.stamp_found_under(all.describe());
  ASSERT_GT(annotate_provenance(log, prog), 0u);
  const std::string& record = log.determinacy_races()[0].provenance_json;
  EXPECT_TRUE(testing::JsonChecker::valid(record)) << record;
  EXPECT_NE(record.find("\"label\":\"update\\u000d\\u0001\\u001f\""),
            std::string::npos)
      << record;
  EXPECT_TRUE(testing::JsonChecker::valid(log.to_json()));
}

TEST(Provenance, UnrecognizedHandleAndEmptyLogAreSafe) {
  RaceLog log;
  EXPECT_EQ(annotate_provenance(log, [] {}), 0u);  // nothing to annotate

  // A race stamped with a bogus handle cannot replay; it is skipped.
  const auto prog = [] {
    spawn([] { shadow_write(&g_slot, 4, SrcTag{"writer"}); });
    shadow_read(&g_slot, 4, SrcTag{"reader"});
    sync();
  };
  RaceLog bogus;
  DeterminacyRace fake = make_determinacy_race(
      0x1234, AccessKind::kWrite, false, true, 1, 2, "w");
  fake.found_under = "not-a-spec-handle";
  bogus.report_determinacy(fake);
  EXPECT_EQ(annotate_provenance(bogus, prog), 0u);
  EXPECT_TRUE(bogus.determinacy_races()[0].provenance_json.empty());
}

TEST(Provenance, OracleCrossCheckCanBeCappedOrDisabled) {
  const auto prog = [] {
    spawn([] { shadow_write(&g_slot, 4, SrcTag{"writer"}); });
    shadow_read(&g_slot, 4, SrcTag{"reader"});
    sync();
  };
  spec::NoSteal none;

  ProvenanceOptions capped;
  capped.oracle_strand_cap = 0;  // everything exceeds the cap
  RaceLog log = Rader::check_determinacy(prog, none);
  log.stamp_found_under(none.describe());
  ASSERT_GT(annotate_provenance(log, prog, capped), 0u);
  EXPECT_NE(log.determinacy_races()[0].provenance_json.find(
                "\"oracle\":\"skipped\""),
            std::string::npos);

  ProvenanceOptions off;
  off.cross_check = false;
  RaceLog log2 = Rader::check_determinacy(prog, none);
  log2.stamp_found_under(none.describe());
  ASSERT_GT(annotate_provenance(log2, prog, off), 0u);
  EXPECT_EQ(log2.determinacy_races()[0].provenance_json.find("\"oracle\""),
            std::string::npos);
}

}  // namespace
}  // namespace rader
