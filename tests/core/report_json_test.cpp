// The machine-readable report emitter (core/report_json.hpp) and the spec
// handle round trip (spec::from_description) that powers `rader --replay`.
#include "core/report_json.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/driver.hpp"
#include "runtime/api.hpp"
#include "spec/steal_spec.hpp"
#include "../test_util.hpp"

namespace rader {
namespace {

int g_slot = 0;

void racy_program() {
  spawn([] { shadow_write(&g_slot, 4, SrcTag{"writer"}); });
  shadow_read(&g_slot, 4, SrcTag{"reader"});
  sync();
}

TEST(ReportJson, ControlCharactersStayValidJson) {
  // Every control character below 0x10 needs a four-digit \u escape; a
  // three-digit one ("\u001") is not JSON.
  RaceLog log;
  log.report_determinacy(0x10, AccessKind::kRead, false, true, 1, 2,
                         "ctl\r\x01\x1f");
  log.stamp_found_under("no-steals");
  ReportMeta meta;
  meta.program = "prog\x01";
  meta.check = "sp+";
  meta.spec = "no-steals";
  const std::string json = report_json(meta, log);
  EXPECT_TRUE(testing::JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"prog\\u0001\""), std::string::npos) << json;
  EXPECT_NE(json.find("ctl\\u000d\\u0001\\u001f"), std::string::npos)
      << json;
}

TEST(ReportJson, SchemaEnvelopePresent) {
  spec::TripleSteal triple(0, 1, 2);
  const RaceLog log =
      Rader::check_determinacy([] { racy_program(); }, triple);
  ASSERT_TRUE(log.any());

  ReportMeta meta;
  meta.program = "unit";
  meta.check = "sp+";
  meta.spec = triple.describe();
  const std::string json = report_json(meta, log);

  EXPECT_NE(json.find("\"schema\":\"rader.report\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":5"), std::string::npos);
  EXPECT_NE(json.find("\"program\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"check\":\"sp+\""), std::string::npos);
  EXPECT_NE(json.find("\"spec\":\"steal-triple(0,1,2)\""), std::string::npos);
  // The races block embeds RaceLog::to_json() verbatim.
  EXPECT_NE(json.find("\"races\":{\"view_read_occurrences\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"replay_handles\":[\"steal-triple(0,1,2)\"]"),
            std::string::npos);
  // No metrics snapshot was supplied.
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
  // No sweep block for a single-spec run.
  EXPECT_EQ(json.find("\"sweep\""), std::string::npos);
}

TEST(ReportJson, SweepBlockAndMetricsWhenProvided) {
  ReportMeta meta;
  meta.program = "p";
  meta.check = "exhaustive";
  meta.has_sweep = true;
  meta.jobs = 4;
  meta.budget = 10;
  meta.stop_first = true;
  meta.k = 3;
  meta.depth = 2;
  meta.spec_runs = 7;
  meta.specs_skipped = 3;
  RaceLog empty;
  metrics::Snapshot snap;
  snap.counters[0] = 42;
  const std::string json = report_json(meta, empty, &snap);
  EXPECT_NE(json.find("\"sweep\":{\"jobs\":4,\"budget\":10,"
                      "\"stop_first\":true,\"k\":3,\"depth\":2,"
                      "\"spec_runs\":7,\"specs_skipped\":3,"
                      "\"failures\":[]}"),
            std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"replay_handles\":[]"), std::string::npos);
}

TEST(ReportJson, SweepFailuresSerializeQuarantinedSpecs) {
  ReportMeta meta;
  meta.program = "p";
  meta.check = "exhaustive";
  meta.has_sweep = true;
  meta.jobs = 2;
  SweepFailure f;
  f.index = 7;
  f.spec = "steal-triple(0,1,2)";
  f.cause = "signal";
  f.signal = 11;
  f.retries = 1;
  f.postmortem = "/tmp/child-7-0.postmortem";
  meta.failures.push_back(f);
  f.index = 9;
  f.spec = "steal-depth(3)";
  f.cause = "timeout";
  f.signal = 0;
  f.retries = 2;
  f.postmortem.clear();
  meta.failures.push_back(f);
  RaceLog empty;
  const std::string json = report_json(meta, empty);
  EXPECT_NE(
      json.find("\"failures\":[{\"spec\":\"steal-triple(0,1,2)\",\"index\":7,"
                "\"cause\":\"signal\",\"signal\":11,\"retries\":1,"
                "\"postmortem\":\"/tmp/child-7-0.postmortem\"},"
                "{\"spec\":\"steal-depth(3)\",\"index\":9,"
                "\"cause\":\"timeout\",\"signal\":0,\"retries\":2,"
                "\"postmortem\":\"\"}]"),
      std::string::npos);
}

TEST(ReportJson, ReproFileStampAppearsInV3Races) {
  spec::StealAll all;
  RaceLog log = Rader::check_determinacy([] { racy_program(); }, all);
  ASSERT_TRUE(log.any());
  // Absent until stamped (the member is optional in the v3 schema).
  EXPECT_EQ(log.to_json().find("\"repro_file\""), std::string::npos);

  log.stamp_repro_file("corpus/min.rprog");
  const std::string json = log.to_json();
  EXPECT_NE(json.find("\"repro_file\":\"corpus/min.rprog\""),
            std::string::npos);

  // stamp fills only empty fields: a second stamp must not overwrite.
  log.stamp_repro_file("other.rprog");
  EXPECT_EQ(log.to_json().find("other.rprog"), std::string::npos);
}

TEST(ReportJson, ReplayHandlesAreDedupedFoundUnders) {
  spec::StealAll all;
  const RaceLog log = Rader::check_determinacy([] { racy_program(); }, all);
  ASSERT_TRUE(log.any());
  const auto handles = replay_handles(log);
  ASSERT_EQ(handles.size(), 1u);  // every race found under the same spec
  EXPECT_EQ(handles[0], "steal-all");
}

TEST(SpecFromDescription, RoundTripsEveryHandleForm) {
  std::vector<std::unique_ptr<spec::StealSpec>> specs;
  specs.push_back(std::make_unique<spec::NoSteal>());
  specs.push_back(std::make_unique<spec::StealAll>());
  specs.push_back(std::make_unique<spec::TripleSteal>(0, 3, 7));
  specs.push_back(std::make_unique<spec::DepthSteal>(12));
  specs.push_back(std::make_unique<spec::RandomTripleSteal>(99, 16));
  specs.push_back(std::make_unique<spec::BernoulliSteal>(7, 0.25));
  for (const auto& s : specs) {
    const std::string handle = s->describe();
    const auto parsed = spec::from_description(handle);
    ASSERT_NE(parsed, nullptr) << handle;
    EXPECT_EQ(parsed->describe(), handle);
  }
}

TEST(SpecFromDescription, ParsedSpecBehavesLikeTheOriginal) {
  // Behavioral equality, not just textual: the replayed spec must make the
  // same steal decisions at every point.
  spec::RandomTripleSteal original(1234, 8);
  const auto parsed = spec::from_description(original.describe());
  ASSERT_NE(parsed, nullptr);
  for (std::uint32_t frame = 0; frame < 4; ++frame) {
    for (std::uint32_t cont = 0; cont < 8; ++cont) {
      spec::PointCtx ctx;
      ctx.frame = frame;
      ctx.sync_block = frame;
      ctx.cont_index = cont;
      ctx.live_epochs = 2;
      EXPECT_EQ(parsed->steal(ctx), original.steal(ctx));
      EXPECT_EQ(parsed->merges_now(ctx), original.merges_now(ctx));
    }
  }
}

TEST(SpecFromDescription, RejectsMalformedHandles) {
  EXPECT_EQ(spec::from_description(""), nullptr);
  EXPECT_EQ(spec::from_description("bogus"), nullptr);
  EXPECT_EQ(spec::from_description("steal-triple(0,1)"), nullptr);
  EXPECT_EQ(spec::from_description("steal-triple(0,1,2)junk"), nullptr);
  EXPECT_EQ(spec::from_description("steal-depth()"), nullptr);
  EXPECT_EQ(spec::from_description("no-steals "), nullptr);
}

}  // namespace
}  // namespace rader
