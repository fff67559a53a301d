// EngineCheckpoint round-trips and detector fork independence.
//
// The prefix-sharing sweep (core/sweep.hpp) is built on two promises:
//
//   1. SerialEngine::resume_from() on a recorded decision trail, starting
//      live delivery at a checkpointed point with a Tool::fork of the
//      detector, produces a run byte-identical to the straight-line
//      execution — same race log, same stats, same reducer-view identity
//      minting, same simulated-worker stamping under tracing.
//   2. fork() gives every detector (SP-bags, SP-order, SP+, Peer-Set) and
//      the copy-on-write ShadowSpace an INDEPENDENT clone: events fed to
//      one side never leak into the other.
//
// These tests check both promises directly, without the sweep in between.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/peerset.hpp"
#include "core/spbags.hpp"
#include "core/spplus.hpp"
#include "core/sporder.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "reference_shadow.hpp"
#include "spec/steal_spec.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rader {
namespace {

// Global arena so raced-on addresses are identical between the straight and
// the resumed execution (race-log JSON is compared byte-for-byte).
int g_slots[8];

/// A program with determinacy races on g_slots, reducer updates (identity
/// minting + merging under steals), and a view-read race (get_value in
/// parallel with updates) — every event class a resumed run must replay.
void checkpoint_program() {
  reducer<monoid::op_add<long>> sum(SrcTag{"ck sum"});
  for (int round = 0; round < 3; ++round) {
    spawn([&] {
      shadow_write(&g_slots[round], sizeof(int), SrcTag{"spawned write"});
      g_slots[round] = round;
      sum += round;
    });
    spawn([&] {
      shadow_write(&g_slots[round], sizeof(int), SrcTag{"sibling write"});
      g_slots[round] = -round;
      sum += 1;
    });
    shadow_read(&g_slots[round], sizeof(int), SrcTag{"continuation read"});
    (void)g_slots[round];
    // The mid-computation read races with the updates when a steal
    // separates them (view-read race for Peer-Set).
    (void)sum.get_value(SrcTag{"mid read"});
    sync();
  }
}

using ToolFactory = std::function<std::unique_ptr<Tool>(RaceLog*)>;

struct NamedFactory {
  const char* name;
  ToolFactory make;
};

std::vector<NamedFactory> detector_factories() {
  return {
      {"sp+",
       [](RaceLog* log) -> std::unique_ptr<Tool> {
         return std::make_unique<SpPlusDetector>(log);
       }},
      {"spbags",
       [](RaceLog* log) -> std::unique_ptr<Tool> {
         return std::make_unique<SpBagsDetector>(log);
       }},
      {"sporder",
       [](RaceLog* log) -> std::unique_ptr<Tool> {
         return std::make_unique<SpOrderDetector>(log);
       }},
      {"peerset",
       [](RaceLog* log) -> std::unique_ptr<Tool> {
         return std::make_unique<PeerSetDetector>(log);
       }},
  };
}

struct StraightRun {
  RaceLog log;
  DecisionTrail trail;
  SerialEngine::Stats stats;
  // One checkpoint taken at `depth`, with the log and a frozen detector
  // fork captured exactly as the sweep's PrefixCheckpoint does.
  EngineCheckpoint ck;
  std::unique_ptr<Tool> ck_tool;
  RaceLog ck_log;
  bool captured = false;
};

/// Run checkpoint_program straight through under `spec`, recording the
/// decision trail and capturing a checkpoint at continuation point `depth`.
void run_straight(const ToolFactory& make, const spec::StealSpec& spec,
                  std::size_t depth, StraightRun* out) {
  std::unique_ptr<Tool> tool = make(&out->log);
  SerialEngine engine(tool.get(), &spec);
  engine.set_decision_trail(&out->trail);
  engine.set_point_hook([&](std::size_t idx) {
    if (idx != depth || out->captured) return;
    engine.capture(&out->ck);
    out->ck_tool = tool->fork(nullptr);
    out->ck_log = out->log;
    out->captured = true;
  });
  engine.run([] { checkpoint_program(); });
  out->stats = engine.stats();
}

/// Fast-forward from the captured checkpoint and return the resumed log.
RaceLog run_resumed(const StraightRun& straight, const spec::StealSpec& spec,
                    SerialEngine::Stats* stats_out) {
  RaceLog log = straight.ck_log;
  std::unique_ptr<Tool> tool = straight.ck_tool->fork(&log);
  SerialEngine engine(tool.get(), &spec);
  SerialEngine::ResumePlan plan;
  plan.replay = &straight.trail;
  plan.replay_count = straight.trail.size();
  plan.live_from = straight.ck.point;
  plan.expect = &straight.ck;
  engine.resume_from([] { checkpoint_program(); }, plan);
  *stats_out = engine.stats();
  return log;
}

void expect_stats_equal(const SerialEngine::Stats& a,
                        const SerialEngine::Stats& b, const char* what) {
  EXPECT_EQ(a.frames, b.frames) << what;
  EXPECT_EQ(a.spawns, b.spawns) << what;
  EXPECT_EQ(a.syncs, b.syncs) << what;
  EXPECT_EQ(a.steals, b.steals) << what;
  EXPECT_EQ(a.reduces, b.reduces) << what;
  EXPECT_EQ(a.user_reduces, b.user_reduces) << what;
  EXPECT_EQ(a.identities, b.identities) << what;
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.reducer_ops, b.reducer_ops) << what;
}

TEST(EngineCheckpoint, ResumeEqualsStraightLineForEveryDetector) {
  spec::StealAll all;
  for (const auto& factory : detector_factories()) {
    // Probe once for the trail length so checkpoint depths span the run.
    StraightRun probe;
    run_straight(factory.make, all, 1, &probe);
    ASSERT_TRUE(probe.captured) << factory.name;
    ASSERT_GE(probe.trail.size(), 6u) << factory.name;
    ASSERT_TRUE(probe.log.any()) << factory.name
                                 << ": corpus program must elicit races";

    for (const std::size_t depth :
         {std::size_t{1}, std::size_t{2}, probe.trail.size() / 2,
          probe.trail.size() - 1}) {
      StraightRun straight;
      run_straight(factory.make, all, depth, &straight);
      ASSERT_TRUE(straight.captured)
          << factory.name << " at depth " << depth;
      ASSERT_EQ(straight.ck.point, depth);

      SerialEngine::Stats resumed_stats;
      const RaceLog resumed = run_resumed(straight, all, &resumed_stats);
      EXPECT_EQ(resumed.to_json(), straight.log.to_json())
          << factory.name << " at depth " << depth;
      expect_stats_equal(resumed_stats, straight.stats, factory.name);
    }
  }
}

TEST(EngineCheckpoint, ResumeRegeneratesViewIdentitiesAndTraceWorkers) {
  // Under tracing, steals advance the simulated-worker allocator; the
  // checkpoint records it and resume must regenerate the same stamping.
  trace::Session session;
  trace::Scope scope(&session, "checkpoint-test");
  spec::StealAll all;
  const auto factory = detector_factories().front();

  StraightRun straight;
  run_straight(factory.make, all, 3, &straight);
  ASSERT_TRUE(straight.captured);
  ASSERT_GT(straight.stats.identities, 0u)
      << "corpus program must mint identity views";
  ASSERT_GT(straight.ck.next_sim_worker, 1u)
      << "checkpoint must land after at least one traced steal";

  SerialEngine::Stats resumed_stats;
  const RaceLog resumed = run_resumed(straight, all, &resumed_stats);
  EXPECT_EQ(resumed.to_json(), straight.log.to_json());
  expect_stats_equal(resumed_stats, straight.stats, "traced resume");
}

TEST(EngineCheckpoint, CheckpointCapturesReducerViewMap) {
  spec::StealAll all;
  StraightRun straight;
  run_straight(detector_factories().front().make, all, 4, &straight);
  ASSERT_TRUE(straight.captured);
  // The checkpoint's epoch stack mirrors the live engine's at that point:
  // base epoch plus one per un-merged steal, reducers recorded per epoch.
  ASSERT_EQ(straight.ck.epoch_vids.size(), straight.ck.epoch_reducers.size());
  ASSERT_GE(straight.ck.epoch_vids.size(), 1u);
  EXPECT_EQ(straight.ck.epoch_vids.front(), 0u) << "base epoch is view 0";
  EXPECT_FALSE(straight.ck.frames.empty());
  EXPECT_GT(straight.ck.stats.frames, 0u);
  EXPECT_EQ(straight.ck.point, 4u);
}

TEST(DetectorFork, ForkedDetectorIsIndependentOfTheOriginal) {
  // Fork a frozen checkpoint twice and resume through each fork in turn.
  // Each resumed run must report exactly what the straight run reports —
  // the first resume must not contaminate the frozen parent that the
  // second resume forks from.
  for (const auto& factory : detector_factories()) {
    spec::StealAll all;

    // Straight baseline.
    RaceLog base_all;
    {
      std::unique_ptr<Tool> tool = factory.make(&base_all);
      SerialEngine engine(tool.get(), &all);
      engine.run([] { checkpoint_program(); });
    }

    // Trail + checkpoint under StealAll.
    StraightRun straight;
    run_straight(factory.make, all, 2, &straight);
    ASSERT_TRUE(straight.captured) << factory.name;

    // Resume the fork twice; runs must not contaminate each other.
    SerialEngine::Stats s1, s2;
    const RaceLog first = run_resumed(straight, all, &s1);
    const RaceLog second = run_resumed(straight, all, &s2);
    EXPECT_EQ(first.to_json(), straight.log.to_json()) << factory.name;
    EXPECT_EQ(second.to_json(), straight.log.to_json()) << factory.name;
    EXPECT_EQ(base_all.to_json(), straight.log.to_json()) << factory.name;
  }
}

TEST(ShadowSpaceFork, CopyOnWriteForksAreIndependent) {
  metrics::Registry reg;
  metrics::Scope scope(&reg);

  shadow::ShadowSpace space;
  space.set(0x1000, 7);
  space.set(0x2000, 9);

  shadow::ShadowSpace forked = space.fork();
  ASSERT_EQ(forked.get(0x1000), 7u);
  ASSERT_EQ(forked.get(0x2000), 9u);

  // Writes on either side un-share the touched page only.
  const std::uint64_t cow_before =
      reg.snapshot().counter(metrics::Counter::kShadowPagesCoW);
  forked.set(0x1000, 42);
  space.set(0x2000, 13);
  EXPECT_EQ(space.get(0x1000), 7u);
  EXPECT_EQ(forked.get(0x1000), 42u);
  EXPECT_EQ(forked.get(0x2000), 9u);
  EXPECT_EQ(space.get(0x2000), 13u);
  const std::uint64_t cow_after =
      reg.snapshot().counter(metrics::Counter::kShadowPagesCoW);
  EXPECT_GE(cow_after, cow_before + 2) << "both writes must copy a page";

  // A second fork of the (now partially un-shared) space still snapshots.
  shadow::ShadowSpace again = space.fork();
  EXPECT_EQ(again.get(0x1000), 7u);
  EXPECT_EQ(again.get(0x2000), 13u);
}

}  // namespace
}  // namespace rader
