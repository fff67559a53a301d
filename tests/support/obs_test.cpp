// The observability context (support/obs.hpp): scopes save and restore the
// whole context, a worker attaches only the sinks its parent has, and a
// joined worker folds back into its parent exactly once.
#include "support/obs.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace rader {
namespace {

TEST(ObsContext, NestedScopesRestoreTheWholeContext) {
  ASSERT_EQ(metrics::current(), nullptr);
  ASSERT_EQ(prof::current(), nullptr);
  ASSERT_EQ(trace::session(), nullptr);
  metrics::Registry reg;
  prof::Profiler profiler;
  trace::Session session;
  {
    obs::Scope s1(&reg);
    {
      obs::Scope s2(&profiler);
      {
        obs::Scope s3(&session, "main");
        EXPECT_EQ(metrics::current(), &reg);
        EXPECT_EQ(prof::current(), &profiler);
        EXPECT_EQ(trace::session(), &session);
        ASSERT_NE(trace::buffer(), nullptr);
        {
          obs::Scope off{obs::Context{}};  // a full context replaces all
          EXPECT_EQ(metrics::current(), nullptr);
          EXPECT_EQ(prof::current(), nullptr);
          EXPECT_FALSE(trace::enabled());
          trace::set_worker(7);
        }
        EXPECT_EQ(trace::worker(), 0u);  // restored with the rest
        EXPECT_EQ(prof::current(), &profiler);
      }
      EXPECT_EQ(trace::session(), nullptr);
      EXPECT_EQ(metrics::current(), &reg);
    }
    EXPECT_EQ(prof::current(), nullptr);
    EXPECT_EQ(metrics::current(), &reg);
  }
  EXPECT_EQ(metrics::current(), nullptr);
}

TEST(ObsContext, WorkerAttachesOnlyTheParentsSinks) {
  metrics::Registry parent_reg;
  metrics::Registry worker_reg;
  prof::Profiler worker_prof;
  obs::Context parent;
  parent.registry = &parent_reg;
  const obs::Context ctx =
      obs::attach(parent, &worker_reg, &worker_prof, "w", 3);
  EXPECT_EQ(ctx.registry, &worker_reg);
  EXPECT_EQ(ctx.profiler, nullptr);  // the parent profiles nothing
  EXPECT_EQ(ctx.session, nullptr);
  EXPECT_EQ(ctx.buffer, nullptr);
  EXPECT_EQ(ctx.worker, 3u);

  const obs::Context none = obs::attach(obs::Context{}, &worker_reg,
                                        &worker_prof, "w", 0);
  EXPECT_EQ(none.registry, nullptr);
  EXPECT_EQ(none.profiler, nullptr);
}

TEST(ObsContext, WorkerFoldsIntoItsParentAfterTheJoin) {
  metrics::Registry parent_reg;
  prof::Profiler parent_prof;
  trace::Session session;
  obs::Context parent;
  parent.registry = &parent_reg;
  parent.profiler = &parent_prof;
  parent.session = &session;

  constexpr unsigned kWorkers = 3;
  metrics::Registry regs[kWorkers];
  prof::Profiler profs[kWorkers];
  std::thread threads[kWorkers];
  for (unsigned w = 0; w < kWorkers; ++w) {
    threads[w] = std::thread([&, w] {
      EXPECT_EQ(metrics::current(), nullptr);  // nothing is inherited
      obs::Scope scope(obs::attach(parent, &regs[w], &profs[w], "w", w));
      prof::Phase phase("work", metrics::Phase::kExecute);
      metrics::bump(metrics::Counter::kSpecRuns, w + 1);
      trace::emit(trace::EventKind::kSync, 0);
    });
  }
  for (auto& t : threads) t.join();
  // Nothing reached the parent before the fold.
  EXPECT_EQ(parent_reg.snapshot().counter(metrics::Counter::kSpecRuns), 0u);
  EXPECT_TRUE(parent_prof.empty());

  for (unsigned w = 0; w < kWorkers; ++w) {
    obs::fold({.registry = &regs[w], .profiler = &profs[w]}, parent);
  }
  const metrics::Snapshot& snap = parent_reg.snapshot();
  EXPECT_EQ(snap.counter(metrics::Counter::kSpecRuns), 1u + 2u + 3u);
  EXPECT_GT(snap.phase_nanos[static_cast<unsigned>(metrics::Phase::kExecute)],
            0u);
  ASSERT_EQ(parent_prof.root().children.size(), 1u);
  EXPECT_STREQ(parent_prof.root().children[0]->name, "work");
  EXPECT_EQ(parent_prof.root().children[0]->count, kWorkers);
  // One fresh buffer per worker, named and stamped by worker index.
  ASSERT_EQ(session.buffers().size(), kWorkers);
  EXPECT_EQ(session.total_recorded(), kWorkers);
  for (const trace::Buffer* b : session.buffers()) {
    const auto events = b->ordered();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(b->name(), "w" + std::to_string(events[0].worker));
  }
}

TEST(ObsContext, SharedSinksAreNotFoldedTwice) {
  metrics::Registry reg;
  prof::Profiler profiler;
  obs::Context parent;
  parent.registry = &reg;
  parent.profiler = &profiler;
  {
    obs::Scope scope(parent);
    metrics::bump(metrics::Counter::kSpecRuns);
    prof::Phase phase("p");
  }
  // A worker sharing both sinks (the parallel engine's worker 0 shares the
  // caller's profiler) has nothing of its own to fold.
  obs::fold(parent, parent);
  EXPECT_EQ(reg.snapshot().counter(metrics::Counter::kSpecRuns), 1u);
  ASSERT_EQ(profiler.root().children.size(), 1u);
  EXPECT_EQ(profiler.root().children[0]->count, 1u);
}

}  // namespace
}  // namespace rader
