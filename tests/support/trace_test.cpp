// The execution-trace subsystem (support/trace.hpp): ring-buffer semantics,
// scope activation/restoration (obs::Scope), worker attach, the
// first-conflict-per-granule filter, and the dormant fast path.
#include "support/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

namespace rader::trace {
namespace {

TEST(TraceBuffer, RecordsInOrderUpToCapacity) {
  Buffer buf("t", /*capacity=*/8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    Event e;
    e.a = i;
    e.kind = EventKind::kSync;
    buf.record(e);
  }
  EXPECT_EQ(buf.recorded(), 5u);
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.dropped(), 0u);
  const auto events = buf.ordered();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].a, i);
}

TEST(TraceBuffer, DropsOldestWhenFull) {
  Buffer buf("t", /*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    Event e;
    e.a = i;
    buf.record(e);
  }
  EXPECT_EQ(buf.recorded(), 10u);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 6u);
  // The tail of the run survives: events 6..9.
  const auto events = buf.ordered();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].a, 6 + i);
}

TEST(TraceBuffer, ConflictFilterIsFirstPerGranule) {
  Buffer buf("t");
  EXPECT_TRUE(buf.note_conflict(100));
  EXPECT_FALSE(buf.note_conflict(100));
  EXPECT_TRUE(buf.note_conflict(101));
  // The view-read namespace (top bit) does not collide with granule 0.
  EXPECT_TRUE(buf.note_conflict(std::uint64_t{1} << 63));
  EXPECT_TRUE(buf.note_conflict(0));
}

TEST(TraceSession, OwnsBuffersAndTotals) {
  Session session(/*buffer_capacity=*/16);
  Buffer* a = session.make_buffer("a");
  Buffer* b = session.make_buffer("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a->record(Event{});
  a->record(Event{});
  b->record(Event{});
  EXPECT_EQ(session.buffers().size(), 2u);
  EXPECT_EQ(session.buffers()[0]->name(), "a");
  EXPECT_EQ(session.total_recorded(), 3u);
  EXPECT_EQ(session.total_dropped(), 0u);
}

TEST(TraceScope, EmitIsNoOpWhenInactive) {
  ASSERT_FALSE(enabled());
  // Must not crash and must not record anywhere.
  emit(EventKind::kSync, 0);
  emit_conflict(0, 1, 2, 3, kConflictWrite, "x");
  EXPECT_FALSE(enabled());
}

TEST(TraceScope, ActivatesAndRestores) {
  EXPECT_EQ(session(), nullptr);
  Session s;
  {
    obs::Scope scope(&s, "main");
    EXPECT_EQ(session(), &s);
    ASSERT_TRUE(enabled());
    EXPECT_EQ(buffer()->name(), "main");
    set_worker(3);
    emit(EventKind::kSteal, 7, /*a=*/1, /*b=*/2);
    set_worker(0);
  }
  EXPECT_EQ(session(), nullptr);
  EXPECT_FALSE(enabled());
  // The recorded event survives the scope with its stamps.
  ASSERT_EQ(s.buffers().size(), 1u);
  const auto events = s.buffers()[0]->ordered();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kSteal);
  EXPECT_EQ(events[0].frame, 7u);
  EXPECT_EQ(events[0].worker, 3u);
  EXPECT_GT(events[0].nanos, 0u);
}

TEST(TraceScope, NestedScopesRestoreThePreviousSession) {
  Session outer_s;
  Session inner_s;
  obs::Scope outer(&outer_s, "outer");
  {
    obs::Scope inner(&inner_s, "inner");
    EXPECT_EQ(session(), &inner_s);
    emit(EventKind::kSync, 1);
  }
  EXPECT_EQ(session(), &outer_s);
  EXPECT_EQ(buffer()->name(), "outer");
  emit(EventKind::kSync, 2);
  EXPECT_EQ(inner_s.total_recorded(), 1u);
  EXPECT_EQ(outer_s.total_recorded(), 1u);
}

TEST(TraceThreadScope, AttachesAWorkerThreadToTheSession) {
  Session s;
  obs::Scope scope(&s, "main");
  const obs::Context parent = obs::current();
  std::thread t([&] {
    EXPECT_FALSE(enabled());  // the context is thread-local
    obs::Scope attach(obs::attach(parent, nullptr, nullptr, "worker", 1));
    ASSERT_TRUE(enabled());
    EXPECT_EQ(worker(), 1u);
    emit(EventKind::kRunBegin, kInvalidFrame);
  });
  t.join();
  ASSERT_EQ(s.buffers().size(), 2u);
  EXPECT_EQ(s.buffers()[1]->name(), "worker1");
  EXPECT_EQ(s.buffers()[1]->recorded(), 1u);
  EXPECT_EQ(s.buffers()[1]->ordered()[0].worker, 1u);
}

TEST(TraceEvent, KindNamesAreStable) {
  EXPECT_STREQ(event_kind_name(EventKind::kRunBegin), "run-begin");
  EXPECT_STREQ(event_kind_name(EventKind::kSteal), "steal");
  EXPECT_STREQ(event_kind_name(EventKind::kConflict), "conflict");
}

}  // namespace
}  // namespace rader::trace
