// Microbenchmarks for shadow memory: the per-access cost that dominates
// SP+ on access-dense benchmarks (the paper's fib/knapsack discussion), and
// the two layers above it: the detectors' access kernel (timed through
// SP+) and the race log's duplicate-report path.  The ShadowSpace rows time
// the legacy encoding's reference space (tests/support/reference_shadow.hpp).
#include <benchmark/benchmark.h>

#include "core/race_report.hpp"
#include "core/spplus.hpp"
#include "reference_shadow.hpp"
#include "shadow/packed_shadow.hpp"
#include "support/rng.hpp"

namespace {

using rader::Rng;
using rader::shadow::PackedShadow;
using rader::shadow::ShadowSpace;

void BM_SequentialSet(benchmark::State& state) {
  ShadowSpace s;
  std::uintptr_t addr = 0x100000;
  for (auto _ : state) {
    s.set(addr, 1);
    addr = 0x100000 + ((addr + 1) & 0xFFFF);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialSet);

void BM_SequentialGetHit(benchmark::State& state) {
  ShadowSpace s;
  for (std::uintptr_t a = 0; a < 0x10000; ++a) s.set(0x100000 + a, 7);
  std::uintptr_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.get(0x100000 + (addr & 0xFFFF)));
    ++addr;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialGetHit);

void BM_RandomPageAccess(benchmark::State& state) {
  // Defeats the one-page lookaside cache: every access hops pages.
  ShadowSpace s;
  Rng rng(3);
  const int pages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const std::uintptr_t addr = (rng.below(pages) << 12) | rng.below(4096);
    s.set(addr, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomPageAccess)->Arg(16)->Arg(1024);

void BM_WordAccessEightBytes(benchmark::State& state) {
  // The detectors iterate per byte: an 8-byte access costs 8 cell ops.
  ShadowSpace s;
  std::uintptr_t addr = 0x200000;
  for (auto _ : state) {
    for (std::uintptr_t b = addr; b != addr + 8; ++b) s.set(b, 1);
    addr = 0x200000 + ((addr + 8) & 0xFFFF);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WordAccessEightBytes);

// ---- Packed backend counterparts (shadow/packed_shadow.hpp) ----------------
// Same shapes as above so a side-by-side run shows the encoding's effect.
// Note one packed op covers BOTH logical spaces: the detectors previously
// paid a reader op + a writer op per granule.

void BM_PackedSequentialSet(benchmark::State& state) {
  PackedShadow s;
  std::uintptr_t addr = 0x100000;
  for (auto _ : state) {
    s.set_writer(addr, 1);
    addr = 0x100000 + ((addr + 1) & 0xFFFF);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedSequentialSet);

void BM_PackedSequentialGetHit(benchmark::State& state) {
  PackedShadow s;
  for (std::uintptr_t a = 0; a < 0x10000; ++a) s.set_writer(0x100000 + a, 7);
  std::uintptr_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.writer(0x100000 + (addr & 0xFFFF)));
    ++addr;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedSequentialGetHit);

void BM_PackedRandomPageAccess(benchmark::State& state) {
  // Page hops hit the chunk's array index instead of the hash map.
  PackedShadow s;
  Rng rng(3);
  const int pages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const std::uintptr_t addr = (rng.below(pages) << 12) | rng.below(4096);
    s.set_writer(addr, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedRandomPageAccess)->Arg(16)->Arg(1024);

void BM_PackedWordAccessEightBytes(benchmark::State& state) {
  PackedShadow s;
  std::uintptr_t addr = 0x200000;
  for (auto _ : state) {
    for (std::uintptr_t b = addr; b != addr + 8; ++b) s.set_writer(b, 1);
    addr = 0x200000 + ((addr + 8) & 0xFFFF);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedWordAccessEightBytes);

void BM_PackedEpochClear(benchmark::State& state) {
  // The O(1) bulk clear: footprint size (range arg = pages touched) must
  // not change the per-clear cost.  Re-touch one granule per iteration so
  // successive clears are not no-ops.
  PackedShadow s;
  const int pages = static_cast<int>(state.range(0));
  for (int p = 0; p < pages; ++p) {
    s.set_writer(static_cast<std::uintptr_t>(p) << 12, 1);
  }
  for (auto _ : state) {
    s.set_writer(0, 1);
    s.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedEpochClear)->Arg(16)->Arg(1024);

// ---- Access kernel and race log (core/access_kernel.hpp) ------------------
// SP+ is driven through its Tool callbacks with no engine, so only the
// detector's own per-access work is timed.  Each iteration is one access at
// byte granularity over a 512-byte window (8 bytes unless the row's
// argument gives the size).

constexpr std::uintptr_t kWindow = 0x300000;

void BM_SpPlusAccessRaceFree(benchmark::State& state) {
  // The root strand rewrites its own bytes: every prior is in its S bag.
  const auto size = static_cast<std::size_t>(state.range(0));
  rader::RaceLog log;
  rader::SpPlusDetector sp(&log);
  sp.on_run_begin();
  sp.on_frame_enter(0, rader::kInvalidFrame, rader::FrameKind::kRoot, 0);
  std::uintptr_t off = 0;
  for (auto _ : state) {
    sp.on_access(rader::AccessKind::kWrite, kWindow + off, size, false, 0,
                 rader::SrcTag{"write"});
    off = (off + size) & 511;
  }
  if (log.any()) state.SkipWithError("race-free loop reported a race");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpPlusAccessRaceFree)->Arg(8)->Arg(24)->Arg(64);

void BM_SpPlusClear(benchmark::State& state) {
  // A freed object's lifetime in pbfs (24-byte Bag::Nodes): one write, then
  // the clear that forgets it, so every clear finds recorded bytes.  The
  // clear alone costs this row minus BM_SpPlusAccessRaceFree at the same
  // size (pausing the timer per iteration would cost more than the clear).
  const auto size = static_cast<std::size_t>(state.range(0));
  rader::RaceLog log;
  rader::SpPlusDetector sp(&log);
  sp.on_run_begin();
  sp.on_frame_enter(0, rader::kInvalidFrame, rader::FrameKind::kRoot, 0);
  std::uintptr_t off = 0;
  for (auto _ : state) {
    sp.on_access(rader::AccessKind::kWrite, kWindow + off, size, false, 0,
                 rader::SrcTag{"write"});
    sp.on_clear(kWindow + off, size);
    off = (off + size) & 511;
  }
  if (log.any()) state.SkipWithError("race-free loop reported a race");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpPlusClear)->Arg(24);

void BM_SpPlusAccessRepeatedRace(benchmark::State& state) {
  // A spawned child wrote the window and returned unsynced, so each root
  // write races on all 8 bytes with identities already stored: the
  // race-log hit path, eight times per access.
  rader::RaceLog log;
  rader::SpPlusDetector sp(&log);
  sp.on_run_begin();
  sp.on_frame_enter(0, rader::kInvalidFrame, rader::FrameKind::kRoot, 0);
  sp.on_frame_enter(1, 0, rader::FrameKind::kSpawned, 0);
  sp.on_access(rader::AccessKind::kWrite, kWindow, 512, false, 0,
               rader::SrcTag{"child write"});
  sp.on_frame_return(1, 0, rader::FrameKind::kSpawned);
  for (std::uintptr_t off = 0; off < 512; off += 8) {
    sp.on_access(rader::AccessKind::kWrite, kWindow + off, 8, false, 0,
                 rader::SrcTag{"write"});
  }
  std::uintptr_t off = 0;
  for (auto _ : state) {
    sp.on_access(rader::AccessKind::kWrite, kWindow + off, 8, false, 0,
                 rader::SrcTag{"write"});
    off = (off + 8) & 511;
  }
  if (log.determinacy_races().size() != 512) {
    state.SkipWithError("expected one stored identity per byte");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpPlusAccessRepeatedRace);

void BM_RaceLogDuplicateReport(benchmark::State& state) {
  // 512 stored identities, reported again round-robin.
  rader::RaceLog log;
  for (std::uintptr_t a = 0; a < 512; ++a) {
    log.report_determinacy(kWindow + a, rader::AccessKind::kWrite, false,
                           true, 1, 0, "write");
  }
  std::uintptr_t a = 0;
  for (auto _ : state) {
    log.report_determinacy(kWindow + a, rader::AccessKind::kWrite, false,
                           true, 1, 0, "write");
    a = (a + 1) & 511;
  }
  if (log.determinacy_races().size() != 512) {
    state.SkipWithError("a duplicate report stored a new identity");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RaceLogDuplicateReport);

}  // namespace
