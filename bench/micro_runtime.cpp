// Microbenchmarks for the runtime substrate: spawn/sync cost with and
// without instrumentation, reducer update cost, steal-simulation cost, and
// the same spawn/sync and reducer-update costs on the work-stealing engine
// at 1/2/4 workers (ns per item; ungated — the host decides how many of the
// workers really run at once).
#include <benchmark/benchmark.h>

#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "sched/parallel_engine.hpp"
#include "spec/steal_spec.hpp"
#include "tool/tool.hpp"

namespace {

void spawn_tree(int depth) {
  if (depth == 0) return;
  rader::spawn([depth] { spawn_tree(depth - 1); });
  spawn_tree(depth - 1);
  rader::sync();
}

void BM_SpawnSyncUninstrumented(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  rader::SerialEngine engine;
  for (auto _ : state) {
    engine.run([depth] { spawn_tree(depth); });
  }
  state.SetItemsProcessed(state.iterations() * ((1 << depth) - 1));
}
BENCHMARK(BM_SpawnSyncUninstrumented)->Arg(10);

void BM_SpawnSyncEmptyTool(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  rader::EmptyTool tool;
  rader::SerialEngine engine(&tool);
  for (auto _ : state) {
    engine.run([depth] { spawn_tree(depth); });
  }
  state.SetItemsProcessed(state.iterations() * ((1 << depth) - 1));
}
BENCHMARK(BM_SpawnSyncEmptyTool)->Arg(10);

void BM_ReducerUpdate(benchmark::State& state) {
  rader::SerialEngine engine;
  for (auto _ : state) {
    engine.run([&state] {
      rader::reducer<rader::monoid::op_add<long>> sum;
      for (int i = 0; i < state.range(0); ++i) sum += 1;
      benchmark::DoNotOptimize(sum.get_value());
    });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReducerUpdate)->Arg(10000);

void BM_StealSimulation(benchmark::State& state) {
  // Cost of minting views + folding them: steal every continuation.
  rader::spec::StealAll all;
  rader::SerialEngine engine(nullptr, &all);
  const int spawns = static_cast<int>(state.range(0));
  for (auto _ : state) {
    engine.run([spawns] {
      rader::reducer<rader::monoid::op_add<long>> sum;
      for (int i = 0; i < spawns; ++i) {
        rader::spawn([&sum] { sum += 1; });
        sum += 1;
      }
      rader::sync();
      benchmark::DoNotOptimize(sum.get_value());
    });
  }
  state.SetItemsProcessed(state.iterations() * spawns);
}
BENCHMARK(BM_StealSimulation)->Arg(1000);

void BM_ShadowAnnotation(benchmark::State& state) {
  // shadow_write through the engine with a null tool: the uninstrumented
  // fast path the "no instrumentation" baseline pays.
  rader::SerialEngine engine;
  static long x = 0;
  for (auto _ : state) {
    engine.run([&state] {
      for (int i = 0; i < state.range(0); ++i) {
        rader::shadow_write(&x, sizeof(x));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShadowAnnotation)->Arg(100000);

// One spawn+sync pair per item: a depth-14 spawn tree on the work-stealing
// engine, uninstrumented.  The engine (and its helper threads) lives across
// iterations, as it does across the runs of one check.
void BM_ParallelSpawnSync(benchmark::State& state) {
  constexpr int kDepth = 14;
  rader::ParallelEngine engine(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    engine.run([] { spawn_tree(kDepth); });
  }
  state.SetItemsProcessed(state.iterations() * ((1 << kDepth) - 1));
  state.counters["sec_per_spawn"] = benchmark::Counter(
      static_cast<double>(state.iterations() * ((1 << kDepth) - 1)),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ParallelSpawnSync)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// One reducer update per item, spread over a parallel loop so every worker
// updates its own views.
void BM_ParallelReducerUpdate(benchmark::State& state) {
  constexpr int kUpdates = 1 << 18;
  rader::ParallelEngine engine(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    engine.run([] {
      rader::reducer<rader::monoid::op_add<long>> sum;
      rader::parallel_for<int>(0, kUpdates, [&sum](int) { sum += 1; },
                               /*grain=*/1024);
      rader::sync();
      benchmark::DoNotOptimize(sum.get_value());
    });
  }
  state.SetItemsProcessed(state.iterations() * kUpdates);
  state.counters["sec_per_update"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kUpdates),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ParallelReducerUpdate)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace
