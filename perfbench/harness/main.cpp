// perfbench_harness: one workload of Rader's benchmark in one process.
//
//   perfbench_harness --workload=NAME --seed=N --seconds=S --trace=0|1
//                     [--spans-out=FILE] [--revision=REV]
//   perfbench_harness --selftest [--seed=N]
//   perfbench_harness --list-metrics
//
// --trace=0 sets the workload up at least 3 times, and up to 15 times within
// a 6 s set-up budget (setup_s is the median), runs one warm-up round, then
// repeats rounds of the workload's checks for S seconds (at least three) and
// times each check by its median round.  --trace=1 alternates untraced and
// traced rounds for S seconds (at least two traced rounds, whose exact
// counts must agree) and reports the per-layer metrics.  The last stdout
// line is the result JSON: {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and is the documented entry point.
#include <alloca.h>
#include <sys/mman.h>
#include <sys/personality.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "support/metrics.hpp"
#include "workloads.hpp"

namespace {

using perfbench::LayerMetrics;
using perfbench::RoundTimes;
using perfbench::Tally;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  std::string revision = "unknown";
  bool selftest = false;
  bool list_metrics = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench_harness: %s\n", why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else if (key == "--revision") {
      a.revision = value;
    } else if (key == "--selftest") {
      a.selftest = true;
    } else if (key == "--list-metrics") {
      a.list_metrics = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  return a;
}

/// Whether address-space randomization is on (perfbench/run.py turns it
/// off so that a seed always gives the same memory layout).
bool randomized_layout() {
  const int persona = personality(0xffffffff);
  return persona == -1 || (persona & ADDR_NO_RANDOMIZE) == 0;
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Runs one untraced round with the stack, the heap and the mmap area
/// shifted by amounts drawn from `rng`.  The detectors key their shadow
/// directory and hash tables by address, so a check's time depends on where
/// its memory lands: an SP+ steal-all check of fib(25) took 0.07 s in one
/// layout and 0.10 s in most others.  Without shifts, every round of a
/// process reuses one layout, set by the seed's inputs; with them, the
/// median over rounds is taken across layouts, and does not hinge on the
/// seed.
class LayoutShifter {
 public:
  explicit LayoutShifter(std::uint64_t seed) : rng_(seed) {}

  void round(perfbench::Workload& workload, Tally& tally, RoundTimes& times) {
    const std::size_t heap_pad = 16 * (next() % 4096);
    const std::size_t mmap_pad = 4096 * (1 + next() % 256);
    const std::size_t stack_pad = 16 * (next() % 1024);
    void* heap = std::malloc(heap_pad + 1);
    void* gap = mmap(nullptr, mmap_pad, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    run_below(stack_pad, workload, tally, times);
    if (gap != MAP_FAILED) munmap(gap, mmap_pad);
    std::free(heap);
  }

 private:
  std::uint64_t next() {
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng_ >> 33;
  }

  [[gnu::noinline]] static void run_below(std::size_t stack_pad,
                                          perfbench::Workload& workload,
                                          Tally& tally, RoundTimes& times) {
    char* pad = static_cast<char*>(alloca(stack_pad + 1));
    pad[0] = 0;
    asm volatile("" : : "r"(pad) : "memory");
    workload.round(tally, times);
  }

  std::uint64_t rng_;
};

/// Seconds a fixed integer loop takes: logged next to each round, so that a
/// run on a slowed-down host can be told from a slower program.
double calibration_s() {
  const std::uint64_t t0 = rader::metrics::now_nanos();
  std::uint64_t x = 1;
  for (int i = 0; i < 2'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));
  }
  return static_cast<double>(rader::metrics::now_nanos() - t0) * 1e-9;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const std::string& f : tally.failures) {
    std::printf("failed: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run_untraced(const Args& args, unsigned jobs, Tally& tally) {
  // Set up at least kMinSetups times, and up to kMaxSetups while the
  // set-ups have taken less than kSetupBudgetS in total.
  constexpr int kMinSetups = 3;
  constexpr int kMaxSetups = 15;
  constexpr double kSetupBudgetS = 6;
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<perfbench::Workload> workload;
  for (int i = 0; i < kMinSetups ||
                  (i < kMaxSetups && setup_total_s < kSetupBudgetS);
       ++i) {
    workload.reset();
    const std::uint64_t t0 = rader::metrics::now_nanos();
    workload = perfbench::make_workload(args.workload, args.seed, jobs);
    setup_s.push_back(
        static_cast<double>(rader::metrics::now_nanos() - t0) * 1e-9);
    setup_total_s += setup_s.back();
  }
  RoundTimes warmup;
  workload->round(tally, warmup);

  // Peak memory is read after a fixed amount of work (set-ups, warm-up and
  // kRssRounds rounds), so it does not depend on how many rounds fit.
  constexpr std::size_t kRssRounds = 3;
  double rss_mb = 0;
  std::vector<RoundTimes> rounds;
  std::vector<double> calibration;
  LayoutShifter layout(args.seed);
  const rader::metrics::Stopwatch clock;
  while (rounds.size() < kRssRounds || clock.seconds() < args.seconds) {
    RoundTimes r;
    layout.round(*workload, tally, r);
    const perfbench::Summary s = perfbench::summarize(r);
    calibration.push_back(calibration_s());
    std::printf("round %3zu: serial %.6f s, parallel %.6f s, "
                "calibration %.6f s\n",
                rounds.size(), s.serial_s, s.parallel_s, calibration.back());
    rounds.push_back(std::move(r));
    if (rounds.size() == kRssRounds) rss_mb = peak_rss_mb();
  }
  const RoundTimes median = perfbench::median_round(rounds);
  for (const auto& [name, t] : median) {
    std::printf("check %-32s %12.6f s (median of %zu)\n", name.c_str(),
                t.seconds, rounds.size());
  }
  const perfbench::Summary summary = perfbench::summarize(median);
  const std::vector<Metric> metrics = {
      {"serial_check_s", "s", summary.serial_s},
      {"parallel_check_s", "s", summary.parallel_s},
      {"specs_per_s", "1/s", summary.specs_per_s},
      {"peak_rss_mb", "MB", rss_mb},
      {"setup_s", "s", perfbench::quantile(setup_s, 0.5)},
  };
  std::printf("set-ups: %zu; rounds: %zu measured + 1 warm-up\n",
              setup_s.size(), rounds.size());
  std::printf("calibration_s: %.6f\n", perfbench::quantile(calibration, 0.5));
  for (const Metric& m : metrics) {
    std::printf("%-18s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-18s %14.6f fraction (%llu of %llu)\n", "failed_frac",
              tally.attempted != 0 ? static_cast<double>(tally.failed) /
                                         static_cast<double>(tally.attempted)
                                   : 0.0,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  print_result(tally, metrics);
  return 0;
}

int run_traced(const Args& args, unsigned jobs, Tally& tally) {
  auto workload = perfbench::make_workload(args.workload, args.seed, jobs);
  RoundTimes warmup;
  workload->round(tally, warmup);

  std::vector<RoundTimes> untraced;
  std::vector<LayerMetrics> traced;
  LayoutShifter layout(args.seed);
  const rader::metrics::Stopwatch clock;
  while (traced.size() < 2 || clock.seconds() < args.seconds) {
    RoundTimes r;
    layout.round(*workload, tally, r);
    untraced.push_back(r);
    LayerMetrics m;
    for (const auto& info : perfbench::layer_metrics()) m[info.name] = 0;
    workload->traced_round(tally, perfbench::median_round(untraced), m);
    traced.push_back(std::move(m));
  }

  // Audit: exact counts must repeat in every traced round.
  for (const auto& info : perfbench::layer_metrics()) {
    if (!info.exact) continue;
    bool same = true;
    for (const LayerMetrics& m : traced) {
      same = same && m.at(info.name) == traced.front().at(info.name);
    }
    tally.record(same, std::string("count ") + info.name +
                           " repeats across traced rounds");
  }

  std::vector<Metric> metrics;
  for (const auto& info : perfbench::layer_metrics()) {
    std::vector<double> values;
    for (const LayerMetrics& m : traced) {
      const auto it = m.find(info.name);
      values.push_back(it == m.end() ? 0 : it->second);
    }
    metrics.push_back(
        {info.name, info.unit, perfbench::quantile(values, 0.5)});
  }

  const std::vector<perfbench::Span> all = perfbench::spans().snapshot();
  std::printf("traced rounds: %zu; spans: %zu\n", traced.size(), all.size());
  std::printf("%-36s %10s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& row : perfbench::self_times(all)) {
    std::printf("%-36s %10llu %12.6f %12.6f\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count), row.total_s,
                row.self_s);
  }
  if (!args.spans_out.empty() &&
      !perfbench::spans().write_jsonl(args.spans_out)) {
    tally.record(false, "write spans to " + args.spans_out);
  }
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "perfbench_harness: refusing to time an unoptimized build "
                 "(build type '%s'); rebuild with RelWithDebInfo or Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (args.list_metrics) {
    for (const auto& info : perfbench::layer_metrics()) {
      std::printf("%s %s %s\n", info.name, info.unit,
                  info.exact ? "exact" : "-");
    }
    return 0;
  }
  if (args.selftest) {
    const int bad = perfbench::self_test(args.seed);
    std::printf("selftest: %d failure(s)\n", bad);
    return bad == 0 ? 0 : 1;
  }
  // Sweeps and parallel checks use every hardware thread.
  const unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage(("unknown workload '" + args.workload + "'").c_str());
  }

  std::printf(
      "run_record: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %g, \"hardware_threads\": %u, \"jobs\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"optimized\": %s, "
      "\"randomized_layout\": %s, \"revision\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, args.seconds, jobs, jobs, PERFBENCH_CXX_COMPILER,
      PERFBENCH_BUILD_TYPE, optimized_build() ? "true" : "false",
      randomized_layout() ? "true" : "false", args.revision.c_str());
  std::fflush(stdout);

  Tally tally;
  try {
    return args.trace ? run_traced(args, jobs, tally)
                      : run_untraced(args, jobs, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
