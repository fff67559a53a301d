// Tracing-enabled cost (support/trace.hpp): the same SP+ / no-steals
// detection runs as Figure 7, with a trace session attached versus not.
// Complements the fig7_overhead dormant-hook guard: this is the price the
// user opts into with `rader --trace=FILE`, so there is no hard budget —
// the table documents the slope (a ring-buffer store per event) and the
// ring's drop behaviour at the default capacity.
//
// Usage: trace_overhead [--scale=S] [--reps=N] [--json=FILE]
//   --json=FILE appends machine-readable results for trend tracking
//   (scripts/nightly_bench.sh).
#include <cstdio>

#include "bench_util.hpp"
#include "support/trace.hpp"

namespace {

double time_spplus(rader::apps::Workload& w, int reps) {
  rader::spec::NoSteal none;
  rader::RaceLog log;
  rader::SpPlusDetector spplus(&log);
  return rader::bench::time_config(w, &spplus, &none, reps);
}

struct TracedRun {
  double seconds = 0;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
};

TracedRun time_spplus_traced(rader::apps::Workload& w, int reps) {
  TracedRun r;
  rader::trace::Session session;
  rader::obs::Scope scope(&session, w.name);
  rader::spec::NoSteal none;
  rader::RaceLog log;
  rader::SpPlusDetector spplus(&log);
  r.seconds = rader::bench::time_config(w, &spplus, &none, reps);
  r.recorded = session.total_recorded();
  r.dropped = session.total_dropped();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = rader::bench::parse_scale(argc, argv, 0.05);
  const int reps = rader::bench::parse_reps(argc, argv, 2);
  std::printf("trace_overhead: scale=%.3g reps=%d (SP+ / no-steals, session "
              "attached vs not)\n", scale, reps);
  std::printf("%-10s %9s %9s %8s %14s %12s\n", "Benchmark", "off (s)",
              "on (s)", "ratio", "events", "dropped");

  struct JsonRow {
    std::string name;
    double off, on, ratio;
    std::uint64_t recorded, dropped;
  };
  std::vector<JsonRow> jrows;
  std::vector<double> ratios;
  for (auto& w : rader::apps::make_paper_benchmarks(scale)) {
    const double off = time_spplus(w, reps);
    const TracedRun on = time_spplus_traced(w, reps);
    const double ratio = on.seconds / off;
    ratios.push_back(ratio);
    jrows.push_back({w.name, off, on.seconds, ratio, on.recorded, on.dropped});
    std::printf("%-10s %9.4f %9.4f %7.2fx %14llu %12llu\n", w.name.c_str(),
                off, on.seconds, ratio,
                static_cast<unsigned long long>(on.recorded),
                static_cast<unsigned long long>(on.dropped));
  }
  const double gm = rader::bench::geomean(ratios);
  std::printf("%-10s %29.2fx\n", "geomean", gm);
  std::printf("(informational: tracing is opt-in; the dormant-hook budget "
              "lives in fig7_overhead)\n");

  const std::string json_path = rader::bench::parse_arg(argc, argv, "json");
  if (!json_path.empty()) {
    FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"trace_overhead\",\n"
                      "  \"scale\": %g,\n  \"reps\": %d,\n"
                      "  \"geomean\": %.4f,\n  \"rows\": [\n",
                 scale, reps, gm);
    for (std::size_t i = 0; i < jrows.size(); ++i) {
      const JsonRow& r = jrows[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"off_s\": %.6f, \"on_s\": %.6f, "
                   "\"ratio\": %.4f, \"events\": %llu, \"dropped\": %llu}%s\n",
                   r.name.c_str(), r.off, r.on, r.ratio,
                   static_cast<unsigned long long>(r.recorded),
                   static_cast<unsigned long long>(r.dropped),
                   i + 1 < jrows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
