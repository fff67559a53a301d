// rader — command-line front end for the race detectors.
//
// Runs one of the bundled benchmark programs (or the Figure 1 demo) under a
// chosen detection algorithm and steal specification, and prints the race
// report — the prototype-tool workflow of Section 8: "Rader takes as an
// input either three values specifying the continuations to be stolen, or a
// random seed and the maximum sync block size ...  If a race is detected,
// Rader reports the labels corresponding to the stolen continuations that
// triggered the race, making it easy to repeat the run for regression
// tests."
//
// Usage:
//   rader --program=NAME [--scale=S] --check=ALGO [--spec=SPEC] [--k-cap=N]
//         [--engine=serial|parallel] [--jobs=J] [--budget=B]
//         [--stop-first=0|1] [--replay=HANDLE] [--format=text|json]
//
//   NAME: collision | dedup | ferret | fib | knapsack | pbfs | fig1
//   ALGO: peerset     view-read races (Peer-Set, Section 3)
//         sp+         determinacy races under --spec (SP+, Section 5)
//         spbags      reducer-oblivious SP-bags baseline [Feng–Leiserson]
//         sporder     reducer-oblivious SP-order baseline [Bender et al.]
//         exhaustive  Peer-Set + SP+ over the O(KD + K^3) family (Section 7)
//   SPEC: none | all | triple:A,B,C | depth:D | random:SEED,K | bern:SEED,P
//
// --engine=parallel runs Peer-Set on-the-fly inside the work-stealing
// engine (Rader::check_parallel): the program executes for real on --jobs
// workers (0 = all hardware threads) while the engine's spliced event
// shards feed the detector, producing a report identical to the serial
// --engine=serial run.  Only --check=peerset supports it (the other
// algorithms need simulated steal specifications, which require the serial
// engine).
//
// The exhaustive family sweep is parallel: --jobs=J shards the family over J
// worker threads (0 = all hardware threads), --budget=B caps the number of
// SP+ runs, --stop-first=1 stops handing out specs once a race is found.
// Each worker checks its own instance of the program; merged reports are
// deduplicated (one per race, listing every spec that elicited it).
// --sweep-strategy=prefix turns on prefix sharing: each spec fast-forwards
// from a checkpoint of its longest shared decision prefix with the previous
// one (core/sweep.hpp) — identical reports, several times fewer detector
// events.
//
// --replay=HANDLE re-runs exactly one eliciting specification from a prior
// report: HANDLE is a spec handle as printed in `found_under` /
// `replay_handles` (e.g. "steal-triple(0,1,2)"), and the run must reproduce
// the identical deduplicated race set.  --format=json emits the versioned
// machine-readable report (core/report_json.hpp) on stdout; informational
// progress lines then go to stderr so stdout stays pure JSON.
//
// --repro=FILE replays a `.rprog` fuzz reproducer (docs/FUZZING.md) through
// the full report/provenance pipeline: the serialized program runs under its
// recorded steal specification with SP+ AND Peer-Set attached, provenance is
// annotated, and the observed canonical race keys are verified against the
// file's `expect` lines (byte-identical reproduction; mismatch exits 3).
// Reports carry races[].repro_file (schema v3).  --program is not required.
//
// Observability:
//   --trace=FILE         record the execution (support/trace.hpp) and write
//                        it to FILE; --trace-format=chrome (default; Chrome
//                        trace-event JSON, loadable in Perfetto) or text
//                        (compact timeline)
//   --explain            replay each reported race under its found_under
//                        spec and attach a provenance record (fork frame,
//                        eliciting steal, involved Reduce/CreateIdentity
//                        strand, DAG-oracle cross-check); rendered in the
//                        text report and under races[].provenance in JSON
//                        (schema v2)
//   --progress           live sweep heartbeat lines on stderr (specs done,
//                        rolling-window specs/s and ETA, per-worker counts)
//   --profile=FILE       hierarchical phase profile (support/profile.hpp):
//                        collapsed-stack lines (flamegraph.pl / speedscope
//                        input) written to FILE, human-readable table to the
//                        info stream
//   --metrics-out=FILE   JSONL metrics time series: the sweep monitor
//                        appends one timestamped snapshot line every
//                        --metrics-interval-ms (default 500) plus a final
//                        quiesced sample (core/metrics_export.hpp)
//   --metrics-prom=FILE  final metrics snapshot in the Prometheus text
//                        exposition format
//   --list-metrics       print the metric catalog (name, type, help) and
//                        exit
//   --watchdog-ms=N      sweep hang watchdog: if no spec completes for N ms
//                        a post-mortem report lands on stderr (diagnosis
//                        only; the sweep is not interrupted)
//   --postmortem=FILE    install a fatal-signal handler that writes a
//                        post-mortem report (live metrics, in-flight specs,
//                        trace-ring tails) to FILE on SIGSEGV and friends
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "apps/mylist.hpp"
#include "apps/workloads.hpp"
#include "core/driver.hpp"
#include "core/metrics_export.hpp"
#include "core/provenance.hpp"
#include "core/report_json.hpp"
#include "core/sporder.hpp"
#include "core/trace_export.hpp"
#include "dag/program_serial.hpp"
#include "fuzz/differ.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "spec/steal_spec.hpp"
#include "support/crash.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace {

using namespace rader;

std::string arg_value(int argc, char** argv, const std::string& key,
                      const std::string& fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

/// Bare boolean flag: `--key` or `--key=1` is true, `--key=0` false.
bool arg_flag(int argc, char** argv, const std::string& key) {
  const std::string bare = "--" + key;
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == bare) return true;
  }
  return arg_value(argc, argv, key, "0") != "0";
}

/// Every numeric CLI value goes through these instead of bare std::sto*:
/// a typo ("--jobs=abc", "--scale=xyz") must be a one-line diagnostic and
/// exit 2, never an uncaught std::invalid_argument.
unsigned long long parse_number(const std::string& flag,
                                const std::string& text, int base = 10) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(text, &pos, base);
    if (pos != text.size() || text.empty()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    std::fprintf(stderr, "rader: invalid value for --%s: '%s'\n",
                 flag.c_str(), text.c_str());
    std::exit(2);
  }
}

double parse_real(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size() || text.empty()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    std::fprintf(stderr, "rader: invalid value for --%s: '%s'\n",
                 flag.c_str(), text.c_str());
    std::exit(2);
  }
}

[[noreturn]] void usage_and_exit() {
  std::fprintf(
      stderr,
      "usage: rader --program=NAME [--scale=S] --check=ALGO [--spec=SPEC]\n"
      "             [--k-cap=N] [--engine=serial|parallel] [--jobs=J]\n"
      "             [--budget=B] [--stop-first=0|1]\n"
      "             [--sweep-strategy=rerun|prefix]\n"
      "             [--sample-rate=P] [--sample-seed=S]\n"
      "             [--replay=HANDLE] [--format=text|json]\n"
      "             [--trace=FILE] [--trace-format=chrome|text]\n"
      "             [--explain] [--progress] [--profile=FILE]\n"
      "             [--metrics-out=FILE] [--metrics-interval-ms=N]\n"
      "             [--metrics-prom=FILE] [--watchdog-ms=N]\n"
      "             [--postmortem=FILE]\n"
      "             [--isolate=none|procs] [--spec-timeout-ms=N]\n"
      "             [--max-retries=K] [--child-mem-mb=M]\n"
      "             [--watchdog-kill] [--postmortem-dir=DIR]\n"
      "       rader --repro=FILE [--format=text|json]\n"
      "       rader --list-metrics\n"
      "  NAME: collision|dedup|ferret|fib|knapsack|pbfs|fig1\n"
      "  ALGO: peerset|sp+|spbags|sporder|exhaustive\n"
      "  SPEC: none|all|triple:A,B,C|depth:D|random:SEED,K|bern:SEED,P\n"
      "  ENGINE: serial (default) or parallel — peerset only; runs the\n"
      "          program on --jobs work-stealing workers with on-the-fly\n"
      "          detection (identical report, parallel wall-clock)\n"
      "  JOBS: exhaustive-sweep / parallel-engine worker threads\n"
      "        (0 = hardware threads)\n"
      "  STRATEGY: rerun = every spec is a fresh run (default); prefix =\n"
      "          checkpoint/fork prefix sharing (same result, faster)\n"
      "  SAMPLE-RATE: P in [0,1] — sample each memory granule with\n"
      "          probability P (deterministic per-spec seed; serial\n"
      "          engine only).  P=1 reproduces the unsampled report;\n"
      "          P<1 keeps control-flow exact but may MISS races whose\n"
      "          granules were not sampled (never false positives)\n"
      "  HANDLE: a spec handle from a report's replay_handles, e.g.\n"
      "          'steal-triple(0,1,2)' (the SPEC grammar is also accepted)\n"
      "  ISOLATE: procs = sandbox each sweep shard in a child process\n"
      "          (docs/ROBUSTNESS.md); a crashing/hanging/OOMing spec is\n"
      "          retried then quarantined into the report's\n"
      "          sweep.failures[] instead of taking the run down.\n"
      "          --spec-timeout-ms bounds one spec, --child-mem-mb caps\n"
      "          child address space, --watchdog-kill lets the stall\n"
      "          watchdog terminate (and quarantine) a wedged child,\n"
      "          --postmortem-dir collects per-child crash postmortems\n");
  std::exit(2);
}

std::unique_ptr<spec::StealSpec> parse_spec(const std::string& text) {
  if (text == "none") return std::make_unique<spec::NoSteal>();
  if (text == "all") return std::make_unique<spec::StealAll>();
  const auto colon = text.find(':');
  if (colon == std::string::npos) usage_and_exit();
  const std::string kind = text.substr(0, colon);
  const std::string args = text.substr(colon + 1);
  if (kind == "triple") {
    unsigned a = 0, b = 0, c = 0;
    if (std::sscanf(args.c_str(), "%u,%u,%u", &a, &b, &c) != 3) {
      usage_and_exit();
    }
    return std::make_unique<spec::TripleSteal>(a, b, c);
  }
  if (kind == "depth") {
    // Not parse_number: a malformed spec/replay argument is a usage error
    // ("depth:abc" has no flag of its own), but still a clean exit 2.
    std::size_t pos = 0;
    unsigned long long depth = 0;
    try {
      depth = std::stoull(args, &pos);
    } catch (const std::exception&) {
      usage_and_exit();
    }
    if (pos != args.size() || args.empty()) usage_and_exit();
    return std::make_unique<spec::DepthSteal>(depth);
  }
  if (kind == "random") {
    unsigned long long seed = 0;
    unsigned k = 0;
    if (std::sscanf(args.c_str(), "%llu,%u", &seed, &k) != 2) usage_and_exit();
    return std::make_unique<spec::RandomTripleSteal>(seed, k);
  }
  if (kind == "bern") {
    unsigned long long seed = 0;
    double p = 0;
    if (std::sscanf(args.c_str(), "%llu,%lf", &seed, &p) != 2) usage_and_exit();
    return std::make_unique<spec::BernoulliSteal>(seed, p);
  }
  usage_and_exit();
}

/// `rader --repro=FILE`: replay a serialized fuzz reproducer through the
/// full report/provenance pipeline and verify its recorded race keys.
int run_repro(const std::string& path, bool json) {
  FILE* const info = json ? stderr : stdout;
  std::string error;
  const auto repro = dag::load_reproducer(path, &error);
  if (!repro) {
    std::fprintf(stderr, "rader: cannot load reproducer '%s': %s\n",
                 path.c_str(), error.c_str());
    return 2;
  }
  std::fprintf(info, "repro: %s (spec %s, %zu action(s))\n", path.c_str(),
               repro->spec_handle.c_str(), repro->tree.action_count());
  if (!repro->note.empty()) {
    std::fprintf(info, "note: %s\n", repro->note.c_str());
  }

  metrics::Stopwatch timer;
  const auto replayed = fuzz::replay_reproducer(*repro, &error);
  if (!replayed) {
    std::fprintf(stderr, "rader: cannot replay '%s': %s\n", path.c_str(),
                 error.c_str());
    return 2;
  }
  RaceLog log = replayed->log;
  log.stamp_repro_file(path);

  // Verify byte-identical reproduction of the recorded race set.
  bool matches = true;
  if (!repro->expect.empty() || !replayed->keys.empty()) {
    matches = replayed->keys == repro->expect;
    if (matches) {
      std::fprintf(info, "repro: race set matches (%zu key(s))\n",
                   replayed->keys.size());
    } else {
      std::fprintf(stderr,
                   "rader: reproducer race set MISMATCH (%zu expected, %zu "
                   "observed)\n",
                   repro->expect.size(), replayed->keys.size());
      for (const auto& k : repro->expect) {
        std::fprintf(stderr, "  expected: %s\n", k.c_str());
      }
      for (const auto& k : replayed->keys) {
        std::fprintf(stderr, "  observed: %s\n", k.c_str());
      }
    }
  }

  ReportMeta meta;
  meta.program = path;
  meta.check = "repro";
  meta.spec = repro->spec_handle;
  if (json) {
    std::printf("%s\n", report_json(meta, log).c_str());
  } else {
    std::printf("checked in %.3fs\n%s", timer.seconds(),
                log.to_string().c_str());
  }
  if (!matches) return 3;
  return log.any() ? 1 : 0;
}

// The Figure 1 program, packaged for the CLI (known-racy demo target).
struct Fig1Program {
  apps::MyList owned;
  apps::ListNode* owned_tail = nullptr;
  Fig1Program() {
    for (int i = 0; i < 12; ++i) owned.insert(100 + i);
    auto* n = const_cast<apps::ListNode*>(owned.head());
    while (n->next != nullptr) n = n->next;
    owned_tail = n;
  }
  ~Fig1Program() { owned.destroy(); }
  void operator()() {
    apps::MyList working = owned;
    apps::MyList copy(working);
    int len = 0;
    spawn([&] { len = working.scan(SrcTag{"scan_list"}); });
    call([&] {
      reducer<apps::list_monoid> red(SrcTag{"list_reducer"});
      red.set_value(copy, SrcTag{"set_value(list)"});
      parallel_for_flat<int>(
          0, 8,
          [&](int i) {
            red.update([&](apps::MyList& v) { v.insert(i); },
                       SrcTag{"list insert"});
          },
          /*chunks=*/8);
      rader::sync();
      copy = red.take_value(SrcTag{"get_value()"});
    });
    rader::sync();
    (void)len;
    // The Reduce-side concat — the Figure 1 bug — appends onto `owned`'s
    // tail node, because the shallow copies share its chain.  Detach the
    // appendage (raw, serial, after the sync) so every execution observes
    // the identical 12-node list: sweep programs must be re-runnable, and
    // the prefix-sharing sweep verifies it.
    owned_tail->next = nullptr;
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (arg_flag(argc, argv, "list-metrics")) {
    // Catalog mode: every metric this build can emit, in exposition order.
    // The names are the stable dotted identifiers used by report schema v4,
    // the JSONL sampler, and (underscore-joined) the Prometheus exposition.
    for (const auto& m : metrics::list_metrics()) {
      std::printf("%-28s %-9s %s\n", m.name, m.type, m.help);
    }
    return 0;
  }
  const std::string name = arg_value(argc, argv, "program", "");
  const std::string algo = arg_value(argc, argv, "check", "exhaustive");
  const std::string spec_text = arg_value(argc, argv, "spec", "random:1,16");
  const std::string replay = arg_value(argc, argv, "replay", "");
  const std::string format = arg_value(argc, argv, "format", "text");
  const bool json = format == "json";
  const double scale = parse_real("scale", arg_value(argc, argv, "scale", "0.02"));
  const auto k_cap = static_cast<std::uint32_t>(
      parse_number("k-cap", arg_value(argc, argv, "k-cap", "8")));
  SweepOptions sweep;
  sweep.threads = static_cast<unsigned>(
      parse_number("jobs", arg_value(argc, argv, "jobs", "1")));
  sweep.budget = parse_number("budget", arg_value(argc, argv, "budget", "0"));
  sweep.stop_after_first_race =
      arg_value(argc, argv, "stop-first", "0") != "0";
  const std::string strategy =
      arg_value(argc, argv, "sweep-strategy", "rerun");
  if (strategy == "prefix") {
    sweep.strategy = SweepStrategy::kPrefix;
  } else if (strategy != "rerun") {
    usage_and_exit();
  }
  const std::string sample_rate_text =
      arg_value(argc, argv, "sample-rate", "");
  if (!sample_rate_text.empty()) {
    sweep.sampling.enabled = true;
    sweep.sampling.rate = parse_real("sample-rate", sample_rate_text);
    if (!(sweep.sampling.rate >= 0.0 && sweep.sampling.rate <= 1.0)) {
      std::fprintf(stderr, "rader: --sample-rate must be in [0,1]\n");
      usage_and_exit();
    }
    sweep.sampling.seed = parse_number(
        "sample-seed", arg_value(argc, argv, "sample-seed", "0x5eed"), 0);
  }
  const std::string engine = arg_value(argc, argv, "engine", "serial");
  if (engine != "serial" && engine != "parallel") usage_and_exit();
  if (engine == "parallel" && sweep.sampling.enabled) {
    std::fprintf(stderr,
                 "rader: --sample-rate requires the serial engine (the "
                 "parallel engine's shard replay pre-dedups accesses)\n");
    usage_and_exit();
  }
  if (engine == "parallel" && algo != "peerset") {
    std::fprintf(stderr,
                 "rader: --engine=parallel supports --check=peerset only "
                 "(the other algorithms simulate steal specifications on "
                 "the serial engine)\n");
    usage_and_exit();
  }
  sweep.progress = arg_flag(argc, argv, "progress");
  sweep.metrics_interval_ms = static_cast<unsigned>(parse_number(
      "metrics-interval-ms",
      arg_value(argc, argv, "metrics-interval-ms", "500")));
  sweep.watchdog_ms = static_cast<unsigned>(
      parse_number("watchdog-ms", arg_value(argc, argv, "watchdog-ms", "0")));
  // Crash isolation (docs/ROBUSTNESS.md): sandbox sweep specs in child
  // processes with per-spec deadlines, retry/quarantine, and memory caps.
  const std::string isolate = arg_value(argc, argv, "isolate", "none");
  if (isolate == "procs") {
    sweep.isolation = SweepIsolation::kProcs;
  } else if (isolate != "none") {
    usage_and_exit();
  }
  sweep.spec_timeout_ms = static_cast<unsigned>(parse_number(
      "spec-timeout-ms", arg_value(argc, argv, "spec-timeout-ms", "0")));
  sweep.max_retries = static_cast<unsigned>(parse_number(
      "max-retries", arg_value(argc, argv, "max-retries", "1")));
  sweep.child_mem_mb = static_cast<unsigned>(parse_number(
      "child-mem-mb", arg_value(argc, argv, "child-mem-mb", "0")));
  sweep.watchdog_kill = arg_flag(argc, argv, "watchdog-kill");
  sweep.postmortem_dir = arg_value(argc, argv, "postmortem-dir", "");
  if (sweep.isolation == SweepIsolation::kNone &&
      (sweep.spec_timeout_ms != 0 || sweep.watchdog_kill ||
       sweep.child_mem_mb != 0 || !sweep.postmortem_dir.empty())) {
    std::fprintf(stderr,
                 "rader: --spec-timeout-ms/--watchdog-kill/--child-mem-mb/"
                 "--postmortem-dir require --isolate=procs\n");
    usage_and_exit();
  }
  const std::string metrics_out_path =
      arg_value(argc, argv, "metrics-out", "");
  const std::string metrics_prom_path =
      arg_value(argc, argv, "metrics-prom", "");
  const std::string profile_path = arg_value(argc, argv, "profile", "");
  const std::string postmortem_path = arg_value(argc, argv, "postmortem", "");
  if (!postmortem_path.empty()) {
    crash::install_signal_handler(postmortem_path.c_str());
  }
  const std::string trace_path = arg_value(argc, argv, "trace", "");
  const std::string trace_format =
      arg_value(argc, argv, "trace-format", "chrome");
  if (trace_format != "chrome" && trace_format != "text") usage_and_exit();
  const bool explain = arg_flag(argc, argv, "explain");
  const std::string repro_path = arg_value(argc, argv, "repro", "");
  if (!repro_path.empty()) return run_repro(repro_path, json);
  if (name.empty()) usage_and_exit();

  // Under --format=json, stdout stays pure JSON: progress goes to stderr.
  FILE* const info = json ? stderr : stdout;

  if (sweep.sampling.enabled) {
    std::fprintf(info, "sampling: rate=%g seed=%llu (O(1)-samples mode)\n",
                 sweep.sampling.rate,
                 static_cast<unsigned long long>(sweep.sampling.seed));
  }

  // Assemble the program under test.
  std::function<void()> program;
  Fig1Program fig1;
  apps::Workload workload;
  if (name == "fig1") {
    program = [&fig1] { fig1(); };
  } else {
    bool known = false;
    for (const std::string& k : apps::benchmark_names()) known |= (name == k);
    if (!known) {
      std::fprintf(stderr, "rader: unknown program '%s'\n", name.c_str());
      usage_and_exit();
    }
    workload = apps::make_benchmark(name, scale);
    program = workload.run;
    std::fprintf(info, "program: %s (%s)\n", workload.name.c_str(),
                 workload.input_desc.c_str());
  }

  // Collect run metrics for the whole check (probe + sweep workers +
  // merge), and with --profile its phase tree; sweep workers fold their
  // sinks into these at join.
  metrics::Registry reg;
  prof::Profiler profiler;
  obs::Context obs_ctx = obs::current();
  obs_ctx.registry = &reg;
  if (!profile_path.empty()) obs_ctx.profiler = &profiler;

  // JSONL metrics time series (sweep checks only — the sampler rides the
  // sweep's monitor thread).
  std::ofstream metrics_out_stream;
  if (!metrics_out_path.empty()) {
    metrics_out_stream.open(metrics_out_path, std::ios::binary);
    if (!metrics_out_stream) {
      std::fprintf(stderr, "rader: cannot open --metrics-out file '%s'\n",
                   metrics_out_path.c_str());
      return 2;
    }
    sweep.metrics_out = &metrics_out_stream;
  }

  // Activate tracing for the whole check when --trace=FILE was given; the
  // main thread records into the "main" buffer, sweep workers attach their
  // own "sweep-wN" buffers.
  trace::Session trace_session;
  if (!trace_path.empty()) {
    obs_ctx.session = &trace_session;
    obs_ctx.buffer = trace_session.make_buffer("main");
  }
  obs::Scope obs_scope(obs_ctx);

  ReportMeta meta;
  meta.program = name;
  meta.check = algo;

  metrics::Stopwatch timer;
  RaceLog log;
  if (!replay.empty()) {
    // Replay one eliciting specification from a prior report.  Handles use
    // the describe() rendering; the CLI SPEC grammar is accepted as well.
    std::unique_ptr<spec::StealSpec> steal_spec =
        spec::from_description(replay);
    if (!steal_spec) steal_spec = parse_spec(replay);
    meta.check = "replay";
    meta.spec = steal_spec->describe();
    std::fprintf(info, "replay: %s\n", steal_spec->describe().c_str());
    log = Rader::check_determinacy([&] { program(); }, *steal_spec,
                                   sweep.sampling);
  } else if (algo == "peerset") {
    if (engine == "parallel") {
      std::fprintf(info, "engine: parallel (%u job(s))\n", sweep.threads);
      meta.check = "peerset-parallel";
      log = Rader::check_parallel([&] { program(); }, sweep.threads);
    } else {
      log = Rader::check_view_read([&] { program(); }, sweep.sampling);
    }
  } else if (algo == "sp+") {
    const auto steal_spec = parse_spec(spec_text);
    meta.spec = steal_spec->describe();
    std::fprintf(info, "spec: %s\n", steal_spec->describe().c_str());
    log = Rader::check_determinacy([&] { program(); }, *steal_spec,
                                   sweep.sampling);
  } else if (algo == "spbags") {
    log = Rader::check_spbags([&] { program(); }, sweep.sampling);
  } else if (algo == "sporder") {
    SpOrderDetector detector(&log);
    spec::NoSteal none;
    Tool* tool = &detector;
    std::unique_ptr<SamplingTool> sampler;
    if (sweep.sampling.enabled) {
      SamplingConfig cfg = sweep.sampling;
      cfg.seed = sampling_seed_for_spec(cfg.seed, none.describe());
      sampler = std::make_unique<SamplingTool>(&detector, cfg);
      tool = sampler.get();
    }
    run_serial([&] { program(); }, tool, &none);
  } else if (algo == "exhaustive") {
    // The sweep shards specs across workers, and each worker must check its
    // own instance of the program — hand the driver a factory, not the
    // shared `program` closure.
    ProgramFactory factory;
    if (name == "fig1") {
      factory = [] {
        auto p = std::make_shared<Fig1Program>();
        return std::function<void()>([p] { (*p)(); });
      };
    } else {
      factory = [name, scale] {
        auto w = std::make_shared<apps::Workload>(
            apps::make_benchmark(name, scale));
        return std::function<void()>([w] { w->run(); });
      };
    }
    const auto result = Rader::check_exhaustive(factory, sweep, k_cap);
    std::fprintf(info, "probe: K=%u D=%llu; %llu SP+ runs over the O(KD+K^3) "
                 "family (%u job(s), %llu spec(s) skipped)\n",
                 result.k, static_cast<unsigned long long>(result.depth),
                 static_cast<unsigned long long>(result.spec_runs),
                 sweep.threads,
                 static_cast<unsigned long long>(result.specs_skipped));
    for (const auto& failure : result.failures) {
      std::fprintf(info,
                   "quarantined: spec[%zu] %s (%s%s%s, %u retr%s)%s%s\n",
                   failure.index, failure.spec.c_str(), failure.cause.c_str(),
                   failure.signal != 0 ? " " : "",
                   failure.signal != 0
                       ? std::to_string(failure.signal).c_str()
                       : "",
                   failure.retries, failure.retries == 1 ? "y" : "ies",
                   failure.postmortem.empty() ? "" : " postmortem: ",
                   failure.postmortem.c_str());
    }
    log = result.log;
    meta.has_sweep = true;
    meta.jobs = sweep.threads;
    meta.budget = sweep.budget;
    meta.stop_first = sweep.stop_after_first_race;
    meta.k = result.k;
    meta.depth = result.depth;
    meta.spec_runs = result.spec_runs;
    meta.specs_skipped = result.specs_skipped;
    meta.failures = result.failures;
  } else {
    usage_and_exit();
  }

  if (explain) {
    // Replay the reported races under their found_under specs and attach
    // provenance records (core/provenance.hpp).  The replays run the same
    // deterministic program, so this is safe after any check mode.
    const std::size_t annotated =
        annotate_provenance(log, [&] { program(); });
    std::fprintf(info, "explain: annotated %zu of %zu race report(s)\n",
                 annotated,
                 log.view_read_races().size() + log.determinacy_races().size());
  }

  if (!trace_path.empty()) {
    bool ok = false;
    if (trace_format == "chrome") {
      ok = write_chrome_trace(trace_session, trace_path);
    } else {
      std::ofstream out(trace_path, std::ios::binary);
      out << text_timeline(trace_session);
      ok = out.good();
    }
    if (ok) {
      std::fprintf(info, "trace: wrote %s (%llu event(s), %llu dropped)\n",
                   trace_path.c_str(),
                   static_cast<unsigned long long>(
                       trace_session.total_recorded()),
                   static_cast<unsigned long long>(
                       trace_session.total_dropped()));
    } else {
      std::fprintf(stderr, "rader: failed to write trace to %s\n",
                   trace_path.c_str());
    }
  }

  if (!metrics_out_path.empty()) {
    metrics_out_stream.close();
    std::fprintf(info, "metrics: wrote JSONL time series to %s\n",
                 metrics_out_path.c_str());
  }

  if (!metrics_prom_path.empty()) {
    std::ofstream prom(metrics_prom_path, std::ios::binary);
    prom << prometheus_text(reg.snapshot());
    if (prom.good()) {
      std::fprintf(info, "metrics: wrote Prometheus snapshot to %s\n",
                   metrics_prom_path.c_str());
    } else {
      std::fprintf(stderr, "rader: failed to write %s\n",
                   metrics_prom_path.c_str());
    }
  }

  if (!profile_path.empty()) {
    std::ofstream pf(profile_path, std::ios::binary);
    pf << prof::collapsed(profiler.root());
    if (pf.good()) {
      std::fprintf(info, "profile: wrote collapsed stacks to %s\n%s",
                   profile_path.c_str(), prof::table(profiler.root()).c_str());
    } else {
      std::fprintf(stderr, "rader: failed to write %s\n",
                   profile_path.c_str());
    }
  }

  if (json) {
    const metrics::Snapshot snap = reg.snapshot();
    std::printf("%s\n", report_json(meta, log, &snap).c_str());
  } else {
    std::printf("checked in %.3fs\n%s", timer.seconds(),
                log.to_string().c_str());
  }
  return log.any() ? 1 : 0;
}
