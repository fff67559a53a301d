#!/usr/bin/env python3
"""Rader's benchmark: build the harness, run one workload, print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --audit --workload NAME --seed N --seconds S

Run from the root of a checkout.  The harness is built from source into
.bench_build/perfbench (RelWithDebInfo) and each workload runs in its own
process.  With --trace 0 the last stdout line is the JSON result with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of the
traced run, and the spans go to .bench_build/perfbench/spans/.  Every result
is also appended, with its run record, to .bench_build/perfbench/results.jsonl.

--selftest checks the harness's own verdict bookkeeping; --audit runs the
traced workload twice and checks that every exact count repeats.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("check-access", "sweep-racy", "sweep-prefix")
# The harness may overrun --seconds by its set-ups, its warm-up and its
# last round; past this margin it is stopped.
HARNESS_MARGIN_S = 120
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_harness", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed")
            return False
    return True


def revision():
    """`git describe --dirty` of the checkout, or "none" outside git."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                              cwd=ROOT, capture_output=True, text=True)
        if (done.returncode != 0 or os.path.realpath(done.stdout.strip()) !=
                os.path.realpath(ROOT)):
            return "none"
        done = subprocess.run(["git", "describe", "--always", "--dirty",
                               "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def sources_digest():
    """A digest of the sources the harness is built from (src/, perfbench/),
    so results of a modified tree differ from those of its parent."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) CPU ticks of the host so far, or None if unreadable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_frac(before, after):
    """Share of CPU time the hypervisor stole between two cpu_ticks()."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return round((after[0] - before[0]) / (after[1] - before[1]), 4)


def fixed_layout():
    """Run in the harness's process before exec: turn off address-space
    randomization.  The detectors' shadow directory and hash tables are
    keyed by addresses, so the layout moves check times: with a random
    layout one knapsack check took 8.8 ms in one process and 14.1 ms in
    another, on the same input.  With a fixed layout a seed always gives
    the same layout.  Best effort: the harness's run record says whether
    the layout was randomized."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_harness(args, seconds):
    """Run the harness; return (exit code, stdout lines)."""
    timeout = HARNESS_MARGIN_S + 2 * seconds
    try:
        done = subprocess.run([HARNESS] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {timeout:g} s and was stopped")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The result JSON on the harness's last line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def workload_args(ns, trace):
    args = [f"--workload={ns.workload}", f"--seed={ns.seed}",
            f"--seconds={ns.seconds}", f"--trace={trace}",
            f"--revision={revision()}"]
    if trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        args.append("--spans-out=" + os.path.join(
            spans_dir, f"{ns.workload}-seed{ns.seed}.jsonl"))
    return args


def run_workload(ns):
    ticks = cpu_ticks()
    code, lines = run_harness(workload_args(ns, ns.trace), ns.seconds)
    steal = steal_frac(ticks, cpu_ticks())
    result = parse_result(lines)
    if code != 0 or result is None:
        for line in lines[-20:]:
            sys.stderr.write(line + "\n")
        log(f"workload {ns.workload} failed (exit {code})")
        return 1
    record = next((json.loads(l.split(":", 1)[1]) for l in lines
                   if l.startswith("run_record:")), {})
    # The harness's median time of a fixed loop: the host's speed.
    record["calibration_s"] = next((float(l.split()[1]) for l in lines
                                    if l.startswith("calibration_s:")), None)
    # Time stolen by the hypervisor slows every metric; a run made during a
    # steal episode is worth repeating.
    record["sources_sha256"] = sources_digest()
    record["host_steal_frac"] = steal
    with open(os.path.join(BUILD_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"record": record, "result": result}) + "\n")
    for line in lines[:-1]:
        print(line)
    print(f"host_steal_frac: {steal}")
    print(f"sources_sha256: {record['sources_sha256']}")
    print(json.dumps(result), flush=True)
    return 0


def audit(ns):
    """Run the traced workload twice; every exact count must repeat."""
    code, lines = run_harness(["--list-metrics"], ns.seconds)
    if code != 0:
        return 1
    exact = [l.split()[0] for l in lines if l.split()[-1] == "exact"]
    runs = []
    for _ in range(2):
        code, out = run_harness(workload_args(ns, 1), ns.seconds)
        result = parse_result(out)
        if code != 0 or result is None or not result["correct"]:
            log("traced run failed")
            return 1
        runs.append(result["metrics"])
    bad = [name for name in exact
           if runs[0][name]["value"] != runs[1][name]["value"]]
    for name in exact:
        print(f"{name:40s} {runs[0][name]['value']:>16} "
              f"{runs[1][name]['value']:>16}"
              f"{'  DIFFERS' if name in bad else ''}")
    print(f"audit {ns.workload}: {len(exact) - len(bad)} of {len(exact)} "
          f"exact counts repeat")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--audit", action="store_true")
    ns = parser.parse_args()
    if not ns.selftest and ns.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if ns.selftest:
        code, lines = run_harness(["--selftest", f"--seed={ns.seed}"],
                                  ns.seconds)
        print("\n".join(lines))
        return code
    if ns.audit:
        return audit(ns)
    return run_workload(ns)


if __name__ == "__main__":
    sys.exit(main())
