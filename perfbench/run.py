#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload commit|ingest|history --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the program's
libraries from src/) in $CARGO_TARGET_DIR (default .bench_build), checks the
timing device against the bare one, then runs trials of the workload -- each
a fresh process doing a fixed amount of seeded work -- until S seconds have
passed (at least MIN_TRIALS). Every trial checks every answer.

Each trial also times a fixed reference task (calibrate.cc) before its
set-up, between set-up and the measured phase, and after its checks. Metrics
that run at the host's speed are brought to the speed of a reference host by
the slowdown the reference task shows (see HOST_BOUND), and trials during
which the host stole CPU time are left out of the medians (see STEAL_LIMIT
and README.md).

--trace 0 reports the end-to-end metrics (median over trials). --trace 1
alternates untraced and traced trials and reports the per-layer metrics
(median over traced trials, see report.py) plus trace.overhead_ratio. The
last line of output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
import report  # noqa: E402

WORKLOADS = ("commit", "ingest", "history")
MIN_TRIALS = 3
TRIAL_TIMEOUT_S = 120
# A trial during which the virtual machine's host took more than this share
# of the CPU time away (steal) is not used: the host runs bursts of heavy
# steal, and a trial inside one measures the host, not the program. When
# fewer than MIN_TRIALS trials are clean, the run goes on for at most
# EXTRA_S seconds more, then uses the MIN_TRIALS trials with the least steal.
STEAL_LIMIT = 0.02
EXTRA_S = 10

# name -> unit, for the end-to-end metrics every workload reports.
END_TO_END = {
    "append_p50_us": "us",
    "append_p99_us": "us",
    "appends_per_s": "1/s",
    "user_mb_per_s": "MB/s",
    "locate_p50_us": "us",
    "locate_p99_us": "us",
    "scan_entries_per_s": "1/s",
    "media_bytes_per_user_byte": "ratio",
    "cpu_us_per_op": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# The reference task's times on the reference host, a quiet 4-vCPU KVM
# guest on a Xeon (Sapphire Rapids): one loopback request with a hand-off
# to a worker thread, and one compute round (calibrate.h). A trial whose
# reference request takes rtt_us has round-trip factor rtt_us / 21, and so
# on.
REFERENCE_HOST = {"rtt_us": 21.0, "cpu_us": 72.0}
# The metrics that run at the host's speed -- CPU work, thread wake-ups and
# loopback round trips -- each with the exponents (a, b) of its host factor
# rtt_factor**a * cpu_factor**b. Each is reported at the reference host's
# speed: times divided by the host factor, rates multiplied by it.
# Requests slow down like the reference request. A scan's time is split
# between request round trips and copying entries.
REQUEST_BOUND = {"locate_p50_us": (1, 0), "locate_p99_us": (1, 0),
                 "scan_entries_per_s": (0.5, 0.5), "cpu_us_per_op": (1, 0),
                 "setup_s": (1, 0)}
APPENDS = ("append_p50_us", "append_p99_us", "appends_per_s", "user_mb_per_s")
# A forced append on commit and history mostly waits out the 500 us
# group-commit hold, a timer. On a busy reference host its latency slowed
# like the round-trip factor to the power 0.21-0.34, so these metrics take
# the round-trip factor to the power 0.25. History's appends_per_s and
# user_mb_per_s are set by the writer's open-loop schedule, and
# media_bytes_per_user_byte and peak_rss_mb by the program alone: they are
# reported as measured.
HOST_BOUND = {
    "commit": REQUEST_BOUND | {name: (0.25, 0) for name in APPENDS},
    "ingest": REQUEST_BOUND | {name: (1, 0) for name in APPENDS},
    "history": REQUEST_BOUND | {"append_p50_us": (0.25, 0),
                                "append_p99_us": (0.25, 0)},
}
RATE_UNITS = {"1/s", "MB/s"}
# Printed with their sample counts but left out of the result line and of
# BENCHMARK.json: their run-to-run spread on `history` exceeds the largest
# regression bound the benchmark may set (see README.md).
NOT_GATED = {"append_p99_us", "locate_p99_us"}


def log(msg):
    print(msg, flush=True)


def build(build_dir):
    """Configures and builds clio_perfbench; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):  # configured
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "clio_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write(f"perfbench: build failed: {' '.join(step)}\n")
                return None
    return os.path.join(build_dir, "clio_perfbench")


def run_binary(args):
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=TRIAL_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs, from /proc/stat; zeros elsewhere."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def parse_line(stdout, tag):
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            return line[len(tag) + 1:]
    return None


def run_trial(binary, workload, seed, trace_path):
    args = [binary, "--workload", workload, "--seed", str(seed)]
    if trace_path:
        args += ["--trace", "1", "--trace-out", trace_path]
    steal_start, total_start = cpu_jiffies()
    code, out, err = run_binary(args)
    steal_end, total_end = cpu_jiffies()
    line = parse_line(out, "TRIAL")
    if code != 0 or line is None:
        sys.stderr.write(err[-2000:])
        return None, parse_line(out, "FINGERPRINT")
    trial = json.loads(line)
    trial["steal"] = report.ratio(steal_end - steal_start, total_end - total_start)
    return trial, parse_line(out, "FINGERPRINT")


def usable(group):
    """The trials of `group` to aggregate: those with little host steal."""
    clean = [x for x in group if x[0]["steal"] <= STEAL_LIMIT]
    if len(clean) >= MIN_TRIALS:
        return clean
    return sorted(group, key=lambda x: x[0]["steal"])[:MIN_TRIALS]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1

    code, out, err = run_binary([binary, "--selfcheck"])
    selfcheck = parse_line(out, "SELFCHECK") or "missing"
    if code != 0:
        sys.stderr.write(err)
        sys.stderr.write(f"perfbench: timing-device self-check: {selfcheck}\n")
        return 1
    log(f"selfcheck: {selfcheck}")

    trace_dir = os.path.join(build_dir, "traces", args.workload)
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)

    plain, traced, fingerprint = [], [], None
    start = time.monotonic()
    steal_start, total_start = cpu_jiffies()
    k = 0

    def short(group):
        clean = sum(1 for t, _ in group if t["steal"] <= STEAL_LIMIT)
        return len(group) < MIN_TRIALS or (
            clean < MIN_TRIALS and time.monotonic() - start < args.seconds + EXTRA_S)

    while (time.monotonic() - start < args.seconds or short(plain)
           or (args.trace and short(traced))):
        trace_path = None
        if args.trace and k % 2 == 1:
            trace_path = os.path.join(trace_dir, f"seed{args.seed}-trial{k}.json")
        trial, fingerprint = run_trial(binary, args.workload, args.seed, trace_path)
        if trial is None:
            sys.stderr.write("perfbench: trial failed to run\n")
            return 1
        (traced if trace_path else plain).append((trial, trace_path))
        k += 1
    steal_end, total_end = cpu_jiffies()
    log(f"fingerprint: {fingerprint}")
    # A virtual machine's host can take CPU time away from it (steal); on a
    # busy host every timing here reads slower.
    log(f"host steal during the trials: "
        f"{100 * report.ratio(steal_end - steal_start, total_end - total_start):.1f}% "
        f"of CPU time")

    trials = [t for t, _ in plain + traced]
    # Every trial's record, for looking into a run afterwards.
    os.makedirs(os.path.join(build_dir, "trials"), exist_ok=True)
    with open(os.path.join(build_dir, "trials",
                           f"{args.workload}-seed{args.seed}.jsonl"), "w") as f:
        for t in trials:
            f.write(json.dumps(t) + "\n")
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    correct = failed == 0 and all(t["ok"] for t in trials)
    for t in trials:
        for e in t["errors"]:
            log(f"error (seed {t['seed']}): {e}")

    def host_factor(t, exponents=(1, 0)):
        factor = 1.0
        for key, exponent in zip(("rtt_us", "cpu_us"), exponents):
            measured = statistics.mean(h[key] for h in t["host"])
            factor *= (measured / REFERENCE_HOST[key]) ** exponent
        return factor

    def at_reference(t, name):
        value = t["metrics"][name]
        exponents = HOST_BOUND[args.workload].get(name)
        if exponents is None:
            return value
        factor = host_factor(t, exponents)
        return value * factor if END_TO_END[name] in RATE_UNITS else value / factor

    def med(name, group):
        return statistics.median(at_reference(t, name) for t, _ in group)

    def measured(name, group):
        return statistics.median(t["metrics"][name] for t, _ in group)

    plain, traced = usable(plain), usable(traced) if args.trace else []
    log(f"workload {args.workload}, seed {args.seed}: {len(trials)} trials, "
        f"{attempted} ops and checks, {failed} failed")
    log(f"  trials used: {len(plain)} untraced and {len(traced)} traced, with "
        f"host steal <= {100 * STEAL_LIMIT:g}% "
        f"(or the {MIN_TRIALS} with the least)")
    log(f"  host factors (reference request / {REFERENCE_HOST['rtt_us']:g} us, "
        f"compute round / {REFERENCE_HOST['cpu_us']:g} us): medians "
        f"{statistics.median(host_factor(t, (1, 0)) for t, _ in plain + traced):.3f}, "
        f"{statistics.median(host_factor(t, (0, 1)) for t, _ in plain + traced):.3f}")
    log(f"  {'op_error_ratio':28s} {failed / max(attempted, 1):14.6g} ratio")
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END.items():
            value = med(name, plain)
            samples = min(t["samples"].get(name, 0) for t, _ in plain)
            note = " (not gated)" if name in NOT_GATED else ""
            if name in HOST_BOUND[args.workload]:
                note = (f", at reference host speed (measured "
                        f"{measured(name, plain):.6g}){note}")
            log(f"  {name:28s} {value:14.6g} {unit:6s} median of {len(plain)} "
                f"trials, >= {samples} samples each{note}")
            if name not in NOT_GATED:
                metrics[name] = {"value": value, "unit": unit}
    else:
        overhead = report.ratio(med("cpu_us_per_op", traced),
                                med("cpu_us_per_op", plain))
        layers = []
        for _, path in traced:
            trace = report.load(path)
            trace["overhead_ratio"] = overhead
            with open(path, "w") as f:
                json.dump(trace, f)
            layers.append(report.per_layer(trace))
        for _, name, unit, moves, on in report.LAYERS:
            value = statistics.median(layer[name] for layer in layers)
            log(f"  {name:36s} {value:14.6g} {unit:6s} moves {moves} on {on}")
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
