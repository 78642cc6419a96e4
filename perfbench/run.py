#!/usr/bin/env python3
"""Benchmark of the diBELLA pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload clr30 [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` worker (perfbench/Cargo.toml) into $CARGO_TARGET_DIR
(default .bench_build), then starts one worker process per pipeline run
until --seconds have been measured. Each worker generates the workload from
the seed and times FASTQ bytes -> sorted alignments at 2 ranks x 1 thread.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over the
runs); --trace 1 alternates untraced and traced runs and reports the
per-layer metrics. Every run passes the correctness gate or counts as
failed: its alignment digest must equal the first run's (and the traced
replica's), its recall must reach the workload's floor, and every fault
counter must be zero. The last line of stdout is one JSON object; the exit
code is 1 if any run failed and 2 if nothing could be measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Default seed and recall floor of each workload. The floor sits below
# the lowest recall measured over seeds 1-10 (see README.md).
WORKLOADS = {
    "clr30": {"seed": 1, "recall_floor": 0.99},
    "hifi20": {"seed": 1, "recall_floor": 0.99},
    "hifi20-sketch": {"seed": 1, "recall_floor": 0.99},
}
RANKS, THREADS = 2, 1  # as fixed in src/workload.rs
DEADLINE_S = 170  # one invocation, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the worker; return its path, or None if the build fails."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        return None
    return os.path.join(target, "release", "perfbench") if done.returncode == 0 else None


def host_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "ranks": RANKS, "threads": THREADS, "rustc": rustc}


class Runs:
    """Worker runs of one invocation and their correctness verdicts."""

    def __init__(self, binary, workload, seed, deadline):
        self.binary, self.workload, self.seed, self.deadline = binary, workload, seed, deadline
        self.floor = WORKLOADS[workload]["recall_floor"]
        self.attempted = 0
        self.failed = 0
        self.reference = None  # digest of the first completed run
        self.problems = []

    def run(self, *extra):
        """One worker run; returns its JSON record, or None if it failed to run."""
        self.attempted += 1
        cmd = [self.binary, "--workload", self.workload, "--seed", str(self.seed), *extra]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
            rec = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None
            err = None if rec else f"exit {done.returncode}: {done.stderr.strip()[-400:]}"
        except subprocess.TimeoutExpired:
            rec, err = None, "timed out"
        except (ValueError, IndexError) as e:
            rec, err = None, f"unreadable output: {e}"
        if rec is None:
            return self.fail(f"run {self.attempted} {' '.join(extra)}: {err}")
        self.reference = self.reference or rec["digest"]
        wrong = []
        if rec["digest"] != self.reference:
            wrong.append(f"alignment digest {rec['digest']} != {self.reference}")
        if rec["recall"] < self.floor:
            wrong.append(f"recall {rec['recall']:.4f} < floor {self.floor}")
        if rec["faults"] != 0:
            wrong.append(f"{rec['faults']} fault counters non-zero")
        if wrong:
            self.fail(f"run {self.attempted} {' '.join(extra)}: " + "; ".join(wrong))
        return rec

    def fail(self, why):
        self.failed += 1
        self.problems.append(why)
        log(f"perfbench: FAILED {why}")
        return None


def measure(runs, seconds, trace_path):
    """Run until `seconds` are measured. Returns (untraced, traced) records.

    With a trace path, every step is an untraced run followed by a traced
    one, and one more traced run at the end also replays the alignment
    kernel and writes the Chrome trace."""
    untraced, traced = [], []
    start = time.monotonic()
    steps = []
    while True:
        t = time.monotonic()
        untraced.append(runs.run())
        if trace_path is not None:
            traced.append(runs.run("--traced"))
        steps.append(time.monotonic() - t)
        ahead = time.monotonic() + statistics.median(steps)
        if ahead - start > seconds or ahead + max(steps) > runs.deadline:
            break
    if trace_path is not None:
        traced.append(runs.run("--traced", "--trace-out", trace_path))
    return [r for r in untraced if r], [r for r in traced if r]


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = WORKLOADS[args.workload]["seed"] if args.seed is None else args.seed

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    binary = build()
    if binary is None:
        log("perfbench: build failed; nothing measured")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    runs = Runs(binary, args.workload, seed, deadline)
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        trace_path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{seed}.json")
    untraced, traced = measure(runs, seconds, trace_path)
    if not untraced or (args.trace and not traced):
        log("perfbench: no run completed; nothing measured")
        return 2

    def med(key, recs):
        return statistics.median(key(r) for r in recs)

    samples = {}
    if args.trace == 0:
        samples = {
            "wall_s": [r["wall_s"] for r in untraced],
            "bases_per_s": [r["input_bases"] / r["wall_s"] for r in untraced],
            "setup_s": [r["setup_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "recall": [r["recall"] for r in untraced],
            "comm_bytes_per_base": [r["comm_bytes"] / r["input_bases"] for r in untraced],
            "ok_frac": [(runs.attempted - runs.failed) / runs.attempted],
        }
        wanted = spec["end_to_end"]
    else:
        for name in traced[-1]["layers"]:
            samples[name] = [r["layers"][name] for r in traced if name in r["layers"]]
        overhead = med(lambda r: r["wall_s"], traced) - med(lambda r: r["wall_s"], untraced)
        samples["core.trace_overhead_s"] = [overhead]
        # Stage spans of each rank against the stage walls run_pipeline
        # reported for that rank (medians over the runs).
        gaps = [med(lambda r: sum(r["rank_stage_s"][k]), traced)
                - med(lambda r: sum(r["rank_stage_s"][k]), untraced) for k in range(RANKS)]
        samples["core.span_gap_s"] = [max(gaps, key=abs)]
        log(f"perfbench: span sums - reported stage walls per rank: "
            f"{', '.join(f'{g:+.4f} s' for g in gaps)}; tracing overhead {overhead:+.4f} s")
        wanted = spec["per_layer"]

    metrics, missing = {}, []
    print(f"perfbench {args.workload} seed={seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced runs, "
          f"{runs.failed} of {runs.attempted} failed")
    print("host " + json.dumps(host_facts()))
    print(f"{'metric':34} {'median':>14} {'p25':>14} {'p75':>14} {'n':>3}  unit")
    for m in wanted:
        values = samples.get(m["name"])
        if not values:
            missing.append(m["name"])
            continue
        value = statistics.median(values)
        lo, hi = spread(values)
        print(f"{m['name']:34} {value:14.6g} {lo:14.6g} {hi:14.6g} {len(values):3}  {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if missing:
        runs.problems.append(f"metrics not produced: {', '.join(missing)}")
        log(f"perfbench: FAILED metrics not produced: {', '.join(missing)}")
    for p in runs.problems:
        print(f"FAILED: {p}")
    correct = not runs.problems
    print(json.dumps({"correct": correct, "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
