#!/usr/bin/env python3
"""Run one workload of the dvmp benchmark and print its metrics.

    python3 perfbench/run.py --workload paper-week --seed 42 --seconds 20 --trace 0

Run from the repository root. Builds the `perfbench` package (into
$CARGO_TARGET_DIR, default `.bench_build`), then:

  --trace 0  times untraced repetitions for --seconds and prints the
             end-to-end metrics listed in BENCHMARK.json;
  --trace 1  times untraced and traced repetitions for half of --seconds
             each and prints the per-layer metrics.

Either way a checked-mode run, in a process of its own, audits the
workload with the oracle. Every run's report digest must agree with the
others and, at a pinned seed, with spec.json. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits 1 after printing if an output check failed, and 2 without printing
a result if the benchmark could not run at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every child process must end within this many seconds of the build.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds both benchmark binaries and returns their directory."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return target / "release"


class Runner:
    """Runs measuring processes against one deadline, tallying failures."""

    def __init__(self, bin_dir):
        self.bin_dir = bin_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0

    def json_of(self, binary, *args):
        """The JSON a child prints, or None (counted as a failed run) if it
        crashes, overruns the deadline or prints garbage."""
        cmd = [str(self.bin_dir / binary), *map(str, args)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, text=True)
            if done.returncode == 0:
                return json.loads(done.stdout.strip().splitlines()[-1])
            log(f"{' '.join(cmd)}: exit code {done.returncode}")
        except subprocess.TimeoutExpired:
            log(f"{' '.join(cmd)}: killed after {timeout:.0f} s")
        except (ValueError, IndexError) as e:
            log(f"{' '.join(cmd)}: unreadable output: {e}")
        self.attempted += 1
        self.failed += 1
        return None

    def check_digests(self, what, digests, expected):
        """Counts each run; one whose digest differs from `expected` fails."""
        bad = [d for d in digests if d != expected]
        self.attempted += len(digests)
        self.failed += len(bad)
        if bad:
            log(f"{what}: digests {sorted(set(bad))} differ from {expected}")


def describe(name, values, unit):
    lo, hi = min(values), max(values)
    return f"    {name:<10} best of n={len(values)} runs {lo:.6g}, slowest {hi:.6g} {unit}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = json.loads((HERE / "spec.json").read_text())
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read the benchmark definition: {e}") from e
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")
    pinned = workloads[args.workload]["digests"].get(str(args.seed))
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    runner = Runner(build())
    w, seed = args.workload, args.seed
    share = args.seconds / 2 if args.trace else args.seconds
    untraced = runner.json_of("dvmp-perfbench", "time", w, seed, share)
    traced = runner.json_of("dvmp-perfbench-traced", w, seed, share) if args.trace else None
    checked = runner.json_of("dvmp-perfbench", "check", w, seed)

    # Every run of a scenario must produce the report of its first untraced
    # one. The first scenario is the one at --seed: its report must be the
    # pinned one where a digest is pinned, and the traced and checked runs
    # must reproduce it.
    scenarios = untraced["scenarios"] if untraced else []
    reference = pinned or (scenarios[0]["digests"][0] if scenarios else None)
    for i, sc in enumerate(scenarios):
        runner.check_digests(f"untraced runs of seed {sc['seed']}", sc["digests"],
                             reference if i == 0 else sc["digests"][0])
    if traced:
        runner.check_digests("traced runs", traced["digests"], reference)
    if checked:
        runner.check_digests("checked run", [checked["digest"]], reference)
        if checked["violations"]:
            runner.failed += 1
            log(f"checked run: {checked['violations']} oracle violations")

    produced = {}
    if untraced:
        produced.update(untraced["metrics"])
        print(f"{w} seed {seed}: digest {reference} "
              f"({'pinned' if pinned else 'not pinned at this seed'}); "
              f"times are each scenario's best run, averaged over {len(scenarios)}")
        for sc in scenarios:
            print(f"  scenario seed {sc['seed']}")
            print(describe("run_s", sc["run_s"], "s"))
            print(describe("setup_s", sc["setup_s"], "s"))
    if checked:
        print(f"  checked run: {checked['violations']} violations "
              f"over {checked['events_audited']} events")
    if traced:
        produced = dict(traced["metrics"])
        if scenarios:
            # Medians, not minima: the traced binary repeats one scenario
            # for the whole half, the untraced one shares it among several,
            # and a minimum over more repetitions reads lower.
            untraced_s = statistics.median(scenarios[0]["run_s"])
            produced["trace.overhead_ratio"] = traced["run_s"] / untraced_s - 1
        print(f"  traced: {traced['reps']} runs; call percentiles pooled over every "
              "call, 0 where fewer than 10 calls lie beyond them")
    produced["failed_run_share"] = runner.failed / max(runner.attempted, 1)

    metrics = {}
    for m in wanted:
        if m["name"] in produced:
            metrics[m["name"]] = {"value": produced[m["name"]], "unit": m["unit"]}
    correct = runner.failed == 0 and len(metrics) == len(wanted)
    if len(metrics) != len(wanted):
        log(f"missing metrics: {sorted(m['name'] for m in wanted if m['name'] not in metrics)}")
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"run.py: {e}")
        sys.exit(2)
