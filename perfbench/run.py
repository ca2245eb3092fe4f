#!/usr/bin/env python3
"""Repo benchmark: one workload per fresh process, end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sparse-gnp-d1c --seed 1 --seconds 30 --trace 0

Workloads: ``sparse-gnp-d1c``, ``dense-acd-d1lc``, ``triangle-detect``.  The
run builds the workload's batch of instances from ``--seed``, solves the
first one once untimed (warm-up and checker self-check), then solves the
batch round-robin: one whole pass, then on until ``--seconds`` have passed.
The process is pinned to one CPU, and every timing is rescaled by a
reference loop run on that CPU right after it (see ``clock.py``).  Every
output is checked by ``check.py``.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced solves of each instance and prints the
per-layer split.  The last line of standard output is one JSON object; the
exit code is 0 only when every output passed.  The full result, with where
it ran, and the trace spans go to ``perfbench/out/``.  ``NOTES.md``
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters that time the imports; ``setup_s`` uses their median.
IMPORT_PROBES = 3
#: Traced runs must attribute at least this share of solve wall to layers.
MIN_COVERAGE = 0.95
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Layers whose call counts are reported next to their self time.
COUNTED_LAYERS = ("congest.round", "congest.sweep", "utils.rng")

_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
          "start = time.perf_counter(); import workloads; "
          "print(time.perf_counter() - start)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def import_probe():
    """Import the benchmark's modules in a fresh interpreter; its own timing."""
    done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(cpus, cpu):
    """Where the run ran: the CPUs it was offered, the one it used, versions."""
    import networkx
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "cpus": len(cpus),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "threads": {v: os.environ[v] for v in THREAD_VARIABLES},
    }


def timed_solve(clock, workload, instance, recorder=None):
    """Solve once; returns (outcome, wall seconds, scale to reference seconds).

    A solve that raises gives outcome ``None`` and scale 0.
    """
    def solve():
        with recorder.solve() if recorder is not None else nullcontext():
            return workload.solve(instance)

    start = time.perf_counter()
    try:
        solved, wall, scale = clock.measure(solve)
    except Exception:  # a raising solve is a failed instance, not a crash
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - start, 0.0
    return workload.outcome(instance, solved), wall, scale


class Tally:
    """Outcomes of every solve in a run, checked against the first pass."""

    def __init__(self, instances):
        self.instances = instances
        self.first = [None] * len(instances)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: Per-solve timings, kept in the result file.
        self.samples = {}

    def add(self, index, outcome, label=""):
        """Count one solve; True when its output passed every check."""
        self.attempted += 1
        if outcome is None:
            problems = ["solve raised"]
        elif self.first[index] is None:
            self.first[index] = outcome
            problems = outcome.problems
        elif outcome.signature() != self.first[index].signature():
            problems = outcome.problems + [
                f"{label}solve differs from the first solve of this instance"]
        else:
            problems = outcome.problems
        if problems:
            self.failed += 1
            self.problems.append(
                f"instance seed {self.instances[index].seed}: {problems[0]}")
        return not problems

    def outcomes(self):
        return [o for o in self.first if o is not None]


def run_passes(seconds, count, solve_one):
    """Call ``solve_one(pass_index, instance_index)`` round-robin over the batch.

    The first pass always completes, so every instance is solved at least
    once; after it, solving stops at the first solve that ends past
    ``seconds``.  Returns the number of calls.
    """
    deadline = time.perf_counter() + seconds
    done = 0
    while done < count or time.perf_counter() < deadline:
        solve_one(done // count, done % count)
        done += 1
    return done


def end_to_end(clock, workload, instances, import_s, seconds):
    tally = Tally(instances)
    ref_times, wall_times, solved = [], [], []

    def solve_one(_pass, index):
        outcome, wall, scale = timed_solve(clock, workload, instances[index])
        if tally.add(index, outcome):
            ref_times.append(wall * scale)
            wall_times.append(wall)
            solved.append(index)

    run_passes(seconds, len(instances), solve_one)
    outcomes = tally.outcomes()
    zone = sum(len(i.zone) for i in instances)
    hits = sum(o.zone_hits for o in outcomes)
    per_edge = [o.total_bits / i.graph.number_of_edges()
                for o, i in zip(tally.first, instances) if o is not None]
    nan = float("nan")
    metrics = {
        "solve_s": metric(statistics.median(ref_times) if ref_times else nan, "s"),
        "setup_s": metric(import_s + statistics.median(i.setup_s for i in instances), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rounds": metric(statistics.median(o.rounds for o in outcomes)
                         if outcomes else nan, "rounds"),
        "bits_per_edge": metric(statistics.median(per_edge) if per_edge else nan,
                                "bits/edge"),
        "ok_share": metric(1.0 - tally.failed / tally.attempted, "share"),
        # With no guarantee-zone edge (always so on the coloring workloads)
        # nothing can be missed: 1 by definition.
        "detect_recall": metric(hits / zone if zone else 1.0, "share"),
    }
    notes = [
        f"solve_s is the median of {len(ref_times)} solves of {len(instances)} "
        f"instances, in reference seconds; raw wall median "
        f"{statistics.median(wall_times) if wall_times else nan:.4f} s",
        f"setup_s = import {import_s:.4f} s (median of {IMPORT_PROBES} fresh "
        "interpreters) + median instance setup, in reference seconds",
        f"failed_share {tally.failed / tally.attempted:.4g} share "
        f"({tally.failed} of {tally.attempted} solves)",
    ]
    if zone:
        notes.append(f"detect_recall: {hits} of {zone} guarantee-zone edges flagged")
    tally.samples = {"instance": solved, "solve_s": ref_times, "wall_s": wall_times,
                     "rounds": [o.rounds for o in outcomes]}
    return tally, metrics, notes


def traced(clock, workload, instances, seconds, spans_path):
    import spans
    from workloads import REPORTED_PHASES

    dense = set()
    recorder = spans.Recorder(
        observe={"core.acd": lambda acd: dense.update(acd.dense_nodes)})
    tally = Tally(instances)
    plain_times, traced_times = [], []
    trace_scales = []        # one per traced solve, aligned with recorder.self_s
    # Counts come from the first pass, where each instance is traced once, so
    # they repeat exactly however many solves fit in the run.
    first_pass = {"dense": 0, "calls": {}}

    def solve_one(pass_index, index):
        traced_first = (pass_index + index) % 2 == 1
        for with_trace in (traced_first, not traced_first):
            dense.clear()
            outcome, wall, scale = timed_solve(clock, workload, instances[index],
                                               recorder if with_trace else None)
            passed = tally.add(index, outcome, "traced " if with_trace else "untraced ")
            if with_trace:
                trace_scales.append(scale if passed else 0.0)
                if pass_index == 0:
                    first_pass["dense"] += len(dense)
            if passed:
                (traced_times if with_trace else plain_times).append(wall * scale)
        if pass_index == 0 and index == len(instances) - 1:
            first_pass["calls"] = dict(recorder.calls)

    pairs = run_passes(seconds, len(instances), solve_one)
    outcomes = tally.outcomes()
    batch = len(instances)
    nodes = sum(i.graph.number_of_nodes() for i in instances)
    edges = sum(i.graph.number_of_edges() for i in instances)
    counted = max(1, sum(1 for s in trace_scales if s > 0))
    metrics = {"graphs.build_s": metric(statistics.median(i.build_s for i in instances), "s")}
    for layer in list(spans.LAYERS) + [spans.ROOT]:
        name = "driver.self" if layer == spans.ROOT else layer
        self_s = sum(trace[layer] * scale
                     for trace, scale in zip(recorder.self_s, trace_scales))
        metrics[f"{name}_s"] = metric(self_s / counted, "s")
        if layer in COUNTED_LAYERS:
            metrics[f"{layer}_calls"] = metric(
                first_pass["calls"].get(layer, 0) / batch, "count")
    metrics["core.fallback_share"] = metric(
        sum(o.fallback_nodes for o in outcomes) / nodes, "share")
    metrics["core.dense_share"] = metric(first_pass["dense"] / nodes, "share")
    metrics["detect.flagged_share"] = metric(
        sum(o.flagged for o in outcomes) / edges, "share")
    for phase in REPORTED_PHASES:
        metrics[f"rounds.{phase}"] = metric(
            sum(o.rounds_by_phase[phase] for o in outcomes) / batch, "rounds")
        metrics[f"bits.{phase}"] = metric(
            sum(o.bits_by_phase[phase] for o in outcomes) / batch, "bits")
    coverage = recorder.coverage()
    overhead = (statistics.median(traced_times) / statistics.median(plain_times) - 1.0
                if traced_times and plain_times else float("nan"))
    metrics["trace_overhead"] = metric(overhead, "ratio")
    metrics["trace.coverage"] = metric(coverage, "share")
    notes = [
        f"{len(traced_times)} traced and {len(plain_times)} untraced solves of "
        f"{batch} instances ({pairs} pairs, order alternating)",
        "layer _s metrics are self reference seconds per traced solve, _calls "
        f"are per instance; spans cover {coverage:.2%} of traced solve wall",
    ]
    if coverage < MIN_COVERAGE:
        tally.problems.append(f"spans cover {coverage:.2%} of solve wall, "
                              f"under the {MIN_COVERAGE:.0%} floor")
    recorder.write(spans_path)
    notes.append(f"{len(recorder.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return tally, metrics, notes


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no repro package; run from a full checkout",
              file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    # One CPU for the program, its import probes and the reference loop, so
    # the loop measures the speed of the CPU the work ran on.
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[0]
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))

    from clock import ReferenceClock

    clock = ReferenceClock()
    probes = [clock.measure(import_probe) for _ in range(IMPORT_PROBES)]
    import_s = statistics.median(seconds * scale for seconds, _, scale in probes)

    import check
    from workloads import WORKLOADS, instance_seeds

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = instance_seeds(args.seed, workload.batch)
    instances, _, scale = clock.measure(lambda: [workload.build(s) for s in seeds])
    for instance in instances:
        instance.build_s *= scale
        instance.setup_s *= scale

    # Warm-up, outside every timing: lazy imports and caches fill here.  Its
    # output, if it passes, proves the checker rejects a corrupted copy.
    try:
        warm = workload.solve(instances[0])
        warm_failed = bool(workload.outcome(instances[0], warm).problems)
    except Exception:  # the timed solves below count the failure
        traceback.print_exc(file=sys.stderr)
        warm, warm_failed = None, True
    if warm_failed:
        self_check = "skipped (the warm-up output failed its check)"
    else:
        try:
            workload.self_check(instances[0], warm)
        except check.CheckerBroken as error:
            print(f"perfbench: checker self-check failed: {error}", file=sys.stderr)
            return 3
        self_check = "passed (a corrupted output was rejected)"
    del warm

    if args.trace:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tally, metrics, notes = traced(clock, workload, instances, args.seconds,
                                       spans_path)
    else:
        tally, metrics, notes = end_to_end(clock, workload, instances, import_s,
                                           args.seconds)
    notes.insert(0, f"checker self-check {self_check}")
    env = environment(cpus, cpu)
    correct = not tally.problems and tally.failed == 0

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + "  BLAS/OpenMP threads=1")
    sizes = [(i.graph.number_of_nodes(), i.graph.number_of_edges()) for i in instances]
    print(f"batch {len(instances)} instances, n {min(n for n, _ in sizes)}-"
          f"{max(n for n, _ in sizes)}, m {min(m for _, m in sizes)}-"
          f"{max(m for _, m in sizes)}")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:.6g} {entry['unit']}")
    for note in notes + tally.problems:
        print(f"# {note}")
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "sizes": sizes, "notes": notes,
              "problems": tally.problems, "metrics": metrics,
              "samples": tally.samples}
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    # A metric with no sample (every solve failed) prints as null, keeping the
    # line valid JSON; such a run is already marked incorrect.
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):
            entry["value"] = None
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
