"""Sharded-vs-serial head-to-head on the ``massive`` suite.

For each selected scenario this driver runs the workload twice — serial
execution on ``--backend`` (columnar by default; ``dict`` is the backend
whose similarity sweeps reach the shard pool) and ``--shards N``
partition-parallel execution — verifies the two
aggregates are **byte-identical** (the sharded layer's core contract), and
records both wall-clocks plus peak RSS::

    PYTHONPATH=src python benchmarks/bench_massive.py --smoke          # n=50k tier
    PYTHONPATH=src python benchmarks/bench_massive.py --tier n200k    # n=200k tier
    PYTHONPATH=src python benchmarks/bench_massive.py --smoke --backend dict
    PYTHONPATH=src python benchmarks/bench_massive.py --only massive-ring-n200000-d1c
    PYTHONPATH=src python benchmarks/bench_massive.py --tier n500k --progress --trace /tmp/traces

The snapshot lands in ``BENCH_massive_smoke.json`` (or ``--out DIR``): one
entry per scenario with ``serial_wall_s``, ``sharded_wall_s``, ``speedup``,
``aggregates_identical``, per-leg ``*_peak_rss_mb``, and — in every row —
the ``backend`` it ran on and the ``cpus`` the machine offered at the time:
sharded wall-clock only beats serial when the machine actually has cores to
fan out over, and rows from different machines/backends can end up merged
into one snapshot, so each row carries its own provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SNAPSHOT_FILENAME = "BENCH_massive_smoke.json"
SCHEMA = "repro-massive/1"


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _children_peak_rss_mb() -> float:
    """Peak RSS over *reaped* child processes (the forked sweep workers)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return round(peak / (1024.0 * 1024.0), 1)


def _leg_main(conn, name: str, shards, workers: int, backend: str = "columnar",
              progress: bool = False, trace_dir=None) -> None:
    """Run one (scenario, shard-setting) leg and report back over a pipe."""
    from repro.experiments import aggregate_suite, canonical_dumps, run_suite
    from repro.shard import shutdown_pool

    progress_cb = None
    if progress:
        from repro.obs import Heartbeat, current_rss_mb

        heartbeat = Heartbeat(interval_s=0.0)
        leg = "serial" if shards is None else f"shards={shards}"
        started = time.perf_counter()

        def progress_cb(row):
            heartbeat.beat(
                f"[massive {leg}] {row['scenario']} trial {row['trial']}: "
                f"rounds={row.get('rounds', '-')} "
                f"elapsed={round(time.perf_counter() - started, 1)}s "
                f"rss={current_rss_mb()}MiB"
            )

    result = run_suite("massive", workers=workers, backend=backend,
                       only=[name], shards=shards, progress=progress_cb,
                       trace_dir=trace_dir)
    shutdown_pool()  # reap the sweep workers so RUSAGE_CHILDREN sees them
    conn.send({
        "aggregate": canonical_dumps(aggregate_suite(result)),
        "row": result.scenarios[0].rows[0],
        "peak_rss_mb": result.scenarios[0].peak_rss_mb,
        "worker_peak_rss_mb": _children_peak_rss_mb(),
    })
    conn.close()


def _measure_leg(name: str, shards, workers: int, backend: str = "columnar",
                 progress: bool = False, trace_dir=None):
    """One leg in a forked subprocess, so per-leg RSS is honest.

    ``ru_maxrss`` is a process-lifetime high-water mark; measured in-process
    it would echo whichever earlier leg or scenario peaked highest.  A
    forked child starts a fresh counter (its high-water begins at the
    parent's *current* RSS, which between legs is small), so each leg's
    peak — and, for sharded legs, its reaped sweep workers' peak — is its
    own.  Falls back to in-process measurement where fork is unavailable,
    with exactly that lifetime caveat.
    """
    import multiprocessing

    start = time.perf_counter()
    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_leg_main,
                           args=(child, name, shards, workers, backend,
                                 progress, trace_dir))
        proc.start()
        child.close()
        try:
            payload = parent.recv()
        except EOFError:
            raise RuntimeError(f"benchmark leg for {name!r} died") from None
        finally:
            proc.join()
            parent.close()
    else:  # pragma: no cover - fork-less platforms
        conn_payload = {}

        class _Inline:
            def send(self, value):
                conn_payload.update(value)

            def close(self):
                pass

        _leg_main(_Inline(), name, shards, workers, backend, progress,
                  trace_dir)
        payload = conn_payload
    return round(time.perf_counter() - start, 2), payload


def run_head_to_head(names, shards: int, workers: int = 1,
                     backend: str = "columnar", progress: bool = False,
                     trace_dir=None):
    entries = {}
    cpus = _cpus()
    # Each leg traces into its own subdirectory — both legs emit
    # TRACE_<scenario>.jsonl, and the serial-vs-sharded pair is exactly what
    # `repro trace compare` wants to diff afterwards.
    serial_traces = Path(trace_dir) / "serial" if trace_dir else None
    sharded_traces = Path(trace_dir) / f"shards{shards}" if trace_dir else None
    for name in names:
        print(f"[{name}] serial {backend} ...", flush=True)
        serial_s, serial = _measure_leg(name, None, workers, backend,
                                        progress, serial_traces)
        print(f"[{name}] serial {serial_s}s; sharded x{shards} ...", flush=True)
        sharded_s, sharded = _measure_leg(name, shards, workers, backend,
                                          progress, sharded_traces)
        identical = serial["aggregate"] == sharded["aggregate"]
        row = serial["row"]
        entries[name] = {
            "n": row["n"],
            "m": row["m"],
            "valid": bool(row.get("valid")),
            "rounds": row.get("rounds"),
            "backend": backend,
            "cpus": cpus,
            "serial_wall_s": serial_s,
            "sharded_wall_s": sharded_s,
            "speedup": round(serial_s / max(sharded_s, 1e-9), 3),
            "shards": shards,
            "aggregates_identical": identical,
            "serial_peak_rss_mb": serial["peak_rss_mb"],
            "sharded_peak_rss_mb": sharded["peak_rss_mb"],
            "sharded_worker_peak_rss_mb": sharded["worker_peak_rss_mb"],
        }
        status = "IDENTICAL" if identical else "DRIFT (BUG)"
        print(f"[{name}] sharded {sharded_s}s "
              f"(speedup {entries[name]['speedup']}x, aggregates {status})",
              flush=True)
        if not identical:
            raise SystemExit(
                f"{name}: sharded aggregate differs from serial — the "
                "determinism contract is broken; not writing a snapshot"
            )
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run the massive-smoke tier (n=50 000)")
    parser.add_argument("--tier", choices=["massive-smoke", "n200k", "n500k"],
                        default=None, help="run every scenario with this tag")
    parser.add_argument("--only", action="append", default=None,
                        metavar="SCENARIO", help="explicit scenario (repeatable)")
    parser.add_argument("--shards", type=int, default=max(2, _cpus()),
                        help="shard count for the sharded leg "
                             "(default: max(2, available cpus))")
    parser.add_argument("--workers", type=int, default=1,
                        help="trial worker processes (scenarios are single-"
                             "trial, so 1 is the honest timing setting)")
    parser.add_argument("--backend", choices=["columnar", "dict"],
                        default="columnar",
                        help="transport backend for both legs (default: "
                             "columnar; only dict routes the similarity "
                             "sweep through the shard pool)")
    parser.add_argument("--out", type=Path, default=REPO_ROOT,
                        help="directory for the snapshot")
    parser.add_argument("--progress", action="store_true",
                        help="emit a heartbeat line to stderr per completed "
                             "trial on both legs (observation-only; the "
                             "500k legs are long — this shows they're alive)")
    parser.add_argument("--trace", type=Path, default=None, metavar="DIR",
                        help="write TRACE_<scenario>.jsonl round traces under "
                             "DIR/serial and DIR/shards<N> (observation-only: "
                             "aggregates stay byte-identical)")
    args = parser.parse_args(argv)

    from repro.experiments import canonical_dumps, get_suite

    specs = get_suite("massive")
    if args.only:
        known = {spec.name for spec in specs}
        unknown = set(args.only) - known
        if unknown:
            parser.error(f"unknown scenarios: {sorted(unknown)}")
        names = list(args.only)
    else:
        if args.smoke and args.tier and args.tier != "massive-smoke":
            parser.error("--smoke conflicts with --tier " + args.tier)
        tier = args.tier
        if tier is None and args.smoke:
            tier = "massive-smoke"
        if tier is None:
            parser.error("select scenarios with --smoke, --tier or --only")
        names = [spec.name for spec in specs if tier in spec.tags]
    if not names:
        parser.error("no scenarios selected")

    entries = run_head_to_head(names, shards=args.shards, workers=args.workers,
                               backend=args.backend, progress=args.progress,
                               trace_dir=args.trace)
    out_path = args.out / SNAPSHOT_FILENAME
    snapshot = {"schema": SCHEMA, "cpus": _cpus(), "scenarios": entries}
    if out_path.exists():
        # Merge over earlier tiers so one committed snapshot can hold the
        # smoke and the n>=200k head-to-heads at once.
        try:
            existing = json.loads(out_path.read_text())
        except ValueError:
            existing = None
        if isinstance(existing, dict) and existing.get("schema") == SCHEMA:
            merged = dict(existing.get("scenarios", {}))
            merged.update(entries)
            snapshot["scenarios"] = merged
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(canonical_dumps(snapshot))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT))
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
