"""Serial scale run of the ``massive`` suite: wall clock, peak RSS, validity.

For each selected scenario this driver runs the workload once on
``--backend`` (columnar by default, ``dict`` for the reference) in a forked
process and records its wall clock and peak RSS::

    PYTHONPATH=src python benchmarks/bench_massive.py --smoke          # n=50k tier
    PYTHONPATH=src python benchmarks/bench_massive.py --tier n200k    # n=200k tier
    PYTHONPATH=src python benchmarks/bench_massive.py --smoke --backend dict
    PYTHONPATH=src python benchmarks/bench_massive.py --only massive-ring-n200000-d1c
    PYTHONPATH=src python benchmarks/bench_massive.py --tier n500k --progress --trace /tmp/traces

The snapshot lands in ``BENCH_massive_smoke.json`` (or ``--out DIR``): one
entry per scenario with ``n``, ``m``, ``rounds``, ``valid``,
``serial_wall_s``, ``serial_peak_rss_mb``, and the ``backend`` it ran on and
the ``cpus`` the machine offered at the time — rows from different
machines/backends can end up merged into one snapshot, so each row carries
its own provenance.  A run in which any scenario colors invalidly exits
nonzero and writes no snapshot.
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
SCHEMA = "repro-massive/2"


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _scenario_main(conn, name: str, workers: int, backend: str = "columnar",
                   progress: bool = False, trace_dir=None) -> None:
    """Run one scenario and report back over a pipe."""
    from repro.experiments import run_suite

    progress_cb = None
    if progress:
        from repro.obs import Heartbeat, current_rss_mb

        heartbeat = Heartbeat(interval_s=0.0)
        started = time.perf_counter()

        def progress_cb(row):
            heartbeat.beat(
                f"[massive] {row['scenario']} trial {row['trial']}: "
                f"rounds={row.get('rounds', '-')} "
                f"elapsed={round(time.perf_counter() - started, 1)}s "
                f"rss={current_rss_mb()}MiB"
            )

    result = run_suite("massive", workers=workers, backend=backend,
                       only=[name], progress=progress_cb, trace_dir=trace_dir)
    conn.send({
        "row": result.scenarios[0].rows[0],
        "peak_rss_mb": result.scenarios[0].peak_rss_mb,
    })
    conn.close()


def _measure_scenario(name: str, workers: int, backend: str = "columnar",
                      progress: bool = False, trace_dir=None):
    """One scenario in a forked subprocess, so its peak RSS is honest.

    ``ru_maxrss`` is a process-lifetime high-water mark; measured in-process
    it would echo whichever earlier scenario peaked highest.  A forked child
    starts a fresh counter (its high-water begins at the parent's *current*
    RSS, which between scenarios is small), so each scenario's peak is its
    own.  Falls back to in-process measurement where fork is unavailable,
    with exactly that lifetime caveat.
    """
    import multiprocessing

    start = time.perf_counter()
    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_scenario_main,
                           args=(child, name, workers, backend, progress,
                                 trace_dir))
        proc.start()
        child.close()
        try:
            payload = parent.recv()
        except EOFError:
            raise RuntimeError(f"benchmark run for {name!r} died") from None
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

        _scenario_main(_Inline(), name, workers, backend, progress, trace_dir)
        payload = conn_payload
    return round(time.perf_counter() - start, 2), payload


def run_serial(names, workers: int = 1, backend: str = "columnar",
               progress: bool = False, trace_dir=None):
    entries = {}
    cpus = _cpus()
    for name in names:
        print(f"[{name}] serial {backend} ...", flush=True)
        wall_s, run = _measure_scenario(name, workers, backend, progress,
                                        trace_dir)
        row = run["row"]
        entries[name] = {
            "n": row["n"],
            "m": row["m"],
            "valid": bool(row.get("valid")),
            "rounds": row.get("rounds"),
            "backend": backend,
            "cpus": cpus,
            "serial_wall_s": wall_s,
            "serial_peak_rss_mb": run["peak_rss_mb"],
        }
        status = "valid" if entries[name]["valid"] else "INVALID"
        print(f"[{name}] {wall_s}s, peak RSS {run['peak_rss_mb']} MB, "
              f"coloring {status}", flush=True)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run the massive-smoke tier (n=50 000)")
    parser.add_argument("--tier", choices=["massive-smoke", "n200k", "n500k"],
                        default=None, help="run every scenario with this tag")
    parser.add_argument("--only", action="append", default=None,
                        metavar="SCENARIO", help="explicit scenario (repeatable)")
    parser.add_argument("--workers", type=int, default=1,
                        help="trial worker processes (scenarios are single-"
                             "trial, so 1 is the honest timing setting)")
    parser.add_argument("--backend", choices=["columnar", "dict"],
                        default="columnar",
                        help="transport backend (default: columnar)")
    parser.add_argument("--out", type=Path, default=REPO_ROOT,
                        help="directory for the snapshot")
    parser.add_argument("--progress", action="store_true",
                        help="emit a heartbeat line to stderr per completed "
                             "trial (observation-only; the 500k runs are "
                             "long — this shows they're alive)")
    parser.add_argument("--trace", type=Path, default=None, metavar="DIR",
                        help="write TRACE_<scenario>.jsonl round traces under "
                             "DIR (observation-only: results stay "
                             "byte-identical)")
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

    entries = run_serial(names, workers=args.workers, backend=args.backend,
                         progress=args.progress, trace_dir=args.trace)
    invalid = sorted(name for name, entry in entries.items()
                     if not entry["valid"])
    if invalid:
        print(f"invalid coloring in {', '.join(invalid)}; "
              "not writing a snapshot", file=sys.stderr)
        return 1
    out_path = args.out / SNAPSHOT_FILENAME
    snapshot = {"schema": SCHEMA, "cpus": _cpus(), "scenarios": entries}
    if out_path.exists():
        # Merge over earlier tiers so one committed snapshot can hold the
        # smoke and the n>=200k rows at once.
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
