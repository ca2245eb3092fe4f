"""A persistent pool of forked compute workers for sharded sweeps.

The solver-side sharding (:mod:`repro.shard.sweep`) fans per-edge hashing
chunks out to worker processes.  Workers are *persistent per process*: the
first sharded sweep forks them, later sweeps (and later trials in the same
process) reuse them, and an ``atexit`` hook tears them down.  Workers are
forked before any task data exists, so their copy-on-write footprint is the
interpreter plus imported modules; every task ships exactly the chunk it
needs and returns a picklable result.

Tasks are looked up in a registry by name (the registry is import-time
state, identical in parent and child), so the pool never pickles callables.
Where ``fork`` is unavailable the pool runs chunks inline in the calling
process — bit-identical results, no parallelism — keeping every caller
portable without a second code path.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import os
from typing import Any, Callable, Dict, List, Optional  # noqa: F401

__all__ = ["ShardComputePool", "get_pool", "register_task", "shutdown_pool"]

_TASKS: Dict[str, Callable[[Any], Any]] = {}


def register_task(name: str, fn: Callable[[Any], Any]) -> None:
    """Register a chunk-compute function under a stable name (import time)."""
    _TASKS[name] = fn


def _compute_loop(conn) -> None:
    gc.freeze()  # the inherited heap is read-only for this worker
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg[0] == "stop":
            return
        _, name, payload = msg
        try:
            conn.send(("ok", _TASKS[name](payload)))
        except BaseException as exc:  # noqa: BLE001 - must reach the parent
            conn.send(("error", f"{type(exc).__name__}: {exc}"))


class ShardComputePool:
    """Fixed-size pool of forked workers executing registered chunk tasks."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.pid = os.getpid()
        ctx = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        for _ in range(size):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_compute_loop, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    def run(self, name: str, chunks: List[Any]) -> List[Any]:
        """Run ``chunks`` through task ``name``; results in chunk order.

        Dispatch is in waves of ``size``: every chunk of a wave is sent (one
        per worker) before its results are read, so workers compute
        concurrently, and a wave's results are fully drained before the next
        wave's sends.  The drain is what makes ``len(chunks) > size`` safe —
        pipe buffers are small (~64 KiB) against multi-MB chunk payloads, so
        queueing a second chunk at a busy worker could otherwise deadlock:
        the parent blocked sending into a full pipe, the worker blocked
        sending a result nobody is reading yet.
        """
        results: List[Any] = []
        for start in range(0, len(chunks), self.size):
            wave = chunks[start:start + self.size]
            sent = 0
            dispatch_error: Optional[BaseException] = None
            for i, payload in enumerate(wave):
                try:
                    self._conns[i].send(("task", name, payload))
                except BaseException as exc:  # e.g. an unpicklable payload
                    dispatch_error = exc
                    break
                sent += 1
            # Drain every reply the wave owes before raising anything: an
            # unread result left in a persistent pipe would be mismatched to
            # the *next* run()'s tasks — silently wrong results, not an
            # error.  Only a dead worker (EOF) makes draining impossible, and
            # then the pool is condemned so get_pool() rebuilds it.
            task_error: Optional[str] = None
            for i in range(sent):
                try:
                    kind, value = self._conns[i].recv()
                except EOFError:
                    self.shutdown()
                    raise RuntimeError("shard compute worker died unexpectedly")
                if kind == "error":
                    task_error = task_error or value
                else:
                    results.append(value)
            if dispatch_error is not None:
                raise RuntimeError(
                    f"failed to ship a chunk to a shard compute worker: "
                    f"{dispatch_error}"
                ) from dispatch_error
            if task_error is not None:
                raise RuntimeError(f"shard compute worker failed: {task_error}")
        return results

    def shutdown(self) -> None:
        # A shut-down pool can serve nothing: zero the size so get_pool()
        # replaces rather than reuses it.
        self.size = 0
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung-worker safety net
                proc.terminate()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._conns = []
        self._procs = []


class _InlinePool:
    """Fork-free fallback: compute chunks in the calling process."""

    size = 1
    pid = None

    def run(self, name: str, chunks: List[Any]) -> List[Any]:
        return [_TASKS[name](payload) for payload in chunks]

    def shutdown(self) -> None:  # pragma: no cover - nothing to release
        pass


_pool: Optional[Any] = None


def get_pool(size: int):
    """Return this process's compute pool with at least ``size`` workers.

    Lazily created; grown (by replacement) when a caller asks for more
    workers; rebuilt after a fork of the *calling* process (the inherited
    pool's pipes belong to the parent).
    """
    global _pool
    if "fork" not in multiprocessing.get_all_start_methods():
        return _InlinePool()
    if _pool is not None and (_pool.pid != os.getpid() or _pool.size < size):
        if _pool.pid == os.getpid():
            _pool.shutdown()
        _pool = None
    if _pool is None:
        _pool = ShardComputePool(size)
    return _pool


def shutdown_pool() -> None:
    """Tear down this process's pool (no-op when none exists)."""
    global _pool
    if _pool is not None and _pool.pid == os.getpid():
        _pool.shutdown()
    _pool = None


atexit.register(shutdown_pool)
