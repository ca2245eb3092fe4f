"""Layer spans recorded from outside the program, by wrapping names at lookup sites.

A layer's public function is replaced, for the length of one traced solve, at
every place a caller looks it up: a module global such as
``repro.core.d1lc.compute_acd`` or a class attribute such as
``Network.exchange``.  The wrapper records a span (name, start, end, parent)
and otherwise only calls through, so a traced solve computes exactly what an
untraced one does.  Nothing under ``src/`` changes, and between traced solves
the original names are restored.

A layer's *self time* is its spans' duration minus the time covered by the
spans nested inside them, so self times of all layers plus the solve call's
own self time add up to the traced solve's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

#: Span around the whole solve call; its self time is reported as
#: ``driver.self_s``, the part of the solve no layer span covers.
ROOT = "solve"

_ROUND_METHODS = ("exchange", "broadcast", "broadcast_discard",
                  "exchange_chunked", "broadcast_chunked", "charge_silent_round")
_RNG_METHODS = ("root", "for_node", "for_edge", "child", "shuffled", "choice")

#: Layer name -> the lookup sites ("module:attribute" or
#: "module:Class.attribute") its calls go through.
LAYERS = {
    "congest.network_init": ["repro.congest.network:Network.__init__"],
    "congest.round": [f"repro.congest.network:Network.{m}" for m in _ROUND_METHODS],
    "congest.sweep": ["repro.congest.columnar.sweep:columnar_buddy_edges"],
    "sampling.similarity": [
        "repro.core.acd:estimate_similarity_on_edges",
        "repro.sampling.triangles:estimate_similarity_on_edges",
        "repro.sampling.sparsity:estimate_similarity_on_edges",
    ],
    "core.state_init": ["repro.core.state:ColoringState.__init__"],
    "core.acd": ["repro.core.d1lc:compute_acd"],
    "core.sparse_phase": ["repro.core.d1lc:run_sparse_phase"],
    "core.dense_phase": ["repro.core.d1lc:run_dense_phase"],
    "core.fallback": ["repro.core.d1lc:deterministic_fallback"],
    "core.validate": ["repro.core.d1lc:validate_coloring",
                      "repro.core.state:validate_coloring"],
    "utils.rng": [f"repro.utils.rng:RngStream.{m}" for m in _RNG_METHODS],
}


def _resolve(site):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attribute


class Recorder:
    """Keeps every span in memory, self time per layer per traced solve, and call counts.

    ``observe`` maps a layer name to a callable that receives each return
    value of that layer, for ratios that must be read where the work happens.
    """

    def __init__(self, observe=None):
        self.observe = dict(observe or {})
        self.spans = []          # (trace, span, parent, name, start, end)
        self.calls = defaultdict(int)
        #: One dict per traced solve: layer -> self seconds.
        self.self_s = []
        self._stack = []         # [span, parent, name, start, child_seconds]
        self._next_span = 0
        self._sites = [(layer, _resolve(site))
                       for layer, sites in LAYERS.items() for site in sites]

    def _open(self, name):
        span = self._next_span
        self._next_span += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span, parent, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError("span stack out of order")
        span, parent, name, start, child_seconds = frame
        duration = end - start
        self.self_s[-1][name] += duration - child_seconds
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((len(self.self_s) - 1, span, parent, name, start, end))

    def _wrap(self, name, function):
        observe = self.observe.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(frame)
            if observe is not None:
                observe(result)
            return result

        return traced

    @contextmanager
    def solve(self):
        """Trace one solve: wrap every site, open the root span, then undo both."""
        originals = []
        try:
            for layer, (owner, attribute) in self._sites:
                original = owner.__dict__[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(layer, original))
            self.self_s.append(defaultdict(float))
            root = self._open(ROOT)
            try:
                yield
            finally:
                self._close(root)
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def coverage(self):
        """Share of traced solve wall time covered by layer spans."""
        wall = sum(sum(trace.values()) for trace in self.self_s)
        if wall <= 0:
            return 0.0
        return 1.0 - sum(trace[ROOT] for trace in self.self_s) / wall

    def write(self, path):
        """Write every span, one JSON array per line, once at the end of a run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["trace", "span", "parent", "name",
                                     "start", "end"]) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
