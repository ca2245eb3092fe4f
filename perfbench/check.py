"""Output checks for the benchmark, written without ``repro.core.validate``.

The solver reports its own validity, but a benchmark that trusts the code it
measures cannot catch a change that breaks both.  These checks read only the
graph, the lists the benchmark generated and what the solve call returned.
Each returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

#: At most this many problems are kept per output; one is enough to fail it.
MAX_PROBLEMS = 5

#: ``Network``'s default budget is ``ceil(32 * log2 n)`` bits per edge and
#: round.  The benchmark never widens it, so a larger budget in an output
#: means the CONGEST model itself was loosened.
BANDWIDTH_FACTOR = 32.0


class CheckerBroken(RuntimeError):
    """The checker accepted an output it was built to reject."""


def check_coloring(graph, lists, coloring):
    """Every node colored, from its own list, and no monochromatic edge."""
    problems = []
    for v in graph.nodes():
        color = coloring.get(v)
        if color is None:
            problems.append(f"node {v!r} is uncolored")
        elif color not in lists[v]:
            problems.append(f"node {v!r} has color {color!r} outside its list")
        if len(problems) >= MAX_PROBLEMS:
            return problems
    for u, v in graph.edges():
        color = coloring.get(u)
        if color is not None and color == coloring.get(v):
            problems.append(f"edge ({u!r}, {v!r}) is monochromatic ({color!r})")
            if len(problems) >= MAX_PROBLEMS:
                break
    return problems


def check_estimates(graph, estimates):
    """Every edge carries a finite, non-negative triangle-count estimate."""
    problems = []
    for u, v in graph.edges():
        value = estimates.get((u, v), estimates.get((v, u)))
        if value is None:
            problems.append(f"edge ({u!r}, {v!r}) has no estimate")
        elif not (math.isfinite(value) and value >= 0):
            problems.append(f"edge ({u!r}, {v!r}) has estimate {value!r}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def check_budget(n, max_edge_bits, bandwidth_bits):
    """No edge carried more bits in a round than the O(log n) budget."""
    problems = []
    allowed = math.ceil(BANDWIDTH_FACTOR * math.log2(max(n, 2)))
    if bandwidth_bits > allowed:
        problems.append(f"budget {bandwidth_bits} bits exceeds "
                        f"ceil({BANDWIDTH_FACTOR:g} log2 n) = {allowed}")
    if max_edge_bits > bandwidth_bits:
        problems.append(f"an edge carried {max_edge_bits} bits in one round, "
                        f"over the {bandwidth_bits}-bit budget")
    return problems


def self_check_coloring(graph, lists, coloring):
    """Make one edge of a passing coloring monochromatic; the check must fail.

    The edge is one whose second endpoint also has the first endpoint's color
    in its list, so the only fault introduced is the monochromatic edge.
    """
    if check_coloring(graph, lists, coloring):
        raise CheckerBroken("self-check needs a coloring that passes")
    for u, v in graph.edges():
        if coloring[u] in lists[v]:
            broken = dict(coloring)
            broken[v] = coloring[u]
            problems = check_coloring(graph, lists, broken)
            if not any("monochromatic" in p for p in problems):
                raise CheckerBroken(
                    f"checker accepted monochromatic edge ({u!r}, {v!r})")
            return
    raise CheckerBroken("no edge could be made monochromatic within the lists")


def self_check_estimates(graph, estimates):
    """Drop one edge's estimate from a passing output; the check must fail."""
    if check_estimates(graph, estimates):
        raise CheckerBroken("self-check needs estimates that pass")
    u, v = next(iter(graph.edges()))
    broken = {e: x for e, x in estimates.items() if set(e) != {u, v}}
    if not check_estimates(graph, broken):
        raise CheckerBroken(f"checker accepted a missing estimate on ({u!r}, {v!r})")
