"""The benchmark's workloads: inputs built from a seed, the solve call, its outcome.

Each workload is a fixed batch of instances.  Instance ``i`` of a run with
workload seed ``s`` is built from seed ``s * 1000 + i``, so one seed always
gives the same inputs.  The program receives only the generated graph and
lists; the ground truth the checks need (the D1C lists, the guarantee-zone
edges of the detection workload) is computed here, outside the timed solve.

Every solve runs on the columnar backend with the ``counters`` ledger, the
configuration the repository uses for its large runs.  Why each workload has
the shape it has is in ``NOTES.md``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import check
from repro.congest.network import Network
from repro.core.d1lc import solve_instance
from repro.core.problem import ColoringInstance
from repro.graphs import (
    degree_plus_one_lists,
    gnp_fast_graph,
    planted_almost_cliques,
    triangle_rich_graph,
)
from repro.metrics.ledger import bits_by_phase, rounds_by_phase
from repro.sampling.triangles import detect_triangle_rich_edges

BACKEND = "columnar"
LEDGER = "counters"

#: Triangle-richness threshold: an edge is flagged at ``eps * Δ`` estimated
#: triangles, and every edge in at least ``2 * eps * Δ`` triangles (the
#: guarantee zone) should be flagged.
DETECT_EPS = 0.3

#: Ledger phase (label prefix) -> the name the benchmark reports it under.
PHASES = {"acd": "acd", "sparse": "sparse", "dense": "dense",
          "fallback": "fallback", "triangle-detection": "detect"}
REPORTED_PHASES = ("acd", "sparse", "dense", "fallback", "detect", "other")


def instance_seeds(seed: int, batch: int):
    return [seed * 1000 + i for i in range(batch)]


@dataclass
class Instance:
    seed: int
    graph: object
    #: node -> allowed colors, for the coloring checks (``None`` for detection).
    lists: Optional[dict]
    #: what the solve call receives besides the graph (``None`` for detection).
    problem: Optional[ColoringInstance]
    build_s: float
    setup_s: float
    #: guarantee-zone edges as ``(min, max)`` pairs (detection only).
    zone: frozenset = frozenset()


@dataclass
class Outcome:
    rounds: int
    total_bits: int
    rounds_by_phase: Dict[str, int]
    bits_by_phase: Dict[str, int]
    digest: str
    problems: list
    fallback_nodes: int = 0
    flagged: int = 0
    zone_hits: int = 0

    def signature(self):
        """What must repeat exactly across repeats and traced/untraced solves."""
        return (self.rounds, self.total_bits, sorted(self.rounds_by_phase.items()),
                sorted(self.bits_by_phase.items()), self.digest)


def _reported(by_phase):
    totals = dict.fromkeys(REPORTED_PHASES, 0)
    for phase, value in by_phase.items():
        totals[PHASES.get(phase, "other")] += value
    return totals


def _digest(items):
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()[:16]


# --------------------------------------------------------------------- coloring

def _coloring_outcome(instance: Instance, result) -> Outcome:
    graph = instance.graph
    problems = check.check_coloring(graph, instance.lists, result.coloring)
    problems += check.check_budget(graph.number_of_nodes(), result.max_edge_bits,
                                   result.bandwidth_bits)
    return Outcome(
        rounds=result.rounds, total_bits=result.total_bits,
        rounds_by_phase=_reported(result.rounds_by_phase),
        bits_by_phase=_reported(result.bits_by_phase),
        digest=_digest(result.coloring.items()), problems=problems,
        fallback_nodes=result.fallback_nodes,
    )


def _solve_coloring(instance: Instance):
    return solve_instance(instance.problem, seed=instance.seed,
                          backend=BACKEND, ledger=LEDGER)


def _self_check_coloring(instance: Instance, result) -> None:
    check.self_check_coloring(instance.graph, instance.lists, result.coloring)


#: sparse-gnp-d1c: G(n, p) at average degree 8.  At this degree nearly every
#: node lands in ACD's sparse class, so the dense phase does no work.
SPARSE_N = 2500
SPARSE_AVG_DEGREE = 8


def build_sparse(seed: int) -> Instance:
    start = time.perf_counter()
    graph = gnp_fast_graph(SPARSE_N, avg_degree=SPARSE_AVG_DEGREE, seed=seed)
    built = time.perf_counter()
    problem = ColoringInstance.d1c(graph)
    done = time.perf_counter()
    lists = {v: range(graph.degree(v) + 1) for v in graph.nodes()}
    return Instance(seed, graph, lists, problem, built - start, done - start)


#: dense-acd-d1lc: planted almost-cliques of 48 with 10% of their edges
#: dropped, a thin sparse background, random (deg+1)-lists.  The paper's
#: high-degree regime: the similarity sweep and the dense phase do the work.
DENSE_CLIQUES = 16
DENSE_CLIQUE_SIZE = 48
DENSE_DROPOUT = 0.1
DENSE_BACKGROUND = 2 * DENSE_CLIQUES


def build_dense(seed: int) -> Instance:
    start = time.perf_counter()
    graph = planted_almost_cliques(
        num_cliques=DENSE_CLIQUES, clique_size=DENSE_CLIQUE_SIZE,
        dropout=DENSE_DROPOUT, num_sparse=DENSE_BACKGROUND, sparse_degree=6,
        cross_edges=4 * DENSE_CLIQUES, seed=seed,
    ).graph
    lists = degree_plus_one_lists(graph, seed=seed)
    built = time.perf_counter()
    problem = ColoringInstance.d1lc(graph, lists)
    done = time.perf_counter()
    return Instance(seed, graph, lists, problem, built - start, done - start)


# -------------------------------------------------------------------- detection

#: triangle-detect: sparse G(n, 0.005) background plus planted cliques of 48
#: whose members are drawn at random, so cliques overlap and Δ exceeds 48.
TRIANGLE_N = 200
TRIANGLE_BACKGROUND_P = 0.005
TRIANGLE_CLIQUES = 2
TRIANGLE_CLIQUE_SIZE = 48


def guarantee_zone(graph, eps: float = DETECT_EPS) -> frozenset:
    """Edges in at least ``2 * eps * Δ`` triangles, counted exactly."""
    adjacency = {v: set(graph.adj[v]) for v in graph.nodes()}
    delta = max((len(a) for a in adjacency.values()), default=0)
    need = 2 * eps * delta
    return frozenset(
        (min(u, v), max(u, v)) for u, v in graph.edges()
        if len(adjacency[u] & adjacency[v]) >= need
    )


def build_triangle(seed: int) -> Instance:
    start = time.perf_counter()
    graph = triangle_rich_graph(
        n=TRIANGLE_N, background_p=TRIANGLE_BACKGROUND_P,
        planted_cliques=TRIANGLE_CLIQUES, clique_size=TRIANGLE_CLIQUE_SIZE,
        seed=seed,
    ).graph
    built = time.perf_counter() - start
    return Instance(seed, graph, None, None, built, built, zone=guarantee_zone(graph))


def _solve_triangle(instance: Instance):
    network = Network(instance.graph, backend=BACKEND, ledger=LEDGER)
    result = detect_triangle_rich_edges(network, eps=DETECT_EPS, seed=instance.seed)
    return network, result


def _triangle_outcome(instance: Instance, solved) -> Outcome:
    network, result = solved
    graph = instance.graph
    problems = check.check_estimates(graph, result.estimates)
    problems += check.check_budget(graph.number_of_nodes(),
                                   network.ledger.max_edge_bits,
                                   network.bandwidth_bits)
    flagged = {(min(u, v), max(u, v)) for u, v in result.flagged}
    return Outcome(
        rounds=network.ledger.rounds, total_bits=network.ledger.total_bits,
        rounds_by_phase=_reported(rounds_by_phase(network)),
        bits_by_phase=_reported(bits_by_phase(network)),
        digest=_digest(flagged), problems=problems,
        flagged=len(flagged), zone_hits=len(flagged & instance.zone),
    )


def _self_check_triangle(instance: Instance, solved) -> None:
    check.self_check_estimates(instance.graph, solved[1].estimates)


# --------------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    batch: int
    build: Callable[[int], Instance]
    solve: Callable[[Instance], object]
    outcome: Callable[[Instance, object], Outcome]
    self_check: Callable[[Instance, object], None]


WORKLOADS = {w.name: w for w in (
    Workload("sparse-gnp-d1c", 16, build_sparse, _solve_coloring,
             _coloring_outcome, _self_check_coloring),
    Workload("dense-acd-d1lc", 8, build_dense, _solve_coloring,
             _coloring_outcome, _self_check_coloring),
    Workload("triangle-detect", 10, build_triangle, _solve_triangle,
             _triangle_outcome, _self_check_triangle),
)}
