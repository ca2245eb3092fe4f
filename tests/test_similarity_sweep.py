"""The columnar ``EstimateSimilarity`` sweep against the scalar reference.

``estimate_similarity_on_edges`` hands every sweep on the columnar backend to
:func:`repro.congest.columnar.sweep.columnar_similarity_estimates`.  Its
contract (DESIGN.md "Columnar core invariants") is byte-identity with the
scalar loop: the same per-edge results in the same order, the same flagged
sets downstream, and the same ``records`` ledger.  This module checks that
contract through every caller — triangle detection, global and local
sparsity, the raw sweep — and checks that every decline path (payload
digests, fault plans, λ ≥ 2**32) falls back to the reference exactly.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.congest.columnar.sweep as sweep_mod
from repro.congest import Network
from repro.graphs import (
    gnp_fast_graph, planted_almost_cliques, power_law_graph,
    random_geometric_graph, ring_of_cliques,
)
from repro.graphs.generators import triangle_rich_graph
from repro.obs.forensics import DigestTracer
from repro.sampling import (
    SimilarityParameters,
    detect_triangle_rich_edges,
    estimate_global_sparsity,
    estimate_local_sparsity,
    estimate_similarity_on_edges,
)

BACKENDS = ("dict", "columnar")
PARAMS = SimilarityParameters.practical(eps=0.3, seed=4)
# Uncapped k = ceil(C / max_size), C ≈ 418.5: k = 1, 2, 3 on sets of a few hundred.
MIXED = SimilarityParameters(eps=0.9, nu=0.5, max_scale=None, seed=2)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the columnar kernel's calls and how many of them declined."""
    calls = {"ran": 0, "declined": 0}
    original = sweep_mod.columnar_similarity_estimates

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls["declined" if result is None else "ran"] += 1
        return result

    monkeypatch.setattr(sweep_mod, "columnar_similarity_estimates", spy)
    return calls


def _graph():
    return triangle_rich_graph(n=60, background_p=0.06, planted_cliques=2,
                               clique_size=14, seed=5).graph


#: Graph shapes every raw-sweep comparison runs on: the triangle-rich default
#: plus sparse G(n, p), geometric, heavy-tailed, planted almost-cliques and a
#: ring of cliques.
FAMILIES = {
    "triangle-rich": _graph,
    "ring-of-cliques": lambda: ring_of_cliques(5, 7),
    "gnp_fast": lambda: gnp_fast_graph(60, avg_degree=6.0, seed=3),
    "geometric": lambda: random_geometric_graph(60, 0.22, seed=5),
    "power_law": lambda: power_law_graph(60, 3, seed=11),
    "planted": lambda: planted_almost_cliques(
        num_cliques=3, clique_size=12, num_sparse=10, seed=13).graph,
}

#: Fault plans the sweep must stay identical under, each kind alone and drops
#: with corruption together; crashing nodes in round 1 silences them in the
#: indicator exchange.
FAULT_PLANS = {
    "drop": {"drop": 0.15},
    "corrupt": {"corrupt": 0.02},
    "drop-corrupt": {"drop": 0.1, "corrupt": 1e-3},
    "crash": {"crash": {1: (0, 7, 13)}},
}


def _neighborhoods(graph):
    return {v: set(graph.neighbors(v)) for v in graph.nodes()}


def _run_all(graph, call, **network_kwargs):
    """Run ``call(network)`` on every backend; return (outputs, networks)."""
    outputs, networks = [], []
    for backend in BACKENDS:
        net = Network(graph, backend=backend, ledger="records", **network_kwargs)
        outputs.append(call(net))
        networks.append(net)
    return outputs, networks


def _assert_same(outputs, networks):
    reference, ref_net = outputs[0], networks[0]
    for output, net in zip(outputs[1:], networks[1:]):
        assert output == reference, net.backend
        assert net.ledger.records == ref_net.ledger.records, net.backend


def _items(results):
    """Results as an ordered list: key order is part of the contract."""
    return list(results.items())


def _mixed_scale_instance():
    """Hub 0 whose edges get k = 1, 2 and 3 under ``MIXED``; 2 and 3 mix too.

    k = ceil(C / max_size) with C ≈ 418.5, so the hub's set of 100 meets
    sets of 450 (k = 1), 300 (k = 2) and 160 (k = 3); edge (1, 2) has k = 1
    and (2, 3) k = 2.  The sets overlap so every estimate is nonzero.
    """
    rng = random.Random(11)
    universe = range(700)
    sizes = {0: 100, 1: 450, 2: 300, 3: 160}
    sets = {node: set(rng.sample(universe, size)) for node, size in sizes.items()}
    graph = nx.Graph([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    return graph, sets


class TestCallerEquivalence:
    @pytest.mark.parametrize("params", [PARAMS, MIXED], ids=["practical", "mixed"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_raw_sweep(self, kernel_calls, family, params):
        graph = FAMILIES[family]()
        sets = _neighborhoods(graph)
        outputs, networks = _run_all(graph, lambda net: _items(
            estimate_similarity_on_edges(net, sets, params=params, seed=9)))
        _assert_same(outputs, networks)
        assert kernel_calls == {"ran": 1, "declined": 0}

    def test_triangle_detection(self, kernel_calls):
        graph = _graph()

        def detect(net):
            result = detect_triangle_rich_edges(net, eps=0.3, seed=2)
            return (_items(result.estimates), result.flagged, result.rounds_used,
                    _items(result.edge_results))

        outputs, networks = _run_all(graph, detect)
        _assert_same(outputs, networks)
        assert outputs[0][1]  # the planted cliques are flagged
        assert kernel_calls == {"ran": 1, "declined": 0}

    @pytest.mark.parametrize("estimator", [estimate_global_sparsity,
                                           estimate_local_sparsity])
    def test_sparsity(self, kernel_calls, estimator):
        graph = _graph()

        def estimate(net):
            result = estimator(net, eps=0.3, seed=3)
            return (_items(result.estimates), result.reliable,
                    _items(result.edge_similarities), result.rounds_used)

        outputs, networks = _run_all(graph, estimate)
        _assert_same(outputs, networks)
        assert kernel_calls == {"ran": 1, "declined": 0}

    def test_empty_sets_and_subset_of_edges(self):
        graph = ring_of_cliques(4, 5)
        sets = _neighborhoods(graph)
        for node in list(sets)[::3]:
            sets[node] = set()
        edges = list(graph.edges())[::2]
        outputs, networks = _run_all(graph, lambda net: _items(
            estimate_similarity_on_edges(net, sets, edges=edges, params=PARAMS,
                                         seed=1)))
        _assert_same(outputs, networks)
        assert any(result.sigma == 0 for _, result in outputs[0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), picks=st.lists(
        st.tuples(st.integers(0, 10**6), st.booleans()), min_size=0, max_size=40))
    def test_random_requests(self, seed, picks):
        graph = nx.gnp_random_graph(18, 0.35, seed=seed % 97)
        edges = list(graph.edges())
        if not edges:
            return
        requested = [edges[i % len(edges)][::-1] if flip else edges[i % len(edges)]
                     for i, flip in picks]
        sets = _neighborhoods(graph)
        outputs, networks = _run_all(graph, lambda net: _items(
            estimate_similarity_on_edges(net, sets, edges=requested,
                                         params=PARAMS, seed=seed)))
        _assert_same(outputs, networks)


class TestDuplicateRequests:
    def test_repeated_and_reversed_edges_charged_once(self, kernel_calls):
        # Regression: the columnar sweep used to charge one index message and
        # two indicators per *requested* edge (167,427 bits here against the
        # reference's 136,422); the reference charges each unordered edge once.
        graph = nx.complete_graph(12)
        edges = list(graph.edges())
        rng = random.Random(3)
        extra = [rng.choice(edges) for _ in range(15)]
        extra = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(extra)]
        requested = edges + extra
        sets = {v: set(graph.neighbors(v)) | {v} for v in graph}

        outputs, networks = _run_all(graph, lambda net: _items(
            estimate_similarity_on_edges(net, sets, edges=requested,
                                         params=PARAMS, seed=9, label="x")))
        _assert_same(outputs, networks)
        assert networks[0].ledger.total_bits == 136_422
        # Every requested orientation gets its (symmetric) result.
        results = dict(outputs[-1])
        assert set(results) == set(requested)
        for u, v in extra:
            assert results[(u, v)] == results.get((v, u), results[(u, v)])

        deduped = Network(graph, backend="columnar", ledger="records")
        estimate_similarity_on_edges(deduped, sets, edges=edges, params=PARAMS,
                                     seed=9, label="x")
        assert deduped.ledger.records == networks[-1].ledger.records
        assert kernel_calls == {"ran": 2, "declined": 0}

    def test_buddy_wrapper_matches_thresholded_reference(self):
        graph = nx.complete_graph(12)
        edges = list(graph.edges())
        requested = edges + [(v, u) for u, v in edges[:7]] + edges[:5]
        sets = {v: set(graph.neighbors(v)) | {v} for v in graph}
        degrees = dict(graph.degree())

        reference = Network(graph, backend="dict", ledger="records")
        results = estimate_similarity_on_edges(reference, sets, edges=requested,
                                               params=PARAMS, seed=9, label="b")
        expected = {(u, v) for (u, v), r in results.items()
                    if r.estimate >= 0.7 * min(degrees[u], degrees[v])}
        net = Network(graph, backend="columnar", ledger="records")
        buddies = sweep_mod.columnar_buddy_edges(
            net, sets, degrees, requested, PARAMS, 9, "b", threshold_coeff=0.7)
        assert buddies == expected and expected
        assert net.ledger.records == reference.ledger.records


class TestDeclinePaths:
    def test_digest_tracer(self, kernel_calls):
        graph = _graph()
        sets = _neighborhoods(graph)
        outputs, networks, streams = [], [], []
        for backend in BACKENDS:
            tracer = DigestTracer()
            net = Network(graph, backend=backend, ledger="records", tracer=tracer)
            outputs.append(_items(estimate_similarity_on_edges(
                net, sets, params=PARAMS, seed=9)))
            networks.append(net)
            tracer.close()
            streams.append(tracer.events)
        _assert_same(outputs, networks)
        assert all(stream == streams[0] for stream in streams[1:])
        assert kernel_calls == {"ran": 0, "declined": 1}
        net = Network(graph, backend="columnar", tracer=DigestTracer())
        assert sweep_mod.columnar_similarity_estimates(
            net, sets, list(graph.edges()), PARAMS, 9, "x") is None
        assert net.ledger.rounds == 0

    @pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fault_plan(self, family, plan):
        graph = FAMILIES[family]()
        sets = _neighborhoods(graph)
        outputs, networks = _run_all(graph, lambda net: _items(
            estimate_similarity_on_edges(net, sets, params=PARAMS, seed=9)),
            faults=FAULT_PLANS[plan], fault_seed=13)
        _assert_same(outputs, networks)
        assert networks[-1].backend == "columnar+faults"
        stats = networks[0].fault_stats
        assert networks[-1].fault_stats == stats
        # The plan really perturbed the sweep.
        assert stats["dropped_messages"] + stats["corrupted_messages"] + \
            stats["crashed_nodes"] > 0

    def test_lambda_beyond_packing_range(self, kernel_calls):
        graph = ring_of_cliques(3, 5)
        sets = _neighborhoods(graph)
        params = SimilarityParameters(eps=1e-9, nu=0.1, max_scale=1,
                                      sigma_cap=64, seed=1)
        assert params.family(5).lam >= 1 << 32
        outputs, networks = _run_all(graph, lambda net: _items(
            estimate_similarity_on_edges(net, sets, params=params, seed=2)))
        _assert_same(outputs, networks)
        assert kernel_calls == {"ran": 0, "declined": 1}


class TestScalePaths:
    """Edges of one sweep with different k, k == 1, and non-int elements."""

    def test_mixed_scales_on_one_node(self, kernel_calls):
        graph, sets = _mixed_scale_instance()
        outputs, networks = _run_all(graph, lambda net: _items(
            estimate_similarity_on_edges(net, sets, params=MIXED, seed=6)))
        _assert_same(outputs, networks)
        assert kernel_calls == {"ran": 1, "declined": 0}
        results = dict(outputs[-1])
        hub_scales = {results[edge].scale_factor for edge in graph.edges(0)}
        assert hub_scales == {1, 2, 3}
        assert all(results[edge].estimate > 0 for edge in graph.edges(0))

    def test_max_scale_one_runs_the_kernel(self, kernel_calls):
        graph = _graph()
        sets = _neighborhoods(graph)
        params = SimilarityParameters(eps=0.3, nu=0.1, max_scale=1,
                                      sigma_cap=1024, seed=4)
        outputs, networks = _run_all(graph, lambda net: _items(
            estimate_similarity_on_edges(net, sets, params=params, seed=9)))
        _assert_same(outputs, networks)
        assert kernel_calls == {"ran": 1, "declined": 0}
        assert {result.scale_factor for _, result in outputs[0]} == {1}
        assert any(result.estimate > 0 for _, result in outputs[0])

    @pytest.mark.parametrize("params", [PARAMS, MIXED], ids=["practical", "mixed"])
    def test_non_int_elements(self, kernel_calls, params):
        graph, int_sets = _mixed_scale_instance()
        sets = {node: {(x, "t") if x % 3 else str(x) for x in members}
                for node, members in int_sets.items()}
        outputs, networks = _run_all(graph, lambda net: _items(
            estimate_similarity_on_edges(net, sets, params=params, seed=6)))
        _assert_same(outputs, networks)
        assert kernel_calls == {"ran": 1, "declined": 0}
        assert any(result.estimate > 0 for _, result in outputs[0])


def test_each_scaled_key_is_hashed_once_per_sweep(monkeypatch):
    graph, sets = _mixed_scale_instance()
    cap = 256
    monkeypatch.setattr(sweep_mod, "_BLOCK_ELEMENTS", cap)
    sizes = []
    original = sweep_mod.scale_keys_vec

    def spy(base_keys, j_values):
        sizes.append(len(base_keys))
        return original(base_keys, j_values)

    monkeypatch.setattr(sweep_mod, "scale_keys_vec", spy)
    net = Network(graph, backend="columnar", ledger="records")
    results = estimate_similarity_on_edges(net, sets, params=MIXED, seed=6)

    kmax = {}
    for (u, v), result in results.items():
        for node in (u, v):
            kmax[node] = max(kmax.get(node, 1), result.scale_factor)
    runs = {node: k * len(sets[node]) for node, k in kmax.items() if k > 1}
    assert sum(sizes) == sum(runs.values())
    # Chunks hold whole nodes and stay under the cap unless one node's run
    # alone is bigger (hub 0: 3 × 100, node 3: 3 × 160, node 2: 2 × 300).
    assert all(size <= cap or size in runs.values() for size in sizes)
    assert len(sizes) == len(runs) and max(sizes) > cap

    reference = Network(graph, backend="dict", ledger="records")
    expected = estimate_similarity_on_edges(reference, sets, params=MIXED, seed=6)
    assert _items(results) == _items(expected)
    assert net.ledger.records == reference.ledger.records


def test_block_partition_does_not_change_results(monkeypatch):
    graph = _graph()
    sets = _neighborhoods(graph)
    edges = list(graph.edges())

    def sweep():
        net = Network(graph, backend="columnar", ledger="records")
        out = sweep_mod.columnar_similarity_estimates(net, sets, edges, PARAMS, 9, "x")
        return [column.tolist() for column in out[1:]], net.ledger.records

    blocks = []
    original = sweep_mod._block_ranges

    def counting(work):
        ranges = original(work)
        if len(work) == len(edges):  # the edge partition, not the key store's
            blocks.append(len(ranges))
        return ranges

    monkeypatch.setattr(sweep_mod, "_block_ranges", counting)
    monkeypatch.setattr(sweep_mod, "_BLOCK_ELEMENTS", 1 << 40)
    one_block = sweep()
    monkeypatch.setattr(sweep_mod, "_BLOCK_ELEMENTS", 64)
    many_blocks = sweep()
    # Every edge in its own block, each bigger than the cap.
    monkeypatch.setattr(sweep_mod, "_BLOCK_ELEMENTS", 1)
    single_edges = sweep()
    assert blocks == [1, blocks[1], len(edges)] and blocks[1] > 10
    assert many_blocks == one_block
    assert single_edges == one_block
