"""Sharded execution: byte-identity with serial runs for any shard count.

The contract under test (DESIGN.md "Sharded similarity sweep"): fanning the
similarity sweep's per-edge hashing over the compute pool is a pure
execution choice — similarity results, ledgers, colorings and fault
counters must match a serial run bit for bit, for any shard count, on
fault-free networks and under fault plans.
"""

from __future__ import annotations

import pytest

import repro.shard.sweep as sweep_mod
from repro.congest import Network
from repro.core import solve_d1c, solve_d1lc
from repro.experiments import (
    aggregate_suite, canonical_dumps, run_scenarios,
)
from repro.experiments.spec import ScenarioSpec
from repro.graphs import (
    gnp_fast_graph, planted_almost_cliques, power_law_graph,
    random_geometric_graph, ring_of_cliques,
)
from repro.sampling import estimate_similarity_on_edges
from repro.sampling.similarity import SimilarityParameters
from repro.shard import partition_weights

#: Backends whose sharded runs must stay byte-identical to a serial ``dict``
#: run.  The similarity sweep reaches the shard pool only on ``dict`` (the
#: columnar backend runs its own vectorized sweep), so dict == sharded dict
#: == columnar closes the three-way equivalence triangle.
SERIAL_BACKENDS = ("dict", "columnar")

#: Graph families the sharded sweep must reproduce the serial one on.
SWEEP_FAMILIES = {
    "gnp_fast": lambda: gnp_fast_graph(60, avg_degree=6.0, seed=3),
    "geometric": lambda: random_geometric_graph(60, 0.22, seed=5),
    "power_law": lambda: power_law_graph(60, 3, seed=11),
    "planted": lambda: planted_almost_cliques(
        num_cliques=3, clique_size=12, num_sparse=10, seed=13).graph,
}


def _sweep(graph, shards, faults=None):
    """One dict-backend similarity sweep over every edge's neighbourhoods."""
    net = Network(graph, backend="dict", ledger="records", shards=shards,
                  faults=faults, fault_seed=13)
    sets = {v: set(graph.neighbors(v)) for v in graph.nodes()}
    params = SimilarityParameters.practical(eps=0.3, seed=4)
    return estimate_similarity_on_edges(net, sets, params=params, seed=9), net


def _records(net):
    return [(r.label, r.message_count, r.total_bits, r.max_edge_bits)
            for r in net.ledger.records]


@pytest.fixture
def pool_calls(monkeypatch):
    """Open the work gate and count the sweeps that reach the pool."""
    monkeypatch.setattr(sweep_mod, "MIN_SHARDED_WORK", 0)
    calls = []
    real = sweep_mod.sharded_edge_hashes

    def spy(tasks, base_keys, shards):
        calls.append(shards)
        return real(tasks, base_keys, shards)

    monkeypatch.setattr(sweep_mod, "sharded_edge_hashes", spy)
    return calls


# --------------------------------------------------------------------------- #
# Solver-side sharding: the similarity sweep and the suite aggregates
# --------------------------------------------------------------------------- #

class TestShardedSweep:
    def test_sweep_results_identical(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "MIN_SHARDED_WORK", 0)
        graph = ring_of_cliques(5, 7)
        sets = {v: set(graph.neighbors(v)) for v in graph.nodes()}
        params = SimilarityParameters.practical(eps=0.3, seed=4)

        def sweep(shards):
            net = Network(graph, backend="dict", shards=shards)
            return estimate_similarity_on_edges(
                net, sets, params=params, seed=9), net

        base, net0 = sweep(1)
        for shards in (2, 4, 7):
            got, net1 = sweep(shards)
            assert got.keys() == base.keys()
            for edge in base:
                assert got[edge] == base[edge], edge
            assert (net1.ledger.rounds, net1.ledger.total_bits) == \
                (net0.ledger.rounds, net0.ledger.total_bits)

    @pytest.mark.parametrize("shards", (2, 3, 5, 8))
    @pytest.mark.parametrize("family", sorted(SWEEP_FAMILIES))
    def test_sweep_identical_for_any_shard_count(self, pool_calls, family,
                                                 shards):
        graph = SWEEP_FAMILIES[family]()
        base, net0 = _sweep(graph, 1)
        got, net1 = _sweep(graph, shards)
        assert pool_calls == [shards]
        assert list(got) == list(base)
        assert got == base
        assert _records(net1) == _records(net0)

    @pytest.mark.parametrize("shards", (2, 4))
    @pytest.mark.parametrize("faults", [
        {"drop": 0.15},
        {"corrupt": 0.02},
        {"crash": {1: (0, 7, 13)}},
    ], ids=["drop", "corrupt", "crash"])
    def test_sweep_identical_under_faults(self, pool_calls, faults, shards):
        graph = ring_of_cliques(5, 7)
        base, net0 = _sweep(graph, 1, faults)
        got, net1 = _sweep(graph, shards, faults)
        assert pool_calls == [shards]
        assert got == base
        assert _records(net1) == _records(net0)
        assert net1.fault_stats == net0.fault_stats
        stats = net0.fault_stats
        # The plan really perturbed the sweep.
        assert stats["dropped_messages"] + stats["corrupted_messages"] + \
            stats["crashed_nodes"] > 0

    @pytest.mark.parametrize("family", sorted(SWEEP_FAMILIES))
    def test_solver_identical_on_families(self, pool_calls, family):
        graph = SWEEP_FAMILIES[family]()
        base = solve_d1c(graph, seed=5, backend="dict")
        got = solve_d1c(graph, seed=5, backend="dict", shards=3)
        assert pool_calls and set(pool_calls) == {3}
        assert got.coloring == base.coloring
        assert (got.rounds, got.total_bits, got.max_edge_bits) == \
            (base.rounds, base.total_bits, base.max_edge_bits)

    def test_small_sweeps_stay_serial(self):
        # Below the work gate the pool is never engaged (the decision is a
        # pure function of the workload, so a run shards deterministically).
        net = Network(ring_of_cliques(3, 4), backend="dict", shards=4)
        sets = {v: set(net.neighbors(v)) for v in net.nodes}
        results = estimate_similarity_on_edges(net, sets, seed=1)
        assert results  # computed, serially, with identical semantics

    @pytest.mark.parametrize("backend", SERIAL_BACKENDS)
    @pytest.mark.parametrize("solver", [solve_d1c, solve_d1lc])
    def test_solver_bytes_identical(self, monkeypatch, solver, backend):
        monkeypatch.setattr(sweep_mod, "MIN_SHARDED_WORK", 0)
        graph = gnp_fast_graph(70, avg_degree=7.0, seed=6)
        base = solver(graph, seed=11, backend="dict")
        for shards in (2, 7):
            got = solver(graph, seed=11, backend=backend, shards=shards)
            assert got.coloring == base.coloring
            assert (got.rounds, got.total_bits, got.max_edge_bits) == \
                (base.rounds, base.total_bits, base.max_edge_bits)

    @pytest.mark.parametrize("backend", SERIAL_BACKENDS)
    def test_solver_bytes_identical_under_faults(self, monkeypatch, backend):
        monkeypatch.setattr(sweep_mod, "MIN_SHARDED_WORK", 0)
        graph = ring_of_cliques(6, 6)
        base = solve_d1c(graph, seed=3, backend="dict",
                         faults={"drop": 0.05, "corrupt": 1e-3})
        got = solve_d1c(graph, seed=3, backend=backend, shards=3,
                        faults={"drop": 0.05, "corrupt": 1e-3})
        assert got.coloring == base.coloring
        assert got.fault_stats == base.fault_stats

    def test_suite_aggregate_bytes_identical(self, pool_calls):
        specs = [
            ScenarioSpec("tiny-d1c", "gnp_fast", "d1c",
                         family_params={"n": 40, "avg_degree": 5.0}, trials=2,
                         backend="dict"),
            ScenarioSpec("tiny-ring-d1lc", "ring_of_cliques", "d1lc",
                         family_params={"num_cliques": 4, "clique_size": 6},
                         backend="dict"),
        ]
        from dataclasses import replace

        serial = run_scenarios(specs, suite="tiny")
        sharded = run_scenarios([replace(s, shards=3) for s in specs],
                                suite="tiny")
        assert pool_calls and set(pool_calls) == {3}
        assert canonical_dumps(aggregate_suite(serial)) == \
            canonical_dumps(aggregate_suite(sharded))

    def test_partition_weights_balanced_and_contiguous(self):
        weights = [5, 1, 1, 1, 5, 1, 1, 1, 5, 1]
        bounds = partition_weights(weights, 3)
        assert bounds[0] == 0 and bounds[-1] == len(weights)
        assert bounds == sorted(bounds)
        chunk_weights = [sum(weights[bounds[i]:bounds[i + 1]])
                         for i in range(3)]
        assert max(chunk_weights) <= sum(weights)  # sanity
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_partition_weights_caps_shards_at_item_count(self):
        assert partition_weights([3, 1], 5) == [0, 1, 2]
        assert partition_weights([], 3) == [0, 0]

    def test_partition_weights_single_shard_is_everything(self):
        assert partition_weights([4, 0, 9, 2], 1) == [0, 4]

    def test_partition_weights_zero_weights_still_split(self):
        bounds = partition_weights([0, 0, 0, 0], 2)
        assert len(bounds) == 3 and bounds[0] == 0 and bounds[-1] == 4
        assert bounds[0] < bounds[1] < bounds[2]

    def test_partition_weights_rejects_non_positive_shards(self):
        for shards in (0, -2):
            with pytest.raises(ValueError):
                partition_weights([1, 2, 3], shards)

    def test_partition_weights_uniform_chunks_are_near_equal(self):
        for n, shards in ((100, 7), (64, 8), (10, 3), (9, 9)):
            bounds = partition_weights([5] * n, shards)
            sizes = [b - a for a, b in zip(bounds, bounds[1:])]
            assert len(sizes) == shards and sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1, (n, shards, sizes)

    def test_network_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            Network(ring_of_cliques(3, 4), shards=0)


class TestShardCli:
    def test_color_command_accepts_shards(self, capsys):
        from repro.cli import main

        assert main(["color", "--n", "40", "--p", "0.12", "--problem", "d1c",
                     "--shards", "2"]) == 0
        assert "coloring run" in capsys.readouterr().out

    def test_suite_run_shards_override(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["suite", "run", "smoke", "--only", "gnp-d1c",
                     "--shards", "2", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "BENCH_suite.json").exists()


class TestComputePool:
    def test_wave_error_drains_pipes_and_pool_stays_usable(self):
        from repro.shard.pool import ShardComputePool, register_task

        register_task("maybe_fail",
                      lambda payload: payload if payload != "bad"
                      else (_ for _ in ()).throw(ValueError("boom")))
        pool = ShardComputePool(2)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                pool.run("maybe_fail", ["ok", "bad"])
            # Every pipe was drained before the raise: the next run's
            # results must match its own tasks, not stale leftovers.
            assert pool.run("maybe_fail", ["a", "b"]) == ["a", "b"]
        finally:
            pool.shutdown()

    def test_more_chunks_than_workers_dispatches_in_waves(self):
        from repro.shard.pool import ShardComputePool, register_task

        register_task("echo", lambda payload: payload * 2)
        pool = ShardComputePool(2)
        try:
            assert pool.run("echo", [1, 2, 3, 4, 5]) == [2, 4, 6, 8, 10]
        finally:
            pool.shutdown()

    def test_shutdown_pool_is_replaced_on_next_get(self):
        from repro.shard.pool import get_pool

        pool = get_pool(2)
        if pool.pid is None:  # fork-less fallback
            pytest.skip("fork unavailable")
        pool.shutdown()
        fresh = get_pool(2)
        assert fresh is not pool and fresh.size == 2
        from repro.shard.pool import shutdown_pool
        shutdown_pool()
