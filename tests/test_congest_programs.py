"""Multi-round distributed programs written as driver code over the primitives.

Every algorithm in the repo runs as driver code: a loop that hands one
round's messages to :meth:`Network.exchange` / :meth:`Network.broadcast` and
folds the deliveries into per-node state.  These tests pin that execution
model on small programs with distinct shapes — a deterministic flood, a
per-node-randomness gossip and a program whose nodes fall silent at
staggered rounds — and check that

* the programs compute what the model says (a flood advances one hop per
  round, stays inside its component, stops after the source's eccentricity);
* inboxes are private: mutating what one node received never leaks into
  another node's inbox or a later round;
* crashed nodes neither send nor receive from their crash round on;
* every backend delivers the same payloads and charges the same ledger
  records and fault counters, fault-free and under drop/corrupt/crash/delay
  plans.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest import Network
from repro.graphs import gnp_fast_graph, random_geometric_graph, ring_of_cliques
from repro.utils.rng import RngStream

BACKENDS = ("dict", "columnar")


# --------------------------------------------------------------------------- #
# Programs
# --------------------------------------------------------------------------- #

def flood_min(net: Network, rounds: int):
    """Every node repeatedly broadcasts the smallest node index it has seen.

    Returns the per-round history of the ``best`` map (entry 0 is the
    initial state).
    """
    best = {v: net.index_of(v) for v in net.nodes}
    history = [dict(best)]
    for _ in range(rounds):
        inboxes = net.broadcast(best, label="flood")
        best = {v: min(best[v], *inboxes[v].values()) if inboxes[v] else best[v]
                for v in net.nodes}
        history.append(dict(best))
    return history


def flood_until_stable(net: Network) -> int:
    """Flood until a round changes nothing; return the rounds that changed."""
    best = {v: net.index_of(v) for v in net.nodes}
    changed_rounds = 0
    while True:
        inboxes = net.broadcast(best, label="flood")
        new = {v: min(best[v], *inboxes[v].values()) if inboxes[v] else best[v]
               for v in net.nodes}
        if new == best:
            return changed_rounds
        best = new
        changed_rounds += 1


def random_gossip(net: Network, seed: int, rounds: int = 4):
    """Per-node randomness mixed with what each node hears per edge."""
    stream = RngStream(seed)
    rngs = {v: stream.for_node(v, "gossip") for v in net.nodes}
    trace = {v: [rngs[v].randrange(1000)] for v in net.nodes}
    for _ in range(rounds):
        messages = {(v, u): trace[v][-1] % 7
                    for v in net.nodes for u in net.neighbors(v)}
        heard = {v: 0 for v in net.nodes}
        for (_, v), value in net.exchange(messages, label="gossip").items():
            heard[v] += value
        for v in net.nodes:
            trace[v].append(rngs[v].randrange(1000) + heard[v])
    return {v: tuple(t) for v, t in trace.items()}


def staggered_halt(net: Network):
    """Node ``v`` stops sending at round ``index(v) % 5``.

    Halted nodes keep receiving; each node's output is how many messages it
    heard in the round before it halted.  Returns ``(outputs, rounds)``.
    """
    halt_at = {v: net.index_of(v) % 5 for v in net.nodes}
    heard = {v: 0 for v in net.nodes}
    outputs = {}
    rounds = 0
    while True:
        for v in net.nodes:
            if v not in outputs and rounds >= halt_at[v]:
                outputs[v] = ("done", heard[v])
        live = [v for v in net.nodes if v not in outputs]
        if not live:
            return outputs, rounds
        messages = {(v, u): 1 for v in live for u in net.neighbors(v)}
        heard = {v: 0 for v in net.nodes}
        for (_, v) in net.exchange(messages, label="stagger"):
            heard[v] += 1
        rounds += 1


PROGRAMS = {
    "flood": lambda net: flood_min(net, 6),
    "gossip": lambda net: random_gossip(net, seed=7),
    "stagger": staggered_halt,
}

FAMILIES = {
    "gnp_fast": lambda: gnp_fast_graph(60, avg_degree=6.0, seed=3),
    "geometric": lambda: random_geometric_graph(60, 0.22, seed=5),
    "ring_of_cliques": lambda: ring_of_cliques(6, 6),
}


def _records(net: Network):
    return [(r.label, r.message_count, r.total_bits, r.max_edge_bits)
            for r in net.ledger.records]


def _run_everywhere(graph, program, faults=None):
    """Run ``program`` once per backend; return ``[(backend, output, net)]``."""
    runs = []
    for backend in BACKENDS:
        net = Network(graph, backend=backend, ledger="records", faults=faults,
                      fault_seed=13)
        runs.append((backend, program(net), net))
    return runs


def _assert_backends_agree(graph, program, faults=None):
    (_, ref_out, ref_net), *others = _run_everywhere(graph, program, faults)
    assert ref_net.ledger.rounds > 0
    for backend, out, net in others:
        assert out == ref_out, backend
        assert _records(net) == _records(ref_net), backend
        assert net.fault_stats == ref_net.fault_stats, backend
    return ref_out, ref_net


# --------------------------------------------------------------------------- #
# What the programs compute
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", BACKENDS)
class TestFloodMin:
    def test_advances_one_hop_per_round_on_a_path(self, backend):
        net = Network(nx.path_graph(6), backend=backend)
        history = flood_min(net, 6)
        for r, best in enumerate(history):
            assert best == {v: max(0, v - r) for v in range(6)}, r
        assert net.ledger.rounds == 6

    def test_respects_components(self, backend):
        graph = nx.disjoint_union(nx.path_graph(4), nx.cycle_graph(5))
        net = Network(graph, backend=backend)
        final = flood_min(net, 8)[-1]
        assert final == {v: (0 if v < 4 else 4) for v in graph.nodes()}

    def test_rounds_until_stable_equal_the_eccentricity(self, backend):
        for graph in (nx.path_graph(7), nx.cycle_graph(8), nx.star_graph(5),
                      ring_of_cliques(4, 5)):
            net = Network(graph, backend=backend)
            source = net.node_at(0)
            expected = nx.eccentricity(graph, v=source)
            assert flood_until_stable(net) == expected, graph
            assert net.ledger.rounds == expected + 1  # plus the quiet round

    def test_every_round_charges_one_message_per_directed_edge(self, backend):
        graph = ring_of_cliques(3, 4)
        net = Network(graph, backend=backend, ledger="records")
        flood_min(net, 3)
        records = net.ledger.records
        assert [r.label for r in records] == ["flood"] * 3
        assert all(r.message_count == 2 * graph.number_of_edges()
                   for r in records)
        assert net.ledger.total_messages == 3 * 2 * graph.number_of_edges()


# --------------------------------------------------------------------------- #
# Inbox privacy
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", BACKENDS)
class TestInboxPrivacy:
    def test_exchange_result_is_a_private_dict(self, backend):
        net = Network(nx.path_graph(4), backend=backend)
        messages = {(0, 1): 3, (2, 1): 5, (3, 2): 7}
        first = net.exchange(messages)
        assert isinstance(first, dict)
        assert first == messages
        first.clear()
        messages[(0, 1)] = 99  # the caller's dict is not aliased either
        second = net.exchange({(0, 1): 3, (2, 1): 5, (3, 2): 7})
        assert second == {(0, 1): 3, (2, 1): 5, (3, 2): 7}

    def test_mutating_one_inbox_stays_local(self, backend):
        net = Network(nx.star_graph(3), backend=backend)
        inboxes = net.broadcast({0: 4})
        assert all(dict(inboxes[leaf]) == {0: 4} for leaf in (1, 2, 3))
        inboxes[1][99] = "intruder"
        del inboxes[2][0]
        assert dict(inboxes[3]) == {0: 4}
        later = net.broadcast({0: 4})
        assert all(dict(later[leaf]) == {0: 4} for leaf in (1, 2, 3))


# --------------------------------------------------------------------------- #
# Crashed nodes
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", BACKENDS)
class TestCrashedNodes:
    def test_crashing_everyone_silences_the_network(self, backend):
        graph = nx.cycle_graph(6)
        net = Network(graph, backend=backend, ledger="records",
                      faults={"crash": {1: tuple(graph.nodes())}})
        history = flood_min(net, 4)
        assert history[1] != history[0]  # round 0: everyone alive
        assert history[1] == history[2] == history[3] == history[4]
        assert net.ledger.rounds == 4  # silent rounds are still charged
        assert [r.message_count for r in net.ledger.records][1:] == [0, 0, 0]
        assert net.fault_stats["crashed_nodes"] == 6

    def test_crashed_minimum_never_spreads(self, backend):
        net = Network(nx.path_graph(6), backend=backend,
                      faults={"crash": {0: (0,)}})
        final = flood_min(net, 6)[-1]
        assert final == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}


# --------------------------------------------------------------------------- #
# Cross-backend equivalence
# --------------------------------------------------------------------------- #

class TestBackendsAgree:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_fault_free(self, program, family):
        _assert_backends_agree(FAMILIES[family](), PROGRAMS[program])

    @pytest.mark.parametrize("plan", [
        "drop", "corrupt", "drop+corrupt", "crash", "delay",
    ])
    @pytest.mark.parametrize("program", ["flood", "gossip"])
    def test_under_faults(self, program, plan):
        for family in sorted(FAMILIES):
            graph = FAMILIES[family]()
            u, v = next(iter(graph.edges()))
            faults = {
                "drop": {"drop": 0.15},
                "corrupt": {"corrupt": 0.02},
                "drop+corrupt": {"drop": 0.1, "corrupt": 0.01},
                "crash": {"crash": {2: (5, 11)}},
                "delay": {"delay": {(u, v): 2, (v, u): 1}},
            }[plan]
            clean = PROGRAMS[program](Network(graph, backend="dict"))
            faulted, _ = _assert_backends_agree(graph, PROGRAMS[program],
                                                faults)
            assert faulted != clean, (family, plan)

    def test_staggered_halting_drains_in_five_rounds(self):
        (outputs, rounds), net = _assert_backends_agree(ring_of_cliques(4, 5),
                                                        staggered_halt)
        assert rounds == 4 == net.ledger.rounds
        # A node halting in round 0 heard nothing; later ones heard the
        # neighbours still live in the round before.
        assert all(outputs[net.node_at(i)] == ("done", 0)
                   for i in range(0, 20, 5))

    def test_gossip_streams_are_per_node(self):
        graph = gnp_fast_graph(30, avg_degree=4.0, seed=1)
        base = random_gossip(Network(graph), seed=7)
        assert random_gossip(Network(graph), seed=7) == base
        assert random_gossip(Network(graph), seed=8) != base
        # Relabelling the node order changes no node's stream.
        reordered = nx.Graph()
        reordered.add_nodes_from(reversed(list(graph.nodes())))
        reordered.add_edges_from(graph.edges())
        assert random_gossip(Network(reordered), seed=7) == base
