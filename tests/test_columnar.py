"""Columnar core: kernels, buffers and accounting pinned bit-for-bit.

The columnar backend's contract (DESIGN.md "Columnar core invariants") is
byte-identity with the ``dict`` reference backend.  The end-to-end half of
that contract lives in the cross-backend equivalence matrix
(``test_transport_equivalence``) and the sweep comparisons
(``test_similarity_sweep``); this module pins the *pieces* — vectorized
splitmix64 kernels against the scalar implementations, CSR round buffers
against the reference inbox fill, vectorized chunk accounting against a
literal chunk-by-chunk simulation — so a drift in any one layer fails here
with a precise finger instead of as an opaque end-to-end diff.
"""

from __future__ import annotations

import dataclasses
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Message, Network
from repro.congest.columnar.buffers import CsrRoundBuffer
from repro.congest.columnar.kernels import (
    element_keys_array,
    hash_values_vec,
    member_prefixes_vec,
    mix64_step_vec,
    mix64_vec,
    scale_keys_vec,
)
from repro.congest.transport import EMPTY_INBOX
from repro.hashing.keys import (
    MIX64_INIT, combine_part_keys, element_key, mix64, mix64_step,
)
from repro.hashing.representative import RepresentativeHashFunction

MASK64 = (1 << 64) - 1

#: Adversarial 64-bit operands: zeros, all-ones, every bit-boundary power of
#: two and its neighbours, plus seeded random draws.
ADVERSARIAL = sorted(set(
    [0, 1, 2, MASK64, MASK64 - 1, (1 << 63), (1 << 63) - 1, (1 << 31),
     (1 << 32), (1 << 32) - 1, (1 << 53), 0x9E3779B97F4A7C15]
    + [random.Random(7).getrandbits(64) for _ in range(40)]
))


# --------------------------------------------------------------------------- #
# Kernel parity vs the scalar splitmix64 implementations
# --------------------------------------------------------------------------- #

class TestKernelParity:
    def test_mix64_step_matches_scalar(self):
        accs = np.array(ADVERSARIAL, dtype=np.uint64)
        vals = np.array(ADVERSARIAL[::-1], dtype=np.uint64)
        got = mix64_step_vec(accs, vals)
        expected = [mix64_step(a, v) for a, v in zip(ADVERSARIAL,
                                                     ADVERSARIAL[::-1])]
        assert got.tolist() == expected

    def test_mix64_chain_matches_scalar(self):
        a = np.array(ADVERSARIAL, dtype=np.uint64)
        b = np.array(ADVERSARIAL[::-1], dtype=np.uint64)
        got = mix64_vec(a, b, np.uint64(0xD809))
        expected = [mix64(x, y, 0xD809) for x, y in zip(ADVERSARIAL,
                                                        ADVERSARIAL[::-1])]
        assert got.tolist() == expected

    def test_scale_keys_match_combine_part_keys(self):
        keys = np.array(ADVERSARIAL, dtype=np.uint64)
        js = np.arange(len(ADVERSARIAL), dtype=np.uint64)
        got = scale_keys_vec(keys, js)
        expected = [combine_part_keys((k, j))
                    for k, j in zip(ADVERSARIAL, range(len(ADVERSARIAL)))]
        assert got.tolist() == expected
        # And combine_part_keys over int parts is element_key of the tuple,
        # closing the loop with the scalar sweep's scaled-element keying.
        assert expected[3] == element_key((ADVERSARIAL[3], 3))

    def test_member_prefixes_match_scalar_prefix(self):
        seeds = ADVERSARIAL[:12]
        indices = list(range(12))
        got = member_prefixes_vec(np.array(seeds, dtype=np.uint64),
                                  np.array(indices, dtype=np.uint64))
        expected = [mix64_step(mix64_step(MIX64_INIT, s), i)
                    for s, i in zip(seeds, indices)]
        assert got.tolist() == expected
        fn = RepresentativeHashFunction(seeds[5], indices[5], lam=97)
        assert int(got[5]) == fn._prefix

    def test_hash_values_match_scalar_draw(self):
        fn = RepresentativeHashFunction(0xDEAD, 2, lam=101)
        keys = np.array(ADVERSARIAL, dtype=np.uint64)
        got = hash_values_vec(np.uint64(fn._prefix), keys, np.uint64(101))
        expected = [1 + mix64_step(fn._prefix, k) % 101 for k in ADVERSARIAL]
        assert got.tolist() == expected

    def test_element_keys_array_matches_scalar(self):
        elements = [0, 1, MASK64, (1, 2), "node", True, -5, (0, "x")]
        got = element_keys_array(elements)
        assert got.tolist() == [element_key(x) for x in elements]

    def test_element_keys_fast_path_excludes_bool(self):
        # True is an int subclass; element_key(True) == 1 must come from the
        # bool branch, not a silent uint64 cast on the int fast path.
        assert element_keys_array([True, False]).tolist() == [1, 0]
        assert element_keys_array([5, 6, 7]).tolist() == [5, 6, 7]


# --------------------------------------------------------------------------- #
# CSR round buffers: write sender-side, read receiver-side in slot order
# --------------------------------------------------------------------------- #

def _dict_vs_columnar_broadcast(graph, values, bandwidth_bits=64):
    nets = [Network(graph, backend=b, bandwidth_bits=bandwidth_bits,
                    ledger="records") for b in ("dict", "columnar")]
    inboxes = [net.broadcast(values, label="b") for net in nets]
    return nets, inboxes


class TestCsrRoundBuffer:
    def test_round_trip_reproduces_dict_inboxes_and_order(self):
        graph = nx.random_geometric_graph(40, 0.3, seed=3)
        values = {v: Message(content=(v, "payload"), bits=17)
                  for v in list(graph.nodes())[::2]}
        nets, (dict_in, col_in) = _dict_vs_columnar_broadcast(graph, values)
        assert {v: dict(b) for v, b in col_in.items()} == \
            {v: dict(b) for v, b in dict_in.items()}
        # insertion order per receiver must match too (seeded algorithms
        # iterate inbox.items() and consume randomness in that order)
        assert {v: list(b) for v, b in col_in.items()} == \
            {v: list(b) for v, b in dict_in.items()}
        assert nets[0].ledger.records == nets[1].ledger.records

    def test_entries_are_sender_major_in_csr_row_order(self):
        graph = nx.complete_graph(5)
        net = Network(graph, backend="columnar")
        topo = net.topology
        indptr = np.asarray(topo.indptr, dtype=np.int64)
        indices = np.asarray(topo.indices, dtype=np.int64)
        senders = np.array([3, 1], dtype=np.int64)  # send order preserved
        buf = CsrRoundBuffer.from_broadcast(indptr, indices, senders,
                                            ["from3", "from1"])
        entries = list(buf.entries())
        assert len(buf) == len(entries) == 8
        expected = [(3, int(r), "from3")
                    for r in indices[indptr[3]:indptr[4]]] + \
                   [(1, int(r), "from1")
                    for r in indices[indptr[1]:indptr[2]]]
        assert entries == expected

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_payload_bytes_survive_round_trip(self, data):
        """Property: zero-bit and max-width payload *bytes* are preserved.

        Every payload object delivered through the columnar broadcast must
        be the identical content object the sender supplied — including
        ``bits=0`` messages (cheapest) and bandwidth-wide messages (widest),
        whose accounting differs but whose bytes must not.
        """
        n = data.draw(st.integers(min_value=4, max_value=20))
        seed = data.draw(st.integers(min_value=0, max_value=999))
        graph = nx.gnp_random_graph(n, 0.4, seed=seed)
        budget = 64
        nodes = list(graph.nodes())
        senders = data.draw(st.lists(st.sampled_from(nodes), unique=True,
                                     min_size=1, max_size=len(nodes)))
        values = {}
        for v in senders:
            payload = data.draw(st.one_of(
                st.binary(min_size=0, max_size=8),
                st.tuples(st.integers(), st.text(max_size=6)),
                st.just(b"\x00" * 8),
            ))
            bits = data.draw(st.sampled_from([0, 1, budget]))
            values[v] = Message(content=payload, bits=bits)
        nets, (dict_in, col_in) = _dict_vs_columnar_broadcast(
            graph, values, bandwidth_bits=budget)
        for v, box in col_in.items():
            assert dict(box) == dict(dict_in[v])
            for sender, content in box.items():
                assert content is values[sender].content
        assert nets[0].ledger.records == nets[1].ledger.records


# --------------------------------------------------------------------------- #
# Vectorized chunk accounting vs a literal chunk-by-chunk simulation
# --------------------------------------------------------------------------- #

def _simulate_chunk_rounds(sizes, budget):
    """Literal reference: one budget-sized chunk per still-streaming edge."""
    remaining = list(sizes)
    records = []
    total_rounds = max([1] + [-(-b // budget) for b in sizes if b > 0])
    for r in range(total_rounds):
        count = bits_sum = max_bits = 0
        for i, left in enumerate(remaining):
            if left <= 0 and r > 0:
                continue
            sent = min(left, budget)
            remaining[i] = left - sent
            count += 1
            bits_sum += sent
            max_bits = max(max_bits, sent)
        records.append((count, bits_sum, max_bits))
    return records


class TestChunkedAccounting:
    @pytest.mark.parametrize("trial", range(10))
    def test_charge_chunked_sizes_matches_literal_simulation(self, trial):
        rng = random.Random(trial)
        budget = rng.choice([1, 3, 8, 17])
        sizes = [rng.choice([0, 1, budget - 1, budget, budget + 1,
                             3 * budget, rng.randrange(0, 6 * budget + 1)])
                 for _ in range(rng.randrange(1, 2000))]
        net = Network(nx.path_graph(4), backend="columnar",
                      bandwidth_bits=budget, ledger="records")
        net.transport.charge_chunked_sizes("o", np.array(sizes,
                                                         dtype=np.int64))
        got = [(r.message_count, r.total_bits, r.max_edge_bits)
               for r in net.ledger.records]
        assert got == _simulate_chunk_rounds(sizes, budget)

    def test_empty_and_local_records(self):
        net = Network(nx.path_graph(4), backend="columnar", mode="local",
                      ledger="records")
        net.transport.charge_chunked_sizes("empty", np.array([],
                                                             dtype=np.int64))
        net.transport.charge_chunked_sizes("local", np.array([5, 0, 9],
                                                             dtype=np.int64))
        got = [(r.label, r.message_count, r.total_bits, r.max_edge_bits)
               for r in net.ledger.records]
        assert got == [("empty", 0, 0, 0), ("local", 3, 14, 9)]

    def test_vector_path_matches_scalar_path_on_same_sizes(self, monkeypatch):
        import repro.congest.columnar.transport as ct

        rng = random.Random(99)
        graph = nx.path_graph(6)
        sizes = {(i, i + 1): rng.randrange(0, 120) for i in range(5)}
        dict_net = Network(graph, backend="dict", bandwidth_bits=7,
                           ledger="records")
        col_net = Network(graph, backend="columnar", bandwidth_bits=7,
                          ledger="records")
        monkeypatch.setattr(ct, "_VECTOR_MIN_SIZES", 0)  # force the array path
        dict_net.transport._charge_chunked_rounds("c", sizes)
        col_net.transport._charge_chunked_rounds("c", sizes)
        assert col_net.ledger.records == dict_net.ledger.records

    def test_beyond_int64_payload_falls_back_to_scalar(self, monkeypatch):
        import repro.congest.columnar.transport as ct

        monkeypatch.setattr(ct, "_VECTOR_MIN_SIZES", 0)
        sizes = {(0, 1): 1 << 80}  # OverflowError on fromiter
        dict_net = Network(nx.path_graph(3), backend="dict",
                           bandwidth_bits=1 << 70, ledger="records")
        col_net = Network(nx.path_graph(3), backend="columnar",
                          bandwidth_bits=1 << 70, ledger="records")
        dict_net.transport._charge_chunked_rounds("big", sizes)
        col_net.transport._charge_chunked_rounds("big", sizes)
        assert col_net.ledger.records == dict_net.ledger.records


# --------------------------------------------------------------------------- #
# broadcast_discard: accounting-only broadcast
# --------------------------------------------------------------------------- #

class TestBroadcastDiscard:
    def test_ledger_identical_to_full_broadcast(self):
        graph = nx.random_geometric_graph(30, 0.3, seed=2)
        values = {v: Message(content=v, bits=9) for v in graph.nodes()}
        full = Network(graph, backend="columnar", ledger="records")
        lean = Network(graph, backend="columnar", ledger="records")
        full.broadcast(values, label="x")
        assert lean.broadcast_discard(values, label="x") is None
        assert lean.ledger.records == full.ledger.records

    def test_matches_reference_backends(self):
        graph = nx.star_graph(6)
        values = {0: Message(content="hub", bits=12), 3: 7}
        records = []
        for backend in ("dict", "columnar"):
            net = Network(graph, backend=backend, ledger="records")
            assert net.broadcast_discard(values, label="d") is None
            records.append(net.ledger.records)
        assert all(r == records[0] for r in records[1:])

    def test_bandwidth_violation_still_raises(self):
        from repro.congest import BandwidthExceeded

        net = Network(nx.path_graph(3), backend="columnar", bandwidth_bits=4)
        with pytest.raises(BandwidthExceeded):
            net.broadcast_discard({0: Message(content="wide", bits=99)})

    def test_unknown_sender_raises_protocol_error(self):
        from repro.congest import ProtocolError

        net = Network(nx.path_graph(3), backend="columnar")
        with pytest.raises(ProtocolError):
            net.broadcast_discard({"ghost": 1})


# --------------------------------------------------------------------------- #
# Backend selection: columnar is the default, two names are accepted
# --------------------------------------------------------------------------- #

class TestBackendSelection:
    def test_backend_listing_includes_columnar(self):
        from repro.congest.transport import TRANSPORT_BACKENDS

        assert TRANSPORT_BACKENDS == ("columnar", "dict")
        net = Network(nx.path_graph(3), backend="columnar")
        assert net.backend == "columnar"

    @pytest.mark.parametrize("retired", ["batch", "slot"])
    def test_retired_backend_names_are_rejected(self, retired, capsys):
        from repro.cli import build_parser
        from repro.experiments import ScenarioSpec
        from repro.experiments.registry import validate_spec

        with pytest.raises(ValueError, match=r"\['columnar', 'dict'\]"):
            Network(nx.path_graph(3), backend=retired)
        spec = ScenarioSpec(name="tiny", family="gnp", solver="d1c",
                            family_params={"n": 12, "p": 0.3},
                            backend=retired)
        with pytest.raises(ValueError, match="available: columnar, dict"):
            validate_spec(spec)
        for argv in (["color", "--backend", retired],
                     ["suite", "run", "smoke", "--backend", retired]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert "choose from 'columnar', 'dict'" in capsys.readouterr().err
