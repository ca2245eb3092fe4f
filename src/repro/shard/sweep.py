"""Sharded execution of the per-edge similarity hashing sweep.

``EstimateSimilarity`` on all edges at once —
:func:`repro.sampling.similarity.estimate_similarity_on_edges` — is the
dominant compute of every coloring run (the ACD buddy test, sparsity
estimation, triangle/4-cycle detection all run it).  Its per-edge work is a
pure function: hash both endpoints' scaled element keys with the family
member the edge drew and keep the low unique values.  That makes it the
natural unit to shard for the *centralized* solvers: the network accounting
(two ``exchange_chunked`` rounds) stays in the calling process, untouched,
while the hashing fans out over the persistent compute pool.

Chunking is contiguous over the edge list, balanced by estimated key-hash
work (``k * (|keys_u| + |keys_v|)`` per edge) via
:func:`partition_weights`.  Each chunk ships exactly the
base keys its endpoints need; workers rebuild the hash member from
``(family_seed, index, lam)`` — the member is a pure function of those — and
scale keys locally with the same ``combine_part_keys`` identity the serial
sweep uses.  Results are keyed by edge position, so the merge is
order-independent and the sweep's outputs are bit-identical to the serial
loop for any shard count.

Sweeps below :data:`MIN_SHARDED_WORK` estimated hash operations run serially
— the decision depends only on the workload, never on machine state, so a
given run shards (or not) deterministically.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Hashable, List, Sequence, Set, Tuple

from repro.hashing.keys import combine_part_keys
from repro.hashing.representative import RepresentativeHashFunction
from repro.shard.pool import get_pool, register_task

__all__ = ["MIN_SHARDED_WORK", "partition_weights", "sharded_edge_hashes"]

Node = Hashable
Edge = Tuple[Node, Node]

#: Minimum estimated key-hash operations before a sweep is worth sharding.
#: Below this the chunk shipping would cost more than the hashing.
MIN_SHARDED_WORK = 100_000

#: One edge's task: (position, u, v, family_seed, index, lam, sigma, k).
EdgeTask = Tuple[int, Node, Node, int, int, int, int, int]


def _scaled_keys(base: Sequence[int], k: int) -> Sequence[int]:
    """Scale base element keys by ``k`` — the serial sweep's identity:
    ``element_key((x, j)) == combine_part_keys((element_key(x), j))``."""
    if k <= 1:
        return base
    return [combine_part_keys((part, j)) for part in base for j in range(k)]


def _edge_hash_chunk(payload) -> List[Tuple[int, Set[int], Set[int]]]:
    """Compute (position, hashes_u, hashes_v) for one chunk of edge tasks."""
    tasks, keys_table = payload
    scaled: Dict[Tuple[Node, int], List[int]] = {}
    out: List[Tuple[int, Set[int], Set[int]]] = []
    for pos, u, v, family_seed, index, lam, sigma, k in tasks:
        fn = RepresentativeHashFunction(family_seed, index, lam)
        keys_u = scaled.get((u, k))
        if keys_u is None:
            keys_u = scaled[(u, k)] = _scaled_keys(keys_table[u], k)
        keys_v = scaled.get((v, k))
        if keys_v is None:
            keys_v = scaled[(v, k)] = _scaled_keys(keys_table[v], k)
        out.append((pos, fn.low_unique_values(keys_u, sigma),
                    fn.low_unique_values(keys_v, sigma)))
    return out


register_task("similarity_edge_hashes", _edge_hash_chunk)


def partition_weights(weights: List[int], shards: int) -> List[int]:
    """Contiguous boundaries splitting ``weights`` into balanced prefix sums.

    Returns ``bounds`` of length ``shards + 1`` with ``bounds[0] == 0`` and
    ``bounds[-1] == len(weights)``, chosen so each chunk's weight is close to
    ``total / shards``.  Deterministic in its inputs.
    """
    n = len(weights)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, max(1, n))
    prefix = [0]
    for w in weights:
        prefix.append(prefix[-1] + max(0, int(w)))
    total = prefix[-1]
    bounds = [0]
    for s in range(1, shards):
        target = (total * s) // shards
        cut = bisect_left(prefix, target, lo=bounds[-1], hi=n)
        bounds.append(min(max(cut, bounds[-1] + 1), n - (shards - s)))
    bounds.append(n)
    return bounds


def sharded_edge_hashes(
    tasks: Sequence[EdgeTask],
    base_keys: Dict[Node, List[int]],
    shards: int,
) -> List[Tuple[Set[int], Set[int]]]:
    """Fan the per-edge hashing of a sweep out over the compute pool.

    ``tasks`` describe the edges in sweep order; ``base_keys`` maps every
    endpoint to its (unscaled) element keys.  Returns ``(hashes_u,
    hashes_v)`` per task, in task order — exactly what the serial loop's two
    ``low_unique_values`` calls produce.
    """
    weights = [
        k * (len(base_keys[u]) + len(base_keys[v]))
        for _, u, v, _, _, _, _, k in tasks
    ]
    bounds = partition_weights(weights, shards)
    chunks = []
    for s in range(len(bounds) - 1):
        part = list(tasks[bounds[s]:bounds[s + 1]])
        # Keys are 64-bit unsigned by construction (element_key/mix64), so
        # each chunk ships its key table as packed arrays — a memcpy to
        # pickle — rather than lists of boxed ints.
        table: Dict[Node, array] = {}
        for _, u, v, _, _, _, _, _ in part:
            if u not in table:
                table[u] = array("Q", base_keys[u])
            if v not in table:
                table[v] = array("Q", base_keys[v])
        chunks.append((part, table))
    results: List[Tuple[Set[int], Set[int]]] = [None] * len(tasks)  # type: ignore[list-item]
    for chunk_result in get_pool(len(chunks)).run("similarity_edge_hashes", chunks):
        for pos, hashes_u, hashes_v in chunk_result:
            results[pos] = (hashes_u, hashes_v)
    return results


def estimated_work(tasks: Sequence[EdgeTask],
                   base_keys: Dict[Node, List[int]]) -> int:
    """Total estimated key-hash operations of a sweep (the sharding gate)."""
    return sum(
        k * (len(base_keys[u]) + len(base_keys[v]))
        for _, u, v, _, _, _, _, k in tasks
    )
