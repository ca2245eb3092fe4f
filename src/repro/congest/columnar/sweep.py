"""Vectorized ``EstimateSimilarity`` over all requested edges at once.

Every graph-wide ``EstimateSimilarity`` run on the columnar backend goes
through :func:`columnar_similarity_estimates`:
:func:`repro.sampling.similarity.estimate_similarity_on_edges` dispatches to
it before its scalar loop, so triangle detection, global and local sparsity
and the ACD buddy test (Section 4.2, through the thresholding wrapper
:func:`columnar_buddy_edges`) all share one kernel.  The ACD sweep dominates
every large coloring run and the per-edge sweep is nearly all of triangle
detection; its inner kernel — splitmix64 hashing of every scaled
neighborhood element, per edge — vectorizes exactly.

Byte-identity with the scalar ``estimate_similarity_on_edges`` is the
load-bearing contract:

* the shared hash-function *index* per edge comes from the same SHA-256
  seeded ``random.Random`` stream (``RngStream.for_edge``), replayed here
  with one reused ``Random`` instance (``rng.seed(x)`` is exactly
  ``Random(x)``) — this part is inherently scalar;
* ledger records replay ``exchange_chunked`` on the same label/size
  multisets (``{label}:index`` then ``{label}:indicator``), through the
  transport's vectorized chunk accounting.  The reference keys its payloads
  by directed pair, so a repeated or reversed request of one edge is
  charged once: requests are deduplicated per unordered pair before any
  ledger effect, and every requested orientation still gets its result;
* scaled keys ``key(x, j)`` do not depend on the edge, so each node's
  scaled set is hashed once per sweep, for ``j`` below the largest ``k`` of
  its edges, into one CSR store beside the base keys (:func:`_key_store`);
* hash values, low-unique filtering and shared-value counting run as flat
  uint64 kernels (:mod:`~repro.congest.columnar.kernels`) over that store —
  instead of per-edge Python dicts, one sort of packed
  ``(edge << 34) | (value << 1) | side`` keys finds, per edge, the values
  both endpoints hit exactly once.  The pass runs in blocks of at most
  ``_BLOCK_ELEMENTS`` scaled elements, which bounds its temporary arrays;
  blocks partition the edge list, so results do not depend on block size;
* estimates are evaluated in float64, which matches Python exactly because
  every operand is below 2**53.

The kernel declines — returns ``None`` before any ledger effect, and the
caller takes the scalar reference path — when the transport is not
columnar (fault-wrapped transports are not), when a payload-digesting
tracer is attached, or when the parameter regime would break the packing or
the float reproduction (λ ≥ 2**32 or σ·λ ≥ 2**53).

The reference implementation ignores the delivered inboxes of both rounds
(only the ledger charge and the locally-computed hash sets matter), so no
inbox is materialised here at all.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Hashable, List, Mapping, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.congest.columnar.kernels import (
    element_keys_array,
    hash_values_vec,
    member_prefixes_vec,
    scale_keys_vec,
)
from repro.hashing.representative import RepresentativeHashFamily

Node = Hashable
Edge = Tuple[Node, Node]

#: Cap on scaled elements hashed per vector block.  Blocks partition the edge
#: list and results are per-edge, so the cap only bounds the block's
#: temporary arrays (128 KB each, ~2 MB live); larger blocks fragmented the
#: malloc heap (DESIGN.md, "One similarity sweep").
_BLOCK_ELEMENTS = 1 << 14

# Packing guards: hash values (<= λ) share a uint64 sort key with a side bit
# and a block-local edge id, and estimates must reproduce Python float
# division exactly.
_MAX_LAM = 1 << 32
_EXACT_FLOAT = 1 << 53


class SweepEstimates(NamedTuple):
    """Per-edge outputs of one sweep; row ``i`` belongs to ``edges[i]``.

    ``edges`` is the requested edge list (as tuples, duplicates kept).  The
    columns hold the fields of :class:`~repro.sampling.similarity.
    SimilarityResult`: an edge with an empty side has estimate 0, scale 1,
    σ = λ = 0 and 1 bit, exactly like the reference.
    """

    edges: List[Edge]
    estimates: "np.ndarray"  # float64
    bits: "np.ndarray"       # int64: index bits + 2σ
    scale: "np.ndarray"      # int64: k
    sigma: "np.ndarray"      # int64
    lam: "np.ndarray"        # int64


def _block_ranges(work: "np.ndarray") -> List[Tuple[int, int]]:
    """Partition edges (or nodes) into contiguous blocks of ~_BLOCK_ELEMENTS work."""
    blocks: List[Tuple[int, int]] = []
    start = 0
    acc = 0
    for i, w in enumerate(work.tolist()):
        if acc + w > _BLOCK_ELEMENTS and i > start:
            blocks.append((start, i))
            start = i
            acc = 0
        acc += w
    if start < len(work):
        blocks.append((start, len(work)))
    return blocks


def _key_store(key_arrays: List["np.ndarray"], kmax: "np.ndarray"):
    """One CSR store of every node's element keys, then its scaled keys.

    Returns ``(store, counts, base_starts, scaled_starts)``.  Node ``i``'s
    base keys are ``store[base_starts[i]:][:counts[i]]``.  When
    ``kmax[i] > 1`` its scaled keys ``key(x, j)`` for ``j < kmax[i]`` follow
    from ``scaled_starts[i]``, j-major (every ``x`` for ``j = 0``, then
    ``j = 1``, ...), so the scaled set for any ``k <= kmax[i]`` is the run's
    first ``k · counts[i]`` keys.  Each key is hashed once per sweep instead
    of once per incident edge; the store is at most ``max(kmax)`` times the
    base keys.  Hashing runs in chunks of whole nodes of at most
    ``_BLOCK_ELEMENTS`` scaled keys; a larger node is a chunk of its own.
    """
    counts = np.fromiter((arr.size for arr in key_arrays), dtype=np.int64,
                         count=len(key_arrays))
    scaled_counts = np.where(kmax > 1, kmax * counts, 0)
    base_total = int(counts.sum())
    base_starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=base_starts[1:])
    scaled_starts = np.full(len(counts) + 1, base_total, dtype=np.int64)
    scaled_starts[1:] += np.cumsum(scaled_counts)
    store = np.empty(int(scaled_starts[-1]), dtype=np.uint64)
    np.concatenate(key_arrays, out=store[:base_total])
    for lo, hi in _block_ranges(scaled_counts):
        runs = scaled_counts[lo:hi]
        total = int(runs.sum())
        if not total:
            continue
        sizes = np.repeat(counts[lo:hi], runs)
        pos = np.arange(total, dtype=np.int64)
        pos -= np.repeat(scaled_starts[lo:hi] - scaled_starts[lo], runs)
        jj = pos // sizes
        pos += np.repeat(base_starts[lo:hi], runs) - jj * sizes
        store[scaled_starts[lo]:scaled_starts[hi]] = scale_keys_vec(
            store[pos], jj.astype(np.uint64)
        )
    return store, counts, base_starts, scaled_starts


def columnar_similarity_estimates(
    network,
    sets: Mapping[Node, Set[Hashable]],
    edges: List[Edge],
    params,
    seed: int,
    label: str,
) -> Optional[SweepEstimates]:
    """``estimate_similarity_on_edges`` as array programs, or ``None`` to decline.

    Produces the estimates (and the other result fields) the scalar sweep
    would return for every requested edge, with identical ledger records.
    Declines (before touching the ledger) in the cases listed in the module
    docstring.
    """
    transport = network.transport
    if not getattr(transport, "supports_columnar_sweep", False):
        return None
    if getattr(network.tracer, "wants_payloads", False):
        # Digest forensics hashes the real delivered payload bytes; this
        # sweep charges equivalent ledger records without ever materializing
        # them, so under a payload-digesting tracer it declines and the
        # caller takes the reference exchange path (identical digests, at
        # the cost of the sweep speedup).
        return None
    edges = [tuple(edge) for edge in edges]

    # ---------------------------------------------------------------- loop A
    # Scalar per-edge setup: set sizes, scale factor k, family, and the
    # SHA-seeded index draw, once per unordered pair.  Mirrors the
    # reference's per-sweep caches; no ledger effect yet, so declining below
    # stays side-effect free.
    node_sets: Dict[Node, Set[Hashable]] = {}
    families: Dict[int, RepresentativeHashFamily] = {}
    k_cache: Dict[int, int] = {}
    reprs: Dict[Node, Tuple[str, str]] = {}
    node_local: Dict[Node, int] = {}
    local_nodes: List[Node] = []

    seed_repr = repr(int(seed))
    label_repr = repr(label)
    rng = random.Random()
    sha256 = hashlib.sha256

    # Requested edge i reads row slots[i] of the per-pair columns; row -1 is
    # the empty-set result appended after the sweep.
    slots: List[int] = []
    pair_slot: Dict[Edge, int] = {}
    validate_pairs: List[Edge] = []
    eu_list: List[int] = []
    ev_list: List[int] = []
    k_list: List[int] = []
    lam_list: List[int] = []
    sigma_list: List[int] = []
    fseed_list: List[int] = []
    index_list: List[int] = []
    ibits_list: List[int] = []

    def _set_of(node: Node) -> Set[Hashable]:
        members = node_sets.get(node)
        if members is None:
            members = set(sets.get(node, ()))
            node_sets[node] = members
        return members

    def _reprs_of(node: Node) -> Tuple[str, str]:
        cached = reprs.get(node)
        if cached is None:
            text = repr(node)
            cached = (text, repr(text))
            reprs[node] = cached
        return cached

    def _local_of(node: Node) -> int:
        slot = node_local.get(node)
        if slot is None:
            slot = len(local_nodes)
            node_local[node] = slot
            local_nodes.append(node)
        return slot

    for u, v in edges:
        set_u = _set_of(u)
        set_v = _set_of(v)
        if not set_u or not set_v:
            slots.append(-1)
            continue
        # The reference keys the index payload by (sender, receiver), the
        # endpoint with the smaller repr sending; both indicator keys of a
        # reversed request coincide with the original's.
        ru, rru = _reprs_of(u)
        rv, rrv = _reprs_of(v)
        if ru <= rv:
            pair = (u, v)
            key_repr = f"({rru}, {rrv})"
        else:
            pair = (v, u)
            key_repr = f"({rrv}, {rru})"
        slot = pair_slot.get(pair)
        if slot is not None:
            slots.append(slot)
            continue
        du = len(set_u)
        dv = len(set_v)
        max_size = du if du >= dv else dv
        k = k_cache.get(max_size)
        if k is None:
            k = params.scale_factor(max_size)
            k_cache[max_size] = k
        lam_arg = max_size * k
        family = families.get(lam_arg)
        if family is None:
            family = params.family(lam_arg)
            families[lam_arg] = family
        if family.lam >= _MAX_LAM or family.sigma * family.lam >= _EXACT_FLOAT:
            return None  # outside the exactly-reproducible regime
        # RngStream(seed).for_edge(u, v, label) -> Random(sha256 digest of
        # "\x1f".join(repr(p) for p in (seed, "edge", sorted-repr-pair,
        # label))), replayed with one reused Random (seed(x) == Random(x)).
        digest = sha256(
            "\x1f".join((seed_repr, "'edge'", key_repr, label_repr)).encode("utf-8")
        ).digest()
        rng.seed(int.from_bytes(digest[:8], "big"))
        index = rng.randrange(family.size)

        slot = len(validate_pairs)
        pair_slot[pair] = slot
        slots.append(slot)
        validate_pairs.append(pair)
        eu_list.append(_local_of(u))
        ev_list.append(_local_of(v))
        k_list.append(k)
        lam_list.append(family.lam)
        sigma_list.append(family.sigma)
        fseed_list.append(family.family_seed)
        index_list.append(index)
        ibits_list.append(family.index_bits)

    # Validation, in the reference's order (the index-payload round validates
    # every participating edge before anything is charged).
    neighbor_sets = transport.topology.neighbor_sets
    for sender, receiver in validate_pairs:
        nbrs = neighbor_sets.get(sender)
        if sender == receiver or nbrs is None or receiver not in nbrs:
            transport._validate_edge(sender, receiver)  # canonical ProtocolError

    # Round 1: the hash-function index (log F bits per edge, one direction).
    ibits = np.array(ibits_list, dtype=np.int64)
    transport.charge_chunked_sizes(f"{label}:index", ibits)

    count = len(validate_pairs)
    k_arr = np.array(k_list, dtype=np.int64)
    lam_i64 = np.array(lam_list, dtype=np.int64)
    sigma_i64 = np.array(sigma_list, dtype=np.int64)
    shared_counts = np.zeros(count, dtype=np.int64)
    if count:
        eu = np.array(eu_list, dtype=np.int64)
        ev = np.array(ev_list, dtype=np.int64)
        kmax = np.zeros(len(local_nodes), dtype=np.int64)
        np.maximum.at(kmax, eu, k_arr)
        np.maximum.at(kmax, ev, k_arr)
        store, key_counts, base_starts, scaled_starts = _key_store(
            [element_keys_array(node_sets[node]) for node in local_nodes], kmax
        )
        lam_u64 = lam_i64.astype(np.uint64)
        sigma_u64 = sigma_i64.astype(np.uint64)
        prefixes = member_prefixes_vec(
            np.array(fseed_list, dtype=np.uint64), np.array(index_list, dtype=np.uint64)
        )

        work = k_arr * (key_counts[eu] + key_counts[ev])
        for start, stop in _block_ranges(work):
            span = stop - start
            # Endpoints interleave as (u0, v0, u1, v1, ...): endpoint 2i + s
            # of the block is side s of edge i, so each edge's elements are
            # one contiguous stretch of the flat arrays.
            ep_nodes = np.empty(2 * span, dtype=np.int64)
            ep_nodes[0::2] = eu[start:stop]
            ep_nodes[1::2] = ev[start:stop]
            k_ep = np.repeat(k_arr[start:stop], 2)
            elem = key_counts[ep_nodes] * k_ep
            # An endpoint with k > 1 reads the first k·|S| keys of its node's
            # j-major scaled run; with k == 1 it reads the unscaled base run.
            run_starts = np.where(k_ep > 1, scaled_starts[ep_nodes], base_starts[ep_nodes])
            run_ends = np.cumsum(elem)
            flat = np.arange(int(run_ends[-1]), dtype=np.int64)
            flat += np.repeat(run_starts - (run_ends - elem), elem)
            keys = store[flat]
            elem_per_edge = elem[0::2] + elem[1::2]
            values = hash_values_vec(
                np.repeat(prefixes[start:stop], elem_per_edge),
                keys,
                np.repeat(lam_u64[start:stop], elem_per_edge),
            )
            low = values <= np.repeat(sigma_u64[start:stop], elem_per_edge)
            # One sort of (edge << 34) | (value << 1) | side: a value is
            # shared by an edge iff its (edge, value) group is exactly one
            # side-0 element followed by one side-1 element — any other
            # count means a side hit the value twice (not low-unique) or
            # not at all.  value <= λ < 2**32 keeps value << 1 in 33 bits.
            ep_ids = np.arange(2 * span, dtype=np.uint64)
            tags = ((ep_ids >> np.uint64(1)) << np.uint64(34)) | (ep_ids & np.uint64(1))
            packed = np.repeat(tags, elem)[low] | (values[low] << np.uint64(1))
            if packed.size < 2:
                continue
            packed.sort()
            # step == 1: a side-0 key and its side-1 twin are adjacent; an
            # equal key (step 0) just before or after means a doubled side.
            step = packed[1:] ^ packed[:-1]
            hit = step == 1
            hit[1:] &= step[:-1] != 0
            hit[:-1] &= step[1:] != 0
            edge_hits = (packed[:-1][hit] >> np.uint64(34)).astype(np.int64)
            shared_counts[start:stop] = np.bincount(edge_hits, minlength=span)

    # Round 2: both endpoints' σ-bit indicators (two directed messages per
    # participating edge, max(1, σ) bits each — σ is already >= 1).
    transport.charge_chunked_sizes(
        f"{label}:indicator", np.repeat(np.maximum(sigma_i64, 1), 2)
    )

    # Estimates in float64 == Python float exactly (all operands < 2**53;
    # int/int true division is correctly rounded in both, so the results are
    # bit-identical to the scalar loop).  Each column gets the empty-set
    # result as its last row, which the -1 slots select.
    estimates = (shared_counts * lam_i64).astype(np.float64)
    estimates /= (sigma_i64 * k_arr).astype(np.float64)
    rows = np.array(slots, dtype=np.int64)
    return SweepEstimates(
        edges=edges,
        estimates=np.append(estimates, 0.0)[rows],
        bits=np.append(ibits + 2 * sigma_i64, 1)[rows],
        scale=np.append(k_arr, 1)[rows],
        sigma=np.append(sigma_i64, 0)[rows],
        lam=np.append(lam_i64, 0)[rows],
    )


def columnar_buddy_edges(
    network,
    sets: Mapping[Node, Set[Hashable]],
    degrees: Mapping[Node, int],
    edges: List[Edge],
    params,
    seed: int,
    label: str,
    threshold_coeff: float,
) -> Optional[Set[Edge]]:
    """Buddy edges via the vectorized sweep, or ``None`` to decline.

    Produces exactly the set the caller would get from
    ``estimate_similarity_on_edges`` + ``estimate >= threshold_coeff *
    min(degrees[u], degrees[v])``, with identical ledger records.  Declines
    whenever :func:`columnar_similarity_estimates` does.
    """
    sweep = columnar_similarity_estimates(network, sets, edges, params, seed, label)
    if sweep is None:
        return None
    # float64 products of small ints equal the Python float threshold.
    mindeg = np.fromiter(
        (min(degrees[u], degrees[v]) for u, v in sweep.edges),
        dtype=np.float64, count=len(sweep.edges),
    )
    hits = np.flatnonzero(sweep.estimates >= threshold_coeff * mindeg)
    return {sweep.edges[i] for i in hits.tolist()}
