"""Solver-side sharding: the similarity sweep fanned over a compute pool.

:mod:`~repro.shard.sweep` splits the per-edge hashing of
``estimate_similarity_on_edges`` into contiguous, work-balanced chunks and
runs them on the persistent :mod:`~repro.shard.pool` workers.  That is what
``Network(shards=N)`` / ``--shards N`` accelerates for the centralized
coloring pipeline; results are byte-identical to a serial run for any shard
count (see DESIGN.md "Sharded similarity sweep").
"""

from repro.shard.pool import ShardComputePool, get_pool, shutdown_pool
from repro.shard.sweep import (
    MIN_SHARDED_WORK,
    partition_weights,
    sharded_edge_hashes,
)

__all__ = [
    "partition_weights",
    "ShardComputePool",
    "get_pool",
    "shutdown_pool",
    "MIN_SHARDED_WORK",
    "sharded_edge_hashes",
]
