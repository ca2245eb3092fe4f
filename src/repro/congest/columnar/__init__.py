"""Columnar execution core: flat-array state + vectorized CSR routing.

``backend="columnar"`` (the default) replaces the hot per-round Python loops
with flat numpy columns wherever the work is vectorizable while keeping
every observable byte — ledgers, inboxes, colorings, fault counters —
identical to the ``dict`` reference backend (the equivalence suite runs
both).  The package splits along the byte-identity seams:

* :mod:`~repro.congest.columnar.kernels` — uint64-array twins of the scalar
  splitmix64 hashing kernels (``mix64_step`` / ``combine_part_keys`` /
  the ``low_unique_values`` hash draw), pinned bit-for-bit;
* :mod:`~repro.congest.columnar.buffers` — CSR-offset message round buffers
  (one ``offsets``/``storage`` pair per round, written sender-side, read
  receiver-side in slot order);
* :mod:`~repro.congest.columnar.transport` — the ``ColumnarTransport``
  backend (vectorized broadcast routing and chunked-round accounting);
* :mod:`~repro.congest.columnar.sweep` — the vectorized
  ``EstimateSimilarity`` sweep behind every graph-wide similarity caller
  (the ACD buddy test, the dominant compute of every large coloring run,
  plus triangle detection and sparsity estimation).
"""
