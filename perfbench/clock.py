"""Wall time rescaled to a fixed machine speed by a reference loop.

On a shared host the speed of one CPU drifts by up to 40% over tens of
seconds, with other tenants' load, and that drift is barely correlated
between CPUs.  Medians over a 30-second run cannot remove it, so two runs of
the same code minutes apart disagree by 15-25%.  The benchmark therefore
runs a fixed reference loop, on the same pinned CPU, right after every timed
operation, and divides each operation's wall time by the mean speed of the
samples taken just before and just after it.  Slow phases of the host slow
the reference loop about as much as the program, so the ratio holds still.

The result is reported in *reference seconds*: wall seconds on a machine
where one reference unit takes ``NOMINAL_UNIT_S``.  On this repository's
2-CPU development host that is close to plain wall seconds.  The loop
mixes interpreter work (dict updates, integer arithmetic) with uint64 array
work, the two kinds of work the solver does; the mix tracked the solver's
speed better than either kind alone.  Raw wall times are kept beside the
rescaled ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Wall seconds one reference unit takes on the nominal machine.
NOMINAL_UNIT_S = 0.005
#: Length of one speed sample, taken after every timed operation.
SAMPLE_S = 0.25

_WORDS = np.arange(1 << 18, dtype=np.uint64)


def _reference_unit():
    """About equal parts interpreter work and uint64 array work."""
    total = 0
    table = {}
    for i in range(8000):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) + i
        total += key % 7
    mixed = (_WORDS * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(29)
    total += int(np.sort(mixed[:1 << 14])[-1])
    total += int(np.bincount((mixed & np.uint64(4095)).astype(np.intp)).argmax())
    return total + len(table)


class ReferenceClock:
    """Times operations and rescales them by the machine speed around them."""

    def __init__(self, sample_s: float = SAMPLE_S):
        self.sample_s = sample_s
        self.last_unit_s = self.sample()

    def sample(self) -> float:
        """Wall seconds per reference unit, over ``sample_s`` of units."""
        units = 0
        start = time.perf_counter()
        while True:
            _reference_unit()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= self.sample_s:
                return elapsed / units

    def measure(self, function, *args):
        """Call ``function(*args)``; return (result, wall seconds, scale).

        ``wall * scale`` is the call's time in reference seconds.  If the
        call raises, the exception propagates and no sample is taken.
        """
        before = self.last_unit_s
        start = time.perf_counter()
        result = function(*args)
        wall = time.perf_counter() - start
        self.last_unit_s = self.sample()
        return result, wall, NOMINAL_UNIT_S / ((before + self.last_unit_s) / 2.0)
