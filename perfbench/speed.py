"""Machine-speed reference for the benchmark's timings.

The machines this benchmark runs on share cores with other work, and
their speed drifts by up to 2x over spells of a few seconds.  Every timing
is therefore taken between two runs of a fixed reference (the benchmark's
own oracle code: pure-Python tuple work and big-integer sums, like the
library's) and scaled by how much slower the reference ran than nominal:

    corrected = measured * NOMINAL_S / mean(reference before, reference after)

The reference is benchmark code, identical on every commit, so a change
to durfee moves the measured time and not the scale.  Times are thus
seconds on a machine where the reference takes NOMINAL_S, which is its
duration on an idle spell of the 2-vCPU Xeon VM the benchmark was built
on.  Result files keep the raw times too.
"""

from __future__ import annotations

import gc
from time import perf_counter

import oracle

NOMINAL_S = 0.0010

_PARTS = (30, 25, 20, 18, 15, 12, 10, 9, 8, 7, 6, 5, 4, 3, 3, 2, 2, 1, 1, 1)
_COUNTS = oracle.partition_counts(400)


def reference() -> float:
    """Seconds that one fixed piece of interpreter work takes right now."""
    enabled = gc.isenabled()
    gc.disable()  # a large heap of the code under test must not slow it
    try:
        t0 = perf_counter()
        for k in (1, 2, 3, 4):
            for m in (-2, -1, 0, 1, 2):
                oracle.rank(_PARTS, k, m)
        oracle.times_euler(_COUNTS)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def corrected(raw: float, before: float, after: float) -> float:
    return raw * NOMINAL_S * 2 / (before + after)
