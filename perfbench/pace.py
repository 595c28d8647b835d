"""How fast the host runs right now, and the scale that removes it.

The host's speed swings by up to 1.7x over minutes and also from one
second to the next: one seed measured 5.1 s and 8.9 s per degree-generic
round a quarter of an hour apart, and the program's import time ranged
0.099 to 0.17 s.  The benchmark therefore samples ``pace()``, a fixed
pure-Python product of two sparse integer polynomials, just before and just
after every timed operation, and reports each time scaled to the reference
host's pace: ``measured * REFERENCE_PACE_S / local pace``.  The kernel is
the benchmark's own code and does the same work whatever sigcurve does.
"""

from __future__ import annotations

import gc
from time import perf_counter

import checks

# Median pace() on the host the bounds were set on (2 vCPUs, Python 3.11.7).
REFERENCE_PACE_S = 0.0065

_A = {(i, j): (7**i * 3**j + 1) * (-1) ** (i + j) for i in range(12) for j in range(12 - i)}
_B = {(i, j): 5**i * 11**j - 2 for i in range(10) for j in range(10 - i)}


def pace() -> float:
    """Seconds taken by one product of two fixed sparse polynomials, with the
    collector off so the size of the program's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        checks.poly_mul(_A, _B)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, local_pace: float) -> float:
    """``seconds`` measured while pace() took ``local_pace``, converted to
    the reference host's pace."""
    return seconds * REFERENCE_PACE_S / local_pace
