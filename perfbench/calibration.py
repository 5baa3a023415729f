"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its host with other machines' work, and the speed one
Python thread gets drifts by up to a factor of two over tens of seconds.
A fixed pure-Python reference kernel runs between segments of ops, in the
same process and on the same thread. Each op's time is scaled by
``NOMINAL_S / measured kernel time``, using the mean of the kernel timings
before and after the op's segment. Slowdowns that hit the kernel and the
ops alike cancel. Under calm conditions the factor is close to 1, and a
scaled time is close to the raw time on the machine the nominal was
recorded on. The kernel is the benchmark's own code, so no change to
``turanl2`` can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The kernel's median time on the machine the baseline was recorded on
# (2-core Intel Xeon, Python 3.11.7), at a quiet moment.
NOMINAL_S = 0.002
REPS = 5


def reference_kernel() -> tuple[int, Fraction]:
    """The same mix of work as the library: building and sorting tuples,
    counting pairs in a dict, frozenset difference, Fraction arithmetic."""
    edges = [(a, b, c) for a in range(22) for b in range(a + 1, 22)
             for c in range(b + 1, 22) if (a + 2 * b + 3 * c) % 3]
    edges.sort(key=lambda t: (t[2], t[0], t[1]))
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in edges:
        for pair in ((a, b), (a, c), (b, c)):
            counts[pair] = counts.get(pair, 0) + 1
    odd = frozenset(edges) - frozenset(e for e in edges if e[0] % 2 == 0)
    x = Fraction(0)
    for k in range(1, 120):
        x += Fraction(k, k + 2) ** 2
    return sum(v * v for v in counts.values()) + len(odd), x


def kernel_seconds(reps: int = REPS) -> float:
    """Median time of ``reps`` back-to-back kernel runs."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for times measured between two kernel timings."""
    return NOMINAL_S / ((before + after) / 2)
