"""The speed of the machine at a given moment, from a fixed piece of work.

The benchmark shares a few cores with other tenants, and identical work
runs up to about 1.9 times slower for seconds to minutes at a time.  A
fixed pure-Python kernel, run in the same process next to the work it
measures, slows by about the same factor, so the benchmark divides each
time by the kernel's time around it and multiplies by ``REFERENCE_S``:
every time it reports is in seconds at the machine's fast speed.  The
README next to this file gives the measurements behind this.

The kernel does the kinds of work afcore's layers do (integer and
``Fraction`` arithmetic on small matrices, dicts keyed by tuples, string
building) on fixed inputs.  It never imports afcore, so a change to afcore
cannot move it.  Changing this file changes every time the benchmark
reports: compare runs only across commits whose copy of it is the same.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the kernel's time at the fast speed of a 2-vCPU "Intel(R) Xeon(R)
# Processor" at 2.0 GHz under Python 3.11.7 (about the fastest of
# thousands of runs)
REFERENCE_S = 0.0016

_MATRIX = [[(3 * i + 5 * j) % 7 - 3 + 4 * (i == j) for j in range(8)] for i in range(8)]
_WORDS = [f"e{i}_{j}" for i in range(1, 7) for j in range(1, 7)]


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    n, result = len(a), Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return result


def _walks(rows, steps: int) -> int:
    n, vec = len(rows), [1] * len(rows)
    for _ in range(steps):
        vec = [sum(vec[i] * rows[i][j] for i in range(n)) for j in range(n)]
    return sum(vec)


def _words() -> int:
    counts: dict = {}
    for a in _WORDS:
        for b in _WORDS:
            key = (a, b) if a <= b else (b, a)
            counts[key] = counts.get(key, 0) + 1
    return len(" ".join(f"S({a})S({b})^*" for a, b in counts))


def kernel() -> int:
    """The fixed work; returns a value so that none of it can be skipped."""
    return int(_det(_MATRIX)) + _walks(_MATRIX, 40) % 97 + _words()


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
