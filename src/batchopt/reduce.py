"""Means, percentiles and dot products on plain lists, with NumPy's bytes.

The compatibility rule: each function returns exactly the float NumPy
returns for the same values, so outputs stay byte-identical.

- ``pairwise_sum`` is ``np.sum`` of a 1-D array: NumPy's pairwise sum
  (a running sum below 8 values, eight lane accumulators up to 128,
  halving above that) added to NumPy's initial 0.0. ``mean`` divides it
  by the count, as ``np.mean`` does. Ints sum exactly below 2**53.
- ``running_sum`` adds left to right, as ``sum`` does before CPython
  3.12 (which compensates); the outputs' float totals use it.
- ``percentile`` is ``np.percentile(..., method="linear")``, including
  NumPy's two-sided lerp; ``median`` is ``np.median``; ``dot`` is a
  sequential sum of products.

Every sum is pairwise or sequential in pure Python, never a BLAS kernel
that picks its order by CPU, so the bytes are the same on every machine.
"""

import sys
from functools import reduce
from operator import add, mul

# sum() adds floats sequentially before CPython 3.12, compensated after.
running_sum = sum if sys.version_info < (3, 12) else lambda xs, start=0: reduce(add, xs, start)


def _pairwise(a, lo: int, hi: int) -> float:
    n = hi - lo
    if n < 8:
        return running_sum(a[lo:hi], -0.0)
    if n <= 128:
        end = hi - n % 8
        r = [running_sum(a[lo + j : end : 8], -0.0) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return running_sum(a[end:hi], res)
    half = n // 2 // 8 * 8  # NumPy's split: half the count, down to a multiple of 8
    return _pairwise(a, lo, lo + half) + _pairwise(a, lo + half, hi)


def pairwise_sum(values) -> float:
    """``np.sum`` of a sequence of numbers."""
    return 0.0 + _pairwise(values, 0, len(values))


def mean(values) -> float:
    """``np.mean`` of a non-empty sequence of numbers."""
    if not values:
        raise ValueError("mean of an empty sequence")
    return pairwise_sum(values) / len(values)


def percentile(values, p: float) -> float:
    """``np.percentile(values, p, method="linear")``, values non-empty."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    index = (p / 100) * (len(ordered) - 1)
    below = int(index)
    if below >= len(ordered) - 1:
        return 0.0 + ordered[-1]
    t = index - below
    a, b = float(ordered[below]), float(ordered[below + 1])
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def median(values) -> float:
    """``np.median`` of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + ordered[mid]
    return (0.0 + ordered[mid - 1] + ordered[mid]) / 2


def dot(a, b) -> float:
    """Sequential sum of the products of two equal-length sequences."""
    return running_sum(map(mul, a, b), 0.0)
