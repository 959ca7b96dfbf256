"""Exact Gaussian binomial coefficients and rank generating functions.

Coefficient vectors are tuples of Python ints indexed by q-degree, so
everything is arbitrary precision; the Pascal-type recurrence keeps all
intermediates integral (no polynomial division).  gaussian's memo holds
one tuple per unordered box: (m, n) and (n, m) share it.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from operator import add, mul
from typing import Iterable

from .posets import Composition, ResourceGuardError

CoefficientVector = tuple

MAX_GAUSSIAN_DEGREE = 4_000_000  # guard on m*n for gaussian()


@lru_cache(maxsize=None)
def gaussian(m: int, n: int) -> CoefficientVector:
    """Coefficients of the q-binomial [m+n choose m]_q, degree 0..mn.

    Equals the rank generating function of partitions with at most m
    parts bounded by n.  Computed by the recurrence
    [N k] = [N-1 k-1] + q^k [N-1 k] with exact integer arithmetic.
    Conjugation makes it symmetric in m and n, so (m, n) with m > n
    returns the very tuple of (n, m): the memo holds one entry per
    unordered box, and only boxes with m <= n are computed.  A cold call
    recurses about m + n levels deep in either order: under Python's
    default recursion limit the CLI computes (1, 497) and (10, 488) but
    raises RecursionError on (1, 498) and (10, 489).
    """
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    if m * n > MAX_GAUSSIAN_DEGREE:
        raise ResourceGuardError(f"gaussian({m},{n}) degree {m*n} over limit")
    if m == 0 or n == 0:
        return (1,)
    if m > n:
        # (n, m)'s two terms first, from this frame, so that the mirrored
        # call recurses no deeper than computing (m, n) itself would
        gaussian(n - 1, m)
        gaussian(n, m - 1)
        return gaussian(n, m)
    return tuple(map(add, chain(gaussian(m - 1, n), repeat(0, n)),
                     chain(repeat(0, m), gaussian(m, n - 1))))


def rank_generating_function(elements: Iterable[Composition]) -> CoefficientVector:
    """Histogram of rank over a set of compositions; () for the empty set.

    Each rank is posets.rank's sum of entry times position, taken at C
    level: one map(mul, element, positions) per element, with no Python
    frame per element."""
    positions = range(sys.maxsize)  # map() stops at each element's end
    counts = Counter(map(sum, map(map, repeat(mul), elements, repeat(positions))))
    if not counts:
        return ()
    return tuple(counts.get(i, 0) for i in range(max(counts) + 1))


def is_symmetric(v: CoefficientVector) -> bool:
    return tuple(v) == tuple(v)[::-1]


def is_unimodal(v: CoefficientVector) -> bool:
    """True iff no strict descent is ever followed by a strict ascent."""
    descended = False
    for prev, cur in zip(v, v[1:]):
        if cur < prev:
            descended = True
        elif cur > prev and descended:
            return False
    return True


def format_coefficients(v: CoefficientVector) -> str:
    return ",".join(str(c) for c in v)
