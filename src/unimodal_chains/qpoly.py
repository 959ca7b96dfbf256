"""Exact Gaussian binomial coefficients and rank generating functions.

Coefficient vectors are tuples of Python ints indexed by q-degree, so
everything is arbitrary precision.  gaussian computes boxes with
m + n <= GAUSSIAN_RECURSION_MAX by the Pascal-type recurrence, whose
intermediates are integral (no polynomial division), and larger ones by
the product formula with exact integer division, which memoizes no
smaller box.  Its memo holds one tuple per unordered box.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, mul, sub
from typing import Iterable

from .posets import Composition, ResourceGuardError

CoefficientVector = tuple

MAX_GAUSSIAN_DEGREE = 4_000_000  # guard on m*n for gaussian()
MAX_GAUSSIAN_WORK = 100_000_000  # guard on min(m, n)*m*n for gaussian()
# Boxes up to this m + n take the recurrence, which memoizes every
# smaller box: at most the 40 x 40 fill, 900 entries and about 14 MB.
# Larger ones take the product formula and memoize only themselves
GAUSSIAN_RECURSION_MAX = 80


@lru_cache(maxsize=None)
def gaussian(m: int, n: int) -> CoefficientVector:
    """Coefficients of the q-binomial [m+n choose m]_q, degree 0..mn.

    Equals the rank generating function of partitions with at most m
    parts bounded by n.  Conjugation makes it symmetric in m and n, so
    (m, n) with m > n returns the very tuple of (n, m), and only boxes
    with m <= n are computed.  A box with m + n <= GAUSSIAN_RECURSION_MAX
    is computed by the recurrence [N k] = [N-1 k-1] + q^k [N-1 k], whose
    cold call goes at most m + n + 1 frames deep and fills the memo with
    every smaller box; a larger one by _gaussian_product, which neither
    recurses nor memoizes any other box, so (1, 498), (150, 150) and
    (2000, 10) cost only their own product.  Both paths use exact
    integer arithmetic only.
    """
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    if m * n > MAX_GAUSSIAN_DEGREE:
        raise ResourceGuardError(f"gaussian({m},{n}) degree {m*n} over limit")
    if min(m, n) * m * n > MAX_GAUSSIAN_WORK:
        raise ResourceGuardError(
            f"gaussian({m},{n}) work {min(m, n) * m * n} over limit")
    if m == 0 or n == 0:
        return (1,)
    if m > n:
        return gaussian(n, m)
    if m + n > GAUSSIAN_RECURSION_MAX:
        return _gaussian_product(m, n)
    return tuple(map(add, chain(gaussian(m - 1, n), repeat(0, n)),
                     chain(repeat(0, m), gaussian(m, n - 1))))


def _gaussian_product(k, N):
    """[N+k choose k]_q for 1 <= k <= N as the product over i = 1..k of
    (1 - q^(N+i)) / (1 - q^i), in one list of k*N + 1 integers.  Factor i
    leaves the degree-i*N product: multiply by 1 - q^(N+i) in place up
    to degree i*N (the quotient needs no higher term), then divide
    exactly by 1 - q^i as a running sum of stride i."""
    c = [1] + [0] * (k * N)
    for i in range(1, k + 1):
        top = i * N + 1
        a = N + i
        c[a:top] = map(sub, c[a:top], c[:top - a])
        for start in range(i):
            c[start:top:i] = accumulate(c[start:top:i])
    return tuple(c)


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
