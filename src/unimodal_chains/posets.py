"""Young's lattice L(m,n) and its composition model.

A partition with m parts bounded by n is stored as a weakly increasing
tuple of length m.  Its multiplicity encoding is a tuple (a_0, ..., a_n)
where a_i counts the parts equal to i; these tuples ("compositions")
are the working representation everywhere else in the package.  All
values are plain tuples of ints: immutable, hashable, cheap to compare.
The color steps live here, walk_down and the raising and lowering walks
along maximal pairs included; they read no statistic, so statistics and
transversal both build on them.
"""

from __future__ import annotations

from math import comb
from operator import mul
from typing import Iterator

Composition = tuple  # (a_0, ..., a_n), entries >= 0
PartitionParts = tuple  # weakly increasing parts, zeros kept

# box size m*n; ints are exact, so it bounds no overflow: it refuses a box
# before comb() sizes its poset, and is meant to bound the commands that
# answer without enumerating
MAX_CELLS = 2**31
# elements C(m+n, n) a poset may enumerate; its entries C(m+n, n)*(n+1)
# are bounded by 16 * MAX_POSET_SIZE, so long elements cannot take a
# near-limit element count past the memory it needs
MAX_POSET_SIZE = 1_000_000


class InconsistencyError(RuntimeError):
    """An internal identity that must hold by construction failed."""


class ResourceGuardError(RuntimeError):
    """A requested computation exceeds the configured resource bounds."""


def parse_composition(text: str) -> Composition:
    """Parse the textual form "[2,0,1,0,0,2]" (an empty "[]" is allowed)."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"expected bracketed composition, got {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return ()
    try:
        entries = tuple(int(tok) for tok in inner.split(","))
    except ValueError:
        raise ValueError(f"non-integer entry in composition {text!r}") from None
    if any(e < 0 for e in entries):
        raise ValueError(f"negative entry in composition {text!r}")
    return entries


def format_composition(comp: Composition) -> str:
    return "[" + ",".join(str(e) for e in comp) + "]"


def _check_partition(parts, bound):
    prev = 0
    for p in parts:
        if p < prev:
            raise ValueError(f"parts not weakly increasing: {parts}")
        prev = p
    if parts and parts[-1] > bound:
        raise ValueError(f"part {parts[-1]} exceeds bound {bound}")
    if bound < 0:
        raise ValueError("bound must be >= 0")


def to_counts(parts: PartitionParts, bound: int) -> Composition:
    """Multiplicity encoding of a partition in L(m, bound).

    Entry i of the result counts how many parts equal i, so the result
    lies in the composition poset with n = bound and mass m = len(parts).
    """
    _check_partition(parts, bound)
    counts = [0] * (bound + 1)
    for p in parts:
        counts[p] += 1
    return tuple(counts)


def from_counts(comp: Composition) -> PartitionParts:
    """Inverse of :func:`to_counts`: expand multiplicities to sorted parts."""
    parts = []
    for value, mult in enumerate(comp):
        parts.extend([value] * mult)
    return tuple(parts)


def conjugate(parts: PartitionParts, bound: int) -> PartitionParts:
    """Conjugate partition (Ferrers-diagram flip inside the box).

    Maps L(m, bound) to L(bound, m) and is an involution.  The result is
    again weakly increasing: entry j counts the parts >= bound + 1 - j.
    """
    _check_partition(parts, bound)
    out = []
    for threshold in range(bound, 0, -1):
        out.append(sum(1 for p in parts if p >= threshold))
    return tuple(out)


def to_gaps(parts: PartitionParts, bound: int) -> Composition:
    """Successive-difference encoding of a partition in L(n, bound).

    Sends (x_1 <= ... <= x_n) to (bound - x_n, x_n - x_{n-1}, ..., x_1),
    landing in the same composition poset as to_counts(conjugate(.)).
    """
    _check_partition(parts, bound)
    if not parts:
        return (bound,)
    gaps = [bound - parts[-1]]
    for i in range(len(parts) - 1, 0, -1):
        gaps.append(parts[i] - parts[i - 1])
    gaps.append(parts[0])
    return tuple(gaps)


def from_gaps(comp: Composition) -> PartitionParts:
    """Inverse of :func:`to_gaps`: partition parts are suffix sums."""
    n = len(comp) - 1
    out = []
    acc = 0
    for i in range(n, 0, -1):
        acc += comp[i]
        out.append(acc)
    return tuple(out)


def flip(comp: Composition) -> Composition:
    """Entry reversal; the rank-flipping involution of the poset."""
    return comp[::-1]


def rank(comp: Composition) -> int:
    return sum(map(mul, comp, range(len(comp))))


def weight(comp: Composition) -> int:
    """mn - 2*rank; symmetric about 0 and flipped in sign by flip()."""
    n = len(comp) - 1
    return sum(map(mul, comp, range(n, -n - 1, -2)))


def leq(x: Composition, y: Composition) -> bool:
    """Partial order test, transported from componentwise partition order.

    Equivalent to comparing the expanded partitions part by part: the
    j-th suffix sum of the multiplicity vector is the number of parts
    >= j, and partitions with equally many parts compare componentwise
    exactly when their conjugates do.
    """
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    sx = sy = 0
    for j in range(len(x) - 1, 0, -1):
        sx += x[j]
        sy += y[j]
        if sx > sy:
            return False
    return True


def cover_color(lower: Composition, upper: Composition) -> int | None:
    """Color of the Hasse edge from lower to upper, or None.

    Color c in 1..n means upper is lower with one unit moved from entry
    c-1 to entry c (rank goes up by one, weight down by two).
    """
    if len(lower) != len(upper):
        raise ValueError(f"dimension mismatch: {len(lower)} vs {len(upper)}")
    diff = [i for i, (a, b) in enumerate(zip(lower, upper)) if a != b]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        return None
    i = diff[0]
    if upper[i] == lower[i] - 1 and upper[i + 1] == lower[i + 1] + 1:
        return i + 1
    return None


def upper_covers(comp: Composition) -> list[tuple[int, Composition]]:
    """All (color, neighbor) pairs one rank above comp."""
    out = []
    for i in range(len(comp) - 1):
        if comp[i] > 0:
            nxt = list(comp)
            nxt[i] -= 1
            nxt[i + 1] += 1
            out.append((i + 1, tuple(nxt)))
    return out


def lower_covers(comp: Composition) -> list[tuple[int, Composition]]:
    """All (color, neighbor) pairs one rank below comp."""
    out = []
    for i in range(len(comp) - 1):
        if comp[i + 1] > 0:
            nxt = list(comp)
            nxt[i + 1] -= 1
            nxt[i] += 1
            out.append((i + 1, tuple(nxt)))
    return out


def walk_down(comp: Composition, colors) -> list[Composition]:
    """comp, then the element after each color step down in weight (color
    c moves a unit from entry c-1 to entry c), all taken in one buffer."""
    a = list(comp)
    out = [comp]
    for c in colors:
        if not 0 < c < len(a) or a[c - 1] == 0:
            raise ValueError(f"color {c} not applicable to {tuple(a)}")
        a[c - 1] -= 1
        a[c] += 1
        out.append(tuple(a))
    return out


def _raise_path(comp, i):
    """The raising walk from the maximal pair at left index i.

    Returns the initial element reached and the colors of the walk's
    covers read downward from it, as transversal.Chain stores them.
    Each pair (a_i, a_{i+1}) takes all of its a_{i+1} - a_{i-1} moves at
    once; transversal's docstring gives the walk one cover at a time.
    """
    a = list(comp)
    colors = []
    for i in range(i, 0, -1):
        t = a[i + 1] - a[i - 1]
        if t > 0:
            a[i] += t
            a[i + 1] -= t
            colors += [i + 1] * t
    colors += [1] * a[1]
    a[0] += a[1]
    a[1] = 0
    return tuple(a), colors[::-1]


def _lower_path(comp, i):
    """Colors of the lowering walk from the maximal pair at left index i.

    In the order the walk takes them (weight decreasing); each pair
    with right index j takes all of its a_{j-1} - a_{j+1} moves at once.
    """
    n = len(comp) - 1
    a = list(comp)
    colors = []
    for j in range(i + 1, n):
        t = a[j - 1] - a[j + 1]
        if t > 0:
            a[j - 1] -= t
            a[j] += t
            colors += [j] * t
    colors += [n] * a[n - 1]
    return colors


def apply_color_down(comp: Composition, color: int) -> Composition:
    """One step down in weight: walk_down with the single color."""
    return walk_down(comp, (color,))[1]


def count_compositions(n: int, m: int) -> int:
    if n == -1:
        return 1 if m == 0 else 0
    return comb(m + n, n)


def enumerate_compositions(n: int, m: int) -> Iterator[Composition]:
    """All length-(n+1) tuples of nonnegative ints summing to m, in lex order.

    n = -1 is admitted with m = 0 and yields the single empty tuple; it
    is the degenerate base the signature recursion can reach for odd n.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if n == -1:
        if m > 0:
            raise ValueError("the empty composition carries mass 0 only")
        yield ()
        return
    if n < -1:
        raise ValueError("n must be >= -1")
    if m * n > MAX_CELLS:
        raise ResourceGuardError(f"box {m}x{n} exceeds supported size")
    count = count_compositions(n, m)
    if count > MAX_POSET_SIZE:
        raise ResourceGuardError(
            f"poset n={n} m={m} has {count} elements, "
            f"more than MAX_POSET_SIZE={MAX_POSET_SIZE}"
        )
    entries = count * (n + 1)
    if entries > 16 * MAX_POSET_SIZE:
        raise ResourceGuardError(
            f"poset n={n} m={m} has {count} elements of {n + 1} entries, "
            f"{entries} in all, more than 16 * MAX_POSET_SIZE={16 * MAX_POSET_SIZE}"
        )
    a = [0] * n + [m]
    while True:
        yield tuple(a)
        p = n
        while p > 0 and a[p] == 0:
            p -= 1
        if p == 0:
            return
        a[p - 1] += 1
        rest = a[p] - 1
        a[p] = 0
        a[n] = rest
