"""Spread, degree, and signature statistics on the composition poset.

The spread of a composition is the largest sum of two adjacent entries;
a maximal pair is an adjacent pair attaining it.  Removing as many
maximal pairs as possible drops mass and length in a controlled way,
and iterating the removal yields the signature: a vector refining both
statistics that is constant on saturated transversal chains.  Each step
of the forward fiber map has one writer here: split_shape (a class's r
and ell, in closed form from its signature), split_step (those and the
section images over its base class), _leading_chain (the chain at a
point's leading pair, which _fiber_points follows to walk a fiber) and
_fiber_position (a point's index in that walk's colex order).
signature_classes builds each class from them, not element by element,
and computes no signature; the decomposition, fiber_element and the CLI
read the same steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add, mul

from .posets import (
    Composition,
    InconsistencyError,
    _lower_path,
    _raise_path,
    check_poset_size,
    count_compositions,
    enumerate_compositions,
    from_gaps,
    walk_down,
)

Signature = tuple  # (d_0, ..., d_k) with k = n//2


def spread(comp: Composition) -> int:
    """Max adjacent-entry sum; by convention the mass when n <= 1, 0 if empty."""
    if len(comp) < 2:
        return comp[0] if comp else 0
    return max(map(add, comp, comp[1:]))


def _scan(comp):
    """Spread plus the maximal runs of left indices of maximal pairs."""
    if len(comp) < 2:
        return spread(comp), ()
    sums = list(map(add, comp, comp[1:]))
    s = max(sums)
    runs = ()
    start = end = sums.index(s)
    for _ in range(sums.count(s) - 1):
        i = sums.index(s, end + 1)
        if i != end + 1:
            runs += ((start, end),)
            start = i
        end = i
    return s, runs + ((start, end),)


_scans = {}  # element -> its _scan, for one poset at a time
_scan_results = {}  # each distinct scan, so equal entries share one object


def _components(comp):
    """_scan(comp), memoized per element until clear_caches().

    The library's steps and the oracle's scopes read every element's
    scan here, so run_pair scans each element once.  Two callers scan
    through _scan itself: signature, whose own memo holds each removal
    step already, and chains_through, whose lone queries would each
    pay for an entry.
    """
    found = _scans.get(comp)
    if found is None:
        found = _scan(comp)
        found = _scans[comp] = _scan_results.setdefault(found, found)
    return found


@dataclass(frozen=True)
class MaximalStructure:
    spread: int
    mset: tuple[int, ...]
    components: tuple[tuple[int, int], ...]
    active: tuple[int, ...]


def maximal_structure(comp: Composition) -> MaximalStructure:
    s, runs = _components(comp)
    mset = tuple(i for start, end in runs for i in range(start, end + 1))
    active = tuple(i for start, end in runs for i in range(start, end + 2))
    return MaximalStructure(s, mset, runs, active)


def degree(comp: Composition) -> int:
    """Edge-cover number of the maximal index set; 0 when n <= 0."""
    return _runs_degree(_components(comp)[1])


def _runs_degree(runs):
    """degree() given the runs _components() found: each run of k
    maximal indices needs ceil(k/2) pairs to cover it."""
    return sum((end - start) // 2 + 1 for start, end in runs)


def remove_maximal_pairs(comp: Composition) -> Composition:
    """Delete the largest possible number of maximal pairs.

    Every component of the maximal index set spans an active block of
    entries; even-length runs delete their whole block, odd-length runs
    leave a single entry carrying the block's left value.  Survivors
    keep their relative order.  The result has degree() fewer pairs and
    mass reduced by degree()*spread().
    """
    return _remove_runs(comp, _components(comp)[1])


def _remove_runs(comp, runs):
    """remove_maximal_pairs() given the runs _components() found for comp."""
    if not runs:
        return comp
    out = []
    pos = 0
    for start, end in runs:
        out.extend(comp[pos:start])
        if (end - start) % 2 == 1:
            out.append(comp[start])
        pos = end + 2
    out.extend(comp[pos:])
    return tuple(out)


@lru_cache(maxsize=None)
def signature(comp: Composition) -> Signature:
    """Signature vector (d_0, ..., d_k), k = n//2; () for the empty tuple.

    Defined by iterated maximal-pair removal: with r the degree and s
    the spread, the vector starts with r-1 zeros, then s minus the
    spread of the removal image, then the image's signature.  For
    n <= 1 the signature is the single entry m.
    """
    n = len(comp) - 1
    if n < 0:
        return ()
    m = sum(comp)
    if n <= 1:
        return (m,)
    s, runs = _scan(comp)
    r = _runs_degree(runs)
    image = _remove_runs(comp, runs)
    d = (0,) * (r - 1) + (s - spread(image),) + signature(image)
    if len(d) != n // 2 + 1:
        raise InconsistencyError(f"signature length for {comp}: {d}")
    if sum(map(mul, d, range(1, len(d) + 1))) != m:
        raise InconsistencyError(f"signature mass for {comp}: {d}")
    if m > 0 and sum(d) != s:
        raise InconsistencyError(f"signature spread for {comp}: {d}")
    return d


def signature_mass(d: Signature) -> int:
    """Mass of any composition with signature d: sum of (j+1)*d_j."""
    return sum((j + 1) * dj for j, dj in enumerate(d))


def chain_length(n: int, d: Signature) -> int:
    """Common length of all transversal chains in the class (n, d)."""
    return sum((n - 2 * j) * dj for j, dj in enumerate(d))


def enumerate_signatures(n: int, m: int) -> list[Signature]:
    """All length-(n//2 + 1) vectors of nonnegative d_j with mass m."""
    if n == -1:
        return [()] if m == 0 else []
    if n < -1 or m < 0:
        raise ValueError("need n >= -1 and m >= 0")
    return _sigs(n // 2, m)


def _sigs(k, m):
    """Signatures (d_0, ..., d_k) of mass m, ordered by (d_k, ..., d_0).

    Built one entry at a time from d_k down, so the depth does not grow
    with k: each partial vector (d_j, ..., d_k) carries the mass left
    for the entries below it, and d_0 takes all that is left.
    """
    partial = [((), m)]
    for j in range(k, 0, -1):
        partial = [
            ((dj,) + tail, left - (j + 1) * dj)
            for tail, left in partial
            for dj in range(left // (j + 1) + 1)
        ]
    return [(left,) + tail for tail, left in partial]


@lru_cache(maxsize=None)
def signature_classes(n: int, m: int) -> dict[Signature, tuple[Composition, ...]]:
    """Group all of the (n, m) composition poset by signature.

    Only the classes the construction fills are listed, so no class is
    empty: each has its highest-weight element.  They appear in the
    enumerate_signatures order, listed after the size guards have run;
    oracle.empty_class_census checks that no enumerated signature is
    missing.  Elements within a class are in lexicographic order.
    Memoized at every size, so one poset is classified once until
    clear_caches(); the base posets a classification reads stay memoized
    with it.

    A poset with n <= 1 or m == 0 is one class and is enumerated.  Any
    other class (n, d) is the union of the fibers below the section
    images that split_step(n, d) writes, each a copy of L(r, ell).
    Classes that do not partition the count_compositions(n, m) elements
    raise InconsistencyError; so does a missing base class, and a fiber
    walk that fails _fiber_points' checks.
    """
    if n <= 1 or m <= 0:
        elements = tuple(enumerate_compositions(n, m))
        return {enumerate_signatures(n, m)[0]: elements}
    check_poset_size(n, m)
    classes = {}
    for d in enumerate_signatures(n, m):
        r, ell, tops = split_step(n, d)
        points = []
        for top in tops:
            points += _fiber_points(top, r, ell)
        points.sort()
        classes[d] = tuple(points)
    total = count_compositions(n, m)
    if (sum(map(len, classes.values())) != total
            or len(set().union(*classes.values())) != total):
        raise InconsistencyError(
            f"classes of n={n}, m={m} do not partition its {total} elements"
        )
    return classes


def split_shape(n: int, d: Signature) -> tuple[int, int]:
    """(r, ell) of the class (n, d): its degree and chain_length(n, d).

    r is the number t of leading zeros of d (len(d) when d is all zero)
    plus one, capped at (n + 1) // 2, the most pairs n + 1 entries hold:
    the degree of the class's highest-weight element, read from d alone.
    The cap binds exactly on the one-element classes of ell == 0: m == 0,
    and d = (0, ..., 0, d_k) for even n.
    """
    t = next((j for j, dj in enumerate(d) if dj), len(d))
    return min(t + 1, (n + 1) // 2), chain_length(n, d)


def split_step(n: int, d: Signature) -> tuple[int, int, list[Composition]]:
    """The split step of the class (n, d): (r, ell, tops).

    The class is its base class (n - 2r, d[r:]) times the fiber
    L(r, ell), with r and ell from split_shape, and tops are the
    section images over the elements of the base class, in its
    lexicographic order: the tops of the class's fibers.  Reads the base
    class from signature_classes, so it classifies the base poset, not
    the class's own (for n == 0, where r == 0, the two are one).  A base
    class that is missing raises InconsistencyError.
    """
    r, ell = split_shape(n, d)
    s = sum(d)
    base_m = signature_mass(d) - r * s
    base = signature_classes(n - 2 * r, base_m).get(d[r:])
    if base is None:
        raise InconsistencyError(
            f"class {d} of n={n}: base class {d[r:]} of "
            f"n={n - 2 * r}, m={base_m} missing"
        )
    return r, ell, [section(b, r, s) for b in base]


def section(b: Composition, r: int, s: int) -> Composition:
    """Prepend r blocks (s, 0): the order-preserving section of the projection
    remove_maximal_pairs().  Needs s > spread(b), or s == spread(b) for a b
    of at most one entry (the leading run absorbs it); r = 0 returns b."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return b
    if s < spread(b) + (len(b) >= 2):
        raise ValueError(f"section needs s > spread({b}) = {spread(b)}")
    return (s, 0) * r + b


def _leading_chain(x, top):
    """(top, colors read downward) of the chain at x's leading pair, which
    must be maximal in x, a point of the fiber from the section image top."""
    if x[0] + x[1] != spread(x):
        raise InconsistencyError(f"leading pair of {x} is not maximal "
                                 f"inside the fiber from {top}")
    chain_top, up = _raise_path(x, 0)
    return chain_top, tuple(up + _lower_path(x, 0))


def _fiber_points(top, r, ell):
    """Every point of the fiber below the section image top, in colex order
    of its coordinates lam, the weakly increasing vectors in [0, ell]^r
    (lam[-1] varies slowest).  The chain at top's leading pair holds the
    points for lam[-1] = 0..ell; from the point for lam[k] = j, the chain
    at its leading pair holds those for lam[k-1] = 0..j, so only its first
    j + 1 elements are built, pushed in reverse to be walked in order.
    A walked chain whose length is not ell raises InconsistencyError.
    """
    points = []
    todo = [(top, r, ell)]
    while todo:
        x, level, j = todo.pop()
        chain_top, colors = _leading_chain(x, top)
        if len(colors) != ell:
            raise InconsistencyError(
                f"chain of length {len(colors)} != {ell} inside fiber from {top}"
            )
        elems = walk_down(chain_top, colors[:j])
        if level == 1:
            points += elems
        else:
            todo += reversed([(e, level - 1, i) for i, e in enumerate(elems)])
    return points


def _fiber_position(e):
    """The index in _fiber_points' order of the point with coordinates
    lam = from_gaps(e), for e in the (r, ell) poset: the combinatorial
    number system's sum of comb(lam[k] + k, k + 1)."""
    return sum(comb(x + k, k + 1) for k, x in enumerate(from_gaps(e)))


def clear_caches() -> None:
    """Drop every per-poset memo: maximal-pair scans, signatures and
    classes.  qpoly.gaussian's stays, as it is keyed by box (one entry
    serves (m, n) and (n, m)), shared across posets and read by
    perfbench."""
    _scans.clear()
    _scan_results.clear()
    signature.cache_clear()
    signature_classes.cache_clear()


def signature_class(n: int, d: Signature) -> tuple[Composition, ...]:
    """All compositions of the (n, implied-mass) poset with signature d."""
    return signature_classes(n, _class_mass(n, d))[tuple(d)]


def _class_mass(n, d):
    """The mass of the class (n, d); ValueError for an n or d it cannot have."""
    m = signature_mass(d)
    if n >= -1 and len(d) != n // 2 + 1:
        raise ValueError(f"signature {d} has wrong length for n={n}")
    if any(dj < 0 for dj in d):
        raise ValueError(f"signature {d} has a negative entry")
    if n < -1:
        raise ValueError("n must be >= -1")
    return m


def highest_weight(n: int, d: Signature) -> Composition:
    """The class's unique highest-weight element: zeros at odd positions,
    suffix sums of d at even positions.

    Raises InconsistencyError if the constructed element's signature is
    not d; that flags a boundary defect of the closed form rather than
    silently returning a wrong representative.
    """
    k = n // 2
    if len(d) != k + 1:
        raise ValueError(f"signature {d} has wrong length for n={n}")
    h = [0] * (n + 1)
    acc = 0
    for i in range(k, -1, -1):
        acc += d[i]
        h[2 * i] = acc
    h = tuple(h)
    if signature(h) != tuple(d):
        raise InconsistencyError(
            f"highest-weight formula gives {h} with signature {signature(h)}, not {d}"
        )
    return h
