"""Split-extension structure of signature classes and chain decompositions.

Each signature class projects onto a smaller class by maximal-pair
removal; prepending spread-sized blocks is a section of the projection
(section() writes every image), and every fiber is order-isomorphic to
a small Young's lattice whose coordinates count the covers of
transversal's raising walk.  Iterating this picture decomposes the whole
composition poset into saturated chains whose per-length tops are
centered and unimodal, which is exactly the unimodality certificate.
It keeps no memo; the ones it reads live in statistics, beside clear_caches().
This module only constructs; oracle.verify_split_extension checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .posets import (
    Composition,
    InconsistencyError,
    cover_color,
    count_compositions,
    from_gaps,
    rank,
    weight,
)
from .qpoly import gaussian, is_unimodal
from .statistics import (
    Signature,
    _components,
    _remove_runs,
    _runs_degree,
    chain_length,
    degree,
    remove_maximal_pairs,
    signature,
    signature_class,
    signature_classes,
    spread,
)
from .transversal import Chain, _raise_path, flip_chain, transversal_chain


def section(b: Composition, r: int, s: int) -> Composition:
    """Prepend r blocks (s, 0); the order-preserving section of the projection
    remove_maximal_pairs().

    Requires s > spread(b) so the prepended blocks carry the maximal
    pairs, or s == spread(b) for a b of at most one entry, whose spread
    is its mass and which the leading run absorbs; r = 0 returns b.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return b
    if s < spread(b) or (s == spread(b) and len(b) >= 2):
        raise ValueError(f"section needs s > spread({b}) = {spread(b)}")
    return (s, 0) * r + b


def first_coordinate_closed_form(a: Composition) -> int:
    """Raising-step count to reach an initial element, in closed form.

    With (a_i, a_{i+1}) the leftmost maximal pair and s the spread, the
    count is (i+1)s - a_i - 2(a_0 + ... + a_{i-1}).
    """
    if sum(a) == 0:
        return 0
    s, runs = _components(a)
    i = runs[0][0]
    return (i + 1) * s - a[i] - 2 * sum(a[:i])


def fiber_coordinates(a: Composition, b: Composition) -> tuple[int, ...]:
    """Coordinates of a within the fiber over b: one raising count per level.

    Each level raises from the leftmost maximal pair to an initial
    element, counts the covers taken (the walk's colors), strips the
    leading block, and recurses; after degree(a) levels the residue
    must be b.  The counts are weakly increasing and bounded by the
    class's transversal length; violations are hard failures.  One scan
    of a gives its projection, its degree and the first level's start.
    """
    runs = _components(a)[1]
    if _remove_runs(a, runs) != b:
        raise ValueError(f"{b} is not the projection of {a}")
    r = _runs_degree(runs)
    ell = chain_length(len(a) - 1, signature(a))
    cur = a
    out = []
    for level in range(r):
        if level:
            runs = _components(cur)[1]
        init, colors = _raise_path(cur, runs[0][0])
        out.append(len(colors))
        cur = init[2:]
    if cur != b:
        raise InconsistencyError(f"stripping {a} left {cur}, expected {b}")
    if any(x > y for x, y in zip(out, out[1:])) or (out and not 0 <= out[-1] <= ell):
        raise InconsistencyError(f"non-monotone fiber coordinates {out} for {a}")
    return tuple(out)


def fiber_element(lam: tuple[int, ...], b: Composition, s: int) -> Composition:
    """Inverse of fiber_coordinates: rebuild the element from coordinates.

    Starting at the section image, follow the transversal chain at the
    leading component for lam[-1] steps, then the new element's chain
    for lam[-2] steps, and so on down to lam[0].
    """
    r = len(lam)
    if any(x > y for x, y in zip(lam, lam[1:])) or any(x < 0 for x in lam):
        raise ValueError(f"coordinates {lam} not weakly increasing and nonnegative")
    x = section(tuple(b), r, s)
    for t in reversed(lam):
        ch = transversal_chain(x, 0)
        if t > ch.length:
            raise ValueError(f"coordinate {t} exceeds chain length {ch.length}")
        x = ch.elements()[t]
    if remove_maximal_pairs(x) != tuple(b):
        raise InconsistencyError(f"rebuilt element {x} does not project to {b}")
    return x


def _fiber_by_coordinates(b, r, s, ell):
    """All fiber elements keyed by coordinates, sharing chain prefixes.

    Walks the coordinate tree from the section image; the chain from a
    partial element is materialized once per distinct coordinate tail,
    so the whole fiber costs about one chain step per element.
    """
    out = {}

    def walk(x, remaining, cap, tail):
        if remaining == 0:
            out[tail[::-1]] = x
            return
        ch = transversal_chain(x, 0)
        if ch.length != ell:
            raise InconsistencyError(
                f"chain of length {ch.length} != {ell} inside fiber over {b}"
            )
        elems = ch.elements()
        for t in range(min(cap, ch.length) + 1):
            walk(elems[t], remaining - 1, t, tail + (t,))

    walk(section(b, r, s), r, ell, ())
    return out


@dataclass
class ClassDecomposition:
    signature: Signature
    r: int
    ell: int
    chains: tuple[Chain, ...]


@dataclass
class Decomposition:
    n: int
    m: int
    classes: tuple[ClassDecomposition, ...]
    index: dict[Composition, int] = field(compare=False, repr=False)

    def chains(self) -> list[Chain]:
        return [ch for cd in self.classes for ch in cd.chains]


def decompose_class(n: int, d: Signature) -> list[Chain]:
    """Partition one signature class into saturated chains.

    Transversal fibers do the job when the class's degree is 1; for
    degree r >= 2 the fibers are coordinate lattices, so the recursive
    decomposition of the matching composition poset is transported
    through the coordinate maps.  Length-0 classes fall apart into
    singletons.
    """
    d = tuple(d)
    cls = signature_class(n, d)
    return list(_class_decomposition(n, d, cls).chains) if cls else []


def _class_decomposition(n: int, d: Signature, cls) -> ClassDecomposition:
    """decompose_class of the nonempty class cls.

    Degree is constant on a signature class, so any element gives r;
    _indexed rejects the decomposition if the classes were wrong.
    """
    r = degree(cls[0])
    s = sum(d)
    ell = chain_length(n, d)
    if ell == 0 or r == 0:
        chains = [Chain(a, ()) for a in cls]
    elif r == 1:
        base = signature_class(n - 2, d[1:])
        chains = [transversal_chain(section(b, 1, s), 0) for b in base]
    else:
        sub_chains = decompose_all(r, ell).chains()
        chains = []
        for b in signature_class(n - 2 * r, d[r:]):
            rebuilt = _fiber_by_coordinates(b, r, s, ell)
            for sub in sub_chains:
                images = [rebuilt[from_gaps(e)] for e in sub.elements()]
                colors = []
                for low, high in zip(images, images[1:]):
                    c = cover_color(low, high)
                    if c is None:
                        raise InconsistencyError(
                            f"transported chain not saturated at {low} -> {high}"
                        )
                    colors.append(c)
                chains.append(Chain(images[0], tuple(colors)))
    return ClassDecomposition(d, r, ell, tuple(chains))


def decompose_all(n: int, m: int) -> Decomposition:
    """Partition the whole (n, m) composition poset into saturated chains.

    Chains are grouped by signature class; element coverage and
    disjointness are checked and any defect is a hard failure.
    """
    if n < 0 or m < 0:
        raise ValueError("need n >= 0 and m >= 0")
    classes = signature_classes(n, m).items()
    out = tuple(_class_decomposition(n, d, cls) for d, cls in classes if cls)
    return _indexed(n, m, out)


def _indexed(n: int, m: int, classes) -> Decomposition:
    """The decomposition with its element-to-chain index.

    Every element of the (n, m) poset must lie on exactly one chain; an
    element of the wrong length or mass, one covered twice, or one left
    uncovered is an InconsistencyError.  Color steps keep the length, the
    mass and nonnegative entries, so checking each chain's top suffices.
    """
    index: dict[Composition, int] = {}
    for chain_id, ch in enumerate(ch for cd in classes for ch in cd.chains):
        top = ch.top
        if len(top) != n + 1 or sum(top) != m or min(top, default=0) < 0:
            raise InconsistencyError(f"chain top {top} is not in L({m},{n})")
        for e in ch.elements():
            if e in index:
                raise InconsistencyError(f"element {e} covered twice")
            index[e] = chain_id
    total = count_compositions(n, m)
    if len(index) != total:
        raise InconsistencyError(
            f"decomposition covers {len(index)} of {total} elements"
        )
    return Decomposition(n=n, m=m, classes=classes, index=index)


def flip_stability(dec: Decomposition) -> tuple[bool, list[Chain]]:
    """Check the chain set is closed under the rank-flipping involution.

    Saturated chains with equal element sets are equal as (top, colors),
    so membership of each flipped chain settles set-level stability.
    """
    keys = {(ch.top, ch.colors) for ch in dec.chains()}
    offenders = []
    for ch in dec.chains():
        fl = flip_chain(ch)
        if (fl.top, fl.colors) not in keys:
            offenders.append(ch)
    return not offenders, offenders


@dataclass
class UnimodalityCertificate:
    n: int
    m: int
    top_weights_by_length: dict[int, dict[int, int]]
    symmetric_lengths: dict[int, bool]
    unimodal_lengths: dict[int, bool]
    reconstruction: tuple
    matches_gaussian: bool

    def passed(self) -> bool:
        return (
            all(self.symmetric_lengths.values())
            and all(self.unimodal_lengths.values())
            and self.matches_gaussian
        )


def unimodality_certificate(dec: Decomposition) -> UnimodalityCertificate:
    """Certify rank-unimodality from the chain decomposition alone.

    Chains of one length are summarized by their multiset of top
    weights; each multiset must be symmetric about the length and
    unimodal, and stacking all chains must rebuild the exact rank
    generating function.
    """
    by_length: dict[int, dict[int, int]] = {}
    hist = [0] * (dec.m * dec.n + 1)
    for ch in dec.chains():
        top_w = weight(ch.top)
        counts = by_length.setdefault(ch.length, {})
        counts[top_w] = counts.get(top_w, 0) + 1
        base_rank = rank(ch.top)
        for t in range(ch.length + 1):
            hist[base_rank + t] += 1
    symmetric = {}
    unimodal = {}
    for length, counts in by_length.items():
        symmetric[length] = all(
            counts.get(2 * length - w, 0) == c for w, c in counts.items()
        )
        lo, hi = min(counts), max(counts)
        seq = [counts.get(w, 0) for w in range(lo, hi + 1, 2)]
        unimodal[length] = is_unimodal(tuple(seq))
    reconstruction = tuple(hist)
    return UnimodalityCertificate(
        n=dec.n,
        m=dec.m,
        top_weights_by_length=by_length,
        symmetric_lengths=symmetric,
        unimodal_lengths=unimodal,
        reconstruction=reconstruction,
        matches_gaussian=reconstruction == gaussian(dec.m, dec.n),
    )


def decomposition_to_dict(dec: Decomposition) -> dict:
    return {
        "n": dec.n,
        "m": dec.m,
        "classes": [
            {
                "signature": list(cd.signature),
                "r": cd.r,
                "ell": cd.ell,
                "chains": [ch.to_dict() for ch in cd.chains],
            }
            for cd in dec.classes
        ],
    }


def decomposition_from_dict(data: dict) -> Decomposition:
    """Rebuild a decomposition, checking that it partitions the poset."""
    classes = tuple(
        ClassDecomposition(
            tuple(cd["signature"]),
            cd["r"],
            cd["ell"],
            tuple(Chain.from_dict(c) for c in cd["chains"]),
        )
        for cd in data["classes"]
    )
    return _indexed(data["n"], data["m"], classes)
