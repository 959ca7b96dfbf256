"""Split-extension structure of signature classes and chain decompositions.

Each signature class projects onto a smaller class by maximal-pair
removal; prepending spread-sized blocks is a section of the projection,
and every fiber is order-isomorphic to a small Young's lattice whose
coordinates count the covers of transversal's raising walk.  Iterating
this picture decomposes the whole composition poset into saturated
chains whose per-length tops are centered and unimodal, which is exactly
the unimodality certificate.  Each step of the forward fiber map (section
images, the chain at a point's leading pair, colex positions) is read
from its one writer in statistics.  The decomposition classifies the base
posets, not the poset it decomposes, and keeps no memo across calls.
This module only constructs; oracle.verify_split_extension checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .posets import (
    Composition,
    InconsistencyError,
    _raise_path,
    check_poset_size,
    cover_color,
    count_compositions,
    rank,
    weight,
)
from .qpoly import gaussian, is_unimodal
from .statistics import (
    Signature,
    _class_mass,
    _components,
    _fiber_points,
    _fiber_position,
    _leading_chain,
    _remove_runs,
    _runs_degree,
    chain_length,
    enumerate_signatures,
    remove_maximal_pairs,
    section,
    signature,
    split_step,
)
from .transversal import Chain, flip_chain


def first_coordinate_closed_form(a: Composition) -> int:
    """Raising-step count to reach an initial element, in closed form.

    With (a_i, a_{i+1}) the leftmost maximal pair and s the spread, the
    count is (i+1)s - a_i - 2(a_0 + ... + a_{i-1}).
    """
    if len(a) < 2:
        raise ValueError("need at least two entries")
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
    """Inverse of fiber_coordinates: from the section image, take lam[-1]
    steps down the chain at its leading pair, then lam[-2] down the next
    element's, and so on to lam[0].  An empty lam needs a b of at most
    one entry, as a b with a maximal pair is no element of degree 0."""
    if any(x > y for x, y in zip(lam, lam[1:])) or any(x < 0 for x in lam):
        raise ValueError(f"coordinates {lam} not weakly increasing and nonnegative")
    if not lam and len(b) >= 2:
        raise ValueError(f"{b} has a maximal pair, so its fiber needs coordinates")
    top = x = section(tuple(b), len(lam), s)
    for steps in reversed(lam):
        chain_top, colors = _leading_chain(x, top)
        if steps > len(colors):
            raise ValueError(f"coordinate {steps} exceeds chain length {len(colors)}")
        x = Chain(chain_top, colors[:steps]).bottom()
    if (image := remove_maximal_pairs(x)) != tuple(b):
        raise InconsistencyError(f"rebuilt element {x} projects to {image}, not {b}")
    return x


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

    d is checked as signature_class checks it and the size guards of its
    poset run; the class is then decomposed from its split step, as in
    decompose_all, without classifying its poset.
    """
    d = tuple(d)
    check_poset_size(n, _class_mass(n, d))
    return list(_class_decomposition(n, d, {}).chains)


def _class_decomposition(
    n: int, d: Signature, sub_chains: dict
) -> ClassDecomposition:
    """The chains of the class (n, d), built from its split step.

    The class itself is not read: split_step gives r, ell and its
    fibers' tops (for n == 1, over the one element () of the (-1, 0)
    poset); _indexed rejects the decomposition if they were wrong.  Of
    transversal length 0 the class is its tops as one-point chains, of
    degree 1 the chains at its tops' leading pairs.  Of degree r >= 2
    each fiber is a copy of L(r, ell), and decompose_all(r, ell)'s chains
    are carried over as _fiber_position lists, kept in sub_chains, which
    decompose_all shares so each (r, ell) poset is decomposed once.
    """
    r, ell, tops = split_step(n, d)
    if ell == 0:
        return ClassDecomposition(d, r, ell, tuple(Chain(top, ()) for top in tops))
    if r == 1:
        chains = [Chain(*_leading_chain(top, top)) for top in tops]
    else:
        if (r, ell) not in sub_chains:
            sub_chains[r, ell] = [list(map(_fiber_position, ch.elements()))
                                  for ch in decompose_all(r, ell).chains()]
        chains = []
        for top in tops:
            points = _fiber_points(top, r, ell)
            for positions in sub_chains[r, ell]:
                images = [points[i] for i in positions]
                colors = tuple(map(cover_color, images, images[1:]))
                if None in colors:
                    low, high = images[colors.index(None):][:2]
                    raise InconsistencyError(
                        f"transported chain not saturated at {low} -> {high}")
                chains.append(Chain(images[0], colors))
    return ClassDecomposition(d, r, ell, tuple(chains))


def decompose_all(n: int, m: int) -> Decomposition:
    """Partition the whole (n, m) composition poset into saturated chains.

    Chains are grouped by signature class, in the enumerate_signatures
    order, each from its split step, so only the base posets of its
    classes are classified, not the poset itself (for n == 0 its one
    class is its own base).  Its size guards run first.  Element
    coverage and disjointness are checked and any defect is a hard
    failure.
    """
    if n < 0 or m < 0:
        raise ValueError("need n >= 0 and m >= 0")
    check_poset_size(n, m)
    sub_chains: dict = {}
    out = tuple(_class_decomposition(n, d, sub_chains)
                for d in enumerate_signatures(n, m))
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
