"""Raising and lowering along maximal pairs, and the transversal chains.

Raising from the maximal pair at left index i works one cover at a
time: while i >= 1, a unit moves from entry i+1 to entry i (color i+1)
as long as a_{i+1} exceeds a_{i-1}, and on equality the pair drifts one
step left; at the leading pair a_1 drains into a_0 (color 1) until
a_1 = 0, an initial element.  Lowering is the mirror: from the pair
with right index j = i+1, a unit moves from entry j-1 to entry j
(color j) while a_{j-1} exceeds a_{j+1}, the pair drifts right on
equality, and at j = n the walk drains a_{n-1} into a_n, ending at a
terminal element.  Every step keeps the spread, degree and signature,
so each walk stays inside one signature class.  The walks themselves,
posets._raise_path and posets._lower_path, live beside posets.walk_down
and read no statistic, so statistics.signature_classes can walk whole
fibers with them without importing this module; they apply each pair's
whole run of unit moves at once.  A chain is stored as its
highest-weight element plus the color sequence read downward; the
element list is rebuilt on demand by posets.walk_down, which takes the
steps in one buffer, and the bottom alone from the color counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import sub

from .posets import (
    Composition,
    InconsistencyError,
    _lower_path,
    _raise_path,
    walk_down,
)
from .statistics import _scan, spread


def is_initial(comp: Composition) -> bool:
    """True iff the leading pair (a_0, a_1) is a maximal pair with a_1 = 0."""
    if len(comp) < 2:
        raise ValueError("need at least two entries")
    return comp[1] == 0 and comp[0] == spread(comp)


def is_terminal(comp: Composition) -> bool:
    """Mirror of is_initial at the right end."""
    if len(comp) < 2:
        raise ValueError("need at least two entries")
    return comp[-2] == 0 and comp[-1] == spread(comp)


def _check_pair(comp, i):
    if not 0 <= i <= len(comp) - 2 or comp[i] + comp[i + 1] != spread(comp):
        raise ValueError(f"index {i} is not a maximal pair of {comp}")


def raise_run(comp: Composition, i: int) -> list[Composition]:
    """Run the raising algorithm from the maximal pair at left index i."""
    _check_pair(comp, i)
    return walk_down(*_raise_path(comp, i))[::-1]


def lower_run(comp: Composition, i: int) -> list[Composition]:
    """Run the lowering algorithm from the maximal pair at left index i."""
    _check_pair(comp, i)
    return walk_down(comp, _lower_path(comp, i))


@dataclass(frozen=True)
class Chain:
    """Saturated chain: highest-weight element plus downward color sequence."""

    top: Composition
    colors: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.colors)

    def elements(self) -> list[Composition]:
        return walk_down(self.top, self.colors)

    def bottom(self) -> Composition:
        """The last element, without building those above it: color c
        moves one unit from entry c-1 to entry c, so only the color counts
        matter; elements() still catches a color order that cannot be
        walked."""
        a = list(self.top)
        for c in self.colors:
            if not 0 < c < len(a):
                raise ValueError(f"color {c} not applicable to {self.top}")
            a[c - 1] -= 1
            a[c] += 1
        if any(e < 0 for e in a):
            raise ValueError(f"colors {self.colors} drive an entry of "
                             f"{self.top} negative")
        return tuple(a)

    def to_dict(self) -> dict:
        return {"top": list(self.top), "colors": list(self.colors)}

    @classmethod
    def from_dict(cls, data: dict) -> "Chain":
        return cls(tuple(data["top"]), tuple(data["colors"]))


def transversal_chain(comp: Composition, i: int) -> Chain:
    """The chain through comp at the maximal-pair component containing i.

    Raising ends at an initial element (the top) and lowering at a
    terminal one; comp sits where the two runs are glued.
    """
    _check_pair(comp, i)
    return _glued_chain(comp, i)


def _glued_chain(comp, i):
    """transversal_chain(comp, i) for an i known to be a maximal pair."""
    top, up_colors = _raise_path(comp, i)
    return Chain(top, tuple(up_colors + _lower_path(comp, i)))


def chains_through(comp: Composition) -> list[Chain]:
    """One transversal chain per component of the maximal index set.

    Scans comp with the raw _scan, not the per-poset memo, so a lone
    query pays for no memo entry; the scan's runs start at maximal
    pairs, so no chain checks its pair again."""
    _, runs = _scan(comp)
    return [_glued_chain(comp, start) for start, _ in runs]


def closed_form_colors(comp: Composition) -> tuple[int, ...]:
    """Color sequence of the chain topped by an initial element.

    Color j occurs a_0 - a_j - a_{j+1} times (a_1 and a_{n+1} read as
    zero).  Exponents are nonnegative for genuine initial elements; a
    negative one is flagged, never clamped.
    """
    if not is_initial(comp):
        raise ValueError(f"{comp} is not initial")
    n = len(comp) - 1
    ext = comp + (0,)
    a0 = comp[0]
    out = []
    for j in range(1, n + 1):
        e = a0 - ext[j] - ext[j + 1]
        if e < 0:
            raise InconsistencyError(f"negative color multiplicity at {j} for {comp}")
        out.extend([j] * e)
    return tuple(out)


def closed_form_terminal(comp: Composition) -> Composition:
    """Terminal element of the chain topped by an initial element."""
    if not is_initial(comp):
        raise ValueError(f"{comp} is not initial")
    return comp[2:] + (0, comp[0])


def flip_chain(chain: Chain) -> Chain:
    """Image of a chain under the rank-flipping involution.

    The flipped bottom becomes the top and color j becomes n + 1 - j in
    reversed order; the element set is the entrywise flip of the
    original's.
    """
    bottom = chain.bottom()
    return Chain(bottom[::-1],
                 tuple(map(sub, repeat(len(chain.top)), reversed(chain.colors))))
