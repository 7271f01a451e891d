"""Coincidence tests: which polygons make a center function constant.

Three probe functions drive the classification:

* the cosine of the angle at vertex 1 (equal across shifts on convex
  polygons exactly when the polygon is equiangular);
* for odd n, the side length between the two middle vertices of the cycle
  (equal across shifts exactly when the polygon is equilateral);
* for even n, the skip-one diagonal from vertex n/2 (equal across shifts
  on the rectangle-like family).

Each probe is entry 0 of its whole map, which is O(n) and copies no polygon.

Direct angle/side measurement provides the independent oracle the probe
results are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import sub
from typing import Callable, Optional, Sequence

from .errors import DegenerateVertex, ParityMismatch
from .framework import CenterFunction, VertexCenterFunction, cyclic_values, entry_zero
from .geometry import (
    Frozen, Point2, Polygon, _set, chords, is_convex, is_nondegenerate, shoelace,
    unit_coordinates, unit_factor,
)

# Cyclic values within this band (relative, floored at unit scale; lengths
# read at unit scale first) coincide.
COINCIDENCE_TOL = 1e-9
# Angle/side oracles run looser than the algebraic probes.
ORACLE_TOL = 1e-7


class CoincidenceReport(Frozen):
    __slots__ = ("values", "coincident", "spread")

    def __init__(self, values: tuple[float, ...], coincident: bool, spread: float) -> None:
        _set(self, "values", values)
        _set(self, "coincident", coincident)
        _set(self, "spread", spread)


@dataclass(frozen=True)
class CharacterizationReport:
    n: int
    convex: bool
    equiangular: bool
    equilateral: bool
    regular: bool
    f1_coincident: bool
    f2_coincident: Optional[bool]  # odd n only
    f3_coincident: Optional[bool]  # even n only
    consistent_with_theorems: bool


# ------------------------------------------------------------------- probes


def _cosines(p: Polygon) -> list[float]:
    """Entry k: `f1_cosine` of p.shifted(k), the dot product of the unit
    vectors from vertex k + 1 to its neighbours, from n edges and lengths:
    O(n), with no product of lengths to overflow or underflow at any scale.
    The first shift whose `Point2` differences overflow or vanish raises."""
    xs, ys = p.xs, p.ys
    ux, uy = list(map(sub, xs[1:] + xs[:1], xs)), list(map(sub, ys[1:] + ys[:1], ys))
    wx, wy = list(map(sub, xs[-1:] + xs[:-1], xs)), list(map(sub, ys[-1:] + ys[:-1], ys))
    nu = list(map(math.hypot, ux, uy))
    nw = nu[-1:] + nu[:-1]  # w_k is u_(k-1) negated, and hypot ignores signs
    if 0.0 in nu or not all(map(math.isfinite, ux + uy)):
        for k in range(p.n):
            Point2(ux[k], uy[k]), Point2(wx[k], wy[k])  # NonFinite on overflow
            if nu[k] == 0.0 or nw[k] == 0.0:
                raise DegenerateVertex("vertex 1 coincides with a neighbour")
    return [(a / m) * (c / l) + (b / m) * (d / l)
            for a, b, m, c, d, l in zip(ux, uy, nu, wx, wy, nw)]


def _chords(p: Polygon, skip: int) -> list[float]:
    """Entry k: the distance between vertices (n - skip) // 2 and that plus
    skip (0-based) of p.shifted(k): O(n). n must have the parity of skip."""
    if p.n % 2 != skip % 2:
        raise ParityMismatch(f"needs {('even', 'odd')[skip % 2]} vertex count, got {p.n}")
    lengths = chords(p, skip)
    first = (p.n - skip) // 2
    return lengths[first:] + lengths[:first]


def _probe(name: str, all_shifts: Callable[[Polygon], list[float]]) -> VertexCenterFunction:
    return VertexCenterFunction(name, entry_zero(all_shifts), all_shifts=all_shifts)


F1 = _probe("angle-cosine", _cosines)
F2_ODD = _probe("middle-side", partial(_chords, skip=1))
F3_EVEN = _probe("half-skip-diagonal", partial(_chords, skip=2))
# The probes on one polygon: the cosine of the angle at vertex 1 between the
# edges to vertices 2 and n; the side between the two middle vertices (odd
# n); the diagonal from vertex n/2 to vertex n/2 + 2 (even n).
f1_cosine, f2_odd, f3_even = F1.evaluator, F2_ODD.evaluator, F3_EVEN.evaluator


def coincidence(
    fg: CenterFunction, p: Polygon, tol: float = COINCIDENCE_TOL
) -> CoincidenceReport:
    """Evaluate the cyclic coordinates and test whether they all agree.

    The spread is (max - min) relative to the largest magnitude, floored at
    unit scale so value sets hovering at zero (e.g. right-angle cosines)
    compare absolutely instead of blowing up. The length probes F2_ODD and
    F3_EVEN are compared at unit scale: times `unit_factor` of their largest
    value, which is exact, so their spread is the same at every power-of-two
    scale of p.
    """
    values = cyclic_values(fg, p)
    read = values
    if fg is F2_ODD or fg is F3_EVEN:
        t = unit_factor(max(values))
        read = [t * v for v in values]
    largest = max(abs(v) for v in read)
    spread = (max(read) - min(read)) / max(1.0, largest)
    return CoincidenceReport(values, spread <= tol, spread)


# ------------------------------------------------------------------ oracles


def interior_angles(p: Polygon) -> tuple[float, ...]:
    """Turn-based interior angles; reflex vertices read above pi.

    The traversal orientation (sign of the shoelace area, counterclockwise
    positive) converts each signed turn into an interior angle, so a valley
    vertex of a non-convex outline is reported as its reflex angle rather
    than its unsigned opening.

    The coordinates are read at unit scale (`unit_coordinates`), so no
    cross or dot product overflows or underflows at any scale.
    """
    _, xs, ys = unit_coordinates(p)
    orient = 1.0 if shoelace(xs, ys) >= 0.0 else -1.0
    out = []
    for i in range(p.n):
        j = (i + 1) % p.n
        ix, iy = xs[i] - xs[i - 1], ys[i] - ys[i - 1]
        ox, oy = xs[j] - xs[i], ys[j] - ys[i]
        turn = math.atan2(ix * oy - iy * ox, ix * ox + iy * oy)
        out.append(math.pi - orient * turn)
    return tuple(out)


def _relative_spread(values: Sequence[float]) -> float:
    largest = max(abs(v) for v in values)
    if largest == 0.0:
        return 0.0
    return (max(values) - min(values)) / largest


def predicates(p: Polygon) -> dict[str, bool]:
    """Directly measured equiangular / equilateral / regular flags, each
    spread within ORACLE_TOL."""
    equiangular = _relative_spread(interior_angles(p)) <= ORACLE_TOL
    equilateral = _relative_spread(chords(p, 1)) <= ORACLE_TOL
    return {
        "equiangular": equiangular,
        "equilateral": equilateral,
        "regular": equiangular and equilateral,
    }


# ------------------------------------------------------------ full report


def characterize(p: Polygon, tol: float = COINCIDENCE_TOL) -> CharacterizationReport:
    """Probe coincidences next to measured shape predicates.

    Consistency cross-checks, each skipped where it does not apply:

    * convex and non-degenerate: angle-cosine coincidence iff equiangular;
    * odd n: middle-side coincidence iff equilateral;
    * equiangular quadrilaterals: the half-skip diagonal must coincide.
    """
    if not is_nondegenerate(p):
        raise DegenerateVertex("characterization needs pairwise distinct vertices")
    flags = predicates(p)
    convex = is_convex(p)
    f1 = coincidence(F1, p, tol).coincident
    f2 = coincidence(F2_ODD, p, tol).coincident if p.n % 2 == 1 else None
    f3 = coincidence(F3_EVEN, p, tol).coincident if p.n % 2 == 0 else None

    consistent = True
    if convex:
        consistent &= f1 == flags["equiangular"]
    if p.n % 2 == 1:
        consistent &= f2 == flags["equilateral"]
    if p.n == 4 and flags["equiangular"]:
        consistent &= bool(f3)

    return CharacterizationReport(
        n=p.n,
        convex=convex,
        equiangular=flags["equiangular"],
        equilateral=flags["equilateral"],
        regular=flags["regular"],
        f1_coincident=f1,
        f2_coincident=f2,
        f3_coincident=f3,
        consistent_with_theorems=consistent,
    )
