"""Built-in center functions and their direct evaluators.

Stable names: ``centroid``, ``perimeter``, ``lamina``, ``medoid``,
``circumcenter``. Each entry pairs a center function (vertex- or
length-based) with a domain guard; the direct evaluators compute the same
points without going through coordinate maps and serve as cross-checks.

The vertex entries are defined once, by their whole coordinate map,
computed from work the n shifts share: one distance matrix for `medoid`
(which `medoid()` reads too), one vertex mean and wedge total for
`lamina`. Their per-shift evaluator is entry 0 of the map. The sums a map
shares are taken with `math.fsum`, which is correctly rounded and so
independent of the vertex a shift starts from; that is what makes entry 0
of a shifted input's map equal the matching entry of the input's own, bit
for bit.

The length entries are guarded expressions (`dsl`), whose guards read a
matrix or the polygon it is measured from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence, Union

from .dsl import center_function, parse
from .errors import Collinear, DomainViolation, NonFinite, Tie, ZeroArea
from .framework import LengthCenterFunction, VertexCenterFunction
from .geometry import (
    DistanceMatrix,
    Point2,
    Polygon,
    chords,
    distance_matrix,
    is_convex,
    is_nondegenerate,
    vertex_coordinates,
)
from .reconstruction import convex_distances

# The medoid indicator is 1.0 when vertex 1's distance sum is within this
# fraction of the smallest sum.
MEDOID_REL = 1e-12
# Total wedge sums below this magnitude mean the outline bounds no area.
AREA_EPS = 1e-12
# The length entries' expressions: the sides at vertex 1, and Kimberling's X(3).
ADJACENT_SIDES = "d(n,1)+d(1,2)"
X3_CIRCUMCENTER = "d(2,3)*d(2,3)*(d(3,1)*d(3,1)+d(1,2)*d(1,2)-d(2,3)*d(2,3))"


def _wedge(a: Point2, b: Point2) -> float:
    return a.x * b.y - a.y * b.x


def _total(terms: Iterable[float]) -> float:
    """`math.fsum` of nonnegative terms: correctly rounded, so the same in
    any order, and inf where it overflows (fsum raises OverflowError)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _entry_zero(all_shifts: Callable[..., Sequence[float]]) -> Callable[..., float]:
    """The per-shift evaluator of a center defined by its whole map: the
    value on an input is entry 0 of the input's map."""
    return lambda x: all_shifts(x)[0]


# ----------------------------------------------------------- vertex centroid


def _ones(p: Polygon) -> tuple[float, ...]:
    return (1.0,) * p.n


# -------------------------------------------------------- perimeter centroid


def _convex(x: Union[Polygon, DistanceMatrix]) -> bool:
    """The `perimeter` guard: `is_convex` on a polygon, O(n), and
    `convex_distances` on a matrix."""
    return is_convex(x) if isinstance(x, Polygon) else convex_distances(x)


def perimeter_centroid(p: Polygon) -> Point2:
    """Center of mass of the boundary of a convex polygon.

    Each vertex carries half the length of its two incident sides.
    """
    if not is_convex(p):
        raise DomainViolation("perimeter centroid is defined on convex polygons")
    sides = chords(p, 1)
    per = sum(sides)
    x = y = 0.0
    for i, v in enumerate(p.vertices):
        w = (sides[i - 1] + sides[i]) / (2.0 * per)
        x += w * v.x
        y += w * v.y
    return Point2(x, y)


# ----------------------------------------------------------- lamina centroid


def _lamina_all_shifts(p: Polygon) -> list[float]:
    """Unsigned wedge sums anchored at the vertex mean, from one fan: O(n).

    With B the vertex mean, entry 0 is |(B-V1)^(B-V2)| + |(B-Vn)^(B-V1)|
    plus 1/n of the full fan total. Summed over cyclic shifts this triples
    the fan total, so the induced weights recover the area centroid on
    convex polygons. B and the total are `math.fsum` sums, so the fan of
    p.shifted(k) is this one rotated by k, bit for bit. The extent is
    checked first, so no difference from B overflows; NonFinite when it,
    or the sum behind B, does.
    """
    xs, ys = vertex_coordinates(p)
    n = len(xs)
    try:
        bx, by = math.fsum(xs) / n, math.fsum(ys) / n
    except OverflowError:
        raise NonFinite("vertex mean must be finite") from None
    dx = [bx - x for x in xs]
    dy = [by - y for y in ys]
    wedges = [
        abs(ux * wy - uy * wx)
        for ux, uy, wx, wy in zip(dx, dy, dx[1:] + dx[:1], dy[1:] + dy[:1])
    ]
    share = _total(wedges) / n
    return [wedges[k] + wedges[k - 1] + share for k in range(n)]


def lamina_centroid_direct(p: Polygon) -> Point2:
    """Area centroid from vertex wedges, no reference point.

    Weight of V_i is (V_{i-1}^V_i + V_i^V_{i+1}) / (3 * sum_j V_j^V_{j+1}).
    The weights sum to 2/3, not 1, yet the combination is the centroid for
    any simple polygon and any origin. Raises ZeroArea when the wedge sum
    vanishes.
    """
    n = p.n
    u = [_wedge(p.vertices[j], p.vertex(j + 1)) for j in range(n)]
    total = sum(u)
    if abs(total) <= AREA_EPS * max(abs(w) for w in u):
        raise ZeroArea("outline bounds no area; centroid undefined")
    x = y = 0.0
    for i in range(n):
        w = (u[i - 1] + u[i]) / (3.0 * total)
        x += w * p.vertices[i].x
        y += w * p.vertices[i].y
    return Point2(x, y)


# -------------------------------------------------------------------- medoid


def _distance_sums(p: Polygon) -> list[float]:
    """Sum of distances from each vertex to all vertices.

    Rows of the distance matrix are summed with `_total`, so each sum
    matches summing v.distance_to(w) over w in any order, bit for bit.
    """
    return [_total(row) for row in distance_matrix(p).d]


def _medoid_bound(s: float) -> float:
    """Largest distance sum still counted as tied with a sum s; monotone in s
    and relative: sums of pairwise-distinct vertices are positive."""
    return s + MEDOID_REL * s


def _medoid_indicators(p: Polygon) -> list[float]:
    """Entry k is 1.0 when vertex k + 1 minimizes the sum of distances to
    all vertices, from one matrix: O(n^2)."""
    sums = _distance_sums(p)
    bound = _medoid_bound(min(sums))
    return [1.0 if s <= bound else 0.0 for s in sums]


def medoid(p: Polygon) -> int:
    """0-based index of the vertex minimizing the distance sum: the one
    vertex whose `medoid` indicator is 1. Raises Tie when more than one is.
    """
    if not is_nondegenerate(p):
        raise DomainViolation("medoid needs pairwise distinct vertices")
    return marked_vertex(_medoid_indicators(p))


def marked_vertex(marks: Sequence[float]) -> int:
    """0-based index of the vertex a `medoid` map marks; Tie if it marks more."""
    marked = [i for i, v in enumerate(marks) if v]
    if len(marked) > 1:
        raise Tie(
            f"vertices {marked[0] + 1} and {marked[1] + 1} tie for the minimum distance sum"
        )
    return marked[0]


# -------------------------------------------------------- triangle circumcenter


def _heron_product(a: float, b: float, c: float) -> float:
    """16 * squared area from side lengths; positive iff a real triangle."""
    return (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)


def _guard_circumcenter(x: Union[Polygon, DistanceMatrix]) -> bool:
    """A triangle, read from a matrix or a polygon, of positive Heron product."""
    if x.n != 3:
        return False
    c, a, b = chords(x, 1) if isinstance(x, Polygon) else (x.d[0][1], x.d[1][2], x.d[2][0])
    return _heron_product(a, b, c) > 0.0


def triangle_circumcenter(p: Polygon) -> Point2:
    """Intersection of the perpendicular bisectors of a triangle.

    Weights are squared side lengths times (sum of the other two squared
    sides minus itself). Raises Collinear when the vertices are collinear.
    """
    if p.n != 3:
        raise DomainViolation("circumcenter is defined for triangles only")
    c, a, b = chords(p, 1)
    if _heron_product(a, b, c) <= 0.0:
        raise Collinear("triangle vertices are collinear")
    wa = a * a * (b * b + c * c - a * a)
    wb = b * b * (c * c + a * a - b * b)
    wc = c * c * (a * a + b * b - c * c)
    total = wa + wb + wc
    x = (wa * p.vertices[0].x + wb * p.vertices[1].x + wc * p.vertices[2].x) / total
    y = (wa * p.vertices[0].y + wb * p.vertices[1].y + wc * p.vertices[2].y) / total
    return Point2(x, y)


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class CatalogEntry:
    """A center function, and whether its axiom checks sample convex
    polygons; the name and the kind are read off the function."""

    function: Union[VertexCenterFunction, LengthCenterFunction]
    convex_only: bool

    @property
    def name(self) -> str:
        return self.function.name

    @property
    def kind(self) -> str:
        """What the function reads: "vertex" (a polygon) or "length" (distances)."""
        return "vertex" if isinstance(self.function, VertexCenterFunction) else "length"


CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry(
            VertexCenterFunction("centroid", _entry_zero(_ones), all_shifts=_ones), False
        ),
        CatalogEntry(
            replace(center_function(parse(ADJACENT_SIDES)), name="perimeter",
                    domain_guard=_convex, domain_note="convex polygons"),
            True,
        ),
        CatalogEntry(
            VertexCenterFunction(
                "lamina", _entry_zero(_lamina_all_shifts), is_convex, "convex polygons",
                all_shifts=_lamina_all_shifts,
            ),
            True,
        ),
        CatalogEntry(
            VertexCenterFunction(
                "medoid", _entry_zero(_medoid_indicators), is_nondegenerate,
                "distinct vertices",
                all_shifts=_medoid_indicators,
            ),
            False,
        ),
        CatalogEntry(
            replace(center_function(parse(X3_CIRCUMCENTER)), name="circumcenter",
                    domain_guard=_guard_circumcenter, domain_note="non-collinear triangles"),
            False,
        ),
    )
}
