"""Built-in center functions and their direct evaluators.

Stable names: ``centroid``, ``perimeter``, ``lamina``, ``medoid``,
``circumcenter``. Each entry pairs a center function (vertex- or
length-based) with a domain guard; the direct evaluators compute the same
points without going through coordinate maps and serve as cross-checks.

The first four entries also carry an all-shifts evaluator, which returns a
whole coordinate map from work the n shifts share: one distance matrix for
`medoid`, one vertex mean and wedge total for `lamina`, the side list for
`perimeter`. The sums they share are taken with `math.fsum`, which is
correctly rounded and so independent of the vertex a shift starts from;
that is what makes each all-shifts evaluator equal its per-shift
definition bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import Collinear, DomainViolation, NonFinite, Tie, ZeroArea
from .framework import (
    LengthCenterFunction,
    VertexCenterFunction,
    geometric_center,
)
from .geometry import (
    DistanceMatrix,
    Point2,
    Polygon,
    distance_matrix,
    is_convex,
    is_nondegenerate,
    vertex_coordinates,
)
from .reconstruction import convex_distances

# Distance sums within this fraction of the diameter of the minimum count
# as tied when picking the medoid vertex.
TIE_REL = 1e-10
# The medoid indicator is 1.0 when vertex 1's distance sum is within this
# fraction of the smallest sum, or within this amount if that is below 1.
MEDOID_REL = 1e-12
# Total wedge sums below this magnitude mean the outline bounds no area.
AREA_EPS = 1e-12


def _wedge(a: Point2, b: Point2) -> float:
    return a.x * b.y - a.y * b.x


def _total(terms: Iterable[float]) -> float:
    """`math.fsum` of nonnegative terms: correctly rounded, so the same in
    any order, and inf where it overflows (fsum raises OverflowError)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


# ----------------------------------------------------------- vertex centroid


def _f_const_one(p: Polygon) -> float:
    return 1.0


def _ones(p: Polygon) -> tuple[float, ...]:
    return (1.0,) * p.n


def centroid_vertices(p: Polygon) -> Point2:
    """Arithmetic mean of the vertices."""
    return p.vertex_mean()


# -------------------------------------------------------- perimeter centroid


def _g_adjacent_edge_sum(D: DistanceMatrix) -> float:
    # lengths of the two sides meeting at vertex 1
    return D.d[D.n - 1][0] + D.d[0][1]


def _adjacent_edge_sums(D: DistanceMatrix) -> list[float]:
    """_g_adjacent_edge_sum on every rotation, read off the sides."""
    d, n = D.d, D.n
    return [d[k - 1][k] + d[k][(k + 1) % n] for k in range(n)]


def perimeter_centroid(p: Polygon) -> Point2:
    """Center of mass of the boundary of a convex polygon.

    Each vertex carries half the length of its two incident sides.
    """
    if not is_convex(p):
        raise DomainViolation("perimeter centroid is defined on convex polygons")
    n = p.n
    per = p.perimeter()
    x = y = 0.0
    for i in range(n):
        w = (p.vertex(i - 1).distance_to(p.vertices[i])
             + p.vertices[i].distance_to(p.vertex(i + 1))) / (2.0 * per)
        x += w * p.vertices[i].x
        y += w * p.vertices[i].y
    return Point2(x, y)


# ----------------------------------------------------------- lamina centroid


def _lamina_fan(p: Polygon) -> tuple[list[float], float]:
    """The fan wedges |(B-Vj)^(B-Vj+1)|, j = 1..n, about the vertex mean B,
    and 1/n of their total.

    B and the total are `math.fsum` sums, so the wedges of p.shifted(k) are
    these rotated by k, bit for bit, and the share is the same. The extent
    is checked first, so no difference from B overflows; NonFinite when it,
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
    return wedges, _total(wedges) / n


def _f_lamina(p: Polygon) -> float:
    """Unsigned wedge sum anchored at the vertex mean.

    With B the vertex mean: |(B-V1)^(B-V2)| + |(B-Vn)^(B-V1)| plus 1/n of
    the full fan total. Summed over cyclic shifts this triples the fan
    total, so the induced weights recover the area centroid on convex
    polygons.
    """
    wedges, share = _lamina_fan(p)
    return wedges[0] + wedges[-1] + share


def _lamina_all_shifts(p: Polygon) -> list[float]:
    """_f_lamina on every shift from one fan: O(n)."""
    wedges, share = _lamina_fan(p)
    return [wedges[k] + wedges[k - 1] + share for k in range(len(wedges))]


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
    if abs(total) <= AREA_EPS * max(1.0, max(abs(w) for w in u) if u else 1.0):
        raise ZeroArea("outline bounds no area; centroid undefined")
    x = y = 0.0
    for i in range(n):
        w = (u[i - 1] + u[i]) / (3.0 * total)
        x += w * p.vertices[i].x
        y += w * p.vertices[i].y
    return Point2(x, y)


def lamina_centroid(p: Polygon) -> Point2:
    """Area centroid of a convex polygon via the catalog center function,
    whose `lamina` guard raises DomainViolation on other polygons."""
    return geometric_center(CATALOG["lamina"].function, p)


# -------------------------------------------------------------------- medoid


def _distance_sums(p: Polygon) -> list[float]:
    """Sum of distances from each vertex to all vertices.

    Rows of the distance matrix are summed with `_total`, so each sum
    matches summing v.distance_to(w) over w in any order, bit for bit.
    """
    return [_total(row) for row in distance_matrix(p).d]


def _distance_sum(xs: list[float], ys: list[float], i: int) -> float:
    """Row i of the distance matrix summed like `_distance_sums`, bit for
    bit: it measures hypot(xi - x, yi - y) where the matrix may hold
    hypot(x - xi, y - yi), and the two are equal."""
    xi, yi = xs[i], ys[i]
    return _total(math.hypot(xi - x, yi - y) for x, y in zip(xs, ys))


def _medoid_bound(s: float) -> float:
    """Largest distance sum still counted as tied with a sum s; monotone in s."""
    return s + MEDOID_REL * max(1.0, s)


def _f_first_vertex_is_medoid(p: Polygon) -> float:
    """1.0 when vertex 1 minimizes the sum of distances to all vertices.

    Vertex 1 is first compared with one vertex j, the one nearest the
    vertex mean, in O(n): a sum above _medoid_bound(sum of j) is above
    _medoid_bound of the smallest sum too, so the answer is 0.0. Only
    otherwise are all n sums measured. The extent is checked before either,
    so an overflowing polygon raises NonFinite whichever path it would take.
    """
    xs, ys = vertex_coordinates(p)
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    offsets = [math.hypot(x - mx, y - my) for x, y in zip(xs, ys)]
    j = offsets.index(min(offsets))
    if _distance_sum(xs, ys, 0) > _medoid_bound(_distance_sum(xs, ys, j)):
        return 0.0
    sums = _distance_sums(p)
    return 1.0 if sums[0] <= _medoid_bound(min(sums)) else 0.0


def _medoid_indicators(p: Polygon) -> list[float]:
    """_f_first_vertex_is_medoid on every shift from one matrix: O(n^2)."""
    sums = _distance_sums(p)
    bound = _medoid_bound(min(sums))
    return [1.0 if s <= bound else 0.0 for s in sums]


def medoid(p: Polygon) -> int:
    """0-based index of the vertex minimizing the distance sum.

    Raises Tie when a second vertex comes within TIE_REL of the minimum,
    measured against the polygon diameter.
    """
    if not is_nondegenerate(p):
        raise DomainViolation("medoid needs pairwise distinct vertices")
    D = distance_matrix(p)
    sums = [sum(row) for row in D.d]
    order = sorted(range(p.n), key=lambda i: sums[i])
    threshold = TIE_REL * D.max_entry()
    if sums[order[1]] - sums[order[0]] <= threshold:
        raise Tie(
            f"vertices {order[0] + 1} and {order[1] + 1} tie for the minimum distance sum"
        )
    return order[0]


# -------------------------------------------------------- triangle circumcenter


def _heron_product(a: float, b: float, c: float) -> float:
    """16 * squared area from side lengths; positive iff a real triangle."""
    return (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)


def _g_circumcenter(D: DistanceMatrix) -> float:
    # weight of vertex 1: a^2 (b^2 + c^2 - a^2) with a the opposite side
    a = D.d[1][2]
    b = D.d[2][0]
    c = D.d[0][1]
    return a * a * (b * b + c * c - a * a)


def _guard_circumcenter(D: DistanceMatrix) -> bool:
    if D.n != 3:
        return False
    return _heron_product(D.d[1][2], D.d[2][0], D.d[0][1]) > 0.0


def triangle_circumcenter(p: Polygon) -> Point2:
    """Intersection of the perpendicular bisectors of a triangle.

    Weights are squared side lengths times (sum of the other two squared
    sides minus itself). Raises Collinear when the vertices are collinear.
    """
    if p.n != 3:
        raise DomainViolation("circumcenter is defined for triangles only")
    a = p.vertices[1].distance_to(p.vertices[2])
    b = p.vertices[2].distance_to(p.vertices[0])
    c = p.vertices[0].distance_to(p.vertices[1])
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
    name: str
    kind: str  # "vertex" | "length"
    function: Union[VertexCenterFunction, LengthCenterFunction]
    convex_only: bool
    description: str


CATALOG: dict[str, CatalogEntry] = {
    "centroid": CatalogEntry(
        "centroid",
        "vertex",
        VertexCenterFunction("centroid", _f_const_one, all_shifts=_ones),
        False,
        "vertex mean (constant function)",
    ),
    "perimeter": CatalogEntry(
        "perimeter",
        "length",
        LengthCenterFunction(
            "perimeter",
            _g_adjacent_edge_sum,
            convex_distances,
            "convex polygons",
            all_shifts=_adjacent_edge_sums,
        ),
        True,
        "boundary mass center (adjacent side sum)",
    ),
    "lamina": CatalogEntry(
        "lamina",
        "vertex",
        VertexCenterFunction(
            "lamina", _f_lamina, is_convex, "convex polygons",
            all_shifts=_lamina_all_shifts,
        ),
        True,
        "area centroid (wedge sums about the vertex mean)",
    ),
    "medoid": CatalogEntry(
        "medoid",
        "vertex",
        VertexCenterFunction(
            "medoid", _f_first_vertex_is_medoid, is_nondegenerate, "distinct vertices",
            all_shifts=_medoid_indicators,
        ),
        False,
        "vertex minimizing the distance sum (indicator)",
    ),
    "circumcenter": CatalogEntry(
        "circumcenter",
        "length",
        LengthCenterFunction(
            "circumcenter",
            _g_circumcenter,
            _guard_circumcenter,
            "non-collinear triangles",
        ),
        False,
        "triangle circumcenter (squared-side weights)",
    ),
}
