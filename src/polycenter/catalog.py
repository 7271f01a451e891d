"""Built-in center functions.

Stable names: ``centroid``, ``perimeter``, ``lamina``, ``medoid``,
``circumcenter``. Each entry pairs a center function (vertex- or
length-based) with a domain guard. `lamina_centroid_direct` computes the
`lamina` point from the vertex wedges, without a coordinate map.

The vertex entries are defined once, by their whole coordinate map,
computed from work the n shifts share: the distance sums for `medoid`
(which `medoid()` reads too), measured with no matrix and only for the
vertices a lower bound does not rule out (O(n sqrt(n)) plus n per measured
vertex; O(n^2) where the sums tie, as on a regular polygon), and summed
exactly only where a rounding bound cannot decide the mark; and one vertex
mean and wedge total for `lamina`. Their per-shift evaluator is entry 0 of the
map. The sums a map shares are taken with `math.fsum`, which is correctly
rounded and so independent of the vertex a shift starts from; that is
what makes entry 0 of a shifted input's map equal the matching entry of
the input's own, bit for bit.

The length entries are guarded expressions (`dsl`), whose guards read a
matrix or the polygon it is measured from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from operator import mul
from typing import Iterable, Sequence, Union

from .dsl import center_function, parse
from .errors import DomainViolation, NonFinite, Tie, ZeroArea
from .framework import LengthCenterFunction, VertexCenterFunction, entry_zero
from .geometry import (
    DistanceMatrix,
    Point2,
    Polygon,
    chords,
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
# `_medoid_indicators` bounds the distance sums from below, to skip rows,
# from this many vertices on. On the benchmark's ellipses the bounds break
# even at 26 to 28 vertices (the map took 0.96-1.08x its time without them
# at 26, 0.86-0.98x at 28 and 1.2-1.3x at 16-20; timeit, 2-vCPU VM, Python
# 3.11); on fewer, they cost more than they save.
_MEDOID_PRUNE_FROM = 28


def _total(terms: Iterable[float]) -> float:
    """`math.fsum` of nonnegative terms: correctly rounded, so the same in
    any order, and inf where it overflows (fsum raises OverflowError)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


# ----------------------------------------------------------- vertex centroid


def _ones(p: Polygon) -> tuple[float, ...]:
    return (1.0,) * p.n


# ----------------------------------------------------------------- perimeter


def _convex(x: Union[Polygon, DistanceMatrix]) -> bool:
    """The `perimeter` guard: `is_convex` on a polygon, O(n), and
    `convex_distances` on a matrix."""
    return is_convex(x) if isinstance(x, Polygon) else convex_distances(x)


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
    xs, ys = p.xs, p.ys
    u = [x0 * y1 - y0 * x1 for x0, y0, x1, y1 in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1])]
    total = sum(u)
    if abs(total) <= AREA_EPS * max(abs(w) for w in u):
        raise ZeroArea("outline bounds no area; centroid undefined")
    x = y = 0.0
    for i in range(p.n):
        w = (u[i - 1] + u[i]) / (3.0 * total)
        x += w * xs[i]
        y += w * ys[i]
    return Point2(x, y)


# -------------------------------------------------------------------- medoid


def _medoid_bound(s: float) -> float:
    """Largest distance sum still counted as tied with a sum s; monotone in s
    and relative: sums of pairwise-distinct vertices are positive."""
    return s + MEDOID_REL * s


def _medoid_indicators(p: Polygon) -> list[float]:
    """Entry k is 1.0 when vertex k + 1's distance sum, the `math.fsum` of its
    row of `distance_matrix(p)`, is within `_medoid_bound` of the smallest
    sum, from no matrix: O(n sqrt(n)) time plus n per row measured, O(n)
    memory.

    A lower bound on each sum orders the rows, and rows are measured in that
    order, by a plain running sum (the built-in `sum`) of the vertex's
    distances, until the bound rules out every row left. The running sums
    settle every measured row but those near the smallest; only rows whose
    running sum is at most the cut are measured again and summed with
    `_total`. `math.dist` and `math.hypot` share one norm, and hypot ignores
    sign, so these are the matrix's bits and the marks are those of the
    exact sums.

    The cut. With u = 2^-53, S_i the exact sum of row i, s_i = fl(S_i) its
    `_total`, r_i its running sum, m the smallest s_i and r the smallest r_i
    measured (at row a): summing n nonnegative terms in any order of n - 1
    additions leaves |r_i - S_i| <= g S_i, g = (n - 1)u / (1 - (n - 1)u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 4.2);
    fsum rounds once, |s_i - S_i| <= u S_i. So m <= s_a <= (1 + u)/(1 - g) r,
    and `_medoid_bound`, monotone and relative with two roundings, gives
    B(m) <= (1 + u)^3/((1 - g)(1 - u)) B(r). A marked row has s_i <= B(m),
    hence r_i <= (1 + g)/(1 - u) B(m) <= (1 + g)(1 + u)^3/((1 - g)(1 - u)^2) B(r),
    a factor 1 + (2n + 3)u + O(n^2 u^2). The cut B(r)K, K = 1 + 4(n + 2)u,
    whose factor is exact and whose product rounds once, is above it with
    room to spare: for the compensated `sum` of Python 3.12 on (within
    2u S_i + O(n u^2) S_i, below g S_i from n = 4), and for a product in B
    that underflows, which costs a u or two on a normal sum. Below the
    normal range every sum here is exact (each is a multiple of 2^-1074
    under 2^-1021), and monotonicity alone carries the argument. Overflow
    rounds up to inf, which the bounds allow for: when a marked row's
    running sum overflows, so does the cut, and every row is measured again.

    The bound. Cut the vertices into runs B_b of isqrt(n) (the last one
    shorter), of sizes m_b and exact centroids c*_b. By the triangle
    inequality S_i >= sum_b |sum_(j in B_b) (v_j - v_i)| = L*_i, with
    L*_i = sum_b m_b |c*_b - v_i|: about sqrt(n) distances a row. With M the
    largest coordinate magnitude, D = fl(n fl(2^-51 M)) and the threshold
    T = fl(fl(cut + D)K) for the cut so far, the visit stops at the first
    row whose computed bound L_i is above T. No row is measured after it, so
    the cut stays, and later rows have larger bounds, so by the margin none
    of them can be marked.

    The margin. With e = 2^-1074, a rounding is within a factor 1 +- u of
    its exact value, or within e/2 of it below the normal range. The
    centroid c_b = fl(fsum / m_b) rounds twice a coordinate, an error
    d_b <= 3uM + e that scales with the coordinates, not with the extent.
    `math.dist` is within (1 + u)(1 + 2u) of the exact distance, plus e (as
    in `geometry._largest_distance`); the product by m_b is exact below the
    normal range and within 1 + u above; their sum is within 1 + g, for
    either `sum`. So L_i <= F(L*_i + E), F = (1 + g)(1 + u)^2(1 + 2u),
    E = sum_b m_b(d_b + e) <= n(3uM + 2e). From M >= 2^-1000 on, 2e is below
    2^-20 uM, so D >= 3.9nuM covers E and the e/2 of T's last rounding, and
    (1 - u)^2 K >= F/(1 - g) for any n far below 1/u: T >= F(cut/(1 - g) + E).
    A row with L_i > T has (1 - g)(L_i/F - E) > cut, so its running sum
    would be r_i >= (1 - g)S_i >= (1 - g)L*_i > cut.

    The bound is taken from `_MEDOID_PRUNE_FROM` vertices on, for
    2^-1000 <= M <= 2^1000/n; there every centroid sum, bound and running
    sum stays below 2^1002. Below that size, on subnormal input, and where
    the centroid sums or the bounds could overflow, every row is visited,
    in index order.
    """
    xs, ys = vertex_coordinates(p)
    pts = list(zip(xs, ys))
    n = len(pts)
    grow = 1.0 + (n + 2) * 2.0**-51
    visits, slack = zip(repeat(0.0), range(n)), 0.0
    top = max(max(xs), -min(xs), max(ys), -min(ys)) if n >= _MEDOID_PRUNE_FROM else 0.0
    if 2.0**-1000 <= top <= 2.0**1000 / n:
        m = math.isqrt(n)
        ms = [float(len(xs[j:j + m])) for j in range(0, n, m)]
        cs = [(math.fsum(xs[j:j + m]) / w, math.fsum(ys[j:j + m]) / w)
              for j, w in zip(range(0, n, m), ms)]
        lower = [sum(map(mul, ms, map(math.dist, cs, repeat(v)))) for v in pts]
        order = sorted(range(n), key=lower.__getitem__)
        visits, slack = zip(map(lower.__getitem__, order), order), n * (top * 2.0**-51)
    running = []
    best = cut = stop = math.inf
    for b, i in visits:
        if stop < b:
            break
        r = sum(map(math.dist, repeat(pts[i]), pts))
        running.append((i, r))
        if r < best:
            best, cut = r, _medoid_bound(r) * grow
            stop = (cut + slack) * grow
    exact = {i: _total(map(math.dist, repeat(pts[i]), pts)) for i, r in running if r <= cut}
    bound = _medoid_bound(min(exact.values()))
    return [1.0 if i in exact and exact[i] <= bound else 0.0 for i in range(n)]


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


# -------------------------------------------------------------- circumcenter


def _heron_product(a: float, b: float, c: float) -> float:
    """16 * squared area from side lengths; positive iff a real triangle."""
    return (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)


def _guard_circumcenter(x: Union[Polygon, DistanceMatrix]) -> bool:
    """A triangle, read from a matrix or a polygon, of positive Heron product."""
    if x.n != 3:
        return False
    c, a, b = chords(x, 1) if isinstance(x, Polygon) else (x.d[0][1], x.d[1][2], x.d[2][0])
    return _heron_product(a, b, c) > 0.0


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
            VertexCenterFunction("centroid", entry_zero(_ones), all_shifts=_ones), False
        ),
        CatalogEntry(
            replace(center_function(parse(ADJACENT_SIDES)), name="perimeter",
                    domain_guard=_convex, domain_note="convex polygons"),
            True,
        ),
        CatalogEntry(
            VertexCenterFunction(
                "lamina", entry_zero(_lamina_all_shifts), is_convex, "convex polygons",
                all_shifts=_lamina_all_shifts,
            ),
            True,
        ),
        CatalogEntry(
            VertexCenterFunction(
                "medoid", entry_zero(_medoid_indicators), is_nondegenerate,
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
