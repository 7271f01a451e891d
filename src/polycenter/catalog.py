"""Built-in center functions.

Stable names: ``centroid``, ``perimeter``, ``lamina``, ``medoid``,
``circumcenter``. Each entry pairs a center function (vertex- or
length-based) with a domain guard. `lamina_centroid_direct` computes the
`lamina` point from the vertex wedges, without a coordinate map.

The vertex entries are defined once, by their whole coordinate map,
computed from work the n shifts share: the distance sums for `medoid`
(which `medoid()` reads too), measured with no matrix and only for the
vertices a lower bound does not rule out (O(n sqrt(n)) plus n per measured
vertex; O(n^2) where the sums tie, as on a regular polygon), each summed
once, exactly, unless its plain sum already rules it out; and one vertex
mean and wedge total for `lamina`. Their per-shift evaluator is entry 0
of the map. The sums a map shares are taken with `math.fsum`, which is
correctly rounded and so independent of the vertex a shift starts from;
that is what makes entry 0 of a shifted input's map equal the matching
entry of the input's own, bit for bit.

The vertex entries declare their facts for the axiom trials
(`framework._facts`): each is reversal-symmetric, `centroid` and `medoid`
have degree 0 and `lamina` degree 2, and each bounds its rounded
intermediates from the coordinates (`_centroid_bounds`, `_lamina_bounds`,
`_medoid_bounds`, each with the proof that the reversal and the 2^s
copies give the bits the trials take). Their guards, `is_convex` and
`is_nondegenerate`, decide on the exact coordinates. The proofs use two
facts of IEEE round-to-nearest:
  (G) a float of magnitude at least 2^k is a whole multiple of 2^(k-52),
      and the rounding of a whole multiple of 2^g is one: the floats near
      it are spaced by a power of two, at most 2^g, so that it is one of
      them, or more, so that they are multiples of 2^g too;
  (S) the rounding of an exact zero is zero, and one whose result is, at
      scale 1 and at scale 2^s, in [2^-1021, 2^1023] in magnitude rounds
      the 2^s-fold value to the 2^s-fold result (Goldberg 1991): so an
      evaluation whose roundings all do so, on exactly scaled inputs,
      gives exactly scaled values. By (G), where every coordinate is a
      multiple of 2^q, a bound below every nonzero intermediate follows
      from q, so a rounded zero there is an exact one.
The coordinate maps themselves do not use the degrees.

The length entries are guarded expressions (`dsl`), whose guards read a
matrix or the polygon it is measured from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterable, Sequence, Union

from .dsl import center_function, parse
from .errors import DomainViolation, NonFinite, Tie, ZeroArea
from .framework import LengthCenterFunction, VertexCenterFunction, entry_zero
from .geometry import (
    DistanceMatrix,
    Point2,
    Polygon,
    _box_diagonal,
    chords,
    is_convex,
    is_nondegenerate,
    largest_coordinate,
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
# and rules rows out by their plain sums, from this many vertices on. On
# the benchmark's ellipses the map took 0.75-1.14x its time without them at
# 16 vertices, 0.73-0.99x at 20, 0.60-0.78x at 24 and 0.53-0.77x at 28
# (timeit, six ellipses each, 2-vCPU VM, Python 3.11): they break even near
# 16, below this floor, which stays until benchmark pairs on maps of 16 to
# 28 vertices retune it.
_MEDOID_PRUNE_FROM = 28


def _total(terms: Iterable[float]) -> float:
    """`math.fsum` of nonnegative terms: correctly rounded, so the same in
    any order, and inf where it overflows (fsum raises OverflowError)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _grain(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, int]:
    """(M, q) of the coordinates: M the largest magnitude, and q the
    exponent of the unit in the last place of the smallest nonzero one, so
    that every coordinate is an integer multiple of 2^q."""
    top = largest_coordinate(xs, ys)
    return top, math.frexp(min(map(abs, filter(None, xs + ys)), default=top))[1] - 53


# ----------------------------------------------------------- vertex centroid


def _ones(p: Polygon) -> tuple[float, ...]:
    return (1.0,) * p.n


def _centroid_bounds(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """(lo, hi) of `centroid` (degree 0): its value is 1.0 on every polygon
    and rounds nothing, so the reversal and every rescaling give 1.0."""
    return 1.0, 1.0


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


def _lamina_bounds(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """(lo, hi) of `lamina` (degree 2, its intermediates of degrees 1 and 2)
    on the polygon of coordinates xs and ys.

    The bits. With every coordinate a multiple of 2^q and M the largest
    magnitude (`_grain`), and 2^L > n: the sum behind the mean B is a
    multiple of 2^q, so it is 0 or at least 2^q, B is 0 or at least 2^(q-L)
    and so a multiple of 2^g, g = q - L - 52 (G), as is each difference
    from B. Each product of two is a multiple of 2^2g, and so are the
    wedges, their total and entry 0's two wedges; the share, total / n, is
    0 or at least 2^(2g-L), a multiple of 2^h, h = 2g - L - 52, as is entry
    0. So a nonzero intermediate is at least lo = 2^min(g, h). With u =
    2^-53, the differences are at most 2M(1 + u)^3, the sums behind B and
    fsum's running sums at most 2nM, the products 4.1M^2, the wedges 8.3M^2,
    the wedge total's running sums 17nM^2 and entry 0 25.1M^2: all are at
    most hi = nM(4 + 32M). Where the trial's range check passes, then, each
    rounding stays normal at every scale (S): a 2^s copy's coordinates are
    exact, each intermediate of degree j is 2^js times the sample's, so
    entry 0 is 2^2s times, its extent and fsum do not overflow, and
    `is_convex` answers as on the sample. On the reversal the extent, the
    two fsums and so B and the share are the same (correctly rounded sums
    of the same terms, with no overflow), the wedge of (b, a) is that of
    (a, b) negated before `abs`, and entry 0 adds the same two wedges, which
    + commutes: the same bits.
    """
    top, q = _grain(xs, ys)
    bits = len(xs).bit_length()  # L
    g = q - bits - 52
    h = 2 * g - bits - 52
    return math.ldexp(1.0, max(min(g, h), -1074)), len(xs) * top * (4.0 + 32.0 * top)


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
    order until the bound rules out every row left; the marks are read from
    the sums measured. Once a best sum is known, a row is first summed with
    the built-in `sum`, and only a row that this plain sum does not rule out
    (the cut) is summed with `_total`, so no row takes more than one of
    each. `math.dist` and `math.hypot` share one norm, and hypot ignores
    sign, so these are the matrix's bits and the marks are those of its
    rows.

    The bound. Split the vertices into runs B_b of m = isqrt(n) (the last one
    shorter, of r vertices, or none), of sizes m_b and exact centroids c*_b.
    By the triangle inequality sum_j |v_j - v_i| >= sum_b |sum_(j in B_b)
    (v_j - v_i)| = L*_i, with L*_i = sum_b m_b |c*_b - v_i|: about sqrt(n)
    distances a row, taken a column (one centroid) at a time. The computed
    bound is L_i = fl(fl(m fl(S)) + fl(r d)), S the built-in `sum` of the
    full runs' distances, in run order, and d the last run's. With u =
    2^-53, M the largest coordinate magnitude, D = fl(n fl(2^-51 M)), K = 1
    + 4(n + 2)u, m_0 the smallest sum so far and the threshold T =
    fl(fl(B(m_0) + D)K), B = `_medoid_bound`, the visit stops at the first
    row whose L_i is above T. No row is measured after it, so m_0 and
    B(m_0) stay, and later rows have larger bounds, so by the margin none of
    them can be marked.

    The margin. With e = 2^-1074, a rounding is within a factor 1 +- u of
    its exact value, or within e/2 of it below the normal range: fl(x) >=
    (1 - u)x - e/2. The centroid c_b = fl(fsum / m_b) rounds twice a
    coordinate, an error d_b <= 3uM + e that scales with the coordinates,
    not with the extent. `math.dist` is within a factor P = (1 + u)(1 + 2u)
    of the exact distance, plus e (as in `geometry._largest_distance`). A
    sum of k terms by the built-in `sum` of any version is within 1 + g_k,
    g_k = ku / (1 - ku), of the exact one (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, 4.2; the compensated `sum` of Python
    3.12 on is within 2u + O(ku^2)), and fl(S) has fewer than n - 1 terms;
    the product by m, that by r and the last addition are each within 1 + u
    above the normal range and exact below it (an integer times a multiple
    of e, and a sum of two). So L_i <= F(L*_i + E), F = (1 + g)(1 + u)^2 P,
    g = g_(n-1), E = sum_b m_b(d_b + e) <= n(3uM + 2e). A row's `_total`
    rounds its n distances' exact sum once, so s_i >= (1 - u)(L*_i/P - ne)
    - e/2, and a marked row, s_i <= B(m_0), has L_i <= G(B(m_0) + E + (n +
    1)e), G = FP/(1 - u). From M >= 2^-1000 on, e is below 2^-21 uM, so D
    >= 3.9nuM covers E + (n + 1)e and the 2e of T's two roundings, and
    (1 - u)^2 K >= G, 1 + (4n + 6)u against 1 + (n + 8)u to first order,
    for any n far below 1/u: T >= G(B(m_0) + E + (n + 1)e), and a row with
    L_i > T is not marked.

    The cut. Once a best m_0 is known, a row whose plain sum R_i is above
    C = fl(B(m_0)(1 + 2(n + 1)u)) is skipped. Let S_i be the exact sum of
    its n distances, and s_i = fl(S_i) its `_total`. The built-in `sum`
    rounds each addition within 1 + u, and none below the normal range,
    where additions are exact, so R_i <= (1 + h)S_i with h = g_(n-1)
    (recursive, Python 3.11 and earlier) or 2u + O(nu^2) (compensated, 3.12
    on): any summation with h <= 2(n - 1)u will do. If S_i is below
    2^-1022, every partial sum is exact, R_i = S_i and s_i = S_i > C >=
    B(m_0); if B(m_0) is and S_i is not, s_i >= 2^-1022 > B(m_0); else C >=
    (1 - u)(1 + 2(n + 1)u)B(m_0), and S_i >= R_i/(1 + h) > (1 + 2u)B(m_0)
    for n far below 1/u, which is at least B(m_0) plus its unit in the last
    place, so s_i > B(m_0). Either way the row is neither marked nor a new
    best, so its fsum would not move m_0: the rows visited and the marks
    are those without the cut. Plain sums stop at the first fsum that ties
    the best (the larger of the two within B of the smaller), as on a
    regular polygon, where every sum ties and none would be ruled out.

    The bound and the cut are taken from `_MEDOID_PRUNE_FROM` vertices on,
    for 2^-1000 <= M <= 2^1000/n; there every centroid sum, bound and row
    sum stays below 2^1002. Below that size, on subnormal input, and where
    the centroid sums or the bounds could overflow, every row is visited,
    in index order, and summed by its fsum alone.
    """
    xs, ys = p.xs, p.ys
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    _box_diagonal(hi_x - lo_x, hi_y - lo_y)  # the extent check of `vertex_coordinates`
    pts = list(zip(xs, ys))
    n = len(pts)
    visits, slack, grow, tight = zip(repeat(0.0), range(n)), 0.0, 1.0, math.inf
    top = max(hi_x, -lo_x, hi_y, -lo_y) if n >= _MEDOID_PRUNE_FROM else 0.0
    if 2.0**-1000 <= top <= 2.0**1000 / n:
        m = math.isqrt(n)

        def centroid(j: int) -> tuple[float, float]:  # of the run from index j
            run_x, run_y = xs[j:j + m], ys[j:j + m]
            return math.fsum(run_x) / len(run_x), math.fsum(run_y) / len(run_y)

        columns = [map(math.dist, repeat(centroid(j)), pts) for j in range(0, n, m)]
        r = float(n % m)
        last = columns.pop() if r else repeat(0.0)
        lower = [m * s + r * d for s, d in zip(map(sum, zip(*columns)), last)]
        order = sorted(range(n), key=lower.__getitem__)
        visits, slack = zip(map(lower.__getitem__, order), order), n * (top * 2.0**-51)
        grow, tight = 1.0 + (n + 2) * 2.0**-51, 1.0 + (n + 1) * 2.0**-52
    sums = {}
    best = bound = stop = cut = math.inf
    for b, i in visits:
        if stop < b:
            break
        # cut < stop where a best is known, the cut is taken and no fsum has
        # tied; cut is inf (or nan, from a best of 0 without the cut) elsewhere
        if cut < stop and cut < sum(map(math.dist, repeat(pts[i]), pts)):
            continue
        s = _total(map(math.dist, repeat(pts[i]), pts))
        if s <= bound:  # a row above it stays above every later bound
            sums[i] = s
            if s < best:
                s, best, bound = best, s, _medoid_bound(s)
                stop = (bound + slack) * grow
                cut = bound * tight
            if s <= bound:  # s, the larger of it and the best, ties
                cut = tight = math.inf
    marks = [0.0] * n
    for i, s in sums.items():
        if s <= bound:
            marks[i] = 1.0
    return marks


def _medoid_bounds(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """(lo, hi) of `medoid` (degree 0, its intermediates of degree 1) on the
    polygon of coordinates xs and ys.

    The bits. The marks are those of the rows' `_total`s, with or without
    the lower bounds and the plain-sum cut (`_medoid_indicators`), whose
    path may differ from one scale to another but neither rounds into the
    marks nor raises. With every
    coordinate a multiple of 2^q and M the largest magnitude (`_grain`), a
    coordinate difference is 0 or at least 2^q, a distance between distinct
    vertices (`is_nondegenerate`) at least 2^(q-1), a row's sum at least
    its distances and MEDOID_REL (above 2^-40) times a sum at least
    2^(q-41) = lo. The distances are at most 3M, and the sums, the running
    sums of fsum and of the plain sums, the tie bound and every value of
    the lower bounds at most hi = 8nM. Where the trial's range check passes, then, at every scale
    (S) each difference and sum rounds normally, and `math.dist`, which
    scales its arguments by a power of two of the largest and scales its
    result back, gives 2^s times the sample's distance; each sum and the
    tie bound are 2^s times the sample's, so every comparison and every
    mark is the same, and `is_nondegenerate` answers as on the sample. On
    the reversal each row holds the same distances (`math.dist` ignores
    sign), so its sum, the least sum, the tie bound and vertex 1's mark
    are the same.
    """
    top, q = _grain(xs, ys)
    return math.ldexp(1.0, max(q - 41, -1074)), 8.0 * len(xs) * top


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
            VertexCenterFunction("centroid", entry_zero(_ones), all_shifts=_ones,
                                 static_facts=lambda n: (True, (0, 0, 0), _centroid_bounds)),
            False,
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
                static_facts=lambda n: (True, (2, 1, 2), _lamina_bounds),
            ),
            True,
        ),
        CatalogEntry(
            VertexCenterFunction(
                "medoid", entry_zero(_medoid_indicators), is_nondegenerate,
                "distinct vertices",
                all_shifts=_medoid_indicators,
                static_facts=lambda n: (True, (0, 1, 1), _medoid_bounds),
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
