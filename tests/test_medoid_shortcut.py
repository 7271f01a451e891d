"""The medoid indicator against its full definition.

The catalog defines `medoid` once, by its whole map: one distance matrix,
n `math.fsum` row sums, and a 1 for every sum within MEDOID_REL of the
smallest. The definition is kept here as the reference, measuring all n
sums for the shift it is asked about; entry k of the map and the per-shift
evaluator on shift k must give its value or its error on every shift.
(The module keeps the name it had when the indicator still ruled shifts
out from two sums.)
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycenter import catalog
from polycenter.catalog import CATALOG, _distance_sums, _medoid_bound, _medoid_indicators
from polycenter.errors import NonFinite
from polycenter.framework import coordinate_map_vertex
from polycenter.geometry import Polygon
from polycenter.sampling import random_convex_polygon

MEDOID = CATALOG["medoid"].function


def reference_indicator(p):
    sums = _distance_sums(p)
    smin = min(sums)
    return 1.0 if sums[0] <= smin + 1e-12 * smin else 0.0


def outcome(f, p):
    try:
        return f(p)
    except NonFinite as exc:
        return (type(exc), str(exc))


def assert_every_shift_agrees(p):
    whole = outcome(_medoid_indicators, p)
    for k in range(p.n):
        q = p.shifted(k)
        expected = outcome(reference_indicator, q)
        assert outcome(MEDOID.evaluator, q) == expected, k
        assert (whole if isinstance(whole, tuple) else whole[k]) == expected, k


SCALES = st.sampled_from([1e-3, 0.1, 1.0, 3.0, 1e3, 1e6])
# relative nudges around the indicator's own tolerance, 1e-12
NUDGES = st.sampled_from([0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-12, -1e-12, 1e-11, -1e-11])


@st.composite
def repeated_coordinates(draw):
    """3 to 32 vertices whose coordinates come from a pool of a few values,
    so coordinates, and often whole vertices, repeat."""
    pool = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
    n = draw(st.integers(3, 32))
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), min_size=n, max_size=n)
    )
    return Polygon.from_pairs(pairs)


@st.composite
def convex(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    s = draw(SCALES)
    p = random_convex_polygon(rng, draw(st.integers(3, 32)))
    return Polygon.from_pairs([(s * v.x, s * v.y) for v in p.vertices])


@st.composite
def regular(draw):
    """Regular n-gons, whose distance sums tie up to rounding, with one
    vertex moved off the circle by a relative nudge."""
    n = draw(st.integers(3, 32))
    s = draw(SCALES)
    moved = draw(st.integers(0, n - 1))
    nudge = draw(NUDGES)
    pairs = []
    for k in range(n):
        r = s * (1.0 + nudge) if k == moved else s
        pairs.append((r * math.cos(2 * math.pi * k / n), r * math.sin(2 * math.pi * k / n)))
    return Polygon.from_pairs(pairs)


@st.composite
def exact_ties(draw):
    """Shapes whose distance sums are equal by symmetry, with exactly
    representable coordinates."""
    s = draw(SCALES)
    shape = draw(st.sampled_from([
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)],
        [(0, 0), (2, 0), (3, 1), (3, 3), (2, 4), (0, 4), (-1, 3), (-1, 1)],
    ]))
    return Polygon.from_pairs([(s * x, s * y) for x, y in shape])


def mirrored(polygons):
    """Each polygon as drawn, or reflected in the y axis."""
    return st.tuples(polygons, st.booleans()).map(
        lambda pm: Polygon.from_pairs([(-v.x, v.y) for v in pm[0].vertices]) if pm[1] else pm[0]
    )


@settings(max_examples=150, deadline=None)
@given(mirrored(repeated_coordinates()))
def test_repeated_coordinates(p):
    assert_every_shift_agrees(p)


@settings(max_examples=100, deadline=None)
@given(mirrored(convex()))
def test_convex_polygons(p):
    assert_every_shift_agrees(p)


@settings(max_examples=150, deadline=None)
@given(mirrored(regular()))
def test_regular_polygons_and_near_ties(p):
    assert_every_shift_agrees(p)


@settings(max_examples=50, deadline=None)
@given(mirrored(exact_ties()))
def test_exact_ties(p):
    assert_every_shift_agrees(p)


def test_the_tolerance_boundary_itself():
    # Vertex 1 at (1.5, t) sits next to the central vertex 5, whose sum is
    # the smallest. Bisect t to where vertex 1's sum crosses _medoid_bound
    # of vertex 5's, then step t by single ulps across it.
    def place(t):
        return Polygon.from_pairs([(1.5, t), (3.0, 0.0), (1.5, 2.0), (1.5, -2.0), (1.5, 0.0)])

    def excess(t):
        sums = _distance_sums(place(t))
        assert min(sums) == sums[4]
        return sums[0] - _medoid_bound(sums[4])

    lo, hi = 0.0, 0.5
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if excess(mid) > 0.0 else (mid, hi)
    ts = [lo + k * math.ulp(lo) for k in range(-40, 41)]
    assert any(excess(t) == 0.0 for t in ts)
    for t in ts:
        assert_every_shift_agrees(place(t))


@pytest.mark.parametrize("scale", [1e200, 1e308])
@pytest.mark.parametrize("pairs", [
    [(-1, -1), (1, -1), (0, 1)],
    [(-1, 0), (-0.9, 0.1), (-0.95, -0.1), (1, 0), (0, 1)],
])
def test_extreme_scales_give_the_same_value_or_error(scale, pairs):
    p = Polygon.from_pairs([(scale * x, scale * y) for x, y in pairs])
    assert_every_shift_agrees(p)
    if scale == 1e308:
        with pytest.raises(NonFinite, match="polygon extent must be finite"):
            MEDOID.evaluator(p)


def test_convex_128_gon_builds_few_matrices(monkeypatch):
    calls = []
    measure = catalog.distance_matrix

    def counted(p):
        calls.append(p)
        return measure(p)

    monkeypatch.setattr(catalog, "distance_matrix", counted)
    p = random_convex_polygon(random.Random(0), 128)
    coords = coordinate_map_vertex(MEDOID, p)
    assert sum(coords.values) >= 1.0
    # measuring every shift's sums would build one matrix per shift, 128
    assert len(calls) == 1
    MEDOID.evaluator(p)
    assert len(calls) == 2
