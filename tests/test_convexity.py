"""`is_convex` decides convexity in one pass over the turns.

The same-side test it replaced, n(n-2) orientation tests per call, is kept
here as the reference. Both read the coordinates at `unit_factor` scale
and decide each turn with `geometry._orient`, so they must agree on
random, convex, star, nearly collinear and very flat polygons, each also
reversed and scaled by powers of two.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycenter import geometry
from polycenter.errors import NonFinite
from polycenter.geometry import Polygon, _orient, is_convex, unit_factor
from polycenter.sampling import random_convex_polygon


def same_side_is_convex(p):
    """For each edge, all other vertices strictly on one side. The polygon
    is read at `unit_factor` scale, as `is_convex` reads it (exact wherever
    the scaled coordinates stay normal), so no turn product underflows or
    overflows at the polygon's own scale."""
    n = p.n
    t = unit_factor(max(abs(c) for v in p.vertices for c in v.as_tuple()))
    pts = [(t * v.x, t * v.y) for v in p.vertices]
    for i in range(n):
        (ax, ay), (bx, by) = pts[i], pts[(i + 1) % n]
        side = 0
        for j in range(n):
            if j == i or j == (i + 1) % n:
                continue
            cx, cy = pts[j]
            o = _orient(bx - ax, by - ay, cx - ax, cy - ay)
            if o == 0:
                return False
            if side == 0:
                side = o
            elif o != side:
                return False
    return True


def outcome(f, p):
    try:
        return f(p)
    except NonFinite as exc:
        return (type(exc), str(exc))


def variant(pairs, reverse, k):
    t = 2.0**k
    pairs = list(reversed(pairs)) if reverse else pairs
    return Polygon.from_pairs([(t * x, t * y) for x, y in pairs])


def star(n, k):
    return [
        (math.cos(2 * math.pi * k * j / n), math.sin(2 * math.pi * k * j / n))
        for j in range(n)
    ]


def nudged(pairs, i, f):
    """Vertex i moved toward the midpoint of its neighbours, to a fraction
    f of its distance from it."""
    (ax, ay), (bx, by), (cx, cy) = pairs[i - 1], pairs[i], pairs[(i + 1) % len(pairs)]
    mx, my = (ax + cx) / 2, (ay + cy) / 2
    out = list(pairs)
    out[i] = (mx + f * (bx - mx), my + f * (by - my))
    return out


def ellipse(n, aspect, phase):
    return [
        (math.cos(2 * math.pi * j / n + phase), aspect * math.sin(2 * math.pi * j / n + phase))
        for j in range(n)
    ]


REVERSE = st.booleans()
EXPONENT = st.integers(-500, 500)
FACTORS = [1e-6, 1e-8, 1e-10, 1e-11, 3e-12, 1e-12, 3e-13, 1e-13, 1e-14, 1e-16, 0.0]
ASPECTS = [10.0**-e for e in range(15)] + [3e-13, 7e-14]


@st.composite
def random_pairs(draw):
    n = draw(st.integers(3, 12))
    coord = st.floats(-10.0, 10.0)
    return draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))


@st.composite
def convex_pairs(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = random_convex_polygon(rng, draw(st.integers(3, 24)))
    return [v.as_tuple() for v in p.vertices]


@st.composite
def nudged_pairs(draw):
    pairs = draw(convex_pairs())
    return nudged(pairs, draw(st.integers(0, len(pairs) - 1)), draw(st.sampled_from(FACTORS)))


@st.composite
def flat_ellipses(draw):
    n = draw(st.integers(3, 48))
    return ellipse(n, draw(st.sampled_from(ASPECTS)), draw(st.floats(0.0, 2 * math.pi)))


def assert_agrees(pairs, reverse, k):
    p = variant(pairs, reverse, k)
    assert outcome(is_convex, p) == outcome(same_side_is_convex, p)


@settings(max_examples=300, deadline=None)
@given(random_pairs(), REVERSE, EXPONENT)
# a right triangle whose turn products underflow at its own scale
@example([(0.0, 0.0), (0.0, 1.1229899982262316e-212), (1.632641740679245e-221, 0.0)], False, 0)
def test_random_polygons_agree(pairs, reverse, k):
    assert_agrees(pairs, reverse, k)


@settings(max_examples=150, deadline=None)
@given(convex_pairs(), REVERSE, EXPONENT)
def test_convex_polygons_agree(pairs, reverse, k):
    assert_agrees(pairs, reverse, k)
    assert is_convex(variant(pairs, reverse, k))


@settings(max_examples=200, deadline=None)
@given(nudged_pairs(), REVERSE, EXPONENT)
def test_a_vertex_nudged_toward_collinear_agrees(pairs, reverse, k):
    assert_agrees(pairs, reverse, k)


@settings(max_examples=100, deadline=None)
@given(flat_ellipses(), REVERSE, EXPONENT)
def test_flat_ellipses_agree(pairs, reverse, k):
    assert_agrees(pairs, reverse, k)


@pytest.mark.parametrize("n", range(3, 41))
def test_stars_agree(n):
    # {n/k} for every k: coprime k draws a star (convex only for k = 1 or
    # n - 1), the others repeat vertices
    for k in range(1, n):
        for reverse in (False, True):
            for e in (-500, 0, 137):
                assert_agrees(star(n, k), reverse, e)
    assert is_convex(Polygon.from_pairs(star(n, 1)))
    if n >= 5:
        assert not is_convex(Polygon.from_pairs(star(n, 2)))


def test_the_nudge_sequence_crosses_the_collinearity_threshold():
    # the family above reaches both answers as the vertex approaches the chord
    pairs = [v.as_tuple() for v in random_convex_polygon(random.Random(4), 9).vertices]
    answers = {is_convex(Polygon.from_pairs(nudged(pairs, 3, f))) for f in FACTORS}
    assert answers == {True, False}


@pytest.mark.parametrize("k", [-1000, -900, 900, 1000])
def test_the_answer_does_not_depend_on_the_unit_of_length(k):
    # turns whose products would overflow or underflow at 2^k are decided
    # at unit scale, where they do not
    rng = random.Random(9)
    families = [star(7, 1), star(7, 3), ellipse(16, 1e-3, 0.3)]
    families += [
        [v.as_tuple() for v in random_convex_polygon(rng, rng.randrange(3, 9)).vertices]
        for _ in range(40)
    ]
    for pairs in families:
        for reverse in (False, True):
            assert is_convex(variant(pairs, reverse, k)) == is_convex(variant(pairs, reverse, 0))


def test_one_orientation_test_per_vertex(monkeypatch):
    calls = 0

    def counting(ux, uy, vx, vy):
        nonlocal calls
        calls += 1
        return _orient(ux, uy, vx, vy)

    monkeypatch.setattr(geometry, "_orient", counting)
    assert is_convex(Polygon.from_pairs(star(256, 1)))
    # the same-side test made 256 * 254 = 65,024
    assert calls == 256
