"""`is_convex` decides convexity in one pass over the turns, exactly.

The same-side test it replaced, n(n-2) orientation tests per call, is kept
here as the reference, with each orientation taken exactly over the
rationals the coordinates represent (`Fraction`). `is_convex` decides each
turn exactly too, behind a floating-point filter, so the two must agree on
random, convex, star, nearly collinear and very flat polygons, each also
reversed and scaled by powers of two.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycenter import geometry
from polycenter.errors import NonFinite
from polycenter.geometry import Polygon, is_convex
from polycenter.sampling import random_convex_polygon


def exact_orient(a, b, c):
    """The sign of (b - a) x (c - a) in exact rational arithmetic."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (cross > 0) - (cross < 0)


def same_side_is_convex(p):
    """For each edge, all other vertices strictly on one side, each side
    decided in exact arithmetic, so no rounding, underflow or overflow
    enters at any scale."""
    n = p.n
    pts = [(Fraction(x), Fraction(y)) for x, y in zip(p.xs, p.ys)]
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        side = 0
        for j in range(n):
            if j == i or j == (i + 1) % n:
                continue
            o = exact_orient(a, b, pts[j])
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


def test_one_turn_test_per_vertex_and_no_exact_fallback(monkeypatch):
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return exact(*args)

    exact = geometry._exact_orient
    monkeypatch.setattr(geometry, "_exact_orient", counting)
    pairs = star(256, 1)
    # the filter decides every turn of a regular 256-gon
    assert is_convex(Polygon.from_pairs(pairs))
    assert calls == 0
    # at 2^-1000 every product underflows, and each turn is decided once,
    # exactly; the same-side test made 256 * 254 = 65,024 orientation tests
    assert is_convex(variant(pairs, False, -1000))
    assert calls == 256


# ------------------------------------------- exact turns and relabelings


@st.composite
def off_chord_pairs(draw):
    """A convex polygon with one vertex moved onto its neighbours' chord,
    then off it, to either side, by 1e-16 to 1e-9 of the chord's length."""
    pairs = draw(convex_pairs())
    n = len(pairs)
    i = draw(st.integers(0, n - 1))
    (ax, ay), (cx, cy) = pairs[i - 1], pairs[(i + 1) % n]
    along = draw(st.floats(0.05, 0.95))
    off = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, -9.0))
    pairs[i] = (ax + along * (cx - ax) - off * (cy - ay), ay + along * (cy - ay) + off * (cx - ax))
    return pairs


@st.composite
def lattice_pairs(draw):
    """Polygons on a small integer grid: exactly collinear turns, repeated
    vertices and vertical edges are common."""
    n = draw(st.integers(3, 9))
    coord = st.integers(-4, 4)
    return draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))


def relabelings(pairs):
    """The 2n dihedral relabelings: every rotation, of pairs and of its reversal."""
    for ordered in (pairs, pairs[::-1]):
        for k in range(len(ordered)):
            yield ordered[k:] + ordered[:k]


def exact_exponents(pairs):
    """The least and greatest k for which 2^k times every coordinate is an
    exact, finite float."""
    lows, highs = [], []
    for c in (c for pair in pairs for c in pair if c):
        num, den = float(c).as_integer_ratio()
        lowest_bit = (num & -num).bit_length() - den.bit_length()
        lows.append(-1074 - lowest_bit)
        highs.append(1024 - math.frexp(c)[1])
    return max(lows, default=0), min(highs, default=0)


@settings(max_examples=150, deadline=None)
@given(off_chord_pairs())
def test_a_vertex_off_its_chord_is_decided_alike_under_every_relabeling(pairs):
    want = same_side_is_convex(Polygon.from_pairs(pairs))
    assert {is_convex(Polygon.from_pairs(q)) for q in relabelings(pairs)} == {want}


@settings(max_examples=150, deadline=None)
@given(st.one_of(off_chord_pairs(), lattice_pairs()), st.data())
def test_exact_rescalings_do_not_change_the_answer(pairs, data):
    lo, hi = exact_exponents(pairs)
    want = same_side_is_convex(Polygon.from_pairs(pairs))
    for k in (lo, hi, *data.draw(st.lists(st.integers(lo, hi), max_size=4))):
        q = Polygon.from_pairs([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in pairs])
        assert [math.ldexp(x, -k) for x in q.xs] == [x for x, _ in pairs]
        assert is_convex(q) is want


@settings(max_examples=300, deadline=None)
@given(lattice_pairs(), st.integers(-1074, 1000))
def test_lattice_polygons_agree(pairs, k):
    want = same_side_is_convex(variant(pairs, False, k))
    for q in relabelings(pairs):
        assert is_convex(variant(q, False, k)) is want


# zero, or far enough from it to stay normal at every scale in EXPONENT
COORD = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) > 1e-6)


@settings(max_examples=150, deadline=None)
@given(COORD, COORD, st.floats(0.1, 1.0), EXPONENT)
def test_a_vertex_exactly_on_its_chord_is_never_convex(u, v, apex, k):
    # (u, v), (2u, 2v), (4u, 4v) are exactly collinear, at every scale 2^k
    # (no coordinate leaves the normal range), but their rounded orient2d
    # determinant is often not zero
    if (u, v) == (0.0, 0.0):
        return
    pairs = [(u, v), (2 * u, 2 * v), (4 * u, 4 * v), (2 * u - apex * v, 2 * v + apex * u)]
    for q in relabelings(pairs):
        assert not is_convex(variant(q, False, k))


@settings(max_examples=60, deadline=None)
@given(off_chord_pairs(), st.sampled_from(["perimeter", "lamina"]))
def test_the_cli_exits_alike_on_a_polygon_and_its_reversal(tmp_path_factory, pairs, name):
    from polycenter import cli

    codes = []
    for ordered in (pairs, pairs[::-1]):
        path = tmp_path_factory.mktemp("doc") / "p.json"
        path.write_text(json.dumps({"vertices": ordered}), encoding="utf-8")
        codes.append(cli.main(["center", str(path), "--name", name]))
    assert codes[0] == codes[1]
    assert codes[0] == (0 if same_side_is_convex(Polygon.from_pairs(pairs)) else 3)


def test_the_exact_fallback_decides_collinear_and_subnormal_turns():
    tiny = 2.0**-1070
    # exactly collinear, though the float products disagree in their last bits
    assert geometry._exact_orient(0.1, 0.3, 0.2, 0.6, 0.4, 1.2) == 0
    assert geometry._exact_orient(0.0, 0.0, tiny, tiny, 2 * tiny, 2 * tiny) == 0
    # a counterclockwise turn whose products underflow to zero
    assert (tiny * tiny, tiny * tiny) == (0.0, 0.0)
    assert geometry._exact_orient(0.0, 0.0, tiny, 0.0, 0.0, tiny) == 1
    assert geometry._exact_orient(0.0, 0.0, 0.0, tiny, tiny, 0.0) == -1
    # one unit in the last place off the line, at each end of the range
    big = 2.0**1000
    assert geometry._exact_orient(-big, -big, 0.0, 0.0, big, math.nextafter(big, math.inf)) == 1
    assert is_convex(Polygon.from_pairs([(0.0, 0.0), (tiny, 0.0), (0.0, tiny)]))
    assert not is_convex(Polygon.from_pairs([(0.0, 0.0), (tiny, tiny), (2 * tiny, 2 * tiny)]))


# ------------------------------------------------------------ the sampler


# sha256 of the reprs of 1,000 draws and the next rng.random(), recorded
# with the tolerance-based guard and the separate distinctness check that
# `random_convex_polygon` used before its turns were decided exactly
SAMPLER_DIGESTS = {
    3: "3f41b035fdf8402d",
    6: "4c72cb4ea92f4bd1",
    32: "f9a823ad424e52bd",
}


@pytest.mark.parametrize("n", sorted(SAMPLER_DIGESTS))
def test_the_convex_sampler_draws_what_it_drew_and_only_distinct_vertices(n):
    rng = random.Random(n)
    digest = hashlib.sha256()
    for _ in range(1000):
        p = random_convex_polygon(rng, n)
        assert geometry.is_nondegenerate(p)
        digest.update(repr((p.xs, p.ys)).encode())
    digest.update(repr(rng.random()).encode())
    assert digest.hexdigest()[:16] == SAMPLER_DIGESTS[n]
