"""The medoid indicator against its full definition.

The definition is one distance matrix, n `math.fsum` row sums, and a 1 for
every sum within MEDOID_REL of the smallest. The catalog computes the map
from no matrix: running sums of the distances of each vertex that a lower
bound on its sum does not rule out, and exact sums only for the rows near
the smallest, where a rounding bound cannot decide.
The definition is kept here as the reference (`helpers._distance_sums`),
measuring all n sums for the shift it is asked about; entry k of the map
and the per-shift evaluator on shift k must give its value or its error on
every shift. (The module keeps the name it had when the indicator still
ruled shifts out from two sums.)
"""

import importlib.util
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _distance_sums, calls_of
from polycenter import catalog, cli
from polycenter.catalog import CATALOG, _medoid_bound, _medoid_indicators
from polycenter.errors import NonFinite
from polycenter.framework import coordinate_map_vertex
from polycenter.geometry import Polygon
from polycenter.sampling import random_convex_polygon, regular_polygon

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
    """3 to 128 vertices whose coordinates come from a pool of a few values,
    so coordinates, and often whole vertices, repeat."""
    pool = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
    n = draw(st.integers(3, 128))
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), min_size=n, max_size=n)
    )
    return Polygon.from_pairs(pairs)


@st.composite
def convex(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    s = draw(SCALES)
    p = random_convex_polygon(rng, draw(st.integers(3, 128)))
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


def test_convex_128_gon_makes_one_pass_per_map_and_per_evaluation():
    p = random_convex_polygon(random.Random(0), 128)
    with calls_of(_medoid_indicators) as calls:
        coords = coordinate_map_vertex(MEDOID, p)
        assert sum(coords.values) >= 1.0
        # evaluating every shift on its own would take one pass per shift, 128
        assert len(calls) == 1
        MEDOID.evaluator(p)
        assert len(calls) == 2


# ------------------------------------------------------------ candidate cut


def reference_marks(p):
    """The whole map by the definition: one mark per full-row sum."""
    sums = _distance_sums(p)
    smin = min(sums)
    return [1.0 if s <= smin + 1e-12 * smin else 0.0 for s in sums]


def test_a_regular_200_gon_makes_every_row_a_candidate():
    p = regular_polygon(200)
    with calls_of(catalog._total) as rows:
        marks = _medoid_indicators(p)
    assert marks == reference_marks(p)
    # the sums tie up to rounding, so no running sum clears the cut
    assert len(rows) == 200


def load_benchmark_inputs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_the_benchmark_ellipse_128_gon_remeasures_one_row(seed):
    inputs = load_benchmark_inputs()
    p = Polygon.from_pairs(inputs.convex_polygon(random.Random(seed), 128))
    with calls_of(catalog._total) as rows:
        marks = _medoid_indicators(p)
    assert marks == reference_marks(p) and sum(marks) == 1.0
    assert len(rows) == 1


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_the_benchmark_ellipse_128_gon_measures_few_rows(seed, monkeypatch):
    inputs = load_benchmark_inputs()
    p = Polygon.from_pairs(inputs.convex_polygon(random.Random(seed), 128))
    rows = []

    def counting_sum(terms):
        # a measured row is the running sum of one vertex's distances; the
        # lower bounds sum products, and the exact sums are fsums
        if terms.__reduce__()[1][0] is math.dist:
            rows.append(None)
        return sum(terms)

    monkeypatch.setattr(catalog, "sum", counting_sum, raising=False)
    assert _medoid_indicators(p) == reference_marks(p)
    # the lower bounds rule out all but a few of the 128 rows
    assert 1 <= len(rows) <= 24


def far_40_gon(nudge):
    """A regular 40-gon of radius 1e306 about (1.5e308, 0), with vertex 1
    moved off the circle by the relative `nudge`: any two of its
    coordinates sum past the float range."""
    pairs = []
    for k in range(40):
        r = 1e306 * (1.0 + nudge) if k == 0 else 1e306
        pairs.append((1.5e308 + r * math.cos(2 * math.pi * k / 40), r * math.sin(2 * math.pi * k / 40)))
    return pairs


FAR_MEDOID = json.dumps({
    "name": "medoid",
    "projective": [1.0] + [0.0] * 39,
    "weights": [1.0] + [0.0] * 39,
    "point": [1.50999e308, 0.0],
    "vertex": 1,
}, indent=2) + "\n"


@pytest.mark.parametrize("nudge, code, out, err", [
    # moved in, vertex 1 has the smallest sum
    (-1e-3, 0, FAR_MEDOID, ""),
    # moved out, its two neighbours tie for the smallest sum
    (1e-3, 3, "", "polycenter: Tie: vertices 2 and 40 tie for the minimum distance sum\n"),
])
def test_a_40_gon_far_from_the_origin(tmp_path, capsys, nudge, code, out, err):
    pairs = far_40_gon(nudge)
    p = Polygon.from_pairs(pairs)
    assert _medoid_indicators(p) == reference_marks(p)
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"vertices": pairs}), encoding="utf-8")
    assert cli.main(["center", str(path), "--name", "medoid"]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("n", [28, 40, 128])
@pytest.mark.parametrize("point", [(0.7, 3.3), (0.1, -0.1), (0.0, 0.0)])
def test_coincident_vertices_mark_every_row(n, point):
    # Every sum is 0, so every row is marked. Off the origin some centroids
    # of the runs round off the shared point (at n = 40 for both points), so
    # some lower bounds are positive, and only the margin keeps them from
    # ruling rows out. At the origin no bound is taken.
    p = Polygon.from_pairs([point] * n)
    assert _medoid_indicators(p) == reference_marks(p) == [1.0] * n


@pytest.mark.parametrize("k, offset", [
    (-1074, 0.0), (-1050, 0.0), (-1001, 0.0), (-999, 0.0), (-40, 0.0), (0, 0.0),
    (0, 1e9), (-30, 1.0), (40, 0.0), (990, 0.0), (994, 0.0), (1020, 0.0),
])
def test_a_44_gon_at_the_edges_of_the_bounded_range(k, offset):
    # The lower bounds are taken for largest coordinate magnitudes M from
    # 2^-1000 to 2^1000 / n; outside, every row is measured. The 44-gon has
    # M near 2^k * 1.98, so the bounds are taken from k = -999 to 990. A far
    # offset makes the centroids' rounding large against the extent.
    q = random_convex_polygon(random.Random(44), 44)
    p = Polygon.from_pairs([(math.ldexp(v.x, k) + offset, math.ldexp(v.y, k)) for v in q.vertices])
    assert outcome(_medoid_indicators, p) == outcome(reference_marks, p)


@pytest.mark.parametrize("ring", [16, 200])
def test_the_tolerance_boundary_on_a_ring(ring):
    # As above, with `ring` more vertices on a circle about the central
    # vertex, symmetric in both axes so that the centre keeps the smallest
    # sum: longer running sums, whose rounding a cut without room would
    # have to be lucky to survive.
    rng = random.Random(ring)
    angles = [rng.uniform(0.1, math.pi / 2 - 0.1) for _ in range(ring // 4)]
    around = sorted(((1.5 + sx * 2.0 * math.cos(a), sy * 2.0 * math.sin(a))
                     for a in angles for sx in (1, -1) for sy in (1, -1)),
                    key=lambda q: math.atan2(q[1], q[0] - 1.5))
    centre = 1 + ring // 2

    def place(t):
        return Polygon.from_pairs([(1.5, t)] + around[:ring // 2] + [(1.5, 0.0)]
                                  + around[ring // 2:])

    def excess(t):
        sums = _distance_sums(place(t))
        assert min(sums) == sums[centre]
        return sums[0] - _medoid_bound(sums[centre])

    lo, hi = 0.0, 1.0
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if excess(mid) > 0.0 else (mid, hi)
    for t in [lo + k * math.ulp(lo) for k in range(-40, 41)]:
        assert _medoid_indicators(place(t)) == reference_marks(place(t)), t


@st.composite
def scaled_regular(draw):
    """Regular n-gons up to n = 256 with one vertex nudged off the circle,
    scaled by 2^k from the subnormal range to past the largest extent."""
    n = draw(st.integers(3, 256))
    moved = draw(st.integers(0, n - 1))
    nudge = draw(NUDGES)
    k = draw(st.integers(-1074, 1023))
    pairs = []
    for j in range(n):
        r = 1.0 + nudge if j == moved else 1.0
        pairs.append((r * math.cos(2 * math.pi * j / n), r * math.sin(2 * math.pi * j / n)))
    return Polygon.from_pairs([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in pairs])


@settings(max_examples=60, deadline=None)
@given(mirrored(scaled_regular()), st.integers(0, 255))
def test_scaled_near_ties_up_to_256_vertices(p, k):
    whole = outcome(_medoid_indicators, p)
    assert whole == outcome(reference_marks, p)
    k %= p.n
    mark = outcome(MEDOID.evaluator, p.shifted(k))
    assert mark == (whole if isinstance(whole, tuple) else whole[k])


def test_a_1024_gon_map_holds_no_matrix():
    p = random_convex_polygon(random.Random(3), 1024)
    tracemalloc.start()
    try:
        coords = coordinate_map_vertex(MEDOID, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(coords.values) >= 1.0
    # the 1024 x 1024 matrix alone would hold 8 MB of entries
    assert peak < 1_000_000
