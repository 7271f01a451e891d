"""The medoid indicator against its full definition.

The definition is one distance matrix, n `math.fsum` row sums, and a 1 for
every sum within MEDOID_REL of the smallest. The catalog computes the map
from no matrix: the `math.fsum` of the distances of each vertex that
neither a lower bound on its sum nor its plain sum (the cut) rules out,
taken once a row. The definition is kept here as the reference
(`helpers._distance_sums`), measuring all n sums once per polygon. Its mark k is that of shift k, bit
for bit, as `math.fsum` is correctly rounded and the extent check does not
depend on vertex order; entry k of the map and the per-shift evaluator on
shift k must give that mark or its error on every shift. (The module keeps
the name it had when the indicator still ruled shifts out from two sums.)
"""

import functools
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
from polycenter.sampling import random_convex_polygon
from samplers import regular_polygon

MEDOID = CATALOG["medoid"].function


def reference_marks(p):
    """The whole map by the definition: one mark per full-row sum."""
    sums = _distance_sums(p)
    smin = min(sums)
    return [1.0 if s <= smin + 1e-12 * smin else 0.0 for s in sums]


def outcome(f, p):
    try:
        return f(p)
    except NonFinite as exc:
        return (type(exc), str(exc))


def assert_every_shift_agrees(p):
    whole = outcome(_medoid_indicators, p)
    marks = outcome(reference_marks, p)
    for k in range(p.n):
        expected = marks if isinstance(marks, tuple) else marks[k]
        assert outcome(MEDOID.evaluator, p.shifted(k)) == expected, k
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


# ------------------------------------------------------------ rows measured


def running_sums_of_rows(monkeypatch):
    """A list that gains the index of the vertex of every built-in `sum` the
    catalog takes over one vertex's distances, its `map` (the lower bounds
    sum tuples, one distance to each run's centroid)."""
    rows = []

    def counting_sum(terms):
        if isinstance(terms, map) and terms.__reduce__()[1][0] is math.dist:
            terms = list(terms)
            rows.append(terms.index(0.0))  # the vertex's distance to itself
        return sum(terms)

    monkeypatch.setattr(catalog, "sum", counting_sum, raising=False)
    return rows


def test_a_regular_200_gon_makes_every_row_a_candidate(monkeypatch):
    p = regular_polygon(200)
    running = running_sums_of_rows(monkeypatch)
    with calls_of(catalog._total) as rows:
        marks = _medoid_indicators(p)
    assert marks == reference_marks(p)
    # the sums tie up to rounding, so no bound rules a row out; each row is
    # measured once, by its fsum, and only the second row is summed plainly
    # first: its fsum ties the first, and plain sums stop there
    assert len(rows) == 200
    assert len(running) == 1


def load_benchmark_inputs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_the_benchmark_ellipse_128_gon_measures_few_rows(seed):
    inputs = load_benchmark_inputs()
    p = Polygon.from_pairs(inputs.convex_polygon(random.Random(seed), 128))
    with calls_of(catalog._total) as rows:
        marks = _medoid_indicators(p)
    assert marks == reference_marks(p) and sum(marks) == 1.0
    # the lower bounds rule out all but a few of the 128 rows
    assert 1 <= len(rows) <= 24


# seed: (rows visited, rows summed by their fsum); the rows visited are
# those the map visits without the cut, where each takes an fsum
VISITED_AND_FSUMMED = {0: (14, 4), 7: (7, 3), 11: (18, 2)}


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_the_benchmark_ellipse_128_gon_measures_each_visited_row_once(seed, monkeypatch):
    inputs = load_benchmark_inputs()
    p = Polygon.from_pairs(inputs.convex_polygon(random.Random(seed), 128))
    running = running_sums_of_rows(monkeypatch)
    total, measured = catalog._total, []

    def recording_total(terms):
        row = list(terms)
        assert len(row) == 128
        measured.append(row.index(0.0))  # the vertex's distance to itself
        return total(row)

    monkeypatch.setattr(catalog, "_total", recording_total)
    assert _medoid_indicators(p) == reference_marks(p)
    # the first visited row is summed by its fsum alone, each later one
    # plainly first, and by its fsum only where its plain sum does not rule
    # it out: no row is summed twice either way
    assert len(measured) == len(set(measured)) and len(running) == len(set(running))
    assert measured[0] not in running and set(measured[1:]) <= set(running)
    assert (len(running) + 1, len(measured)) == VISITED_AND_FSUMMED[seed]


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


def on_a_ring(ring):
    """(place, centre): place(t) is the 5-gon of the tolerance test with
    `ring` more vertices on a circle about the central vertex, at index
    centre, symmetric in both axes so that the centre keeps the smallest
    sum; vertex 1 is at (1.5, t)."""
    rng = random.Random(ring)
    angles = [rng.uniform(0.1, math.pi / 2 - 0.1) for _ in range(ring // 4)]
    around = sorted(((1.5 + sx * 2.0 * math.cos(a), sy * 2.0 * math.sin(a))
                     for a in angles for sx in (1, -1) for sy in (1, -1)),
                    key=lambda q: math.atan2(q[1], q[0] - 1.5))

    def place(t):
        return Polygon.from_pairs([(1.5, t)] + around[:ring // 2] + [(1.5, 0.0)]
                                  + around[ring // 2:])

    return place, 1 + ring // 2


def crossing(place, centre, ulps=0):
    """The greatest t in [0, 1], bisected, at which vertex 1's sum does not
    exceed `_medoid_bound` of the centre's plus `ulps` of its units in the
    last place."""
    def excess(t):
        sums = _distance_sums(place(t))
        assert min(sums) == sums[centre]
        bound = _medoid_bound(sums[centre])
        return sums[0] - (bound + ulps * math.ulp(bound))

    lo, hi = 0.0, 1.0
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if excess(mid) > 0.0 else (mid, hi)
    return lo


@pytest.mark.parametrize("ring", [16, 200])
def test_the_tolerance_boundary_on_a_ring(ring):
    # As above, on a ring. At 202 vertices the lower bounds are taken, and
    # they must not rule out a row whose sum sits at the tolerance.
    place, centre = on_a_ring(ring)
    lo = crossing(place, centre)
    for t in [lo + k * math.ulp(lo) for k in range(-40, 41)]:
        assert _medoid_indicators(place(t)) == reference_marks(place(t)), t


@st.composite
def scaled_regular(draw, least=3, scales=(-1074, 1023)):
    """Regular n-gons of `least` to 256 vertices with one vertex nudged off
    the circle, scaled by 2^k, by default from the subnormal range to past
    the largest extent."""
    n = draw(st.integers(least, 256))
    moved = draw(st.integers(0, n - 1))
    nudge = draw(NUDGES)
    k = draw(st.integers(*scales))
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


# ------------------------------------------------------------------ the cut


def reversed_sum(terms):
    """Recursive summation from the last term to the first."""
    total = 0.0
    for v in reversed(list(terms)):
        total += v
    return total


# the cut holds for any summation within 2(n - 1)u of the exact sum: the
# built-in `sum` of this interpreter (compensated from Python 3.12 on), a
# recursive one in another order, and a correctly rounded one
SUMMATIONS = st.sampled_from([sum, reversed_sum, math.fsum])
RING = 40  # on_a_ring(40) has 42 vertices, so the bounds and the cut are taken
CUT_ULPS = 3 * (RING + 3)  # past the cut's margin, 2(n + 1)u, at n = 42


@functools.lru_cache(maxsize=None)
def ring_crossing(ulps):
    return crossing(*on_a_ring(RING), ulps)


def summed_by(summation, f, p):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catalog, "sum", summation, raising=False)
        return outcome(f, p)


@settings(max_examples=80, deadline=None)
@given(st.integers(-1000, 1000), st.integers(-4, CUT_ULPS), SUMMATIONS)
def test_the_cut_keeps_the_marks_near_the_tolerance(k, ulps, summation):
    # vertex 1's sum sits `ulps` units in the last place above the tolerance
    # bound of the centre's, which is visited first; vertex 1 is visited
    # next and summed plainly, and its fsum is taken or not by the cut
    place, _ = on_a_ring(RING)
    p = place(ring_crossing(ulps))
    p = Polygon.from_pairs([(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in p.vertices])
    assert summed_by(summation, _medoid_indicators, p) == outcome(reference_marks, p)


@settings(max_examples=60, deadline=None)
@given(mirrored(scaled_regular(least=28, scales=(-1000, 1000))), SUMMATIONS)
def test_the_cut_keeps_the_marks_of_scaled_near_ties(p, summation):
    assert summed_by(summation, _medoid_indicators, p) == outcome(reference_marks, p)


@pytest.mark.parametrize("ulps, fsummed, marked", [
    (-2, [21, 0], [0, 21]),  # vertex 1 ties the centre
    (2, [21, 0], [21]),  # just past the tolerance, inside the cut's margin
    (CUT_ULPS, [21], [21]),  # past the margin: its plain sum rules it out
])
def test_the_cut_rules_out_only_rows_past_its_margin(monkeypatch, ulps, fsummed, marked):
    place, centre = on_a_ring(RING)
    assert centre == 21
    p = place(ring_crossing(ulps))
    running = running_sums_of_rows(monkeypatch)
    total, measured = catalog._total, []

    def recording_total(terms):
        row = list(terms)
        measured.append(row.index(0.0))
        return total(row)

    monkeypatch.setattr(catalog, "_total", recording_total)
    marks = _medoid_indicators(p)
    assert marks == reference_marks(p)
    assert [i for i, v in enumerate(marks) if v] == marked
    assert (measured, running) == (fsummed, [0])


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
