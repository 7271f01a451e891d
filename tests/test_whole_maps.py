"""Whole-map evaluators against the per-shift definition, and their cost.

A coordinate map is one center function evaluated on the n cyclic
relabelings of its input. `centroid`, `perimeter`, `lamina` and `medoid`
also carry an all-shifts evaluator that returns the n values of a
polygon's map at once; on every input here the map must give what the
per-shift evaluator gives on the relabeled copies `Polygon.shifted(k)` and
`DistanceMatrix.rotated(k)`, bit for bit, error for error. `perimeter` is
compared on the polygon's matrix here, and on the polygon itself below
and in `test_chord_maps.py`.
"""

import dataclasses
import math
import random
import tracemalloc

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import _distance_sums, calls_of
from polycenter import catalog, framework, geometry, reconstruction
from polycenter.catalog import CATALOG, medoid
from polycenter.dsl import evaluate, parse
from polycenter.errors import DomainViolation, NonFinite, Tie
from polycenter.framework import (
    LengthCenterFunction,
    VertexCenterFunction,
    _check_domain,
    _finite,
    coordinate_map,
    coordinate_map_length,
    cyclic_values,
)
from polycenter.geometry import DistanceMatrix, Point2, Polygon, distance_matrix, is_convex
from polycenter.reconstruction import convex_distances
from polycenter.sampling import random_convex_polygon, random_polygon
from samplers import regular_polygon

WHOLE = ("centroid", "perimeter", "lamina", "medoid")


def per_shift(fg, x):
    """The definition: the guard once on x, then the evaluator on each
    relabeled copy, each value checked in index order."""
    _check_domain(fg, x)
    if isinstance(fg, VertexCenterFunction):
        copies = [x.shifted(k) for k in range(x.n)]
    else:
        copies = [x.rotated(k) for k in range(x.n)]
    return tuple(_finite(fg, fg.evaluator(y)) for y in copies)


def outcome(call, fg, p):
    """repr of the values, or the class and message of the error, where
    length functions read the distances of p."""
    try:
        x = p if isinstance(fg, VertexCenterFunction) else distance_matrix(p)
        return repr(call(fg, x))
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))


def assert_whole_maps_match(p):
    for name in WHOLE:
        fg = CATALOG[name].function
        assert fg.all_shifts is not None
        assert outcome(cyclic_values, fg, p) == outcome(per_shift, fg, p), name


def scaled(p, t):
    return Polygon.from_pairs([(t * v.x, t * v.y) for v in p.vertices])


SEEDS = st.integers(0, 2**32 - 1)
EXPONENTS = st.integers(-40, 40)


@st.composite
def random_polygons(draw):
    rng = random.Random(draw(SEEDS))
    p = random_polygon(rng, draw(st.integers(3, 24)), min_separation=0.0)
    return scaled(p, 2.0 ** draw(EXPONENTS))


@st.composite
def convex_polygons(draw):
    rng = random.Random(draw(SEEDS))
    p = random_convex_polygon(rng, draw(st.integers(3, 40)))
    return scaled(p, 2.0 ** draw(EXPONENTS))


@st.composite
def regular_polygons(draw):
    """Regular n-gons, whose distance sums tie up to rounding, scaled by an
    exact power of two and rotated by a phase."""
    n = draw(st.integers(3, 40))
    phase = draw(st.sampled_from([0.0, 0.1, math.pi / n]))
    return regular_polygon(n, radius=2.0 ** draw(EXPONENTS), phase=phase)


@st.composite
def duplicated_vertices(draw):
    """A polygon with one vertex repeated somewhere in its cycle."""
    rng = random.Random(draw(SEEDS))
    vs = list(random_convex_polygon(rng, draw(st.integers(3, 16))).vertices)
    vs.insert(draw(st.integers(0, len(vs))), vs[draw(st.integers(0, len(vs) - 1))])
    return Polygon(tuple(vs))


@st.composite
def huge_polygons(draw):
    """Coordinates up to 2^1023: at the top exponent the extent overflows,
    below it the distance sums may."""
    rng = random.Random(draw(SEEDS))
    p = random_polygon(rng, draw(st.integers(3, 16)), min_separation=0.0)
    return scaled(p, 2.0 ** draw(st.integers(1015, 1022)))


@settings(max_examples=150, deadline=None)
@given(random_polygons())
def test_random_polygons(p):
    assert_whole_maps_match(p)


@settings(max_examples=150, deadline=None)
@given(convex_polygons())
def test_convex_polygons(p):
    assert_whole_maps_match(p)


@settings(max_examples=150, deadline=None)
@given(regular_polygons())
def test_regular_polygons_and_medoid_ties(p):
    assert_whole_maps_match(p)


@settings(max_examples=60, deadline=None)
@given(duplicated_vertices())
def test_duplicated_vertices(p):
    assert_whole_maps_match(p)


@settings(max_examples=60, deadline=None)
@given(huge_polygons())
def test_huge_polygons(p):
    assert_whole_maps_match(p)


@pytest.mark.parametrize("p", [
    regular_polygon(32, winding=3),
    regular_polygon(5, winding=2),
    Polygon.from_pairs([(-1e308, 0), (1e308, 0), (0, 1)]),
    Polygon.from_pairs([(0, 0), (1, 0), (1, 1), (1, 0)]),
], ids=["star-32-3", "star-5-2", "extent-overflows", "repeated-vertex"])
def test_rejected_and_overflowing_inputs(p):
    assert_whole_maps_match(p)


# ------------------------------------------------ perimeter on a polygon


@st.composite
def stars(draw):
    """Regular stars {n/w}, which turn one way at every vertex but wind
    more than once."""
    n = draw(st.integers(5, 40).filter(lambda n: n != 6))
    w = draw(st.sampled_from([w for w in range(2, (n + 1) // 2) if math.gcd(n, w) == 1]))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    return regular_polygon(n, winding=w, phase=phase)


@st.composite
def near_collinear(draw):
    """A convex polygon with one vertex moved onto the segment between its
    neighbours, or off it by a tiny fraction of that segment, either way."""
    rng = random.Random(draw(SEEDS))
    vs = list(random_convex_polygon(rng, draw(st.integers(3, 16))).vertices)
    i = draw(st.integers(0, len(vs) - 1))
    a, b = vs[i - 1], vs[(i + 1) % len(vs)]
    along = draw(st.floats(0.01, 0.99))
    off = draw(st.sampled_from([0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-10, -1e-10]))
    dx, dy = b.x - a.x, b.y - a.y
    vs[i] = Point2(a.x + along * dx - off * dy, a.y + along * dy + off * dx)
    return Polygon(tuple(vs))


@st.composite
def at_any_scale(draw, polygons):
    p = draw(polygons)
    k = draw(st.integers(-1000, 1000))
    return Polygon.from_pairs([(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in p.vertices])


def result_of(call):
    """repr of the value, or the class and message of the error."""
    try:
        return repr(call())
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))


UNIT_POLYGONS = st.one_of(
    st.builds(lambda seed, n: random_polygon(random.Random(seed), n, min_separation=0.0),
              SEEDS, st.integers(3, 24)),
    st.builds(lambda seed, n: random_convex_polygon(random.Random(seed), n),
              SEEDS, st.integers(3, 40)),
    stars(),
    near_collinear(),
    duplicated_vertices(),
)


def perimeter_follows_the_polygon(p):
    """Assert that the perimeter map on p gives the values and errors of the
    map of its measured matrix, bit for bit, with the guard decided by
    `is_convex(p)`; return whether the matrix guard agrees with it."""
    g = CATALOG["perimeter"].function
    on_polygon = result_of(lambda: coordinate_map(g, p))
    decided_by_p = result_of(lambda: coordinate_map_length(
        dataclasses.replace(g, domain_guard=lambda D: is_convex(p)), distance_matrix(p)))
    assert on_polygon == decided_by_p
    try:
        agree = is_convex(p) == convex_distances(distance_matrix(p))
    except NonFinite:
        return True  # the extent check comes first on both paths
    if agree:
        assert on_polygon == result_of(lambda: coordinate_map_length(g, distance_matrix(p)))
    return agree


@settings(max_examples=400, deadline=None)
@given(st.one_of(at_any_scale(UNIT_POLYGONS), huge_polygons()))
def test_a_perimeter_map_on_a_polygon_matches_the_matrix_path(p):
    if not perimeter_follows_the_polygon(p):
        event("the guards disagree")


@pytest.mark.parametrize("p, agree", [
    # an extent that overflows raises NonFinite before the guard rejects a bowtie
    (Polygon.from_pairs([(-1e308, 0), (1e308, 1), (1e308, 0), (-1e308, 1)]), True),
    # nearly collinear but strictly convex in exact arithmetic: so is the
    # reconstruction of its matrix
    (Polygon.from_pairs([(1.3716511313423347, -0.21899471413149862),
                         (1.3525352844077727, -0.285377600209741),
                         (1.3907669782768965, -0.15261182805325624)]), True),
    # exactly collinear: the rounded distances reconstruct a thin triangle,
    # which passes as convex
    (Polygon.from_pairs([(5, -1), (7, 2), (19, 20)]), False),
], ids=["overflowing-bowtie", "near-collinear", "exactly-collinear"])
def test_the_perimeter_guard_decides_on_the_polygon(p, agree):
    assert perimeter_follows_the_polygon(p) is agree


# ------------------------------------------------------------------ cost


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_medoid_map_makes_one_pass_and_builds_no_matrix(monkeypatch):
    # every matrix of a polygon's distances is built by `_pairwise_rows`
    matrices = count_calls(monkeypatch, geometry, "_pairwise_rows")
    p = random_convex_polygon(random.Random(0), 128)
    with calls_of(catalog._medoid_indicators) as passes:
        values = coordinate_map(CATALOG["medoid"].function, p).values
    assert sum(values) >= 1.0
    assert len(passes) == 1
    assert matrices == []


def test_a_perimeter_map_measures_no_matrix_and_reconstructs_nothing(monkeypatch):
    p = random_convex_polygon(random.Random(0), 128)
    matrices = [count_calls(monkeypatch, module, "distance_matrix")
                for module in (framework, geometry)]
    embeddings = [count_calls(monkeypatch, module, "reconstruct")
                  for module in (framework, reconstruction)]
    values = coordinate_map(CATALOG["perimeter"].function, p).values
    assert len(values) == 128 and min(values) > 0.0
    assert sum(map(len, matrices)) == 0
    assert sum(map(len, embeddings)) == 0


def test_whole_maps_build_no_relabeled_copies(monkeypatch):
    p = random_convex_polygon(random.Random(1), 32)
    shifted = count_calls(monkeypatch, Polygon, "shifted")
    rotations = count_calls(monkeypatch, DistanceMatrix, "rotations")
    for name in WHOLE:
        coordinate_map(CATALOG[name].function, p)
    assert shifted == [] and rotations == []
    # the per-shift path, which the counters do see
    for name in WHOLE:
        coordinate_map(dataclasses.replace(CATALOG[name].function, all_shifts=None), p)
    assert len(shifted) == 3 * p.n and len(rotations) == 1


def test_a_length_map_copies_no_rotated_matrix():
    n = 64
    D = distance_matrix(random_convex_polygon(random.Random(2), n))
    pc = parse("d(n,1)+d(1,2)")
    views = []
    g = LengthCenterFunction("kept", lambda M: views.append(M) or evaluate(pc, M))
    tracemalloc.start()
    try:
        values = cyclic_values(g, D)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert values == tuple(evaluate(pc, D.rotated(k)) for k in range(n))
    assert views == [D.rotated(k) for k in range(n)]
    # n rotated copies would hold n row tuples of n floats each: n**3 slots
    # of 8 bytes; the n views share the rows of D
    assert held < n**3


def test_distance_sums_that_overflow_read_as_infinite():
    # a finite extent whose distance sums all pass the largest float: every
    # vertex ties at inf, as when the sums were taken in index order
    p = Polygon.from_pairs([(-8e307, 0), (8e307, 0), (0, 8e307)])
    assert _distance_sums(p) == [math.inf] * 3
    assert coordinate_map(CATALOG["medoid"].function, p).values == (1.0, 1.0, 1.0)


def test_a_vertex_mean_that_overflows_raises_non_finite():
    p = Polygon.from_pairs([(1.7e308, 0), (1.7e308 + 2**971, 0), (1.7e308, 2**971)])
    with pytest.raises(NonFinite, match="vertex mean must be finite"):
        CATALOG["lamina"].function.evaluator(p)


# ------------------------------------------------------------ medoid vertex


@st.composite
def signed_zero_duplicates(draw):
    """A convex polygon with a vertex repeated as (-0.0, y) beside (0.0, y),
    which the guard must reject as a duplicate."""
    rng = random.Random(draw(SEEDS))
    vs = random_convex_polygon(rng, draw(st.integers(3, 12))).vertices
    y = vs[0].y
    pairs = [(0.0, y)] + [(v.x - vs[0].x, v.y) for v in vs[1:]]
    pairs.insert(draw(st.integers(1, len(pairs))), (-0.0, y))
    return Polygon.from_pairs(pairs)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_polygons(), convex_polygons(), regular_polygons(),
                 signed_zero_duplicates()))
def test_medoid_is_the_one_vertex_its_indicator_marks(p):
    try:
        marks = cyclic_values(CATALOG["medoid"].function, p)
    except DomainViolation:
        with pytest.raises(DomainViolation):
            medoid(p)
        return
    marked = [k for k, v in enumerate(marks) if v == 1.0]
    if len(marked) > 1:
        with pytest.raises(Tie, match=f"vertices {marked[0] + 1} and {marked[1] + 1} tie"):
            medoid(p)
    else:
        assert medoid(p) == marked[0]
