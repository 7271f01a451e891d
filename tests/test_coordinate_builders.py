"""Polygons built from coordinates: no `Point2` on the library's own paths,
the same coordinates as the `Point2` builders they replace, the same
NonFinite on overflow, and copies and pickles equal to the original.

Also `DistanceMatrix.max_entry`, which reads the upper triangle, against a
scan of every row, signed zeros included.
"""

import copy
import dataclasses
import itertools
import math
import pickle
import random

import pytest

import helpers
import reference_axioms as ref
from polycenter import sampling
from polycenter.errors import NonFinite
from polycenter.framework import VertexCenterFunction, axiom_trials
from polycenter.geometry import (
    DihedralElement, DistanceMatrix, MeasuredRows, Point2, Polygon, RigidMotion, Similarity,
    apply_motion, distance_matrix, relabel,
)
from polycenter.reconstruction import reconstruct
from polycenter.sampling import (
    random_convex_nonequiangular, random_convex_polygon, random_equiangular_polygon,
    random_equilateral_polygon, random_polygon, random_similarity, regular_polygon,
)

PAIRS = [(0, 0), (3, -0.0), (2.5, 4), (-1, 2), (0.5, 1e-300)]
WALK_SAMPLERS = [
    random_convex_polygon, random_equiangular_polygon, random_convex_nonequiangular,
    random_equilateral_polygon,
]


def bits(p):
    return [float.hex(x) for x in p.xs], [float.hex(y) for y in p.ys]


def outcome(call):
    try:
        return ("value", bits(call()))
    except Exception as exc:  # every error class is part of the outcome
        return (type(exc).__name__, str(exc))


@pytest.fixture
def point2_count(monkeypatch):
    """The number of `Point2`s validated since the fixture was set up,
    counted the way the benchmark tracer counts them."""
    calls = [0]
    original = Point2.__post_init__

    def counted(self):
        calls[0] += 1
        original(self)

    monkeypatch.setattr(Point2, "__post_init__", counted)
    return calls


def _internal_paths():
    """(path, build) for each way the library builds a polygon from
    coordinates; the inputs are made up front."""
    base = Polygon.from_pairs(PAIRS)
    motion = RigidMotion(0.7, Point2(1.5, -2.0))
    similarity = Similarity(2.5, motion)
    D = distance_matrix(random_convex_polygon(random.Random(3), 7))
    flip = DihedralElement(base.n, 2, True)
    return [
        ("from_pairs", lambda: Polygon.from_pairs(PAIRS)),
        ("internal constructor", lambda: Polygon._of(base.xs, base.ys)),
        ("regular_polygon", lambda: regular_polygon(7, winding=3, radius=2.0)),
        ("random_polygon", lambda: random_polygon(random.Random(1), 9)),
        *[(f.__name__, lambda f=f: f(random.Random(1), 6)) for f in WALK_SAMPLERS],
        ("relabel", lambda: relabel(flip, base)),
        ("shifted", lambda: base.shifted(3)),
        ("apply_motion", lambda: apply_motion(motion, base)),
        ("apply_motion (similarity)", lambda: apply_motion(similarity, base)),
        ("reconstruct", lambda: reconstruct(D).polygon),
    ]


@pytest.mark.parametrize("build", [pytest.param(b, id=name) for name, b in _internal_paths()])
def test_internal_paths_build_no_point2_until_vertices_are_read(build, point2_count):
    p = build()
    assert point2_count[0] == 0
    vertices = p.vertices
    assert point2_count[0] == p.n
    assert p.vertices is vertices and p.vertex(p.n + 1) is vertices[1]
    assert point2_count[0] == p.n
    assert vertices == tuple(map(Point2, p.xs, p.ys))


def test_the_public_constructor_keeps_its_vertices(point2_count):
    vertices = tuple(Point2(float(x), float(y)) for x, y in PAIRS)
    point2_count[0] = 0
    p = Polygon(vertices)
    assert p.vertices is vertices and point2_count[0] == 0


def test_axiom_trial_copies_of_a_vertex_function_build_no_point2(point2_count):
    seen = []

    def first_x(p):
        seen.append(p)
        return 1.0 + p.xs[0] ** 2

    f = VertexCenterFunction("first x", first_x)
    samples = [random_polygon(random.Random(s), 6) for s in range(4)]
    draws = iter(samples)
    point2_count[0] = 0
    trials = list(axiom_trials(f, lambda rng: next(draws), 4, 0))
    # one Point2 per trial: the translation of the rigid motion it draws
    assert point2_count[0] == len(trials) == 4
    assert len(seen) == 4 * 6  # sample, reversal, moved copy, three rescalings
    assert all(p._vertices is None for p in seen if all(p is not s for s in samples))


@pytest.mark.parametrize("n", [3, 8, 32])
def test_samplers_draw_the_coordinates_of_the_point2_builders(n, monkeypatch):
    seeds = range(200)
    got = {f: [bits(f(random.Random(s), n)) for s in seeds] for f in WALK_SAMPLERS}
    got[random_polygon] = [bits(random_polygon(random.Random(s), n)) for s in seeds]
    monkeypatch.setattr(sampling, "_walk", helpers.point2_walk)
    for f in WALK_SAMPLERS:
        assert got[f] == [bits(f(random.Random(s), n)) for s in seeds], f.__name__
    assert got[random_polygon] == [
        bits(helpers.point2_random_polygon(random.Random(s), n)) for s in seeds]


@pytest.mark.parametrize("n", [3, 8, 32])
def test_regular_polygons_have_the_coordinates_of_the_point2_builder(n):
    for winding in (w for w in range(1, n) if math.gcd(n, w) == 1):
        for radius, center, phase in [(1.0, Point2(0.0, 0.0), 0.0), (2.5, Point2(-1.0, 3.0), 0.3)]:
            assert bits(regular_polygon(n, winding, radius, center, phase)) == bits(
                helpers.point2_regular_polygon(n, winding, radius, center, phase))


def test_from_pairs_has_the_coordinates_and_errors_of_the_point2_builder():
    assert bits(Polygon.from_pairs(PAIRS)) == bits(helpers.point2_from_pairs(PAIRS))
    for pairs in ([(0, 0), (1, math.inf), (math.nan, 0)], [(0, 0), (1, 0), (-math.inf, math.nan)],
                  [(1e308, 0), (0, 1)], [(0, 0), (1, 1)]):
        assert outcome(lambda: Polygon.from_pairs(pairs)) == outcome(
            lambda: helpers.point2_from_pairs(pairs))


def test_overflowing_moved_or_rescaled_coordinates_raise_the_reference_nonfinite():
    rng = random.Random(11)
    kinds = set()
    for _ in range(60):
        q = random_polygon(rng, 6)
        p = Polygon.from_pairs([(x * 2.0**1023, y * 2.0**1023) for x, y in zip(q.xs, q.ys)])
        for m in (random_similarity(rng), random_similarity(rng).motion):
            got = outcome(lambda: apply_motion(m, p))
            assert got == outcome(lambda: helpers.point2_apply_motion(m, p))
            kinds.add((type(m).__name__, got[0]))
    assert {("Similarity", "NonFinite"), ("RigidMotion", "NonFinite"),
            ("Similarity", "value"), ("RigidMotion", "value")} <= kinds


@pytest.mark.parametrize("k", [1020, 1022, 1023])
def test_axiom_trials_of_overflowing_samples_raise_the_reference_nonfinite(k):
    f = VertexCenterFunction("first x", lambda p: 1.0 + abs(p.xs[0]) * 2.0**-1000)
    t = 2.0**k

    def draw(rng):
        q = random_polygon(rng, 5)
        return Polygon._checked([t * x for x in q.xs], [t * y for y in q.ys])

    def run(trials):
        try:
            return [repr(trial) for trial in trials]
        except NonFinite as exc:
            return str(exc)

    got = run(axiom_trials(f, draw, 6, k))
    assert got == run(ref.axiom_trials(f, draw, 6, k))
    if k >= 1022:
        assert isinstance(got, str)


def _copies(p):
    yield copy.copy(p)
    yield copy.deepcopy(p)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(p, protocol))


@pytest.mark.parametrize("read_vertices", [False, True])
@pytest.mark.parametrize("build", [pytest.param(b, id=name) for name, b in _internal_paths()])
def test_copies_and_pickles_equal_the_polygon(build, read_vertices):
    p = build()
    if read_vertices:
        p.vertices
    for q in _copies(p):
        assert type(q) is Polygon and q == p and hash(q) == hash(p) and repr(q) == repr(p)
        assert bits(q) == bits(p)
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.xs = ()


def test_max_entry_of_zero_matrices_is_the_zero_a_full_scan_returns():
    for signs in itertools.product((0.0, -0.0), repeat=9):
        D = DistanceMatrix(tuple(tuple(signs[3 * i:3 * i + 3]) for i in range(3)))
        want = max(map(max, D.d))
        assert float.hex(D.max_entry()) == float.hex(want), signs


def test_max_entry_equals_a_full_scan_on_matrices_and_views():
    rng = random.Random(5)
    for n in (3, 4, 8, 17):
        p = random_polygon(rng, n)
        D = distance_matrix(p)
        views = [D, *D.rotations(), DistanceMatrix._of(MeasuredRows(p.xs, p.ys, 0.75)),
                 DistanceMatrix(tuple(tuple(-0.0 if v == 0 else v for v in row) for row in D.d))]
        for V in views:
            assert float.hex(V.max_entry()) == float.hex(max(map(max, V.d)))
