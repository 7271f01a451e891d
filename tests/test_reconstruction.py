import math
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycenter.errors import InfeasibleDistances
from polycenter.geometry import (
    DistanceMatrix,
    Point2,
    Polygon,
    distance_matrix,
    is_convex,
)
from polycenter.reconstruction import convex_distances, reconstruct, validate
from polycenter.sampling import random_convex_polygon, random_polygon

from helpers import signed_area
from reference_axioms import scaled


def matrix(rows):
    return DistanceMatrix(tuple(tuple(float(x) for x in r) for r in rows))


def test_equilateral_side_two():
    D = matrix([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    got = reconstruct(D)
    v1, v2, v3 = got.polygon.vertices
    assert v1.as_tuple() == (0.0, 0.0)
    assert v2.as_tuple() == (2.0, 0.0)
    assert v3.x == pytest.approx(1.0)
    assert v3.y == pytest.approx(-math.sqrt(3.0))
    assert got.max_residual < 1e-12


def test_unit_square_round_trip():
    s = math.sqrt(2.0)
    D = matrix([[0, 1, s, 1], [1, 0, 1, s], [s, 1, 0, 1], [1, s, 1, 0]])
    got = reconstruct(D)
    back = distance_matrix(got.polygon)
    for i in range(4):
        for j in range(4):
            assert back.d[i][j] == pytest.approx(D.d[i][j], abs=1e-9)
    assert signed_area(got.polygon) < 0.0


def test_triangle_inequality_violation():
    D = matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(InfeasibleDistances):
        reconstruct(D)


def test_zero_base_edge_is_infeasible():
    D = matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    with pytest.raises(InfeasibleDistances):
        reconstruct(D)


def test_round_trip_random_polygons():
    rng = random.Random(6)
    for _ in range(100):
        p = random_polygon(rng, rng.randrange(3, 10))
        D = distance_matrix(p)
        got = reconstruct(D)
        back = distance_matrix(got.polygon)
        n = D.n
        worst = max(
            abs(back.d[i][j] - D.d[i][j]) for i in range(n) for j in range(n)
        )
        assert worst <= 1e-9
        assert signed_area(got.polygon) < 0.0
        assert got.polygon.vertices[0].as_tuple() == (0.0, 0.0)
        assert got.polygon.vertices[1].y == 0.0


def test_collinear_points_reconstruct_flat():
    p = Polygon.from_pairs([(0, 0), (1, 0), (3, 0)])
    got = reconstruct(distance_matrix(p))
    assert all(v.y == 0.0 for v in got.polygon.vertices)
    assert got.max_residual <= 1e-9


def test_a_vertex_snapped_to_the_axis_keeps_its_residual():
    # vertex 4 lies on the base edge by its distances to vertices 1 and 2,
    # but its distance to vertex 3 is off by a quarter
    s = math.sqrt(0.5)
    D = matrix([[0, 1, s, 0.5], [1, 0, s, 0.5], [s, s, 0, 0.75], [0.5, 0.5, 0.75, 0]])
    with pytest.raises(InfeasibleDistances, match="misses the inputs by 2.500e-01"):
        reconstruct(D)


def test_validate_measured_matrices_are_feasible():
    rng = random.Random(7)
    for _ in range(50):
        p = random_polygon(rng, rng.randrange(4, 9))
        report = validate(distance_matrix(p))
        assert report.feasible
        assert report.max_residual <= 1e-9
        assert len(report.cm_checks) == (p.n - 2) * (p.n - 3) // 2
        assert all(abs(c) <= 1e-9 for c in report.cm_checks)


def test_validate_rejects_regular_tetrahedron():
    D = matrix([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
    report = validate(D)
    assert not report.feasible
    assert report.max_residual == math.inf
    assert report.cm_checks == (pytest.approx(4.0),)
    with pytest.raises(InfeasibleDistances):
        reconstruct(D)


@pytest.mark.parametrize("t", [2.0**-20, 0.5, 1.0, 2.0, 10.0, 4e40])
def test_validate_scores_a_regular_tetrahedron_alike_at_every_side(t):
    D = matrix([[0, t, t, t], [t, 0, t, t], [t, t, 0, t], [t, t, t, 0]])
    assert validate(D).cm_checks == (4.0,)


def test_validate_checks_are_scale_free():
    rng = random.Random(12)
    for _ in range(20):
        D = distance_matrix(random_polygon(rng, rng.randrange(4, 9)))
        want = validate(D).cm_checks
        for k in (-500, -300, -1, 1, 300, 500):
            assert validate(scaled(D, 2.0**k)).cm_checks == want


def test_validate_rejects_perturbed_square_diagonal():
    s = math.sqrt(2.0)
    bad = s + 0.1
    D = matrix([[0, 1, bad, 1], [1, 0, 1, s], [bad, 1, 0, 1], [1, s, 1, 0]])
    report = validate(D)
    assert not report.feasible


def test_convex_distances_tracks_shape():
    rng = random.Random(8)
    hits = {True: 0, False: 0}
    for _ in range(40):
        p = random_convex_polygon(rng, 6)
        assert convex_distances(distance_matrix(p))
        hits[True] += 1
    for _ in range(80):
        p = random_polygon(rng, 6)
        from polycenter.geometry import is_convex

        if is_convex(p):
            continue
        assert not convex_distances(distance_matrix(p))
        hits[False] += 1
    assert hits[False] > 20


def test_convex_distances_false_on_infeasible():
    D = matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert not convex_distances(D)


# ------------------------------------------------------------- unit scale


def nudged(p, i, f):
    """Vertex i moved toward the midpoint of its neighbours, to a fraction
    f of its distance from it."""
    vs = list(p.vertices)
    a, b, c = vs[i - 1], vs[i], vs[(i + 1) % len(vs)]
    mx, my = (a.x + c.x) / 2, (a.y + c.y) / 2
    vs[i] = Point2(mx + f * (b.x - mx), my + f * (b.y - my))
    return Polygon(tuple(vs))


@st.composite
def matrices(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["random", "convex", "collinear"]))
    if kind == "random":
        p = random_polygon(rng, n)
    else:
        p = random_convex_polygon(rng, n)
    if kind == "collinear":
        p = nudged(p, rng.randrange(n), draw(st.sampled_from([1e-6, 1e-10, 1e-13, 0.0])))
    rows = [list(row) for row in distance_matrix(p).d]
    if draw(st.booleans()):
        # one length off by a relative amount, which some placements absorb
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rows[i][j] * (1.0 + draw(st.sampled_from([1e-8, -1e-5, 0.3])))
    return matrix(rows)


def result_or_error(D):
    try:
        got = reconstruct(D)
    except InfeasibleDistances:
        return InfeasibleDistances
    return [v.as_tuple() for v in got.polygon.vertices], got.max_residual


def is_subnormal(v):
    return v != 0.0 and abs(v) < sys.float_info.min


@settings(max_examples=300, deadline=None)
@given(matrices(), st.integers(-1000, 1000))
def test_reconstruct_commutes_with_scaling_by_powers_of_two(D, k):
    base = result_or_error(D)
    got = result_or_error(scaled(D, 2.0**k))
    if base is InfeasibleDistances:
        assert got is InfeasibleDistances
        return
    vertices, residual = base
    expected = ([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in vertices],
                math.ldexp(residual, k))
    assume(not any(is_subnormal(c) for pair in expected[0] for c in pair))
    assert repr(got) == repr(expected)


def test_reconstruct_builds_no_distance_matrix(monkeypatch):
    D = distance_matrix(random_convex_polygon(random.Random(5), 128))
    built = 0
    derive = DistanceMatrix._of
    validate_rows = DistanceMatrix.__post_init__

    def counted_of(cls, rows, k=0):
        nonlocal built
        built += 1
        return derive(rows, k)

    def counted_post_init(self):
        nonlocal built
        built += 1
        validate_rows(self)

    monkeypatch.setattr(DistanceMatrix, "_of", classmethod(counted_of))
    monkeypatch.setattr(DistanceMatrix, "__post_init__", counted_post_init)
    assert reconstruct(D).polygon.n == 128
    assert built == 0


def test_subnormal_input_is_read_at_the_largest_finite_factor():
    # unit scale would take a factor of 2^1060 here; it stops at 2^1023
    D = matrix([[0, 3e-320, 4e-320], [3e-320, 0, 5e-320], [4e-320, 5e-320, 0]])
    p = reconstruct(D).polygon
    assert p.vertices[1].as_tuple() == (3e-320, 0.0)
    assert is_convex(p)
    assert is_convex(Polygon.from_pairs([(0, 0), (3e-320, 0), (0, 4e-320)]))
