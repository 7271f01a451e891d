import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycenter import framework
from polycenter.catalog import CATALOG
from polycenter.dsl import center_function, parse
from polycenter.errors import AllZero, DomainViolation, EvalError, ZeroSum
from polycenter.framework import (
    BarycentricWeights,
    LengthCenterFunction,
    ProjectiveCoords,
    VertexCenterFunction,
    coordinate_map,
    coordinate_map_length,
    coordinate_map_vertex,
    geometric_center,
    lift_length_to_vertex,
    lower_vertex_to_length,
    normalize,
    verify_axioms,
)
from polycenter.geometry import Point2, Polygon, distance_matrix
from polycenter.sampling import random_convex_polygon, random_polygon

from helpers import proportional_to

TRI345 = Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])

# exact in floating point: all three side lengths come out as 3.0
EQUILATERAL = Polygon.from_pairs([(0, 0), (3, 0), (1.5, 2.598076211353316)])


def g_adjacent(D):
    return D.d[D.n - 1][0] + D.d[0][1]


def f_opposite_side(p):
    return p.vertex(1).distance_to(p.vertex(2))


# -------------------------------------------------------- function wrappers


def test_vertex_function_guard():
    fn = VertexCenterFunction(
        "guarded", lambda p: 1.0, lambda p: p.n == 3, "triangles only"
    )
    assert fn.evaluate(TRI345) == 1.0
    with pytest.raises(DomainViolation):
        fn.evaluate(Polygon.from_pairs([(0, 0), (1, 0), (1, 1), (0, 1)]))


def test_nonfinite_value_is_an_eval_error():
    fn = VertexCenterFunction("bad", lambda p: math.inf)
    with pytest.raises(EvalError):
        fn.evaluate(TRI345)


def test_length_function_evaluates_matrix():
    g = LengthCenterFunction("adjacent", g_adjacent)
    assert g.evaluate(distance_matrix(TRI345)) == 7.0


# ----------------------------------------------------------------### coords


def test_projective_coords_reject_all_zero():
    with pytest.raises(ValueError):
        ProjectiveCoords((0.0, 0.0, 0.0))


def test_projective_proportionality():
    a = ProjectiveCoords((7.0, 8.0, 9.0))
    assert proportional_to(a, ProjectiveCoords((14.0, 16.0, 18.0)))
    assert proportional_to(a, ProjectiveCoords((-7.0, -8.0, -9.0)))
    assert not proportional_to(a, ProjectiveCoords((7.0, 8.0, 10.0)))


def test_barycentric_weights_sum_to_one():
    with pytest.raises(ValueError):
        BarycentricWeights((0.5, 0.4, 0.2))
    # magnitudes whose sum overflows
    with pytest.raises(ValueError):
        BarycentricWeights((1e308, 1e308, -1e308))
    w = BarycentricWeights((0.25, 0.5, 0.25))
    got = w.combine(TRI345)
    assert got.as_tuple() == (1.5, 1.0)


# a list whose sum nearly cancels: the last entry undoes most of the rest
NEARLY_CANCELLING = st.tuples(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=63),
    st.floats(-1e-3, 1e-3),
).map(lambda xs_eps: tuple(xs_eps[0]) + (xs_eps[1] - math.fsum(xs_eps[0]),))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=64).map(tuple),
                 NEARLY_CANCELLING,
                 st.lists(FINITE, min_size=3, max_size=16).map(tuple)))
def test_normalize_returns_accepted_weights_or_raises_zero_sum(values):
    assume(any(v != 0.0 for v in values))
    try:
        normalize(ProjectiveCoords(values))  # a ValueError here fails
    except ZeroSum:
        pass


def normalized(values):
    try:
        return normalize(ProjectiveCoords(tuple(values)))
    except ZeroSum:
        return ZeroSum


MAGNITUDES = st.one_of(st.just(0.0), st.floats(2.0**-20, 1.7e308))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(MAGNITUDES, st.booleans()), min_size=3, max_size=16))
def test_normalize_of_coordinates_summing_past_the_float_range(signed):
    # Coordinates of at least 2^-20 stay normal, so exact, at 2^-1000, where
    # they cannot overflow: the weights and the ZeroSum decision must match.
    values = [-m if negative else m for m, negative in signed]
    assume(any(v != 0.0 for v in values))
    assert normalized(values) == normalized([v * 2.0**-1000 for v in values])


def test_normalize_coordinates_at_the_top_of_the_range():
    assert normalize(ProjectiveCoords((1e308,) * 3)).values == (1 / 3,) * 3
    with pytest.raises(ZeroSum, match="coordinate sum 0.000e[+]00 is negligible at scale 1.000e[+]308"):
        normalize(ProjectiveCoords((1e308, -5e307, -5e307)))


def test_coordinate_map_vertex_fixture():
    f = VertexCenterFunction("opposite-side", f_opposite_side)
    coords = coordinate_map_vertex(f, TRI345)
    assert coords.values == (5.0, 4.0, 3.0)


def test_coordinate_map_length_fixture():
    g = LengthCenterFunction("adjacent", g_adjacent)
    coords = coordinate_map_length(g, distance_matrix(TRI345))
    assert coords.values == (7.0, 8.0, 9.0)


def test_coordinate_map_all_zero():
    f = VertexCenterFunction("null", lambda p: 0.0)
    with pytest.raises(AllZero):
        coordinate_map_vertex(f, TRI345)


def test_side_difference_vanishes_on_exact_equilateral():
    g = LengthCenterFunction("side-gap", lambda D: D.d[0][1] - D.d[1][2])
    with pytest.raises(AllZero):
        coordinate_map_length(g, distance_matrix(EQUILATERAL))


def test_normalize_zero_sum():
    with pytest.raises(ZeroSum):
        normalize(ProjectiveCoords((-2.0, 1.0, 1.0)))


def test_normalize_weights():
    w = normalize(ProjectiveCoords((7.0, 8.0, 9.0)))
    assert w.values == pytest.approx((7 / 24, 8 / 24, 9 / 24))


def test_geometric_center_vertex_and_length_routes():
    f = VertexCenterFunction("opposite-side", f_opposite_side)
    assert geometric_center(f, TRI345).as_tuple() == pytest.approx((1.0, 1.0))
    g = LengthCenterFunction("adjacent", g_adjacent)
    assert geometric_center(g, TRI345).as_tuple() == pytest.approx((1.0, 1.5))


def test_coordinate_map_measures_distances_for_length_functions():
    f = VertexCenterFunction("opposite-side", f_opposite_side)
    assert coordinate_map(f, TRI345) == coordinate_map_vertex(f, TRI345)
    g = LengthCenterFunction("adjacent", g_adjacent)
    assert coordinate_map(g, TRI345) == coordinate_map_length(g, distance_matrix(TRI345))


# -------------------------------------------------------------- lift / lower


def test_lift_measures_distances():
    g = LengthCenterFunction("adjacent", g_adjacent)
    lifted = lift_length_to_vertex(g)
    assert lifted.evaluate(TRI345) == g.evaluate(distance_matrix(TRI345))


def test_a_lifted_map_measures_two_matrices(monkeypatch):
    # one for the guard and one for the n values, not one per shift
    g = CATALOG["perimeter"].function
    p = random_convex_polygon(random.Random(4), 8)
    lifted = lift_length_to_vertex(g)
    real = framework.distance_matrix
    calls = []
    monkeypatch.setattr(framework, "distance_matrix", lambda q: calls.append(q) or real(q))
    values = coordinate_map(lifted, p).values
    assert len(calls) == 2
    monkeypatch.undo()
    assert values == coordinate_map(g, p).values


def test_lower_reconstructs():
    f = VertexCenterFunction("opposite-side", f_opposite_side)
    lowered = lower_vertex_to_length(f)
    assert lowered.evaluate(distance_matrix(TRI345)) == pytest.approx(5.0)


def test_lower_then_lift_round_trip():
    # motion-invariant f: the reconstructed congruent copy gives the same value
    f = VertexCenterFunction("opposite-side", f_opposite_side)
    back = lift_length_to_vertex(lower_vertex_to_length(f))
    rng = random.Random(2)
    for _ in range(25):
        p = random_polygon(rng, 5)
        assert back.evaluate(p) == pytest.approx(f.evaluate(p), rel=1e-7, abs=1e-7)


# ------------------------------------------------------------- axiom checks


def test_verify_axioms_constant_function():
    f = VertexCenterFunction("one", lambda p: 1.0)
    report = verify_axioms(f, lambda rng: random_polygon(rng, 5), trials=40)
    assert report.relabel_ok and report.motion_ok and report.homogeneity_ok
    assert report.estimated_degree == pytest.approx(0.0, abs=1e-9)


def test_verify_axioms_adjacent_sum():
    g = LengthCenterFunction("adjacent", g_adjacent)
    report = verify_axioms(g, lambda rng: random_convex_polygon(rng, 6), trials=40)
    assert report.relabel_ok and report.motion_ok and report.homogeneity_ok
    assert report.estimated_degree == pytest.approx(1.0, abs=1e-6)


def test_verify_axioms_flags_motion_dependence():
    f = VertexCenterFunction("x1", lambda p: p.vertices[0].x)
    report = verify_axioms(f, lambda rng: random_polygon(rng, 4), trials=40)
    assert not report.motion_ok


def test_verify_axioms_flags_asymmetry():
    # the first side is not fixed by the reversal relabeling
    f = VertexCenterFunction("first-side", lambda p: p.vertex(0).distance_to(p.vertex(1)))
    report = verify_axioms(f, lambda rng: random_polygon(rng, 5), trials=40)
    assert not report.relabel_ok


def test_verify_axioms_flags_inhomogeneity():
    f = VertexCenterFunction(
        "shifted", lambda p: p.vertex(1).distance_to(p.vertex(2)) + 1.0
    )
    report = verify_axioms(f, lambda rng: random_polygon(rng, 5), trials=40)
    assert not report.homogeneity_ok


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_axioms_needs_at_least_one_trial(trials):
    # with no trial run, every axiom would be reported as holding
    f = VertexCenterFunction("x1", lambda p: p.vertices[0].x)
    with pytest.raises(ValueError, match="at least 1 trial"):
        verify_axioms(f, lambda rng: random_polygon(rng, 4), trials=trials)


# Reports recorded before the axiom trials were shared with `admit`; the
# sampling stream, the motion draws and every value must stay the same.
# The lamina report was re-recorded once its vertex mean and fan total
# became `math.fsum` sums, which no longer depend on the starting vertex.
PINNED_REPORTS = [
    (
        CATALOG["perimeter"].function, random_convex_polygon, 5, 3,
        "AxiomReport(relabel_ok=True, motion_ok=True, homogeneity_ok=True, "
        "estimated_degree=1.0, max_violation=2.6175429475179426e-16)",
    ),
    (
        CATALOG["lamina"].function, random_convex_polygon, 6, 2,
        "AxiomReport(relabel_ok=True, motion_ok=True, homogeneity_ok=True, "
        "estimated_degree=2.0, max_violation=6.523937843688068e-16)",
    ),
    (
        center_function(parse("d(n,1)*d(1,2)")), random_polygon, 6, 1,
        "AxiomReport(relabel_ok=True, motion_ok=True, homogeneity_ok=True, "
        "estimated_degree=2.0, max_violation=3.684160979962305e-16)",
    ),
    (
        center_function(parse("d(1,2)+1")), random_polygon, 5, 0,
        "AxiomReport(relabel_ok=False, motion_ok=True, homogeneity_ok=False, "
        "estimated_degree=None, max_violation=0.6342819672740858)",
    ),
]


@pytest.mark.parametrize(
    "fg, make, n, seed, expected",
    PINNED_REPORTS,
    ids=["perimeter", "lamina", "product", "inhomogeneous"],
)
def test_verify_axioms_reports_are_pinned(fg, make, n, seed, expected):
    report = verify_axioms(fg, lambda rng: make(rng, n), trials=20, seed=seed)
    assert repr(report) == expected
