"""Kernels that replaced a second copy of the same measurement.

`geometry.chords` measures the sides for `predicates` and the `perimeter`
map, and the cyclic diagonals for the coincidence probes; `normalize`
scales by `unit_factor`; `DistanceMatrix.rotated` picks the rows and
entries of the rotation. Each is compared, bit for bit and errors
included, with the code it replaced, kept here as the reference.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycenter.characterization import ORACLE_TOL, interior_angles, predicates
from polycenter.errors import ZeroSum
from polycenter.framework import (
    ZERO_SUM_REL, BarycentricWeights, ProjectiveCoords, normalize,
)
from polycenter.geometry import DistanceMatrix, Polygon, chords, distance_matrix
from polycenter.sampling import random_convex_polygon, random_polygon, regular_polygon

# ---------------------------------------------------------------- references


def reference_side_lengths(p):
    return tuple(p.vertices[i].distance_to(p.vertex(i + 1)) for i in range(p.n))


def reference_perimeter(p):
    return sum(reference_side_lengths(p))


def _reference_spread(values):
    largest = max(abs(v) for v in values)
    if largest == 0.0:
        return 0.0
    return (max(values) - min(values)) / largest


def reference_predicates(p):
    equiangular = _reference_spread(interior_angles(p)) <= ORACLE_TOL
    equilateral = _reference_spread(reference_side_lengths(p)) <= ORACLE_TOL
    return {
        "equiangular": equiangular,
        "equilateral": equilateral,
        "regular": equiangular and equilateral,
    }


def reference_normalize(coords):
    largest = max(abs(v) for v in coords.values)
    e = math.frexp(largest)[1]
    values = [math.ldexp(v, -e) for v in coords.values]
    total = sum(values)
    if abs(total) <= ZERO_SUM_REL * math.ldexp(largest, -e):
        raise ZeroSum(
            f"coordinate sum {math.ldexp(total, e):.3e} is negligible at scale {largest:.3e}"
        )
    return BarycentricWeights(tuple(v / total for v in values))


def reference_rotated(D, k):
    n = D.n
    k %= n
    return DistanceMatrix(
        tuple(tuple(D.d[(i + k) % n][(j + k) % n] for j in range(n)) for i in range(n))
    )


def outcome(call):
    try:
        return ("value", repr(call()))
    except Exception as exc:  # every error class is part of the outcome
        return (type(exc), str(exc))


# ---------------------------------------------------------------- polygons


def _star(rng, n):
    winding = next((w for w in range(2, (n + 1) // 2) if math.gcd(n, w) == 1), 1)
    return regular_polygon(n, winding=winding, phase=rng.uniform(0, 6.3))


def _repeated(rng, n):
    # vertices drawn from a small pool, so some coincide, and zeros of either sign
    pool = [(rng.choice([0.0, -0.0, rng.uniform(-2, 2)]), rng.choice([0.0, -0.0, 1.0]))
            for _ in range(rng.randrange(1, 5))]
    return Polygon.from_pairs(rng.choice(pool) for _ in range(n))


KINDS = {
    "random": lambda rng, n: random_polygon(rng, n),
    "convex": random_convex_polygon,
    "star": _star,
    "repeated": _repeated,
}


@st.composite
def polygons(draw, max_n=40):
    kind = draw(st.sampled_from(sorted(KINDS)))
    n = draw(st.integers(3, max_n))
    p = KINDS[kind](random.Random(draw(st.integers(0, 2**32))), n)
    k = draw(st.sampled_from([0, 1, -1, 30, -30, 300, -300, 1000, -1000]))
    return Polygon.from_pairs((math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in p.vertices)


# ------------------------------------------------------------------- chords


@settings(max_examples=200, deadline=None)
@given(polygons(), st.data())
def test_chords_are_a_diagonal_of_the_distance_matrix(p, data):
    D = distance_matrix(p)
    skip = data.draw(st.integers(1, p.n - 1))
    diagonal = [D.d[i][(i + skip) % p.n] for i in range(p.n)]
    # repr tells -0.0 from 0.0 and round-trips every float: bit for bit
    assert repr(chords(p, skip)) == repr(diagonal)


@settings(max_examples=200, deadline=None)
@given(polygons())
@example(Polygon.from_pairs([(-1e308, 0.0), (0.0, 1.0), (1e308, 0.0), (0.0, -1.0)]))
@example(Polygon.from_pairs([(-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1.0)]))
def test_perimeter_and_predicates_match_the_distance_to_loops(p):
    assert outcome(lambda: sum(chords(p, 1))) == outcome(lambda: reference_perimeter(p))
    assert outcome(lambda: predicates(p)) == outcome(lambda: reference_predicates(p))


# ---------------------------------------------------------------- normalize

_FLOATS = st.floats(allow_nan=False)
_SUBNORMAL = st.floats(min_value=-2.2e-308, max_value=2.2e-308)


def _ldexp_or_keep(v, k):
    try:
        return math.ldexp(v, k)
    except OverflowError:
        return v


@st.composite
def coordinate_tuples(draw):
    kind = draw(st.sampled_from(["any", "subnormal", "cancelling"]))
    if kind == "cancelling":
        # each value with its negation, in any order: the sum is zero or nearly
        half = draw(st.lists(st.one_of(_FLOATS, _SUBNORMAL), min_size=2, max_size=6))
        values = draw(st.permutations(half + [-v for v in half]))
    else:
        values = draw(st.lists(_FLOATS if kind == "any" else _SUBNORMAL,
                               min_size=3, max_size=12))
    k = draw(st.sampled_from([0, 1, -1, 60, -60, 600, -600]))
    values = [_ldexp_or_keep(v, k) for v in values]
    if all(v == 0.0 for v in values):
        values[0] = 5e-324
    return ProjectiveCoords(tuple(values))


@settings(max_examples=500, deadline=None)
@given(coordinate_tuples())
@example(ProjectiveCoords((1.0, -1.0, 1.0, -1.0)))
@example(ProjectiveCoords((5e-324, -5e-324, 1e-323)))
@example(ProjectiveCoords((1e-310, 3e-311, -2e-312)))
@example(ProjectiveCoords((1.7e308, 1.7e308, -1.7e308)))
@example(ProjectiveCoords((1.7e308, -1.7e308, 1e-300)))
@example(ProjectiveCoords((math.inf, 1.0, 1.0)))
def test_normalize_matches_the_frexp_version(coords):
    assert outcome(lambda: normalize(coords)) == outcome(lambda: reference_normalize(coords))


@pytest.mark.parametrize("values", [
    (1.0, -1.0, 1.0, -1.0),
    (3e-310, -1e-310, -2e-310),
    (2.0**1000, -(2.0**1000), 2.0**960),
])
def test_zero_sum_messages_match_the_frexp_version(values):
    coords = ProjectiveCoords(values)
    with pytest.raises(ZeroSum) as new:
        normalize(coords)
    with pytest.raises(ZeroSum) as old:
        reference_normalize(coords)
    assert str(new.value) == str(old.value)


# ------------------------------------------------------------------ rotated


@settings(max_examples=100, deadline=None)
@given(polygons(max_n=24), st.integers(-60, 60))
def test_rotated_matches_the_index_arithmetic(p, k):
    D = distance_matrix(p)
    R = D.rotated(k)
    assert R == reference_rotated(D, k)
    assert type(R.d) is tuple and all(type(row) is tuple for row in R.d)


@settings(max_examples=50, deadline=None)
@given(polygons(max_n=16), st.integers(-40, 40))
def test_rotated_of_a_rotation_view_matches_the_index_arithmetic(p, k):
    D = distance_matrix(p)
    for view in D.rotations():
        R = view.rotated(k)
        assert R == reference_rotated(view, k)
        assert type(R.d) is tuple and all(type(row) is tuple for row in R.d)
