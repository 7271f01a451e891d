"""Kernels that replaced a second copy of the same measurement.

`geometry.chords` measures the sides for `predicates` and the `perimeter`
map, and the cyclic diagonals for the coincidence probes; `normalize`
scales by `unit_factor`; `DistanceMatrix.rotated` and `rotations` read
the rotation in place, from n rows of n entries, where the references
picked every row and entry into new tuples. Each is compared, bit for bit
and errors included, with the code it replaced, kept here as the reference.
"""

import math
import pickle
import random
import tracemalloc
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycenter.characterization import ORACLE_TOL, interior_angles, predicates
from polycenter.errors import ZeroSum
from polycenter.framework import (
    _TRUSTED_N, ZERO_SUM_REL, BarycentricWeights, ProjectiveCoords, normalize,
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


@st.composite
def long_coordinate_tuples(draw):
    """n from 3 to `_TRUSTED_N` and one past it, drawn from a seed: spread
    over many binades, summing just above the ZeroSum threshold, or with
    infinities and nans among them."""
    n = draw(st.one_of(st.integers(3, _TRUSTED_N + 1), st.sampled_from([3, _TRUSTED_N])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["spread", "near-zero-sum", "non-finite"]))
    values = [rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-40, 40) for _ in range(n)]
    if kind == "near-zero-sum":
        # the last value cancels the others up to a margin just above the cut
        values[-1] = -math.fsum(values[:-1])
        values[-1] += ZERO_SUM_REL * max(map(abs, values)) * rng.choice([1.0001, 1.01, 1.5, 4.0])
    elif kind == "non-finite":
        for _ in range(rng.randint(1, 3)):
            values[rng.randrange(n)] = rng.choice([math.inf, -math.inf, math.nan])
    return ProjectiveCoords(tuple(values))


@settings(max_examples=150, deadline=None)
@given(long_coordinate_tuples())
@example(ProjectiveCoords((0.0, math.inf, -0.0, -math.inf)))
@example(ProjectiveCoords((1.0, math.nan, 2.0)))
@example(ProjectiveCoords((1.0, 1e-300, 1.0) * (_TRUSTED_N // 3) + (1.0,)))
def test_normalize_at_every_length_matches_the_frexp_version(coords):
    # the frexp version always runs BarycentricWeights' check, which
    # normalize skips where its rounding bound says the check passes
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


def eager_rotated(D, k):
    """The rotation as `rotated` built it before rotations were read in
    place: every row and entry picked into a new tuple."""
    pick = itemgetter(*[(i + k) % D.n for i in range(D.n)])
    return DistanceMatrix._of(tuple(map(pick, pick(D.d))))


@pytest.mark.parametrize("n", [8, 128])
def test_rotations_read_in_place_equal_the_eager_copies(n):
    D = distance_matrix(random_polygon(random.Random(n), n))
    views = list(D.rotations())
    assert len(views) == n and views[0] is D
    for k, (R, S) in enumerate(zip(views, [D.rotated(k) for k in range(n)])):
        want = eager_rotated(D, k)
        for X in (R, S):
            rows, offset = X.rows_and_offset()
            # n rows of n entries: no row is doubled
            assert len(rows) == n and all(len(row) == n for row in rows)
            assert -n <= offset <= 0
            assert [[rows[i + offset][j + offset] for j in range(n)] for i in range(n)] == list(
                map(list, want.d))
            assert X == want and want == X and hash(X) == hash(want)
            assert float.hex(X.max_entry()) == float.hex(want.max_entry())
            assert X.d == want.d and type(X.d) is tuple
            assert all(type(row) is tuple and len(row) == n for row in X.d)
            Y = pickle.loads(pickle.dumps(X))
            assert Y == want and Y.d == want.d and hash(Y) == hash(want)
    # a rotation of a rotation, and a shift past n either way
    for k in (-n - 3, -1, 5, n + 2):
        assert views[3].rotated(k) == eager_rotated(D, 3 + k)


@pytest.mark.parametrize("n", [3, 8, 128])
def test_all_rotations_of_a_map_share_one_row_tuple(n):
    D = distance_matrix(random_convex_polygon(random.Random(n), n))
    rows = D.d
    tracemalloc.start()
    try:
        views = list(D.rotations())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [view.rows_and_offset()[0] for view in views] == [rows] * n
    assert all(view.rows_and_offset()[0] is rows for view in views)
    assert [view.rows_and_offset()[1] for view in views] == [0, *range(1 - n, 0)]
    # a rotation of a rotation reads the same rows too
    assert views[-1].rotated(2).rows_and_offset() == (rows, 1 - n)
    assert views[-1].rotated(2).rows_and_offset()[0] is rows
    # and so do the rotations of a rotation, in the order of its own shifts
    again = list(views[-1].rotations())
    assert all(view.rows_and_offset()[0] is rows for view in again)
    assert [view.rows_and_offset()[1] for view in again] == [
        (k - 1) % n - n for k in range(n)]
    assert [view.d for view in again] == [D.rotated(k - 1).d for k in range(n)]
    # O(n) together: a view and its offset, about 100 bytes each, where a
    # copied row order alone would hold n pointers of 8 bytes per view
    assert held < 160 * n + 1024
