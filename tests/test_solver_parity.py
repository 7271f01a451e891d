"""The solver and characterization kernels against their references.

The probes are whole maps, `reconstruct` reads the losing mirror side only
until it is decided, `geometric_median` iterates on floats,
`chebyshev_center` keeps its candidate centers as float pairs and
`random_polygon` tests separation in x order. `reference_solvers` keeps
each as it was: per-shift probes on shifted copies, both sides measured in
full, a `Point2` iterate, `Point2` candidate centers, and the
distance-matrix rule. Results are compared by `repr` (circles by
`float.hex`), errors by class and message, and `NoConvergence` by its best
iterate too.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solvers as ref
from polycenter.characterization import (
    F1, F2_ODD, F3_EVEN, characterize, coincidence,
)
from polycenter.errors import DegenerateVertex, NoConvergence
from polycenter.framework import cyclic_values
from polycenter.geometry import DistanceMatrix, Point2, Polygon, distance_matrix
from polycenter.optim import chebyshev_center, geometric_median
from polycenter.reconstruction import _miss, reconstruct, validate
from polycenter.sampling import random_convex_polygon, random_polygon, regular_polygon

PROBES = ((F1, ref.F1), (F2_ODD, ref.F2_ODD), (F3_EVEN, ref.F3_EVEN))
ENTRY_ZERO = ((F1.evaluator, ref.f1_cosine), (F2_ODD.evaluator, ref.f2_odd),
              (F3_EVEN.evaluator, ref.f3_even))


def outcome(call):
    try:
        return ("value", repr(call()))
    except Exception as exc:  # every error class is part of the outcome
        return (type(exc), str(exc), repr(getattr(exc, "best", None)))


def _star(n):
    winding = next((w for w in range(2, (n + 1) // 2) if math.gcd(n, w) == 1), 1)
    return regular_polygon(n, winding=winding)


def _clustered(rng, n):
    # a few tight clusters; some vertices repeat exactly, so edges vanish
    centers = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randrange(1, 4))]
    pts = []
    for _ in range(n):
        if pts and rng.random() < 0.1:
            pts.append(rng.choice(pts))
            continue
        cx, cy = rng.choice(centers)
        pts.append((cx + rng.uniform(-1e-9, 1e-9), cy + rng.uniform(-1e-9, 1e-9)))
    return Polygon.from_pairs(pts)


def _near_collinear(rng, n):
    # on the x-axis up to tiny heights, some of them exactly zero
    return Polygon.from_pairs(
        (rng.uniform(-2, 2), rng.choice([0.0, rng.uniform(-1e-13, 1e-13)])) for _ in range(n)
    )


def _overflowing(rng, n):
    # finite vertices whose differences overflow
    return Polygon.from_pairs(
        (rng.choice([-1.7e308, 1.7e308, 0.0]), rng.uniform(-1.0, 1.0)) for _ in range(n)
    )


KINDS = {
    "random": lambda rng, n: random_polygon(rng, n),
    "convex": random_convex_polygon,
    "regular": lambda rng, n: regular_polygon(n, phase=rng.uniform(0, 6.3)),
    "star": lambda rng, n: _star(n),
    "clustered": _clustered,
    "near-collinear": _near_collinear,
    "overflowing": _overflowing,
}


def _scaled(p, k):
    return Polygon.from_pairs([(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in p.vertices])


@st.composite
def polygons(draw, max_n=128, kinds=tuple(KINDS),
             exponents=st.sampled_from([0, 0, 1, -1, 30, -30, 300, -300, 1000, -1000])):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(3, max_n))
    p = KINDS[kind](random.Random(draw(st.integers(0, 2**32))), n)
    if kind == "overflowing":
        return p
    return _scaled(p, draw(exponents))


# ------------------------------------------------------------------- probes


@settings(max_examples=150, deadline=None)
@given(polygons())
def test_probe_maps_and_reports_match_the_per_shift_probes(p):
    for new, old in PROBES:
        assert outcome(lambda: cyclic_values(new, p)) == outcome(lambda: cyclic_values(old, p))
        assert outcome(lambda: coincidence(new, p)) == outcome(lambda: ref.coincidence(old, p))
    assert outcome(lambda: characterize(p)) == outcome(lambda: ref.characterize(p))


@settings(max_examples=100, deadline=None)
@given(polygons())
def test_each_probe_is_entry_zero_of_its_map(p):
    # the old probe on every shift, unchecked: a probe raises what the
    # first failing shift raised, and is otherwise the old value at shift 0
    for probe, old in ENTRY_ZERO:
        want = outcome(lambda: [old(p.shifted(k)) for k in range(p.n)])
        if want[0] == "value":
            want = outcome(lambda: old(p))
        assert outcome(lambda: probe(p)) == want


def test_f1_cosine_raises_for_a_zero_edge_away_from_vertex_1():
    # the old probe read only vertices n, 1 and 2; entry 0 of the whole map
    # raises what the map raises, as coincidence(F1, p) always did
    p = Polygon.from_pairs([(0, 0), (1, 0), (2, 1), (2, 1), (0, 1)])
    assert ref.f1_cosine(p) == 0.0
    with pytest.raises(DegenerateVertex):
        F1.evaluator(p)


def test_the_first_failing_shift_decides_the_probe_error():
    # shift 1 overflows and shift 3 is degenerate: the overflow is raised
    big = 1.7e308
    p = Polygon.from_pairs([(0, 0), (big, 0), (-big, 1), (0, 2), (0, 2), (0, 3)])
    want = outcome(lambda: cyclic_values(ref.F1, p))
    assert want[0].__name__ == "NonFinite"
    assert outcome(lambda: cyclic_values(F1, p)) == want
    q = Polygon(p.vertices[3:] + p.vertices[:3])
    want = outcome(lambda: cyclic_values(ref.F1, q))
    assert want[0] is DegenerateVertex
    assert outcome(lambda: cyclic_values(F1, q)) == want


# ----------------------------------------------------------- reconstruction


def _perturbed(D, rng):
    """D with one off-diagonal pair scaled, usually no longer planar."""
    n = D.n
    i, j = rng.sample(range(n), 2)
    rows = [list(row) for row in D.d]
    rows[i][j] = rows[j][i] = rows[i][j] * rng.choice([0.5, 0.999999, 1.0000001, 2.0])
    return DistanceMatrix.from_rows(rows)


@settings(max_examples=150, deadline=None)
@given(polygons(kinds=tuple(k for k in KINDS if k != "overflowing")), st.integers(0, 2**32))
def test_reconstruct_and_validate_match_the_both_sides_reference(p, seed):
    D = distance_matrix(p)
    for M in (D, _perturbed(D, random.Random(seed))):
        assert outcome(lambda: reconstruct(M)) == outcome(lambda: ref.reconstruct(M))
        assert outcome(lambda: validate(M)) == outcome(lambda: ref.validate(M))


def test_a_tie_between_the_mirror_sides_goes_below():
    # vertex 3 misses vertices 1 and 2, both on the axis, equally above and
    # below, so it goes below; vertex 4 then misses less above. The outline
    # bounds zero signed area, so no final flip hides the choice.
    p = Polygon.from_pairs([(0, 0), (4, 0), (1, 1), (3, -1)])
    got = reconstruct(distance_matrix(p))
    assert repr(got) == repr(ref.reconstruct(distance_matrix(p)))
    assert got.polygon.vertices[2].y < 0.0 < got.polygon.vertices[3].y
    xs, ys, lengths = [0.0, 4.0], [0.0, 0.0], [math.sqrt(2.0), math.sqrt(10.0)]
    assert _miss(1.0, -1.0, xs, ys, lengths) == _miss(1.0, 1.0, xs, ys, lengths)


def test_the_losing_side_is_read_only_until_it_is_decided():
    xs, ys, lengths = [0.0, 1.0, 5.0, 9.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]
    full = _miss(0.0, 0.0, xs, ys, lengths)
    assert full == 8.0
    assert _miss(0.0, 0.0, xs, ys, lengths, 4.0) == 4.0  # stops at vertex 3
    assert _miss(0.0, 0.0, xs, ys, lengths, 8.5) == full


# ----------------------------------------------------------- geometric median


def _same_median(p, **kw):
    assert outcome(lambda: geometric_median(p, **kw)) == outcome(
        lambda: ref.geometric_median(p, **kw)
    )


@settings(max_examples=120, deadline=None)
@given(polygons(), st.sampled_from([1, 2, 3, 40, 400]))
def test_median_matches_the_point2_loop(p, max_iter):
    _same_median(p, max_iter=max_iter)


@settings(max_examples=40, deadline=None)
@given(polygons(max_n=24))
def test_median_matches_the_point2_loop_to_convergence(p):
    _same_median(p)


def test_no_convergence_carries_the_same_best_iterate():
    p = random_polygon(random.Random(5), 40)
    for max_iter in (1, 2, 3):
        with pytest.raises(NoConvergence) as new:
            geometric_median(p, max_iter=max_iter)
        with pytest.raises(NoConvergence) as old:
            ref.geometric_median(p, max_iter=max_iter)
        assert str(new.value) == str(old.value)
        assert repr(new.value.best) == repr(old.value.best)
        assert new.value.best.iterations == max_iter


def test_median_vertex_steps_and_captures_match():
    # the mean is vertex 1 in both: in the first it pulls harder than one
    # and the iteration steps off it, in the second it captures the median
    stepping = Polygon.from_pairs([(0, 0), (4, 0.1), (4, -0.1), (5, 0), (-13, 0)])
    captured = Polygon.from_pairs([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)])
    for p in (stepping, captured):
        for max_iter in (1, 2, 10000):
            _same_median(p, max_iter=max_iter)


# ----------------------------------------------------------- enclosing circle


def circle_outcome(call):
    try:
        c = call()
    except Exception as exc:  # every error class is part of the outcome
        return (type(exc), str(exc))
    return (c.center.x.hex(), c.center.y.hex(), c.radius.hex(), c.support)


def _same_circle(p):
    want = circle_outcome(lambda: ref.chebyshev_center(p))
    assert circle_outcome(lambda: chebyshev_center(p)) == want
    return want


def _collinear_clusters(rng, n):
    # a few tight clusters strung along one line, each point off it by at
    # most 1e-13; some points repeat exactly
    slope, centers = rng.uniform(-1, 1), [rng.uniform(-2, 2) for _ in range(rng.randrange(1, 4))]
    pts = []
    for _ in range(n):
        if pts and rng.random() < 0.05:
            pts.append(rng.choice(pts))
            continue
        x = rng.choice(centers) + rng.uniform(-1e-9, 1e-9)
        pts.append((x, slope * x + rng.choice([0.0, rng.uniform(-1e-13, 1e-13)])))
    return Polygon.from_pairs(pts)


@settings(max_examples=200, deadline=None)
@given(polygons(max_n=64, exponents=st.integers(-1000, 1000)))
def test_chebyshev_matches_the_point2_construction(p):
    _same_circle(p)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 40), st.integers(0, 2**32), st.integers(-1000, 1000))
def test_chebyshev_matches_on_near_collinear_clusters(n, seed, k):
    _same_circle(_scaled(_collinear_clusters(random.Random(seed), n), k))


@pytest.mark.parametrize("k", [0, 1, -1, 600, -600, 1000, -1000])
def test_chebyshev_matches_on_cocircular_vertices(k):
    square = Polygon.from_pairs([(0, 0), (1, 0), (1, 1), (0, 1)])
    outcomes = [_same_circle(_scaled(square, k))]
    for n in range(3, 33):
        for phase in (0.0, 0.3):
            outcomes.append(_same_circle(_scaled(regular_polygon(n, phase=phase), k)))
    assert all(isinstance(o[0], str) for o in outcomes)  # every one is a circle


# --------------------------------------------------------------- separation


class _Exhausted(Exception):
    pass


class _Stream:
    """Stands in for random.Random in `random_polygon`, which only draws
    uniform coordinates: it hands out the given values in order."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self, a, b):
        for value in self.values:
            return value
        raise _Exhausted


def _accepted(pts, min_separation):
    """Whether random_polygon keeps pts as its first sample; it draws again
    when it rejects them, and the stream has nothing more."""
    try:
        p = random_polygon(_Stream([c for pt in pts for c in pt]), len(pts), min_separation)
    except _Exhausted:
        return False
    assert [v.as_tuple() for v in p.vertices] == pts
    return True


grid = st.integers(-32, 32).map(lambda i: i / 16)  # exact multiples of 1/16


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(grid, grid), min_size=3, max_size=12),
    st.sampled_from([1 / 16, 1 / 8, 3 / 16, 0.05, 0.25]),
)
def test_separation_matches_the_matrix_rule_on_a_grid(pts, min_separation):
    # grid points repeat x values and sit exactly min_separation apart
    p = Polygon.from_pairs(pts)
    assert _accepted(pts, min_separation) == ref.separated(p, min_separation)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=3, max_size=40
    ),
    st.floats(0.0, 1.0),
)
def test_separation_matches_the_matrix_rule(pts, min_separation):
    p = Polygon.from_pairs(pts)
    assert _accepted(pts, min_separation) == ref.separated(p, min_separation)


def test_pairs_exactly_min_separation_apart_pass():
    pts = [(0.0, 0.0), (0.0625, 0.0), (0.0625, 0.0625), (0.0, 0.0625)]
    assert _accepted(pts, 0.0625)
    assert not _accepted(pts, math.nextafter(0.0625, 1.0))


def test_random_polygon_draws_the_same_stream():
    for seed in range(20):
        rng, old = random.Random(seed), random.Random(seed)
        n = 3 + seed * 6
        while True:
            want = Polygon(
                tuple(Point2(old.uniform(-2.0, 2.0), old.uniform(-2.0, 2.0)) for _ in range(n))
            )
            if ref.separated(want, 5e-2):
                break
        assert random_polygon(rng, n) == want
        assert rng.getstate() == old.getstate()
