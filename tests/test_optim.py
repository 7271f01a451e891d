import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polycenter.optim as optim
from polycenter.errors import NoConvergence
from polycenter.geometry import DihedralElement, Point2, Polygon, relabel
from polycenter.optim import (
    MedianResult,
    chebyshev_center,
    geometric_median,
)
from polycenter.sampling import random_convex_polygon, random_polygon

from helpers import check_minimal_center

TRI345 = Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])
SQUARE = Polygon.from_pairs([(0, 0), (1, 0), (1, 1), (0, 1)])


def distance_sum(p, x, y):
    return sum(math.hypot(x - v.x, y - v.y) for v in p.vertices)


def grid_median(p, stages=3, res=100):
    """Independent oracle: refine a brute-force grid around the best cell."""
    vx = np.array([v.x for v in p.vertices])
    vy = np.array([v.y for v in p.vertices])
    cx, cy = vx.mean(), vy.mean()
    half = max(vx.max() - vx.min(), vy.max() - vy.min(), 1e-9) / 2
    for _ in range(stages):
        xs = np.linspace(cx - half, cx + half, res + 1)
        ys = np.linspace(cy - half, cy + half, res + 1)
        gx, gy = np.meshgrid(xs, ys)
        total = np.zeros_like(gx)
        for x0, y0 in zip(vx, vy):
            total += np.hypot(gx - x0, gy - y0)
        k = int(np.argmin(total))
        cx, cy = float(gx.flat[k]), float(gy.flat[k])
        half = 2 * (2 * half / res)
    return cx, cy


# ----------------------------------------------------------------- median


def test_median_of_square_is_center():
    got = geometric_median(SQUARE)
    assert got.point.distance_to(Point2(0.5, 0.5)) < 1e-12
    assert got.residual <= 1e-8
    assert got.at_vertex is None


def test_median_tri345_matches_grid():
    got = geometric_median(TRI345)
    ox, oy = grid_median(TRI345)
    assert math.hypot(got.point.x - ox, got.point.y - oy) < 1e-4
    # the solver's objective can only be at least as good as the grid's
    assert distance_sum(TRI345, got.point.x, got.point.y) <= (
        distance_sum(TRI345, ox, oy) + 1e-9
    )


def test_median_random_polygons_match_grid():
    rng = random.Random(9)
    for _ in range(10):
        p = random_polygon(rng, rng.randrange(3, 8))
        got = geometric_median(p)
        assert got.residual <= 1e-8
        ox, oy = grid_median(p)
        assert math.hypot(got.point.x - ox, got.point.y - oy) < 1e-4


def test_median_steps_off_a_vertex_that_pulls_harder_than_one():
    # the vertex mean is vertex 1, whose other vertices pull with a
    # unit-vector sum of norm about 2, so the iteration steps off it
    p = Polygon.from_pairs([(0, 0), (4, 0.1), (4, -0.1), (5, 0), (-13, 0)])
    assert p.vertex_mean() == p.vertices[0]
    got = geometric_median(p)
    assert got == MedianResult(Point2(3.94226497308103, 0.0), 35, got.residual, None)
    assert got.residual <= 1e-12
    ox, oy = grid_median(p, stages=6)
    assert math.hypot(got.point.x - ox, got.point.y - oy) < 1e-6
    assert distance_sum(p, got.point.x, got.point.y) <= distance_sum(p, ox, oy) + 1e-12


def test_median_captured_at_wide_vertex():
    # the middle vertex pulls with unit-vector sum of norm < 1, so the
    # objective is minimized exactly there
    p = Polygon.from_pairs([(-1, 0), (0, 0.2), (1, 0)])
    got = geometric_median(p)
    assert got.at_vertex == 1
    assert got.point.as_tuple() == (0.0, 0.2)
    assert got.residual == 0.0


def test_median_budget_exhaustion_keeps_best():
    with pytest.raises(NoConvergence) as err:
        geometric_median(TRI345, max_iter=1)
    best = err.value.best
    assert isinstance(best, MedianResult)
    assert best.iterations == 1
    # one step from the vertex mean still lands inside the triangle
    assert 0.0 < best.point.x < 3.0 and 0.0 < best.point.y < 4.0


def test_median_objective_beats_vertex_mean():
    rng = random.Random(10)
    for _ in range(20):
        p = random_polygon(rng, 7)
        got = geometric_median(p)
        mean = p.vertex_mean()
        assert distance_sum(p, got.point.x, got.point.y) <= (
            distance_sum(p, mean.x, mean.y) + 1e-12
        )


# -------------------------------------------------------- enclosing circle


def brute_force_circle(p):
    """Smallest covering circle via all pairs and triples."""
    pts = p.vertices
    best = None
    for a, b in itertools.combinations(pts, 2):
        c = Point2((a.x + b.x) / 2, (a.y + b.y) / 2)
        r = a.distance_to(b) / 2
        if all(c.distance_to(q) <= r * (1 + 1e-12) for q in pts):
            if best is None or r < best[1]:
                best = (c, r)
    for a, b, c3 in itertools.combinations(pts, 3):
        d = 2 * (a.x * (b.y - c3.y) + b.x * (c3.y - a.y) + c3.x * (a.y - b.y))
        if d == 0:
            continue
        ux = (
            (a.x**2 + a.y**2) * (b.y - c3.y)
            + (b.x**2 + b.y**2) * (c3.y - a.y)
            + (c3.x**2 + c3.y**2) * (a.y - b.y)
        ) / d
        uy = (
            (a.x**2 + a.y**2) * (c3.x - b.x)
            + (b.x**2 + b.y**2) * (a.x - c3.x)
            + (c3.x**2 + c3.y**2) * (b.x - a.x)
        ) / d
        cc = Point2(ux, uy)
        r = cc.distance_to(a)
        if all(cc.distance_to(q) <= r * (1 + 1e-12) for q in pts):
            if best is None or r < best[1]:
                best = (cc, r)
    assert best is not None
    return best


def test_chebyshev_square():
    got = chebyshev_center(SQUARE)
    assert got.center.distance_to(Point2(0.5, 0.5)) < 1e-12
    assert got.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert got.support == tuple(sorted(got.support))


def test_chebyshev_right_triangle():
    got = chebyshev_center(TRI345)
    assert got.center.distance_to(Point2(1.5, 2.0)) < 1e-12
    assert got.radius == pytest.approx(2.5, abs=1e-12)


def test_chebyshev_covers_all_vertices():
    rng = random.Random(11)
    for _ in range(50):
        p = random_polygon(rng, rng.randrange(3, 10))
        got = chebyshev_center(p)
        for v in p.vertices:
            assert got.center.distance_to(v) <= got.radius * (1 + 1e-9)


def test_chebyshev_matches_brute_force():
    rng = random.Random(12)
    for _ in range(40):
        p = random_polygon(rng, rng.randrange(3, 9))
        got = chebyshev_center(p)
        c, r = brute_force_circle(p)
        assert abs(got.radius - r) <= 1e-9 * max(1.0, r)
        assert got.center.distance_to(c) <= 1e-9 * max(1.0, r)


def test_chebyshev_relabeling_does_not_change_the_circle():
    # a relabeled polygon feeds the vertices to the fixed shuffle in another order
    rng = random.Random(13)
    for _ in range(10):
        p = random_polygon(rng, 7)
        alpha = DihedralElement(7, rng.randrange(1, 7), rng.random() < 0.5)
        a = chebyshev_center(p)
        b = chebyshev_center(relabel(alpha, p))
        assert a.center.distance_to(b.center) < 1e-9
        assert abs(a.radius - b.radius) < 1e-9


SAMPLED = st.one_of(
    st.builds(lambda seed, n: random_polygon(random.Random(seed), n),
              st.integers(0, 2**32 - 1), st.integers(3, 24)),
    st.builds(lambda seed, n: random_convex_polygon(random.Random(seed), n),
              st.integers(0, 2**32 - 1), st.integers(3, 40)),
)


@settings(max_examples=300, deadline=None)
@given(SAMPLED, st.integers(-1000, 1000))
def test_the_chebyshev_circle_scales_with_the_polygon_bit_for_bit(p, k):
    pairs = [(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in p.vertices]
    # 2^k p is representable: every coordinate scaled exactly
    assume(all(math.ldexp(x, -k) == v.x and math.ldexp(y, -k) == v.y
               for (x, y), v in zip(pairs, p.vertices)))
    at_one = chebyshev_center(p)
    at_scale = chebyshev_center(Polygon.from_pairs(pairs))
    assert at_scale.center.x == math.ldexp(at_one.center.x, k)
    assert at_scale.center.y == math.ldexp(at_one.center.y, k)
    assert at_scale.radius == math.ldexp(at_one.radius, k)
    assert at_scale.support == at_one.support


def test_chebyshev_supports_lie_on_the_boundary():
    rng = random.Random(14)
    for _ in range(20):
        p = random_polygon(rng, 6)
        got = chebyshev_center(p)
        assert 2 <= len(got.support) <= 3
        for k in got.support:
            gap = abs(got.center.distance_to(p.vertices[k]) - got.radius)
            assert gap <= 1e-9 * max(1.0, got.radius)


# ------------------------------------------------------- minimality checks


def test_check_minimal_center_accepts_true_centers():
    med = geometric_median(TRI345).point
    assert check_minimal_center("median", TRI345, med) < 1e-6
    cheb = chebyshev_center(TRI345).center
    assert check_minimal_center("chebyshev", TRI345, cheb) < 1e-6


def test_check_minimal_center_rejects_impostors():
    centroid = TRI345.vertex_mean()
    assert check_minimal_center("median", TRI345, Point2(0.5, 0.5)) > 1e-3
    assert check_minimal_center("chebyshev", TRI345, centroid) > 1e-3


def test_check_minimal_center_is_deterministic():
    med = geometric_median(SQUARE).point
    a = check_minimal_center("median", SQUARE, med, trials=4, seed=3)
    b = check_minimal_center("median", SQUARE, med, trials=4, seed=3)
    assert a == b


def test_a_median_iteration_measures_each_vertex_distance_once(monkeypatch):
    # the iteration measures with hypot on floats: counted in optim's
    # namespace, one call per vertex from the first iterate, the vertex
    # mean, on the vertex minus the iterate, which the snap scan, gradient
    # and weights share (not 3 * 64 = 192), and one more for the residual
    p = random_convex_polygon(random.Random(6), 64)
    start = p.vertex_mean()
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def hypot(*args):
            calls.append(args)
            return math.hypot(*args)

    monkeypatch.setattr(optim, "math", CountingMath())
    with pytest.raises(NoConvergence):
        geometric_median(p, max_iter=1)
    offsets = {(v.x - start.x, v.y - start.y) for v in p.vertices}
    assert sum(args in offsets for args in calls) == 64
    assert len(calls) == 64 + 1
