import math
import random

import pytest

from polycenter.characterization import (
    F1,
    F2_ODD,
    F3_EVEN,
    characterize,
    coincidence,
    interior_angles,
    predicates,
)
from polycenter.errors import DegenerateVertex, ParityMismatch
from polycenter.geometry import Polygon
from polycenter.sampling import random_convex_polygon
from samplers import (
    random_convex_nonequiangular,
    random_equiangular_polygon,
    random_equilateral_polygon,
    regular_polygon,
)

MOUNTAIN = Polygon.from_pairs(
    [(0, 0), (0.5, math.sqrt(3) / 2), (1, 0), (1.5, math.sqrt(3) / 2), (2, 0)]
)
RECT = Polygon.from_pairs([(0, 0), (2, 0), (2, 1), (0, 1)])
PARALLELOGRAM = Polygon.from_pairs([(0, 0), (2, 0), (3, 1), (1, 1)])
SQUARE = Polygon.from_pairs([(0, 0), (1, 0), (1, 1), (0, 1)])


# ------------------------------------------------------------------- probes


def test_f1_cosine_values():
    assert F1.evaluator(SQUARE) == pytest.approx(0.0, abs=1e-15)
    assert F1.evaluator(MOUNTAIN) == pytest.approx(0.5, abs=1e-12)


def test_f1_cosine_has_the_same_bits_at_every_power_of_two_scale():
    # no product of edge lengths, which underflowed to 0 near 2**-900
    p = random_convex_polygon(random.Random(3), 7)
    want = [F1.evaluator(p.shifted(s)) for s in range(p.n)]
    for k in range(-1000, 1001, 50):
        q = Polygon.from_pairs([(2.0**k * v.x, 2.0**k * v.y) for v in p.vertices])
        assert [F1.evaluator(q.shifted(s)) for s in range(q.n)] == want, k


def test_f1_rejects_zero_edge():
    p = Polygon.from_pairs([(0, 0), (0, 0), (1, 1)])
    with pytest.raises(DegenerateVertex):
        F1.evaluator(p)


def test_parity_guards():
    with pytest.raises(ParityMismatch):
        F2_ODD.evaluator(SQUARE)
    with pytest.raises(ParityMismatch):
        F3_EVEN.evaluator(MOUNTAIN)


def test_f3_reads_a_diagonal():
    # n=4: the half-skip diagonal from vertex 2 to vertex 4
    assert F3_EVEN.evaluator(RECT) == pytest.approx(math.sqrt(5.0))


# ------------------------------------------------------------- coincidence


def test_rectangle_cosines_coincide_at_zero():
    # all four corner cosines are exactly 0; an all-zero value set is a
    # legitimate coincidence (the spread uses an absolute floor of 1)
    rep = coincidence(F1, RECT)
    assert rep.coincident
    assert rep.spread == 0.0


def test_mountain_cosines_coincide():
    rep = coincidence(F1, MOUNTAIN)
    assert rep.coincident
    assert all(v == pytest.approx(0.5, abs=1e-12) for v in rep.values)


def test_parallelogram_diagonals_do_not_coincide():
    rep = coincidence(F3_EVEN, PARALLELOGRAM)
    assert not rep.coincident
    assert sorted(rep.values) == pytest.approx(
        [math.sqrt(2), math.sqrt(2), math.sqrt(10), math.sqrt(10)]
    )


def test_rectangle_diagonals_coincide():
    rep = coincidence(F3_EVEN, RECT)
    assert rep.coincident
    assert rep.values == pytest.approx((math.sqrt(5),) * 4)


# ------------------------------------------------------------------ angles


def test_interior_angles_of_square():
    assert interior_angles(SQUARE) == pytest.approx((math.pi / 2,) * 4)


def test_interior_angles_of_mountain():
    # four 60-degree peaks/corners and one 300-degree valley; the sum is
    # the plain pentagon total of 540 degrees
    angles = interior_angles(MOUNTAIN)
    assert angles[2] == pytest.approx(5 * math.pi / 3, abs=1e-12)
    for k in (0, 1, 3, 4):
        assert angles[k] == pytest.approx(math.pi / 3, abs=1e-12)
    assert sum(angles) == pytest.approx(3 * math.pi)


def test_interior_angles_of_pentagram():
    star = regular_polygon(5, winding=2)
    assert interior_angles(star) == pytest.approx((math.pi / 5,) * 5, abs=1e-12)


def test_orientation_does_not_change_angles():
    flipped = Polygon(tuple(reversed(MOUNTAIN.vertices)))
    assert sorted(interior_angles(flipped)) == pytest.approx(
        sorted(interior_angles(MOUNTAIN))
    )


# -------------------------------------------------------------- predicates


def test_predicates_fixtures():
    assert predicates(SQUARE) == {
        "equiangular": True,
        "equilateral": True,
        "regular": True,
    }
    assert predicates(RECT) == {
        "equiangular": True,
        "equilateral": False,
        "regular": False,
    }
    rhombus = Polygon.from_pairs([(0, 0), (2, 0), (3.2, 1.6), (1.2, 1.6)])
    got = predicates(rhombus)
    assert got["equilateral"] and not got["equiangular"]


# ----------------------------------------------------------------- reports


def test_characterize_rectangle():
    rep = characterize(RECT)
    assert rep.convex and rep.equiangular and not rep.equilateral
    assert rep.f1_coincident and rep.f3_coincident
    assert rep.f2_coincident is None
    assert rep.consistent_with_theorems


def test_characterize_mountain():
    rep = characterize(MOUNTAIN)
    assert not rep.convex
    assert not rep.equiangular
    # equal cosines without equal angles: exactly why convexity is required
    assert rep.f1_coincident
    assert rep.consistent_with_theorems


def test_characterize_rejects_degenerate():
    p = Polygon.from_pairs([(0, 0), (0, 0), (1, 1)])
    with pytest.raises(DegenerateVertex):
        characterize(p)


def test_equiangular_samples_coincide():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randrange(4, 9)
        p = random_equiangular_polygon(rng, n)
        rep = characterize(p)
        assert rep.convex and rep.equiangular
        assert rep.f1_coincident
        assert rep.consistent_with_theorems


def test_convex_nonequiangular_samples_do_not_coincide():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randrange(4, 9)
        p = random_convex_nonequiangular(rng, n)
        rep = characterize(p)
        assert rep.convex and not rep.equiangular
        assert not rep.f1_coincident
        assert rep.consistent_with_theorems


def test_equilateral_odd_samples_coincide_on_middle_side():
    rng = random.Random(22)
    for n in (5, 7, 9):
        for _ in range(15):
            p = random_equilateral_polygon(rng, n)
            rep = characterize(p)
            assert rep.equilateral
            assert rep.f2_coincident
            assert rep.consistent_with_theorems


def test_scalene_odd_samples_do_not_coincide():
    rng = random.Random(23)
    for _ in range(30):
        p = random_convex_polygon(rng, 5)
        rep = characterize(p)
        if rep.equilateral:
            continue
        assert not rep.f2_coincident
        assert rep.consistent_with_theorems


def test_regular_polygons_check_every_box():
    for n in range(3, 10):
        rep = characterize(regular_polygon(n))
        assert rep.regular and rep.equiangular and rep.equilateral
        assert rep.f1_coincident
        assert rep.consistent_with_theorems


def _scaled(p, k):
    return Polygon.from_pairs([(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in p.vertices])


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: random_convex_polygon(rng, rng.randrange(3, 10)),
        lambda rng: random_equiangular_polygon(rng, rng.randrange(3, 10)),
        lambda rng: random_equilateral_polygon(rng, rng.choice([3, 5, 7, 9])),
        lambda rng: regular_polygon(rng.randrange(3, 10)),
    ],
    ids=["convex", "equiangular", "equilateral", "regular"],
)
def test_the_report_is_the_same_at_every_power_of_two_scale(make):
    rng = random.Random(31)
    for _ in range(8):
        p = make(rng)
        expected = characterize(p)
        for k in range(-1000, 1001, 37):
            assert characterize(_scaled(p, k)) == expected, k


def test_length_probes_spread_alike_at_every_scale():
    p = random_convex_polygon(random.Random(3), 7)
    spread = coincidence(F2_ODD, p).spread
    for k in (-1000, -300, -30, -1, 1, 300, 1000):
        assert coincidence(F2_ODD, _scaled(p, k)).spread == spread


def test_interior_angles_have_the_same_bits_at_every_scale():
    p = random_convex_polygon(random.Random(4), 9)
    angles = interior_angles(p)
    for k in range(-1000, 1001, 50):
        assert interior_angles(_scaled(p, k)) == angles
        assert interior_angles(_scaled(Polygon(p.vertices[::-1]), k)) == angles[::-1]
