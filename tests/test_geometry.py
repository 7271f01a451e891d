import math
import random

import numpy as np
import pytest

from polycenter.framework import _SCALES
from polycenter.geometry import (
    DihedralElement,
    DistanceMatrix,
    Point2,
    Polygon,
    RigidMotion,
    Similarity,
    apply_motion,
    cayley_menger_quad,
    chords,
    distance_matrix,
    is_convex,
    is_nondegenerate,
    relabel,
)

from helpers import compose, compose_motions, entry, identity, inverse, permuted, signed_area
from reference_axioms import scaled

SQUARE = Polygon.from_pairs([(0, 0), (1, 0), (1, 1), (0, 1)])
TRI345 = Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])

# mountain-profile pentagon: simple but not convex (one reflex valley)
MOUNTAIN = Polygon.from_pairs(
    [(0, 0), (0.5, math.sqrt(3) / 2), (1, 0), (1.5, math.sqrt(3) / 2), (2, 0)]
)


def regular(n, winding=1):
    step = 2 * math.pi * winding / n
    return Polygon.from_pairs(
        [(math.cos(k * step), math.sin(k * step)) for k in range(n)]
    )


# ------------------------------------------------------------------ basics


def test_point_arithmetic():
    a = Point2(1, 2)
    assert a.scaled(2).as_tuple() == (2, 4)
    assert a.distance_to(Point2(4, 6)) == 5


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point2(math.nan, 0)
    with pytest.raises(ValueError):
        Point2(0, math.inf)


def test_polygon_needs_three_vertices():
    with pytest.raises(ValueError):
        Polygon.from_pairs([(0, 0), (1, 1)])


def test_polygon_cyclic_vertex_access():
    assert TRI345.vertex(3) == TRI345.vertex(0)
    assert TRI345.vertex(-1) == TRI345.vertex(2)
    assert TRI345.shifted(1).vertices[0] == TRI345.vertices[1]


def test_perimeter_and_diameter():
    assert sum(chords(TRI345, 1)) == 12.0
    assert TRI345.diameter() == 5.0
    assert SQUARE.diameter() == pytest.approx(math.sqrt(2))


# ----------------------------------------------------------- dihedral group


@pytest.mark.parametrize("n", range(3, 13))
def test_dihedral_composition_matches_permutations(n):
    elements = [
        DihedralElement(n, a, flip) for a in range(n) for flip in (False, True)
    ]
    assert len({e.permutation() for e in elements}) == 2 * n
    for g in elements:
        for h in elements:
            gh = compose(g, h)
            want = tuple(g.apply(h.apply(i)) for i in range(n))
            assert gh.permutation() == want


@pytest.mark.parametrize("n", range(3, 13))
def test_dihedral_inverse_and_relations(n):
    rho = DihedralElement.rho(n)
    sig = DihedralElement.sigma(n)
    ident = identity(n).permutation()
    assert compose(sig, sig).permutation() == ident
    assert DihedralElement.rho(n, n).permutation() == ident
    # sigma rho sigma = rho^{-1}
    conj = compose(compose(sig, rho), sig)
    assert conj.permutation() == DihedralElement.rho(n, -1).permutation()
    for g in (rho, sig, compose(rho, sig), DihedralElement.rho(n, 2)):
        assert compose(g, inverse(g)).permutation() == ident
        assert compose(inverse(g), g).permutation() == ident


def test_sigma_fixes_vertex_one_and_reverses():
    # 1-based: sigma(1) = 1, sigma(k) = n + 2 - k
    for n in (3, 4, 5, 8):
        sigma = DihedralElement.sigma(n)
        assert sigma.apply(0) == 0
        assert [sigma.apply(i) for i in range(n)] == [0] + list(range(n - 1, 0, -1))


def test_relabel_rotation_and_reflection():
    a, b, c = Point2(0, 0), Point2(1, 0), Point2(0, 1)
    tri = Polygon((a, b, c))
    assert relabel(DihedralElement.rho(3), tri).vertices == (b, c, a)
    assert relabel(DihedralElement.sigma(3), tri).vertices == (a, c, b)


def test_relabel_composes_contravariantly():
    rng = random.Random(7)
    p = Polygon.from_pairs([(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)])
    for _ in range(50):
        g = DihedralElement(6, rng.randrange(6), rng.random() < 0.5)
        h = DihedralElement(6, rng.randrange(6), rng.random() < 0.5)
        left = relabel(h, relabel(g, p))
        right = relabel(compose(g, h), p)
        assert left.vertices == right.vertices


# --------------------------------------------------------------- distances


def test_distance_matrix_of_triangle():
    D = distance_matrix(TRI345)
    assert D.d == ((0.0, 3.0, 4.0), (3.0, 0.0, 5.0), (4.0, 5.0, 0.0))
    assert entry(D, 0, 1) == 3.0
    assert entry(D, -1, 0) == 4.0
    assert D.max_entry() == 5.0


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(((0.0, 1.0), (1.0, 0.0)))  # too small
    with pytest.raises(ValueError):
        DistanceMatrix(((0.0, 1.0, 2.0), (1.0, 0.0, 3.0), (2.0, 3.1, 0.0)))
    with pytest.raises(ValueError):
        DistanceMatrix(((0.5, 1.0, 2.0), (1.0, 0.0, 3.0), (2.0, 3.0, 0.0)))


def test_rotated_matrix_reads_shifted_polygon():
    rng = random.Random(3)
    for n in (3, 5, 8):
        p = Polygon.from_pairs(
            [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        )
        D = distance_matrix(p)
        for k in range(n):
            assert D.rotated(k).d == distance_matrix(p.shifted(k)).d


def test_permuted_matrix_matches_relabel():
    rng = random.Random(11)
    for n in (4, 7):
        p = Polygon.from_pairs(
            [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        )
        for _ in range(30):
            g = DihedralElement(n, rng.randrange(n), rng.random() < 0.5)
            direct = distance_matrix(relabel(g, p))
            via_perm = permuted(distance_matrix(p), g.permutation())
            assert direct.d == via_perm.d


def test_scaled_matrix():
    D = scaled(distance_matrix(TRI345), 2.0)
    assert D.d[0][1] == 6.0 and D.d[1][2] == 10.0


def test_derived_matrices_pass_validation():
    rng = random.Random(12)
    for n in (3, 6, 9):
        p = Polygon.from_pairs(
            [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        )
        D = distance_matrix(p)
        perm = DihedralElement(n, rng.randrange(n), True).permutation()
        for derived in (permuted(D, perm), scaled(D, rng.uniform(0.0, 5.0)), scaled(D, 0.0)):
            assert DistanceMatrix.from_rows(derived.d).d == derived.d


def test_scaled_matrix_equals_measuring_the_scaled_polygon():
    # the reference axiom trials rescale matrices instead of re-measuring polygons
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(3, 9)
        p = Polygon.from_pairs(
            [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
        )
        D = distance_matrix(p)
        for t in _SCALES:
            measured = distance_matrix(Polygon(tuple(v.scaled(t) for v in p.vertices)))
            assert scaled(D, t).d == measured.d


def test_scaled_matrix_rejects_bad_factors():
    D = distance_matrix(TRI345)  # 3 * 1e308 overflows
    for t in (-1.0, math.nan, math.inf, 1e308):
        with pytest.raises(ValueError):
            scaled(D, t)
    assert scaled(D, 1e307).d[1][2] == 5e307


# ----------------------------------------------------------- cayley-menger


def test_cayley_menger_unit_tetrahedron():
    # all six distances 1: a genuinely 3-dimensional point set
    assert cayley_menger_quad(1, 1, 1, 1, 1, 1) == pytest.approx(4.0)


def test_cayley_menger_planar_quad_vanishes():
    rng = random.Random(5)
    for _ in range(50):
        q = Polygon.from_pairs(
            [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)]
        )
        D = distance_matrix(q)
        val = cayley_menger_quad(
            D.d[0][1], D.d[1][2], D.d[2][3], D.d[3][0], D.d[0][2], D.d[1][3]
        )
        assert abs(val) <= 1e-9 * max(1.0, D.max_entry() ** 8)


def test_cayley_menger_determinant_is_degree_six():
    # squared entries fill a 3x3-minor-bearing block: det scales as t^6
    base = cayley_menger_quad(1, 1, 1, 1, 1, 1)
    for t in (0.5, 2.0, 3.0):
        scaled = cayley_menger_quad(t, t, t, t, t, t)
        assert scaled == pytest.approx(t**6 * base, rel=1e-12)


def test_cayley_menger_against_numpy_determinant():
    rng = random.Random(17)
    for _ in range(100):
        e = [rng.uniform(0.2, 3.0) for _ in range(6)]
        got = cayley_menger_quad(*e)
        q12, q23, q34, q41, q13, q24 = [x * x for x in e]
        m = np.array(
            [
                [0, 1, 1, 1, 1],
                [1, 0, q12, q13, q41],
                [1, q12, 0, q23, q24],
                [1, q13, q23, 0, q34],
                [1, q41, q24, q34, 0],
            ],
            dtype=float,
        )
        want = np.linalg.det(m)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


# ------------------------------------------------------------------- shape


def test_signed_area_orientation():
    assert signed_area(SQUARE) == 1.0
    reversed_square = Polygon(tuple(reversed(SQUARE.vertices)))
    assert signed_area(reversed_square) == -1.0


def test_classify_square():
    assert is_nondegenerate(SQUARE) and is_convex(SQUARE)


def test_classify_mountain_profile():
    # the valley vertex sits exactly on the closing base edge
    assert is_nondegenerate(MOUNTAIN) and not is_convex(MOUNTAIN)


def test_classify_lifted_valley_is_simple():
    p = Polygon.from_pairs(
        [(0, 0), (0.5, 0.9), (1, 0.2), (1.5, 0.9), (2, 0)]
    )
    assert is_nondegenerate(p) and not is_convex(p)


def test_classify_pentagram():
    star = regular(5, winding=2)
    assert is_nondegenerate(star)
    assert not is_convex(star)


def test_degenerate_repeated_vertex():
    p = Polygon.from_pairs([(0, 0), (1, 0), (1, 0), (0, 1)])
    assert not is_nondegenerate(p)


def test_convexity_rejects_collinear_run():
    p = Polygon.from_pairs([(0, 0), (1, 0), (2, 0), (1, 1)])
    assert not is_convex(p)


# ------------------------------------------------------------------ motions


def test_rigid_motion_preserves_distances():
    rng = random.Random(23)
    for _ in range(50):
        m = RigidMotion(
            rng.uniform(0, 2 * math.pi),
            Point2(rng.uniform(-5, 5), rng.uniform(-5, 5)),
        )
        a = Point2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = Point2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert m.apply(a).distance_to(m.apply(b)) == pytest.approx(
            a.distance_to(b), rel=1e-12, abs=1e-12
        )


def test_rigid_motion_composition():
    rng = random.Random(29)
    m1 = RigidMotion(0.7, Point2(1, -2))
    m2 = RigidMotion(2.1, Point2(-3, 0.5))
    both = compose_motions(m1, m2)
    for _ in range(20):
        v = Point2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        want = m1.apply(m2.apply(v))
        got = both.apply(v)
        assert got.distance_to(want) < 1e-12


def test_similarity_scales_distances():
    s = Similarity(2.5, RigidMotion(1.0, Point2(0, 1)))
    a, b = Point2(0, 0), Point2(1, 1)
    assert s.apply(a).distance_to(s.apply(b)) == pytest.approx(2.5 * a.distance_to(b))
    with pytest.raises(ValueError):
        Similarity(0.0, RigidMotion(0.0, Point2(0, 0)))


def test_apply_motion_keeps_vertex_order():
    m = RigidMotion(0.3, Point2(1, 1))
    moved = apply_motion(m, TRI345)
    assert moved.n == 3
    assert moved.vertices[0].distance_to(m.apply(TRI345.vertices[0])) == 0.0


def test_apply_motion_equals_moving_each_vertex():
    # apply_motion takes the cosine and sine once per motion; the points
    # must be the bits m.apply gives vertex by vertex
    rng = random.Random(9)
    for _ in range(200):
        pts = [(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(rng.randrange(3, 12))]
        p = Polygon.from_pairs(pts)
        angle = rng.choice([0.0, math.pi / 2, rng.uniform(-10.0, 10.0)])
        rigid = RigidMotion(angle, Point2(rng.uniform(-5, 5), rng.uniform(-5, 5)))
        for m in (rigid, Similarity(rng.uniform(0.01, 100.0), rigid)):
            expected = tuple(m.apply(v) for v in p.vertices)
            assert repr(apply_motion(m, p).vertices) == repr(expected)
