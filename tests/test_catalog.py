import math
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polycenter.catalog import (
    CATALOG,
    _distance_sums,
    lamina_centroid_direct,
    medoid,
    perimeter_centroid,
    triangle_circumcenter,
)
from polycenter.errors import Collinear, DomainViolation, Tie, ZeroArea
from polycenter.framework import (
    coordinate_map,
    coordinate_map_length,
    coordinate_map_vertex,
    geometric_center,
    verify_axioms,
)
from polycenter.geometry import DihedralElement, Point2, Polygon, distance_matrix, relabel
from polycenter.sampling import random_convex_polygon, random_polygon

TRI345 = Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])
SQUARE = Polygon.from_pairs([(0, 0), (1, 0), (1, 1), (0, 1)])
TRAPEZOID = Polygon.from_pairs([(0, 0), (2, 0), (1, 1), (0, 1)])


def test_registry_shape():
    assert set(CATALOG) == {"centroid", "perimeter", "lamina", "medoid", "circumcenter"}
    assert CATALOG["centroid"].kind == "vertex"
    assert CATALOG["perimeter"].kind == "length"
    assert CATALOG["circumcenter"].kind == "length"
    assert CATALOG["perimeter"].convex_only
    assert CATALOG["lamina"].convex_only
    assert not CATALOG["centroid"].convex_only


# ----------------------------------------------------------------- centroid


def test_centroid_square():
    assert SQUARE.vertex_mean().as_tuple() == (0.5, 0.5)
    got = geometric_center(CATALOG["centroid"].function, SQUARE)
    assert got.as_tuple() == (0.5, 0.5)


def test_centroid_matches_mean_everywhere():
    rng = random.Random(1)
    for _ in range(50):
        p = random_polygon(rng, rng.randrange(3, 9))
        want = p.vertex_mean()
        got = geometric_center(CATALOG["centroid"].function, p)
        assert got.distance_to(want) < 1e-12


# ---------------------------------------------------------------- perimeter


def test_perimeter_coords_and_point_on_tri345():
    coords = coordinate_map_length(
        CATALOG["perimeter"].function, distance_matrix(TRI345)
    )
    assert coords.values == (7.0, 8.0, 9.0)
    assert geometric_center(CATALOG["perimeter"].function, TRI345).as_tuple() == (
        pytest.approx(1.0),
        pytest.approx(1.5),
    )


def test_perimeter_point_is_medial_incenter_on_tri345():
    # independent oracle: incenter of the midpoint triangle
    m = [
        TRI345.vertex(i + 1).scaled(0.5) + TRI345.vertex(i + 2).scaled(0.5)
        for i in range(3)
    ]
    sides = [m[(i + 1) % 3].distance_to(m[(i + 2) % 3]) for i in range(3)]
    total = sum(sides)
    incenter = Point2(
        sum(s * v.x for s, v in zip(sides, m)) / total,
        sum(s * v.y for s, v in zip(sides, m)) / total,
    )
    got = perimeter_centroid(TRI345)
    assert got.distance_to(incenter) < 1e-12


def boundary_midpoint_integral(p):
    # uniform mass on the boundary: sum of edge midpoints weighted by length
    total = p.perimeter()
    x = sum(
        (p.vertex(i).x + p.vertex(i + 1).x) / 2 * p.vertex(i).distance_to(p.vertex(i + 1))
        for i in range(p.n)
    )
    y = sum(
        (p.vertex(i).y + p.vertex(i + 1).y) / 2 * p.vertex(i).distance_to(p.vertex(i + 1))
        for i in range(p.n)
    )
    return Point2(x / total, y / total)


def test_perimeter_matches_boundary_integral():
    rng = random.Random(2)
    for _ in range(50):
        p = random_convex_polygon(rng, rng.randrange(3, 9))
        want = boundary_midpoint_integral(p)
        direct = perimeter_centroid(p)
        via_map = geometric_center(CATALOG["perimeter"].function, p)
        assert direct.distance_to(want) < 1e-9
        assert via_map.distance_to(want) < 1e-9


def test_perimeter_guard_rejects_nonconvex():
    dart = Polygon.from_pairs([(0, 0), (4, 0), (1, 1), (0, 4)])
    with pytest.raises(DomainViolation):
        geometric_center(CATALOG["perimeter"].function, dart)


# ------------------------------------------------------------------- lamina


def shoelace_centroid(p):
    # classic area-moment formula, written independently of the library
    a = 0.0
    cx = 0.0
    cy = 0.0
    for i in range(p.n):
        u = p.vertex(i)
        v = p.vertex(i + 1)
        w = u.x * v.y - v.x * u.y
        a += w
        cx += (u.x + v.x) * w
        cy += (u.y + v.y) * w
    return Point2(cx / (3 * a), cy / (3 * a))


def test_lamina_trapezoid_fixture():
    got = lamina_centroid_direct(TRAPEZOID)
    assert got.x == pytest.approx(7 / 9, abs=1e-12)
    assert got.y == pytest.approx(4 / 9, abs=1e-12)
    via_map = geometric_center(CATALOG["lamina"].function, TRAPEZOID)
    assert via_map.distance_to(got) < 1e-12


def test_lamina_matches_shoelace_moments():
    rng = random.Random(3)
    for _ in range(50):
        p = random_convex_polygon(rng, rng.randrange(4, 10))
        want = shoelace_centroid(p)
        assert lamina_centroid_direct(p).distance_to(want) < 1e-9
        assert geometric_center(CATALOG["lamina"].function, p).distance_to(want) < 1e-9


def wedge_products(p):
    return [t for v, w in zip(p.vertices, p.vertices[1:] + p.vertices[:1])
            for t in (v.x * w.y, v.y * w.x)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.integers(-500, 500))
@example(3, 7, -30)
@example(3, 7, -300)
def test_lamina_direct_commutes_with_scaling(seed, n, k):
    p = random_convex_polygon(random.Random(seed), n)
    t = 2.0**k
    q = Polygon.from_pairs([(t * v.x, t * v.y) for v in p.vertices])
    assume(all(w == 0.0 or abs(w) >= sys.float_info.min for w in wedge_products(q)))
    got, want = lamina_centroid_direct(q), lamina_centroid_direct(p)
    assert (got.x, got.y) == (t * want.x, t * want.y)


def test_lamina_differs_from_vertex_mean_on_trapezoid():
    # the two notions of "centroid" split as soon as the shape is lopsided
    assert lamina_centroid_direct(TRAPEZOID).distance_to(
        TRAPEZOID.vertex_mean()
    ) > 1e-2


def test_lamina_zero_area():
    flat = Polygon.from_pairs([(0, 0), (1, 0), (2, 0), (3, 0)])
    with pytest.raises(ZeroArea):
        lamina_centroid_direct(flat)
    bowtie = Polygon.from_pairs([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(ZeroArea):
        lamina_centroid_direct(bowtie)


def test_lamina_map_guard_rejects_nonconvex():
    dart = Polygon.from_pairs([(0, 0), (4, 0), (1, 1), (0, 4)])
    with pytest.raises(DomainViolation):
        geometric_center(CATALOG["lamina"].function, dart)


# ------------------------------------------------------------------- medoid


def test_medoid_tri345():
    # distance sums: 3+4=7, 3+5=8, 4+5=9
    assert medoid(TRI345) == 0
    coords = coordinate_map_vertex(CATALOG["medoid"].function, TRI345)
    assert coords.values == (1.0, 0.0, 0.0)


def test_medoid_tie_on_square():
    with pytest.raises(Tie):
        medoid(SQUARE)


def test_medoid_matches_brute_force():
    rng = random.Random(4)
    checked = 0
    for _ in range(60):
        p = random_polygon(rng, rng.randrange(4, 9))
        sums = [
            sum(p.vertices[i].distance_to(q) for q in p.vertices)
            for i in range(p.n)
        ]
        ranked = sorted(range(p.n), key=lambda i: sums[i])
        if sums[ranked[1]] - sums[ranked[0]] < 1e-6:
            continue  # too close to a tie to be a fair comparison
        assert medoid(p) == ranked[0]
        checked += 1
    assert checked > 40


def test_distance_sums_match_row_by_row_sums_bitwise():
    rng = random.Random(11)
    for n in (3, 8, 32, 128):
        p = random_polygon(rng, n, min_separation=0.0)
        for k in range(0, n, max(1, n // 8)):
            q = p.shifted(k)
            expected = [math.fsum(v.distance_to(w) for w in q.vertices) for v in q.vertices]
            assert _distance_sums(q) == expected


# ------------------------------------------------------------- circumcenter


def test_circumcenter_tri345():
    # right triangle: circumcenter is the hypotenuse midpoint
    got = geometric_center(CATALOG["circumcenter"].function, TRI345)
    assert got.as_tuple() == (pytest.approx(1.5), pytest.approx(2.0))
    assert triangle_circumcenter(TRI345).distance_to(got) < 1e-12


def test_circumcenter_is_equidistant():
    rng = random.Random(5)
    for _ in range(50):
        p = random_polygon(rng, 3)
        c = triangle_circumcenter(p)
        r = [c.distance_to(v) for v in p.vertices]
        assert max(r) - min(r) < 1e-9 * max(1.0, max(r))
        via_map = geometric_center(CATALOG["circumcenter"].function, p)
        assert via_map.distance_to(c) < 1e-9 * max(1.0, max(r))


def test_circumcenter_rejects_collinear():
    with pytest.raises(Collinear):
        triangle_circumcenter(Polygon.from_pairs([(0, 0), (1, 0), (2, 0)]))


def test_circumcenter_guard_is_triangles_only():
    with pytest.raises(DomainViolation):
        geometric_center(CATALOG["circumcenter"].function, SQUARE)


# ------------------------------------------------------------- axiom sweeps


SAMPLERS = {
    "centroid": lambda rng: random_polygon(rng, rng.randrange(3, 9)),
    "perimeter": lambda rng: random_convex_polygon(rng, rng.randrange(3, 9)),
    "lamina": lambda rng: random_convex_polygon(rng, rng.randrange(3, 9)),
    "medoid": lambda rng: random_polygon(rng, rng.randrange(3, 9)),
    "circumcenter": lambda rng: random_polygon(rng, 3),
}

DEGREES = {
    "centroid": 0.0,
    "perimeter": 1.0,
    "lamina": 2.0,
    "medoid": 0.0,
    "circumcenter": 4.0,
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_entry_satisfies_axioms(name):
    entry = CATALOG[name]
    report = verify_axioms(entry.function, SAMPLERS[name], trials=200, seed=10)
    assert report.relabel_ok, name
    assert report.motion_ok, name
    assert report.homogeneity_ok, name
    if report.estimated_degree is not None:
        assert report.estimated_degree == pytest.approx(DEGREES[name], abs=1e-4)


# ------------------------------------------------------- dihedral covariance


@st.composite
def relabeled_inputs(draw):
    """A catalog name, a convex n-gon (n = 3..40; a triangle for
    `circumcenter`) and a rotation or reflection of its labels."""
    name = draw(st.sampled_from(sorted(CATALOG)))
    n = 3 if name == "circumcenter" else draw(st.integers(3, 40))
    p = random_convex_polygon(random.Random(draw(st.integers(0, 2**32 - 1))), n)
    alpha = DihedralElement(n, draw(st.integers(0, n - 1)), draw(st.booleans()))
    return name, p, alpha


@settings(max_examples=400, deadline=None)
@given(relabeled_inputs())
def test_a_relabeled_map_is_the_map_permuted_bit_for_bit(case):
    # the paper's covariance: relabeling by alpha permutes the coordinates
    name, p, alpha = case
    fg = CATALOG[name].function
    want = coordinate_map(fg, p).values
    got = coordinate_map(fg, relabel(alpha, p)).values
    assert got == tuple(want[alpha.apply(i)] for i in range(p.n))
