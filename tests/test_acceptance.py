"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``ACCEPTANCE k: PASS`` line on success; a
failure stops at the offending assertion, so the line never prints for
a broken guarantee. The whole module is budgeted to run in well under
a minute.
"""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from polycenter.catalog import CATALOG, lamina_centroid_direct
from polycenter.characterization import (
    F1,
    F3_EVEN,
    characterize,
    coincidence,
    predicates,
)
from polycenter.cli import main
from polycenter.dsl import admit, evaluate, parse
from polycenter.errors import AxiomViolation, DomainViolation, InfeasibleDistances
from polycenter.framework import (
    LengthCenterFunction,
    coordinate_map_length,
    coordinate_map_vertex,
    geometric_center,
    lift_length_to_vertex,
    lower_vertex_to_length,
    normalize,
)
from polycenter.geometry import (
    DihedralElement,
    Point2,
    Polygon,
    apply_motion,
    distance_matrix,
    relabel,
)
from polycenter.optim import chebyshev_center, geometric_median
from polycenter.reconstruction import reconstruct, validate
from polycenter.sampling import random_convex_polygon, random_polygon
from samplers import (
    random_convex_nonequiangular,
    random_equiangular_polygon,
    random_equilateral_polygon,
    random_similarity,
    regular_polygon,
)

SQUARE = Polygon.from_pairs([(0, 0), (1, 0), (1, 1), (0, 1)])
TRI345 = Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])
MOUNTAIN = Polygon.from_pairs(
    [(0, 0), (0.5, math.sqrt(3) / 2), (1, 0), (1.5, math.sqrt(3) / 2), (2, 0)]
)
TRAPEZOID = Polygon.from_pairs([(0, 0), (2, 0), (1, 1), (0, 1)])


def _coords(entry, p):
    if entry.kind == "vertex":
        return coordinate_map_vertex(entry.function, p)
    return coordinate_map_length(entry.function, distance_matrix(p))


def _passline(k: int, message: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {message}")


# --------------------------------------------------------------- criterion 1


def test_acceptance_01_regular_and_star_polygons():
    started = time.perf_counter()
    offset = Point2(0.25, -1.5)
    checked = 0
    for n in range(3, 13):
        for winding in range(1, (n - 1) // 2 + 1):
            if math.gcd(n, winding) != 1:
                continue
            p = regular_polygon(n, winding, radius=1.3, center=offset, phase=0.37)
            mean = p.vertex_mean()
            for entry in CATALOG.values():
                try:
                    coords = _coords(entry, p)
                except DomainViolation:
                    star = winding > 1
                    assert (entry.convex_only and star) or (
                        entry.name == "circumcenter" and n != 3
                    ), f"{entry.name} unexpectedly rejected {{{n}/{winding}}}"
                    continue
                top = max(abs(v) for v in coords.values)
                spread = max(coords.values) - min(coords.values)
                assert spread <= 1e-9 * top, (entry.name, n, winding)
                point = normalize(coords).combine(p)
                assert point.distance_to(mean) <= 1e-9, (entry.name, n, winding)
                checked += 1
    elapsed = time.perf_counter() - started
    assert checked > 60
    assert elapsed < 5.0
    _passline(1, f"[1:...:1] on {checked} regular/star cases in {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2


def _entry_samplers():
    return (
        ("centroid", lambda rng: random_polygon(rng, rng.randrange(3, 10))),
        ("medoid", lambda rng: random_polygon(rng, rng.randrange(3, 10))),
        ("perimeter", lambda rng: random_convex_polygon(rng, rng.randrange(3, 10))),
        ("lamina", lambda rng: random_convex_polygon(rng, rng.randrange(3, 10))),
        ("circumcenter", lambda rng: random_polygon(rng, 3)),
    )


def test_acceptance_02_relabeling_and_similarity_equivariance():
    rng = random.Random(2024)
    polygons = 0
    for name, sampler in _entry_samplers():
        entry = CATALOG[name]
        for _ in range(40):
            p = sampler(rng)
            polygons += 1
            base = _coords(entry, p).values
            top = max(abs(v) for v in base)
            for a in range(p.n):
                for flip in (False, True):
                    alpha = DihedralElement(p.n, a, flip)
                    got = _coords(entry, relabel(alpha, p)).values
                    want = tuple(base[alpha.apply(j)] for j in range(p.n))
                    gap = max(abs(x - y) for x, y in zip(got, want))
                    assert gap <= 1e-9 * max(top, 1.0), (name, alpha)
    assert polygons == 200

    similarities = 0
    for name, sampler in _entry_samplers():
        entry = CATALOG[name]
        for _ in range(40):
            p = sampler(rng)
            s = random_similarity(rng)
            similarities += 1
            direct = s.apply(geometric_center(entry.function, p))
            moved = geometric_center(entry.function, apply_motion(s, p))
            assert direct.distance_to(moved) <= 1e-9 * max(1.0, s.scale), name
    assert similarities == 200
    _passline(2, "dihedral equivariance x200 and similarity covariance x200")


# --------------------------------------------------------------- criterion 3


def test_acceptance_03_lift_lower_and_matrix_round_trips():
    rng = random.Random(33)
    lifted = lift_length_to_vertex(CATALOG["perimeter"].function)
    lowered = lower_vertex_to_length(CATALOG["lamina"].function)
    for _ in range(100):
        p = random_convex_polygon(rng, rng.randrange(3, 10))
        via_lengths = geometric_center(CATALOG["perimeter"].function, p)
        via_vertices = geometric_center(lifted, p)
        assert via_lengths.distance_to(via_vertices) <= 1e-7

        direct = geometric_center(CATALOG["lamina"].function, p)
        via_matrix = geometric_center(lowered, p)
        assert direct.distance_to(via_matrix) <= 1e-7

    for _ in range(200):
        p = random_polygon(rng, rng.randrange(3, 11))
        D = distance_matrix(p)
        back = distance_matrix(reconstruct(D).polygon)
        gap = max(
            abs(back.d[i][j] - D.d[i][j]) for i in range(D.n) for j in range(D.n)
        )
        assert gap <= 1e-9 * max(1.0, D.max_entry())
    _passline(3, "lift/lower centers within 1e-7, matrix round trips within 1e-9")


# --------------------------------------------------------------- criterion 4


def test_acceptance_04_lamina_center_equals_area_centroid():
    rng = random.Random(44)
    for _ in range(200):
        p = random_convex_polygon(rng, rng.randrange(4, 10))
        via_map = geometric_center(CATALOG["lamina"].function, p)
        direct = lamina_centroid_direct(p)
        assert via_map.distance_to(direct) <= 1e-9

    exact = Point2(7.0 / 9.0, 4.0 / 9.0)
    assert lamina_centroid_direct(TRAPEZOID).distance_to(exact) <= 1e-12
    via_map = geometric_center(CATALOG["lamina"].function, TRAPEZOID)
    assert via_map.distance_to(exact) <= 1e-12
    _passline(4, "affine lamina center matches the area centroid, trapezoid exact")


# --------------------------------------------------------------- criterion 5


def test_acceptance_05_characterization_theorems():
    rng = random.Random(55)
    mismatches = 0
    for _ in range(250):
        p = random_equiangular_polygon(rng, rng.randrange(3, 10))
        report = characterize(p)
        assert report.equiangular, "generator must hit the angle oracle"
        if report.f1_coincident is not True:
            mismatches += 1
    for _ in range(250):
        p = random_convex_nonequiangular(rng, rng.randrange(3, 10))
        report = characterize(p)
        assert not report.equiangular, "generator must miss the angle oracle"
        if report.f1_coincident is not False:
            mismatches += 1
    assert mismatches == 0

    # Non-convex pentagon whose vertex angles all read the same cosine:
    # coincidence without equiangularity, showing convexity is load-bearing.
    report = characterize(MOUNTAIN)
    assert report.f1_coincident and not report.equiangular and not report.convex
    assert report.consistent_with_theorems

    odd_mismatches = 0
    for n in (5, 7, 9):
        for _ in range(20):
            p = random_equilateral_polygon(rng, n)
            report = characterize(p)
            assert report.equilateral
            if report.f2_coincident is not True:
                odd_mismatches += 1
        for _ in range(20):
            p = random_polygon(rng, n)
            report = characterize(p)
            if report.f2_coincident != report.equilateral:
                odd_mismatches += 1
    assert odd_mismatches == 0

    rect = Polygon.from_pairs([(0, 0), (2, 0), (2, 1), (0, 1)])
    probe = coincidence(F3_EVEN, rect)
    assert probe.coincident
    assert probe.values == pytest.approx([math.sqrt(5.0)] * 4)

    para = Polygon.from_pairs([(0, 0), (2, 0), (3, 1), (1, 1)])
    probe = coincidence(F3_EVEN, para)
    assert not probe.coincident
    assert sorted(set(round(v, 9) for v in probe.values)) == pytest.approx(
        [math.sqrt(2.0), math.sqrt(10.0)]
    )
    _passline(5, "angle/side coincidence theorems, 620 samples, 0 misclassified")


# --------------------------------------------------------------- criterion 6


def _grid_median(p, stages=3, res=100):
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
    return Point2(cx, cy)


def _brute_circle(p):
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


def test_acceptance_06_optimization_solvers():
    rng = random.Random(66)
    for _ in range(20):
        p = random_polygon(rng, 5)
        got = geometric_median(p)
        assert got.residual <= 1e-8
        assert got.point.distance_to(_grid_median(p)) <= 1e-4

    for _ in range(100):
        p = random_polygon(rng, rng.randrange(3, 11))
        circle = chebyshev_center(p)
        center, radius = _brute_circle(p)
        assert circle.center.distance_to(center) <= 1e-9
        assert abs(circle.radius - radius) <= 1e-9

    got = geometric_median(SQUARE)
    assert got.point.distance_to(Point2(0.5, 0.5)) <= 1e-12
    circle = chebyshev_center(SQUARE)
    assert circle.center.distance_to(Point2(0.5, 0.5)) <= 1e-12
    assert abs(circle.radius - math.sqrt(2.0) / 2.0) <= 1e-12
    _passline(6, "median and enclosing circle match oracles and square fixtures")


# --------------------------------------------------------------- criterion 7


def test_acceptance_07_planarity_determinants():
    rng = random.Random(77)
    quadruples = 0
    for _ in range(30):
        p = random_polygon(rng, rng.randrange(4, 11))
        report = validate(distance_matrix(p))
        assert report.feasible
        quadruples += len(report.cm_checks)
        assert max(abs(c) for c in report.cm_checks) <= 1e-9

    tetra = [[0.0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                tetra[i][j] = 1.0
    from polycenter.geometry import DistanceMatrix

    D = DistanceMatrix.from_rows(tetra)
    report = validate(D)
    assert not report.feasible
    with pytest.raises(InfeasibleDistances):
        reconstruct(D)
    _passline(7, f"{quadruples} planar quadruples vanish, tetrahedron rejected")


# --------------------------------------------------------------- criterion 8


def test_acceptance_08_expression_language():
    pc = parse("d(n,1)+d(1,2)")
    parsed = LengthCenterFunction(pc.source, lambda D: evaluate(pc, D))
    builtin = LengthCenterFunction(
        "side-sum", CATALOG["perimeter"].function.evaluator
    )
    rng = random.Random(88)
    for _ in range(100):
        p = random_polygon(rng, rng.randrange(3, 10))
        D = distance_matrix(p)
        got = coordinate_map_length(parsed, D)
        want = coordinate_map_length(builtin, D)
        assert got.values == want.values  # bit-identical

    with pytest.raises(AxiomViolation) as exc_info:
        admit(parse("d(1,2)"), 5)
    assert exc_info.value.prop == "relabel-invariance"
    assert exc_info.value.witness is not None

    coords = coordinate_map_length(parsed, distance_matrix(TRI345))
    assert coords.values == (7.0, 8.0, 9.0)
    _passline(8, "parsed side-sum is bit-identical, d(1,2) rejected with witness")


# --------------------------------------------------------------- criterion 9


def test_acceptance_09_cli_golden_files(tmp_path, capsys):
    def doc(filename, payload):
        path = tmp_path / filename
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    square = doc("sq.json", {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})
    tri = doc("tri.json", {"vertices": [[0, 0], [3, 0], [0, 4]]})
    mat = doc("mat.json", {"name": "t", "distances": [[0, 3, 4], [3, 0, 5], [4, 5, 0]]})

    def run(argv):
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out

    rc, out = run(["center", tri, "--name", "perimeter"])
    assert rc == 0
    assert json.loads(out) == {
        "name": "perimeter",
        "projective": [7.0, 8.0, 9.0],
        "weights": [0.291666666667, 0.333333333333, 0.375],
        "point": [1.0, 1.5],
    }

    rc, out = run(["coords", tri, "--name", "perimeter"])
    assert rc == 0 and json.loads(out) == [7.0, 8.0, 9.0]

    rc, out = run(["check-axioms", "--name", "centroid", "--trials", "10"])
    assert rc == 0
    report = json.loads(out)
    assert report["relabel_ok"] and report["estimated_degree"] == 0

    rc, out = run(["characterize", square])
    assert rc == 0 and json.loads(out)["regular"] is True

    rc, out = run(["reconstruct", mat])
    assert rc == 0
    assert json.loads(out) == {
        "name": "t",
        "vertices": [[0.0, 0.0], [3.0, 0.0], [0.0, -4.0]],
    }

    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    for target in (svg_a, svg_b):
        rc, _ = run(
            ["plot", square, "--centers", "centroid,chebyshev", "-o", str(target)]
        )
        assert rc == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()

    rc, _ = run(["center", "missing.json", "--name", "centroid"])
    assert rc == 2
    rc, _ = run(["center", square, "--name", "medoid"])
    assert rc == 3
    rc, _ = run(["center", tri, "--expr", "d(1,2)-d(2,3)"])
    assert rc == 4
    rc, _ = run(["center", tri, "--name", "median", "--max-iter", "1"])
    assert rc == 5
    _passline(9, "all six subcommands golden, exit codes 2-5, SVG byte-stable")
