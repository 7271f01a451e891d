"""`Polygon.diameter` measures every pair without a matrix, and must
return the bits of the plain scan of every pair, `reference_solvers.diameter`.

The inputs are ellipses, a hub with a ring around it, two clusters,
cocircular points, collinear points, a flat box, repeated vertices and a
near tie, at every scale whose result is finite, subnormal extents included.
"""

import math
import random

import pytest

import reference_solvers as ref
from polycenter.errors import NonFinite
from polycenter.geometry import Polygon


def _placed(rng, pts):
    """pts turned by a random angle and moved by a random offset."""
    th = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(th), math.sin(th)
    tx, ty = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    return [(c * x - s * y + tx, s * x + c * y + ty) for x, y in pts]


def ellipse(rng, n):
    a = rng.uniform(1.0, 2.0)
    b = a * rng.uniform(0.4, 0.9)
    t0 = rng.uniform(0.0, 2.0 * math.pi)
    return _placed(rng, [(a * math.cos(t0 + 2 * math.pi * j / n), b * math.sin(t0 + 2 * math.pi * j / n))
                         for j in range(n)])


def hub(rng, n):
    ring = [(r * math.cos(2 * math.pi * j / (n - 1)), r * math.sin(2 * math.pi * j / (n - 1)))
            for j, r in enumerate(rng.uniform(1.0, 2.0) for _ in range(n - 1))]
    return _placed(rng, [(0.0, 0.0)] + ring)


def regular(rng, n):
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return [(math.cos(phase + 2 * math.pi * j / n), math.sin(phase + 2 * math.pi * j / n))
            for j in range(n)]


def collinear(rng, n):
    slope, height = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
    return [(x, slope * x + height) for x in (rng.uniform(-2.0, 2.0) for _ in range(n))]


def flat(rng, n):
    # a box of zero height
    return [(rng.uniform(-2.0, 2.0), 0.75) for _ in range(n)]


def repeated(rng, n):
    # an ellipse whose vertices each appear twice, the farthest included
    pts = ellipse(rng, (n + 1) // 2)
    return (pts + pts)[:n]


def two_clusters(rng, n):
    # every pair across the clusters is near the largest
    return _placed(rng, [(side + rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3))
                         for side in (-1.0, 1.0) for _ in range(n // 2)] + [(0.0, 0.0)] * (n % 2))


SHAPES = [ellipse, hub, regular, collinear, flat, repeated, two_clusters]
# every 97th binary exponent, and those at the edges of the normal and
# subnormal ranges and near 2^-1000
EXPONENTS = sorted(set(range(-1074, 1024, 97)) | {
    -1074, -1060, -1050, -1030, -1022, -1001, -1000, -999, -960, -1, 0, 1, 1021, 1022, 1023})


@pytest.mark.parametrize("shape", SHAPES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [3, 19, 20, 40, 256])
def test_diameter_has_the_bits_of_the_pair_scan_at_every_scale(shape, n):
    base = shape(random.Random(n), n)
    for k in EXPONENTS:
        scale = 2.0**k
        pts = [(scale * x, scale * y) for x, y in base]
        if not all(map(math.isfinite, (c for pt in pts for c in pt))):
            continue
        p = Polygon.from_pairs(pts)
        try:
            want = ref.diameter(p)
        except NonFinite:
            # the extent overflows, as `distance_matrix` reports
            with pytest.raises(NonFinite):
                p.diameter()
            continue
        assert p.diameter().hex() == want.hex(), (shape.__name__, n, k)


@pytest.mark.parametrize("longer", ["horizontal", "vertical"])
def test_a_pair_one_ulp_longer_is_the_diameter(longer):
    # two pairs 2.0 and nextafter(2.0) apart, among points near the middle
    rng = random.Random(4)
    up = 1.0 + 2.0**-51
    a, b = ((-1.0, 0.0), (up, 0.0)) if longer == "horizontal" else ((-1.0, 0.0), (1.0, 0.0))
    c, d = ((0.0, -1.0), (0.0, 1.0)) if longer == "horizontal" else ((0.0, -1.0), (0.0, up))
    inner = [(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(20)]
    for pts in ([a, c, b, d] + inner, inner + [d, b, c, a]):
        p = Polygon.from_pairs(pts)
        assert p.diameter() == ref.diameter(p) == math.nextafter(2.0, 3.0)
