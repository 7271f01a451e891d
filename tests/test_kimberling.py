"""The paper's triangle case: Kimberling centers as length center functions.

At n = 3 a length center function f(a, b, c), with a = d(2,3) the side
opposite vertex 1, b = d(3,1) and c = d(1,2), has the barycentric
coordinates f(a,b,c) : f(b,c,a) : f(c,a,b). Each entry of `KIMBERLING` is a
classical center written as an expression, its homogeneity degree, and an
oracle that constructs the center with numpy without that formula: line
intersections of angle bisectors, perpendicular bisectors and altitudes,
the midpoint of O and H, Lemoine's least-squares property of the symmedian
point, the Nagel line, the cevians to the incircle's contact points, and
the incenter of the medial triangle.
"""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polycenter.catalog import CATALOG
from polycenter.dsl import admit, center_function, parse
from polycenter.framework import cyclic_values, geometric_center, verify_axioms
from polycenter.geometry import distance_matrix
from polycenter.sampling import random_polygon


def _intersect(p, u, q, v):
    """The point p + s u that lies on the line through q along v."""
    s, _ = np.linalg.solve(np.column_stack([u, -v]), q - p)
    return p + s * u


def _unit(v):
    return v / np.linalg.norm(v)


def incenter(A, B, C):
    # two angle bisectors
    return _intersect(A, _unit(B - A) + _unit(C - A), B, _unit(A - B) + _unit(C - B))


def circumcenter(A, B, C):
    # two perpendicular bisectors
    perp = np.array([[0.0, -1.0], [1.0, 0.0]])
    return _intersect((A + B) / 2, perp @ (B - A), (A + C) / 2, perp @ (C - A))


def orthocenter(A, B, C):
    # two altitudes
    perp = np.array([[0.0, -1.0], [1.0, 0.0]])
    return _intersect(A, perp @ (C - B), B, perp @ (C - A))


def nine_point_center(A, B, C):
    return (circumcenter(A, B, C) + orthocenter(A, B, C)) / 2


def symmedian_point(A, B, C):
    # Lemoine: the point with the least sum of squared distances to the side lines
    rows, rhs = [], []
    for P, Q in ((B, C), (C, A), (A, B)):
        normal = _unit(np.array([P[1] - Q[1], Q[0] - P[0]]))
        rows.append(normal)
        rhs.append(normal @ P)
    return np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]


def nagel_point(A, B, C):
    # on the Nagel line, twice as far from the centroid G as the incenter,
    # on the other side: N = 3G - 2I (intersecting the cevians to the
    # excircle contact points is ill-conditioned on flat triangles)
    return (A + B + C) - 2 * incenter(A, B, C)


def _foot(P, Q, R):
    """The foot of the perpendicular from P to the line through Q and R."""
    u = _unit(R - Q)
    return Q + ((P - Q) @ u) * u


def gergonne_point(A, B, C):
    # the cevians to the points where the incircle touches the opposite
    # sides, which are the feet of the perpendiculars from the incenter
    incircle = incenter(A, B, C)
    return _intersect(A, _foot(incircle, B, C) - A, B, _foot(incircle, C, A) - B)


def spieker_center(A, B, C):
    # the incenter of the medial triangle
    return incenter((B + C) / 2, (C + A) / 2, (A + B) / 2)


KIMBERLING = {
    "X(1)": ("d(2,3)", 1, incenter),
    "X(3)": ("d(2,3)^2*(d(3,1)^2+d(1,2)^2-d(2,3)^2)", 4, circumcenter),
    "X(4)": ("(d(1,2)^2+d(2,3)^2-d(3,1)^2)*(d(3,1)^2+d(2,3)^2-d(1,2)^2)", 4, orthocenter),
    "X(5)": ("d(2,3)^2*(d(3,1)^2+d(1,2)^2)-(d(3,1)^2-d(1,2)^2)^2", 4, nine_point_center),
    "X(6)": ("d(2,3)^2", 2, symmedian_point),
    "X(7)": ("(d(1,2)+d(2,3)-d(3,1))*(d(2,3)+d(3,1)-d(1,2))", 2, gergonne_point),
    "X(8)": ("d(1,2)+d(3,1)-d(2,3)", 1, nagel_point),
    "X(10)": ("d(1,2)+d(3,1)", 1, spieker_center),
}
# X(3) written with `*`, as the catalog's `circumcenter` is
X3_PRODUCTS = "d(2,3)*d(2,3)*(d(3,1)*d(3,1)+d(1,2)*d(1,2)-d(2,3)*d(2,3))"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(KIMBERLING)))
def test_length_functions_give_the_classical_centers(seed, name):
    source, _, oracle = KIMBERLING[name]
    p = random_polygon(random.Random(seed), 3)
    A, B, C = (np.array([v.x, v.y]) for v in p.vertices)
    want = oracle(A, B, C)
    got = geometric_center(center_function(parse(source)), p)
    # relative to the triangle's size or the center's distance, whichever
    # is larger: X(3), X(4) and X(5) run far off for flat triangles
    scale = max(p.diameter(), float(np.linalg.norm(want)))
    assert math.hypot(got.x - want[0], got.y - want[1]) <= 1e-9 * scale


def test_admission_accepts_each_center_with_its_degree():
    for name, (source, degree, _) in KIMBERLING.items():
        pc = parse(source)
        admit(pc, 3)  # raises AxiomViolation for a function that is not a center
        report = verify_axioms(center_function(pc), lambda rng: random_polygon(rng, 3), 20)
        assert report.relabel_ok and report.motion_ok and report.homogeneity_ok, name
        assert abs(report.estimated_degree - degree) <= 1e-6, name


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_catalog_circumcenter_is_x3(seed):
    p = random_polygon(random.Random(seed), 3)
    fg, x3 = CATALOG["circumcenter"].function, center_function(parse(X3_PRODUCTS))
    assert cyclic_values(fg, p) == cyclic_values(x3, p)
    assert cyclic_values(fg, distance_matrix(p)) == cyclic_values(x3, distance_matrix(p))
