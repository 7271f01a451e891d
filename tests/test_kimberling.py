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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycenter.catalog import CATALOG
from polycenter.dsl import admit, center_function, parse
from polycenter.framework import coordinate_map, cyclic_values, geometric_center, verify_axioms
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


U = 2.0**-53  # the unit roundoff


def rounding_bound(source, degree, p, center):
    """A first-order bound on how far rounding moves the center of the
    length function `source` on the triangle p from the exact center.

    A weight is the formula on distances hypot(dx, dy), each within 3u of
    exact (u for the rounded coordinate differences, 2u for hypot, whose
    error is under 1 ulp), and then one rounding per operation. So with
    N = 3 * degree + operations, the computed weight errs by at most
    gamma_N times the formula with every `-` (all binary here) made `+`,
    on the same distances, all of them positive (running error analysis:
    Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.3).
    That is the weight's magnitude where nothing cancels inside it, and
    more where something does, as in X(5)'s.
    kappa is the sum of those magnitudes over |sum of weights|: the sum
    cancels on a flat triangle, where it is 16 times the squared area for
    X(3). The center sum w_i v_i / sum w_i then moves by at most gamma_N
    kappa max |v_i - P| <= 2 N u kappa R, R = max(|P|, |v_i|). The weights'
    sum (2 roundings) moves it by 2 u kappa |P|, and each weight's division
    and `combine`'s product and sum (4 roundings) by 4 u kappa max |v_i|:
    (2 N + 6) u kappa R in all."""
    weights = coordinate_map(center_function(parse(source)), p).values
    magnitudes = coordinate_map(center_function(parse(source.replace("-", "+"))), p).values
    kappa = math.fsum(magnitudes) / abs(math.fsum(weights))
    roundings = 3 * degree + sum(map(source.count, "+-*^"))
    reach = max(float(np.linalg.norm(center)), *(math.hypot(v.x, v.y) for v in p.vertices))
    return (2 * roundings + 6) * U * kappa * reach


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(KIMBERLING)))
# flat triangles whose X(3) weights cancel: sum |w| / |sum w| is 1.2e8 and
# 4.6e7, and exact arithmetic on the rounded distances is itself 1.7e-4 and
# 4.0e-5 off the center, past 1e-9 of the scale
@example(seed=1365025, name="X(3)")
@example(seed=349717, name="X(3)")
def test_length_functions_give_the_classical_centers(seed, name):
    source, degree, oracle = KIMBERLING[name]
    p = random_polygon(random.Random(seed), 3)
    A, B, C = (np.array([v.x, v.y]) for v in p.vertices)
    want = oracle(A, B, C)
    got = geometric_center(center_function(parse(source)), p)
    # relative to the triangle's size or the center's distance, whichever
    # is larger: X(3), X(4) and X(5) run far off for flat triangles, where
    # the rounding of their weights dominates (`rounding_bound`)
    scale = max(p.diameter(), float(np.linalg.norm(want)))
    bound = 1e-9 * scale + rounding_bound(source, degree, p, want)
    assert math.hypot(got.x - want[0], got.y - want[1]) <= bound


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
