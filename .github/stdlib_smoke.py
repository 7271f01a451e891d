"""The CLI runs without numpy, on the standard library alone (numpy is a
test oracle, not a runtime dependency).

Run from the repository root, with site-packages left off the path so that
only src/ and the standard library import:

    PYTHONPATH=src python3 -S .github/stdlib_smoke.py <scratch directory>

It writes its input documents and plot into the scratch directory and exits
non-zero on the first failed check.
"""

import json
import math
import os
import random
import sys
from dataclasses import replace

from polycenter import AxiomViolation, Polygon, admit, catalog, cli, dsl, parse
from polycenter.catalog import MEDOID_REL, _medoid_indicators
from polycenter.characterization import CoincidenceReport
from polycenter.documents import PolygonDocument
from polycenter.errors import DocumentError
from polycenter.framework import (
    _TRUSTED_N, ZERO_SUM_REL, AxiomReport, AxiomTrial, BarycentricWeights, ProjectiveCoords,
    _trials, normalize, verify_axioms,
)
from polycenter.geometry import (
    DihedralElement, DistanceMatrix, Frozen, Point2, RigidMotion, Similarity, distance_matrix,
    is_convex,
)
from polycenter.optim import EnclosingCircle, MedianResult, geometric_median
from polycenter.reconstruction import FeasibilityReport, ReconstructionResult
from polycenter.sampling import random_convex_polygon, random_polygon
from polycenter.svg import CenterRecord

# the exact convexity guard uses integer arithmetic, not these two modules,
# whose import would add to every cold start of the CLI
assert "fractions" not in sys.modules and "decimal" not in sys.modules, "polycenter.cli imported fractions or decimal"
work = sys.argv[1]


def document(name, doc):
    path = os.path.join(work, name + ".json")
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


quad = document("quad", {"vertices": [[0, 0], [4, 0], [5, 3], [1, 4]]})
square = document("square", {"distances": [[0, 1, 1.4142135623730951, 1], [1, 0, 1, 1.4142135623730951],
                                            [1.4142135623730951, 1, 0, 1], [1, 1.4142135623730951, 1, 0]]})
svg = os.path.join(work, "quad.svg")
for argv in (
    ["center", quad, "--name", "chebyshev"],
    ["center", quad, "--expr", "sqrt(d(n,1)*d(1,2))/perim"],
    ["coords", quad, "--name", "perimeter"],
    ["check-axioms", "--expr", "d(n,1)+d(1,2)", "--n", "6", "--trials", "2"],
    ["check-axioms", "--expr", "perim", "--n", "6", "--trials", "2"],
    ["check-axioms", "--expr", "sqrt(d(n,1)^2+d(1,2)^2)", "--n", "6", "--trials", "2"],
    ["check-axioms", "--expr", "d(1,2)-d(2,1)", "--n", "6", "--trials", "2"],
    ["check-axioms", "--name", "lamina", "--n", "6", "--trials", "2"],
    ["check-axioms", "--name", "perimeter", "--n", "6", "--trials", "2"],
    ["check-axioms", "--name", "circumcenter", "--n", "3", "--trials", "2"],
    ["center", quad, "--name", "medoid"],
    ["characterize", quad],
    ["reconstruct", square],
    ["plot", quad, "--centers", "centroid,median", "-o", svg],
):
    code = cli.main(argv)
    assert code == 0, (argv, code)
# medoid on a regular hexagon: the sums tie up to rounding, every row
# is summed exactly, and the tie exits 3; on an irregular 64-gon it exits 0
for name, turns, width, code in (
    ("hexagon", [k / 6 for k in range(6)], 1, 3),
    ("irregular", [(k + 0.4 * math.sin(k)) / 64 for k in range(64)], 2, 0),
):
    path = document(name, {"vertices": [[width * math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)]
                                        for t in turns]})
    got = cli.main(["center", path, "--name", "medoid"])
    assert got == code, (name, got)
# the diameter has the bits of the scan of every pair, on a regular 128-gon
# and on an ellipse
for name, width in (("regular", 1), ("ellipse", 2)):
    pts = [[width * math.cos(2 * math.pi * k / 128 + 0.1), math.sin(2 * math.pi * k / 128 + 0.1)]
           for k in range(128)]
    want = max(math.dist(a, b) for i, a in enumerate(pts) for b in pts[i + 1:])
    got = Polygon.from_pairs(pts).diameter()
    assert got == want, (name, got.hex(), want.hex())
    path = document(name, {"vertices": pts})
# the median loop runs at unit scale with Newton steps and a vertex rule: on
# the ellipse it takes at most 8 passes; a 2^-300 copy of the quad gives the
# quad's point times 2^-300 in as many passes; and the 6-gon's vertex 1,
# pulled by the others with a norm of exactly 1, is the median
assert cli.main(["center", path, "--name", "median"]) == 0
got = geometric_median(Polygon.from_pairs(pts))
assert got.at_vertex is None and got.iterations <= 8, got
four = [(0, 0), (4, 0), (5, 3), (1, 4)]
want = geometric_median(Polygon.from_pairs(four))
got = geometric_median(Polygon.from_pairs([(math.ldexp(x, -300), math.ldexp(y, -300)) for x, y in four]))
assert got.point.as_tuple() == (math.ldexp(want.point.x, -300), math.ldexp(want.point.y, -300)), got
assert (got.iterations, got.residual) == (want.iterations, want.residual), (got, want)
six = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (0, 1e-4)]
got = geometric_median(Polygon.from_pairs(six))
assert (got.point.as_tuple(), got.at_vertex) == ((0.0, 0.0), 0), got
assert cli.main(["center", document("pull1", {"vertices": six}), "--name", "median"]) == 0
# the medoid map measures only the rows its lower bounds cannot rule out.
# Once a best sum is known each is summed plainly first (the built-in `sum`,
# compensated from Python 3.12 on), and by its fsum (`catalog._total`) only
# where that sum does not rule it out; plain sums stop at the first fsum
# that ties the best. Both are counted here. The marks are those of the
# fsum of every row on an ellipse, where at most 3 rows take an fsum, on a
# regular 128-gon, where none is ruled out, each of the 128 rows takes an
# fsum and at most one a plain sum, and on a 40-gon far from the origin,
# whose centroid sums would overflow
exact_total, rows, plain = catalog._total, [], []


def counted_total(terms):
    rows.append(None)
    return exact_total(terms)


def counted_sum(terms):
    if isinstance(terms, map) and terms.__reduce__()[1][0] is math.dist:
        plain.append(None)  # one row's distances (the lower bounds sum tuples)
    return sum(terms)


catalog._total, catalog.sum = counted_total, counted_sum
for name, pts in (
    ("ellipse", [(2 * math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
                 for t in ((k + 0.4 * math.sin(k)) / 128 for k in range(128))]),
    ("regular", [(math.cos(2 * math.pi * k / 128), math.sin(2 * math.pi * k / 128)) for k in range(128)]),
    ("far", [(1.5e308 + (0.999e306 if k == 0 else 1e306) * math.cos(2 * math.pi * k / 40),
              (0.999e306 if k == 0 else 1e306) * math.sin(2 * math.pi * k / 40)) for k in range(40)]),
):
    sums = [math.fsum(math.dist(v, w) for w in pts) for v in pts]
    least = min(sums)
    want = [1.0 if s <= least + MEDOID_REL * least else 0.0 for s in sums]
    rows.clear()
    plain.clear()
    got = _medoid_indicators(Polygon.from_pairs(pts))
    assert got == want, (name, [i for i, m in enumerate(got) if m], [i for i, m in enumerate(want) if m])
    assert name != "ellipse" or len(rows) <= 3, (name, len(rows), len(plain))
    assert name != "regular" or (len(rows) == 128 and len(plain) <= 1), (name, len(rows), len(plain))
catalog._total = exact_total
del catalog.sum
# every value type but Polygon, DistanceMatrix and AxiomTrial takes the
# `__init__` that `Frozen` compiles when the class is made: each builds here,
# by position or by keyword, with its defaults, checks and derived slots, and
# builds again from its fields
origin, one, tri = Point2(0.0, 0.0), dsl.Const(1.0), Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])
built = [
    origin, DihedralElement(5, 7, True), RigidMotion(0.25), Similarity(2.0, RigidMotion(0.5)),
    ProjectiveCoords((1.0, 2.0, 3.0)), BarycentricWeights((0.25, 0.25, 0.5)),
    AxiomReport(True, True, True, 1.0, 0.0), dsl.Index("n", -1), one,
    dsl.Dist(dsl.Index("n", 0), dsl.Index("literal", 1)), dsl.Unary("sqrt", one),
    dsl.Binary("+", one, dsl.Unary("neg", one)), dsl.Aggregate("max", (one, one)),
    dsl.ParsedCenter(one, "1"), dsl._Token("end", "", 0), MedianResult(origin, 3, 0.0, None),
    EnclosingCircle(origin, 1.0, (0, 1)), ReconstructionResult(tri, 0.0),
    FeasibilityReport(True, 0.0, ()), CoincidenceReport((1.0, 1.0, 1.0), True, 0.0),
    PolygonDocument(vertices=tri), CenterRecord(name="centroid"),
]
assert {type(v) for v in built} == set(Frozen.__subclasses__()) - {
    Polygon, DistanceMatrix, AxiomTrial}
for v in built:
    assert type(v)(*[getattr(v, f) for f in v._fields]) == v, v
assert repr(RigidMotion(0.25)) == "RigidMotion(angle=0.25, translation=Point2(x=0.0, y=0.0))"
assert repr(CenterRecord(name="c")) == ("CenterRecord(name='c', projective=None, weights=None, "
                                        "point=None, error=None, error_type=None, extra=())")
assert DihedralElement(5, 7, True).exponent_a == 2 and PolygonDocument(vertices=tri).name == ""
assert dsl.Binary("+", one, dsl.Unary("neg", one)).height == 3 and not dsl.parse("1")._programs
try:
    PolygonDocument()
except DocumentError:
    pass
else:
    raise AssertionError("PolygonDocument() took neither vertices nor distances")
# the convexity guard decides each turn exactly, so a regular octagon with a
# vertex 3e-13 of its chord outside that chord is convex in either order
# (the tolerance it replaced accepted it in one order only)
octagon = [(math.cos(2 * math.pi * k / 8), math.sin(2 * math.pi * k / 8)) for k in range(8)]
(ax, ay), (cx, cy) = octagon[2], octagon[4]
octagon[3] = (ax + 0.1 * (cx - ax) + 3e-13 * (cy - ay), ay + 0.1 * (cy - ay) - 3e-13 * (cx - ax))
assert is_convex(Polygon.from_pairs(octagon)) and is_convex(Polygon.from_pairs(octagon[::-1]))
# a superscript digit is an unexpected character: exit 2, not a traceback
assert cli.main(["center", quad, "--expr", "d(1,2)*\u00b9"]) == 2
# admit draws one set of sample inputs per (n, seed), shared across expressions
for source, n in (("d(n,1)+d(1,2)", 6), ("perim", 6), ("d(n,1)*d(1,2)", 6)):
    assert admit(parse(source), n).name == source
# every trial of 1/d(1,2)+1/d(n,1) proves degree -1, which admit takes
# unfitted; the violation then fits them, and its witness holds this
# interpreter's own fits (the compensated `sum` of Python 3.12 on moves
# their last bits), while n = 6 is still the sample set kept
pc = parse("1/d(1,2)+1/d(n,1)")
try:
    admit(pc, 6)
except AxiomViolation as exc:
    want = tuple(t.slope_fit()[0] for t in _trials(dsl.center_function(pc), dsl._shared_inputs(6, 0), 64))
    assert repr(exc.witness["slopes"]) == repr(want), (exc.witness["slopes"], want)
else:
    raise AssertionError(f"{pc.source} was admitted")
# a violation's text, whose numbers do not pass through the built-in `sum`
# that Python 3.12 on compensates
for source, n, message in (
    ("d(1,2)", 6, "relabel-invariance: 'd(1,2)' distinguishes a matrix from its reversal "
                  "(2.618969662221586 vs 1.0446128331254307)"),
    ("sqrt(perim)", 5, "homogeneity: 'sqrt(perim)' has degree 0.500000, not a natural number"),
):
    try:
        admit(parse(source), n)
    except AxiomViolation as exc:
        assert str(exc) == message, str(exc)
    else:
        raise AssertionError(f"{source} was admitted")
assert admit(parse("d(n,1)+d(1,2)"), 5).name == "d(n,1)+d(1,2)"
assert dsl._sample_set.cache_info().misses == 2, dsl._sample_set.cache_info()  # n = 6, then 5
# the benchmark's expressions (perfbench/workloads.py, EXPRESSIONS, copied):
# at n = 8 each is admitted (None) or fails the property named, and all of
# them read one sample set
EXPRESSIONS = {
    "d(n,1)+d(1,2)": None,
    "perim": None,
    "d(2,n)": None,
    "d(n,1)*d(1,2)": None,
    "sqrt(d(n,1)^2+d(1,2)^2)": None,
    "d(1,2)": "relabel-invariance",
    "d(n,1)+d(1,2)+d(n,1)^2+d(1,2)^2": "homogeneity",
    "d(n,1)-d(1,2)": "relabel-invariance",
    "d(1,2)-d(2,1)": None,
}
misses = dsl._sample_set.cache_info().misses
for source, prop in EXPRESSIONS.items():
    try:
        admit(parse(source), 8)
    except AxiomViolation as exc:
        assert exc.prop == prop, (source, exc.prop)
    else:
        assert prop is None, (source, "admitted")
assert dsl._sample_set.cache_info().misses == misses + 1, dsl._sample_set.cache_info()
# a coordinate program, which the axiom trials run, gives the bits that
# evaluate gives on the distance matrix times t
pc = parse("sqrt(d(n,1)*d(1,2))/perim+d(2,n)")
p = Polygon.from_pairs([(0, 0), (4, 0), (5, 3), (1, 4), (-1, 2)])
D = distance_matrix(p)
measure = dsl.static_facts(pc, p.n)[3]
for t in (0.5, 1.0, 4.0):
    scaled = DistanceMatrix._of(tuple(tuple(t * v for v in row) for row in D.d))
    got, want = measure((p.xs, p.ys, t)), dsl.evaluate(pc, scaled)
    assert got == want, (t, got.hex(), want.hex())
# normalize skips BarycentricWeights' check on at most _TRUSTED_N finite
# coordinates, by a rounding bound that must also hold for the compensated
# sum of Python 3.12 on: the weights pass the check on 3,000 seeded inputs,
# n log-uniform in [3, _TRUSTED_N] and n = _TRUSTED_N itself, some of them
# summing just above the ZeroSum threshold (weights far larger than 1)
rng = random.Random(34)
for trial in range(3000):
    n = _TRUSTED_N if trial % 300 == 0 else int(
        2.0 ** rng.uniform(math.log2(3), math.log2(_TRUSTED_N)))
    values = [rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-40, 40) for _ in range(n)]
    if trial % 2:  # the last value cancels the others up to a margin above the threshold
        values[-1] = -math.fsum(values[:-1])
        values[-1] += ZERO_SUM_REL * max(map(abs, values)) * rng.uniform(1.5, 4.0)
    weights = normalize(ProjectiveCoords(tuple(values))).values
    BarycentricWeights(weights)  # ValueError("weights must sum to 1") where the bound fails
# the catalog's vertex entries declare their facts: a trial whose sample
# their bounds put in range evaluates only the sample and the moved copy and
# takes the reversal's value and the rescalings' from the sample's. The
# report must be the one of six evaluations a trial (static_facts=None), on
# this interpreter's float arithmetic, `math.fsum` and `math.dist`, for
# samplers near each end of the range: a coordinate 2^-k beside unit ones,
# and unit polygons times 2^K


def sampler(make, k, K):
    def draw(rng):
        q = make(rng, 6)
        xs = [2.0**K * x for x in q.xs]
        if k is not None:
            xs = [x - xs[0] + 2.0**-k for x in xs]  # vertex 1's x becomes 2^-k
        return Polygon._checked(xs, [2.0**K * y for y in q.ys])

    return draw


for name, k, K in (("centroid", 1074, 1020), ("lamina", 374, 500), ("medoid", 925, 1010)):
    fg = catalog.CATALOG[name].function
    make = random_convex_polygon if name == "lamina" else random_polygon
    for draw in (sampler(make, k, 0), sampler(make, None, K)):
        calls = []
        counted = replace(fg, evaluator=lambda p, f=fg.evaluator: calls.append(p) or f(p))
        got = verify_axioms(counted, draw, 20, 3)
        assert len(calls) == 2 * 20, (name, len(calls))  # every trial in range
        want = verify_axioms(replace(fg, static_facts=None), draw, 20, 3)
        assert repr(got) == repr(want), (name, got, want)
assert "threading" not in sys.modules, "polycenter imported threading"
assert "numpy" not in sys.modules, "polycenter imported numpy"
outside = {m.split(".")[0] for m in sys.modules} - set(sys.stdlib_module_names)
assert outside <= {"polycenter", "__main__"}, outside
