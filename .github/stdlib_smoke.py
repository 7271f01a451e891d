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
import sys

from polycenter import AxiomViolation, Polygon, admit, cli, dsl, parse
from polycenter.catalog import MEDOID_REL, _medoid_indicators
from polycenter.geometry import DistanceMatrix, distance_matrix, is_convex

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
# the diameter's pruned search returns the pair scan's bits on a regular
# 128-gon, which skips no pair, and on an ellipse, which skips most; the
# median, which reads it, runs on the ellipse
for name, width in (("regular", 1), ("ellipse", 2)):
    pts = [[width * math.cos(2 * math.pi * k / 128 + 0.1), math.sin(2 * math.pi * k / 128 + 0.1)]
           for k in range(128)]
    want = max(math.dist(a, b) for i, a in enumerate(pts) for b in pts[i + 1:])
    got = Polygon.from_pairs(pts).diameter()
    assert got == want, (name, got.hex(), want.hex())
    path = document(name, {"vertices": pts})
assert cli.main(["center", path, "--name", "median"]) == 0
# the medoid map measures only the rows its lower bounds cannot rule out,
# under a cut that allows for the compensated sum of Python 3.12 on; its
# marks are those of the fsum of every row on an ellipse, where most rows
# are ruled out, on a regular 128-gon, where none is, and on a 40-gon far
# from the origin, whose centroid sums would overflow
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
    got = _medoid_indicators(Polygon.from_pairs(pts))
    assert got == want, (name, [i for i, m in enumerate(got) if m], [i for i, m in enumerate(want) if m])
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
try:
    admit(parse("d(1,2)"), 6)
except AxiomViolation as exc:
    assert exc.prop == "relabel-invariance", exc.prop
else:
    raise AssertionError("d(1,2) was admitted")
assert dsl._sample_set.cache_info().misses == 1, dsl._sample_set.cache_info()
assert admit(parse("d(n,1)+d(1,2)"), 5).name == "d(n,1)+d(1,2)"
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
assert "threading" not in sys.modules, "polycenter imported threading"
assert "numpy" not in sys.modules, "polycenter imported numpy"
outside = {m.split(".")[0] for m in sys.modules} - set(sys.stdlib_module_names)
assert outside <= {"polycenter", "__main__"}, outside
