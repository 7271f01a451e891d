"""Measured views against the matrices they read as.

`geometry.MeasuredRows` gives the axiom trials views over coordinate
lists: an entry is measured when it is read, and the whole matrix once,
when `d` is first read. Each view (the sample, its reversal, a moved copy
and a rescaling), checked and built as `axiom_trials` checks and builds it,
must read as the matrix that `distance_matrix`, `permuted` and `scaled`
build: entries by `float.hex`, `d`, `rows_and_offset`, `max_entry` and
compiled expressions, errors by class and message. Every matrix, views
included, reads as the tuple of its rows. `Polygon.diameter` measures no
matrix and must equal its largest entry.
"""

import copy
import math
import pickle
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import chain

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polycenter.dsl as dsl
import polycenter.framework as framework
import polycenter.geometry as geometry
from polycenter.dsl import ParsedCenter, admit, evaluate, parse
from polycenter.catalog import CATALOG
from polycenter.errors import AxiomViolation
from polycenter.framework import _RESCALES, LengthCenterFunction, axiom_trials, verify_axioms
from polycenter.geometry import (
    DihedralElement, DistanceMatrix, MeasuredRows, Point2, Polygon, distance_matrix,
    moved_coordinates,
)
from polycenter.sampling import random_convex_polygon, random_polygon, random_rigid_motion

from helpers import permuted
from reference_axioms import scaled
from test_compiled_dsl import trees
from test_distance_kernel import polygons

# 2^1021 keeps a sample's extent finite but may overflow its moved copy and
# its rescalings; at 2^1023 the extent itself may overflow.
EXPONENTS = [0, 1021, -1021, 1023]


def outcome(call):
    try:
        return ("value", call())
    except Exception as exc:  # every error class is part of the outcome
        return (type(exc).__name__, str(exc))


def coordinates(seed, n, k, moved):
    """A random n-gon's coordinates times 2^k, moved by a random rigid
    motion or not; None where a moved coordinate overflows, which
    `axiom_trials` rejects before it makes a view."""
    rng = random.Random(seed)
    p = random_polygon(rng, n)
    xs = [2.0**k * v.x for v in p.vertices]
    ys = [2.0**k * v.y for v in p.vertices]
    if moved:
        xs, ys = moved_coordinates(random_rigid_motion(rng), xs, ys)
    return (xs, ys) if all(map(math.isfinite, xs + ys)) else None


def pairs(seed, n, k, moved, which):
    """(view, matrix) outcomes: the sample, its reversal, or its rescaling by
    `_RESCALES[which - 2]`, as `MeasuredRows` views once the sample's extent
    and a rescaling's scale are checked, and from `distance_matrix` (by
    `permuted` and `scaled`); None where `coordinates` is."""
    points = coordinates(seed, n, k, moved)
    if points is None:
        return None
    xs, ys = points
    reversal = DihedralElement.sigma(n).permutation()

    def view():
        diagonal = geometry._extent(xs, ys)
        if which == 0:
            rows = MeasuredRows(xs, ys)
        elif which == 1:
            rows = MeasuredRows([xs[i] for i in reversal], [ys[i] for i in reversal])
        else:
            geometry._check_scale(xs, ys, _RESCALES[which - 2], diagonal)
            rows = MeasuredRows(xs, ys, _RESCALES[which - 2])
        return DistanceMatrix._of(rows)

    def matrix():
        D = distance_matrix(Polygon(tuple(map(Point2, xs, ys))))
        if which == 0:
            return D
        if which == 1:
            return permuted(D, reversal)
        return scaled(D, _RESCALES[which - 2])

    return outcome(view), outcome(matrix)


def hexes(rows):
    return [[float.hex(v) for v in row] for row in rows]


views = st.tuples(st.integers(0, 2**32 - 1), st.integers(3, 16), st.sampled_from(EXPONENTS),
                  st.booleans(), st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(views, st.lists(st.tuples(st.integers(-20, 19), st.integers(-20, 19)), max_size=40))
def test_single_reads_give_the_matrix_entries(case, reads):
    both = pairs(*case)
    assume(both is not None)
    view, matrix = both
    assert view[0] == matrix[0]
    if view[0] != "value":
        assert view == matrix
        return
    V, D = view[1], matrix[1]
    n = D.n
    for i, j in reads:
        # in range, negative included, each read from a fresh row
        i, j = i % (2 * n) - n, j % (2 * n) - n
        assert float.hex(V.d[i][j]) == float.hex(D.d[i][j])
    assert len(V.d) == n and len(V.d[0]) == n
    assert hexes(V.d) == hexes(D.d)


@settings(max_examples=200, deadline=None)
@given(views, st.integers(0, 6))
def test_bulk_reads_give_the_matrix(case, first):
    both = pairs(*case)
    assume(both is not None)
    view, matrix = both
    if view[0] != "value":
        assert view == matrix
        return
    V, D = view[1], matrix[1]
    n = D.n
    bulk = [
        lambda: V == D and D == V and V.d == D.d and D.d == V.d,
        lambda: hash(V) == hash(D) and hash(V.d) == hash(D.d),
        lambda: repr(V) == repr(D),
        lambda: list(V.d) == list(D.d) and V.d[1:-1] == D.d[1:-1] and V.d[::-2] == D.d[::-2],
        lambda: float.hex(V.max_entry()) == float.hex(D.max_entry()),
        lambda: V.d[-1][1:] == D.d[-1][1:] and list(V.d[0]) == list(D.d[0]),
        lambda: V.d[n - 1] == D.d[n - 1] and hash(V.d[0]) == hash(D.d[0]),
    ]
    # any read first, then all of them: no read changes what a later one sees
    for read in bulk[first:] + bulk[:first]:
        assert read()
    assert hexes(V.d) == hexes(D.d)


@settings(max_examples=200, deadline=None)
@given(views, trees)
def test_compiled_expressions_read_views_as_matrices(case, e):
    both = pairs(*case)
    assume(both is not None)
    view, matrix = both
    if view[0] != "value":
        return
    V, D = view[1], matrix[1]
    pc = ParsedCenter(e, "generated")
    got, want = outcome(lambda: evaluate(pc, V)), outcome(lambda: evaluate(pc, D))
    assert repr(got) == repr(want)
    rows, k = V.rows_and_offset()
    assert [[float.hex(rows[i][j + k]) for j in range(D.n)] for i in range(D.n)] == hexes(D.d)


def test_the_cases_reach_views_and_errors():
    seen = Counter()
    for seed in range(8):
        for n in (3, 5, 8):
            for k in EXPONENTS:
                for moved in (False, True):
                    for which in range(5):
                        both = pairs(seed, n, k, moved, which)
                        if both is None:
                            seen["moved overflow"] += 1
                            continue
                        view, matrix = both
                        assert view[0] == matrix[0]
                        if view[0] == "value":
                            assert view[1].rows_and_offset()[0].__class__ is MeasuredRows
                            seen["view"] += 1
                        else:
                            assert view == matrix
                            seen[view[1].split(" must")[0]] += 1
    assert {"view", "polygon extent", "scale 2.0"} <= set(seen)


def every_kind_of_matrix():
    """A validated matrix, one measured, a rotation, each of `rotations()`
    and each view of two axiom trials, all fresh: no `d` read yet."""
    p = random_polygon(random.Random(6), 7)
    D = distance_matrix(p)
    seen = []
    recorder = LengthCenterFunction("recorder", lambda V: seen.append(V) or 1.0)
    for _ in axiom_trials(recorder, lambda rng: p, 2, 0):
        pass
    return {"validated": DistanceMatrix(D.d), "measured": distance_matrix(p),
            "rotated": D.rotated(3), **{f"rotation {k}": R for k, R in enumerate(D.rotations())},
            **{f"trial view {k}": V for k, V in enumerate(seen)}}


@pytest.mark.parametrize("kind", list(every_kind_of_matrix()))
def test_every_matrix_reads_as_the_tuple_of_its_rows(kind):
    M = every_kind_of_matrix()[kind]
    copies = [copy.copy(M), copy.deepcopy(M)] + [
        pickle.loads(pickle.dumps(M, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    want = DistanceMatrix.from_rows(M.d)
    for X in [M, *copies]:
        assert type(X) is DistanceMatrix
        assert type(X.d) is tuple and all(type(row) is tuple for row in X.d)
        assert X == want and want == X
        assert hash(X) == hash(want) == hash((want.d,))
        assert repr(X) == repr(want) == f"DistanceMatrix(d={want.d!r})"
    with pytest.raises(FrozenInstanceError):
        M.d = want.d
    with pytest.raises(FrozenInstanceError):
        del M.d


@pytest.mark.parametrize("name, n", [("perimeter", 8), ("circumcenter", 3)])
def test_a_guard_reading_a_view_densely_measures_its_matrix_once(monkeypatch, name, n):
    # the guards read `d`: each of the 6 views of a trial measures its whole
    # matrix for the first read and keeps it for the rest
    calls = Counter()
    counted(monkeypatch, calls, geometry, "_pairwise_rows")
    samples = iter([random_convex_polygon(random.Random(seed), n) for seed in range(4)])
    verify_axioms(CATALOG[name].function, lambda rng: next(samples), 4, 0)
    assert calls == Counter({"_pairwise_rows": 6 * 4})


@settings(max_examples=300, deadline=None)
@given(polygons(), st.sampled_from([0, 1, -1, 1021, -1021]))
def test_diameter_is_the_largest_matrix_entry(p, k):
    pairs = [(2.0**k * v.x, 2.0**k * v.y) for v in p.vertices]
    assume(all(map(math.isfinite, chain.from_iterable(pairs))))
    p = Polygon.from_pairs(pairs)
    got = outcome(lambda: float.hex(p.diameter()))
    assert got == outcome(lambda: float.hex(distance_matrix(p).max_entry()))


def test_diameter_overflow_is_nonfinite():
    # the extent is checked as `distance_matrix` checks it: this box's
    # diagonal overflows although its largest distance, 1.3e308, does not
    s = 1.3e308
    box = [(0.0, s / 2), (s / 2, 0.0), (s, s / 2), (s / 2, s)]
    for pts in ([(-2.0**1023, 0.0), (2.0**1023, 0.0), (0.0, 1.0)], box):
        p = Polygon.from_pairs(pts)
        got = outcome(p.diameter)
        assert got == outcome(lambda: distance_matrix(p).max_entry())
        assert got[0] == "NonFinite"


def counted(monkeypatch, calls, owner, name):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


# The expressions the benchmark admits at n = 8, with the property each
# fails (None: admitted).
ADMISSIONS = {
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


def test_admission_measures_only_what_the_expression_reads(monkeypatch):
    # no expression, `perim` included, makes a view measure its whole
    # matrix; a cold admission draws the 64 trials once, accepted or not,
    # each checking two extents, the sample's and the moved copy's, and an
    # admission at the same (n, seed) after it draws and checks nothing
    calls = Counter()
    for owner, name in ((geometry, "_pairwise_rows"), (geometry, "_extent"),
                        (framework, "_extent"), (geometry, "_largest_distance"),
                        (dsl, "random_polygon")):
        counted(monkeypatch, calls, owner, name)
    for source, prop in ADMISSIONS.items():
        dsl._sample_set.cache_clear()
        calls.clear()
        got = outcome(lambda: admit(parse(source), 8))
        assert calls["random_polygon"] == 64
        if prop is None:
            assert got[0] == "value", source
        else:
            assert got[0] == AxiomViolation.__name__ and got[1].startswith(prop), source
        trials = calls.pop("random_polygon")
        assert calls == Counter({"_extent": 2 * trials}), source
        again = outcome(lambda: admit(parse(source), 8))
        assert again[0] == got[0] and (prop is None or again == got), source
        assert calls == Counter({"_extent": 2 * trials}), source
