"""Measured views against the matrices they read as.

`geometry.MeasuredRows` gives the axiom trials views over coordinate
lists: an entry is measured when it is read, and a bulk read builds the
whole matrix once. Each view (the sample, its reversal, a moved copy and a
rescaling) must read as the matrix that `pairwise_distances`, `permuted`
and `scaled` build: entries by `float.hex`, the sequence protocol,
`rows_and_offset`, `max_entry` and compiled expressions, errors by class
and message. `Polygon.diameter` measures no matrix and must equal its
largest entry.
"""

import math
import random
from collections import Counter
from itertools import chain

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polycenter.geometry as geometry
from polycenter.catalog import CATALOG
from polycenter.dsl import ParsedCenter, admit, evaluate, parse
from polycenter.framework import _RESCALES, axiom_trials
from polycenter.geometry import (
    DihedralElement, DistanceMatrix, MeasuredRows, Polygon, distance_matrix, moved_coordinates,
    pairwise_distances,
)
from polycenter.sampling import random_convex_polygon, random_polygon, random_rigid_motion

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
    rng = random.Random(seed)
    p = random_polygon(rng, n)
    xs = [2.0**k * v.x for v in p.vertices]
    ys = [2.0**k * v.y for v in p.vertices]
    if moved:
        xs, ys = moved_coordinates(random_rigid_motion(rng), xs, ys)
    return xs, ys


def pairs(seed, n, k, moved, which):
    """(view, matrix) outcomes: the sample, its reversal, or its rescaling by
    `_RESCALES[which - 2]`, from `MeasuredRows` (by `permuted` and
    `rescalings`) and from `pairwise_distances` (by `permuted` and `scaled`)."""
    xs, ys = coordinates(seed, n, k, moved)

    reversal = DihedralElement.sigma(n).permutation()

    def view():
        sample = MeasuredRows(xs, ys)
        if which == 0:
            return sample.matrix()
        if which == 1:
            return sample.permuted(reversal)
        return sample.rescalings(_RESCALES)[which - 2]

    def matrix():
        D = pairwise_distances(xs, ys)
        if which == 0:
            return D
        if which == 1:
            return D.permuted(reversal)
        return [D.scaled(t) for t in _RESCALES][which - 2]

    return outcome(view), outcome(matrix)


def hexes(rows):
    return [[float.hex(v) for v in row] for row in rows]


views = st.tuples(st.integers(0, 2**32 - 1), st.integers(3, 16), st.sampled_from(EXPONENTS),
                  st.booleans(), st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(views, st.lists(st.tuples(st.integers(-20, 19), st.integers(-20, 19)), max_size=40))
def test_single_reads_give_the_matrix_entries(case, reads):
    view, matrix = pairs(*case)
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
    view, matrix = pairs(*case)
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
    # any read first, then all of them: the whole matrix is built at most once
    for read in bulk[first:] + bulk[:first]:
        assert read()
    assert hexes(V.d) == hexes(D.d)


@settings(max_examples=200, deadline=None)
@given(views, trees)
def test_compiled_expressions_read_views_as_matrices(case, e):
    view, matrix = pairs(*case)
    if view[0] != "value":
        return
    V, D = view[1], matrix[1]
    pc = ParsedCenter(e, "generated")
    got, want = outcome(lambda: evaluate(pc, V)), outcome(lambda: evaluate(pc, D))
    assert repr(got) == repr(want)
    rows, k = V.rows_and_offset()
    assert [[float.hex(rows[i][j + k]) for j in range(D.n)] for i in range(D.n)] == hexes(D.d)


def test_the_cases_reach_views_whole_matrices_and_errors():
    seen = Counter()
    for seed in range(8):
        for n in (3, 5, 8):
            for k in EXPONENTS:
                for moved in (False, True):
                    for which in range(5):
                        view, matrix = pairs(seed, n, k, moved, which)
                        assert view[0] == matrix[0]
                        if view[0] == "value":
                            lazy = view[1].d.__class__ is not tuple
                            seen["view" if lazy else "whole"] += 1
                        else:
                            assert view == matrix
                            seen[view[1].split(" must")[0]] += 1
    assert {"view", "whole", "polygon extent", "scale 2.0"} <= set(seen)


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


def test_admission_measures_only_what_the_expression_reads(monkeypatch):
    calls = Counter()
    for owner, name in ((geometry, "pairwise_distances"), (geometry, "_pairwise_rows"),
                        (DistanceMatrix, "scaled"), (DistanceMatrix, "permuted")):
        counted(monkeypatch, calls, owner, name)
    admit(parse("d(n,1)+d(1,2)"), 8)
    assert calls == Counter()
    admit(parse("perim"), 8)  # iterates its rows, so it reads whole matrices
    assert calls["_pairwise_rows"] > 0


def test_a_dense_reader_measures_each_sample_once(monkeypatch):
    measured = []
    original = geometry._pairwise_rows

    def recording(xs, ys):
        measured.append((tuple(xs), tuple(ys)))
        return original(xs, ys)

    monkeypatch.setattr(geometry, "_pairwise_rows", recording)
    perimeter = CATALOG["perimeter"].function
    trials = axiom_trials(perimeter, lambda rng: random_convex_polygon(rng, 6), 6, 0)
    for count, trial in enumerate(trials, 1):
        # the sample and its moved copy, each once; the reversal and the
        # rescalings are read off the sample's matrix
        assert len(measured) == 2 * count
        assert len(set(measured)) == len(measured)
        assert repr(trial.input.d) == repr(original(*map(list, measured[-2])))


def test_single_reads_measure_entries_and_a_triangle_is_measured_whole(monkeypatch):
    calls = Counter()
    counted(monkeypatch, calls, geometry, "_pairwise_rows")
    for n in (3, 4, 8, 16):
        calls.clear()
        xs, ys = coordinates(n, n, 0, False)
        V = MeasuredRows(xs, ys).matrix()
        # a triangle's 3 distances are measured when it is made; a larger
        # view measures each entry it is given, however many
        assert calls["_pairwise_rows"] == (n == 3)
        for read in range(3 * n * n):
            V.d[read % n][(read + 1) % n]
        assert calls["_pairwise_rows"] == (n == 3)
        V.d[0][1:]
        assert calls["_pairwise_rows"] == 1
