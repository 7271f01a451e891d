"""The coordinate-map kernel against the per-shift definition.

A coordinate map used to evaluate the center function, guard included, on
each of the n shifted polygons or rotated matrices. `cyclic_values` checks
the guard once and builds the rotations without revalidating them; on every
input here the outcome must be the same, value for value and error for
error.
"""

import math
import random

import pytest

from polycenter.catalog import CATALOG
from polycenter.characterization import F1, F2_ODD, F3_EVEN, coincidence
from polycenter.dsl import evaluate, parse
from polycenter.errors import AllZero, DomainViolation, EvalError
from polycenter.framework import (
    LengthCenterFunction,
    VertexCenterFunction,
    coordinate_map_length,
    coordinate_map_vertex,
    cyclic_values,
)
from polycenter.geometry import DistanceMatrix, distance_matrix
from polycenter.sampling import random_convex_polygon, random_polygon, regular_polygon

# The expressions of the benchmark's expr-axioms workload, plus one that
# divides by zero on every input.
EXPRESSIONS = (
    "d(n,1)+d(1,2)",
    "perim",
    "d(2,n)",
    "d(n,1)*d(1,2)",
    "sqrt(d(n,1)^2+d(1,2)^2)",
    "d(1,2)",
    "d(n,1)+d(1,2)+d(n,1)^2+d(1,2)^2",
    "d(n,1)-d(1,2)",
    "d(1,2)-d(2,1)",
    "1/(d(1,2)-d(2,1))",
)


def _expression_function(source):
    pc = parse(source)
    return LengthCenterFunction(pc.source, lambda D: evaluate(pc, D))


def _vertex_picky(p):
    # non-finite on the shifts whose first vertex lies right of the second
    return math.inf if p.vertices[0].x > p.vertices[1].x else 1.0


def _length_picky(D):
    # non-finite on some shifts, raising on the others: the first shift to
    # fail decides the error
    if D.d[0][1] > D.d[1][2]:
        return math.nan
    raise EvalError("d(1,2) <= d(2,3)")


FUNCTIONS = (
    [entry.function for entry in CATALOG.values()]
    + [_expression_function(source) for source in EXPRESSIONS]
    + [
        VertexCenterFunction("vertex-picky", _vertex_picky),
        LengthCenterFunction("length-picky", _length_picky),
        F1,
        F2_ODD,
        F3_EVEN,
    ]
)


def _inputs():
    rng = random.Random(7)
    for n in (3, 8, 32):
        for _ in range(2):
            yield random_convex_polygon(rng, n)
            yield random_polygon(rng, n)
    yield regular_polygon(7, winding=3)


INPUTS = list(_inputs())


def _outcome(call):
    """The value of call(), or the class and message of what it raised."""
    try:
        return ("value", call())
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


def _per_shift(fg, p):
    """The old definition: fg.evaluate, guard included, on every shift."""
    if isinstance(fg, VertexCenterFunction):
        return tuple(fg.evaluate(p.shifted(k)) for k in range(p.n))
    D = distance_matrix(p)
    return tuple(fg.evaluate(D.rotated(k)) for k in range(D.n))


def _per_shift_map(fg, p):
    values = _per_shift(fg, p)
    if all(v == 0.0 for v in values):
        raise AllZero(f"{fg.name}: every cyclic evaluation is zero")
    return values


def _map(fg, p):
    if isinstance(fg, VertexCenterFunction):
        return coordinate_map_vertex(fg, p).values
    return coordinate_map_length(fg, distance_matrix(p)).values


@pytest.mark.parametrize("fg", FUNCTIONS, ids=lambda fg: fg.name)
def test_maps_and_coincidence_match_the_per_shift_definition(fg):
    for p in INPUTS:
        expected = _outcome(lambda: _per_shift_map(fg, p))
        assert _outcome(lambda: _map(fg, p)) == expected
        expected = _outcome(lambda: _per_shift(fg, p))
        assert _outcome(lambda: coincidence(fg, p).values) == expected


def test_every_outcome_is_covered():
    # the maps equal the definition (above), so their outcomes stand for it
    kinds = {_outcome(lambda: _map(fg, p))[0] for fg in FUNCTIONS for p in INPUTS}
    assert {"value", DomainViolation, AllZero, EvalError} <= kinds


class CountingGuard:
    def __init__(self, answer):
        self.answer = answer
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.answer


@pytest.mark.parametrize("answer", [True, False])
@pytest.mark.parametrize(
    "call", ["vertex map", "length map", "vertex coincidence", "length coincidence"]
)
def test_guard_runs_once_per_map_and_per_coincidence(call, answer):
    p = random_convex_polygon(random.Random(3), 8)
    guard = CountingGuard(answer)
    if call.startswith("vertex"):
        fg = VertexCenterFunction("counted", lambda q: 1.0, guard)
    else:
        fg = LengthCenterFunction("counted", lambda D: 1.0, guard)
    run = {
        "vertex map": lambda: coordinate_map_vertex(fg, p),
        "length map": lambda: coordinate_map_length(fg, distance_matrix(p)),
    }.get(call, lambda: coincidence(fg, p))
    if answer:
        run()
    else:
        with pytest.raises(DomainViolation):
            run()
    assert guard.calls == 1


def test_rotations_equal_rotated_and_are_valid_matrices():
    for p in INPUTS:
        D = distance_matrix(p)
        seen = []
        g = LengthCenterFunction("record", lambda M: seen.append(M) or 1.0)
        assert cyclic_values(g, D) == (1.0,) * D.n
        assert seen == [D.rotated(k) for k in range(D.n)]
        for M in seen:
            assert DistanceMatrix.from_rows(M.d) == M


def test_shifts_equal_shifted():
    for p in INPUTS:
        seen = []
        f = VertexCenterFunction("record", lambda q: seen.append(q) or 1.0)
        assert cyclic_values(f, p) == (1.0,) * p.n
        assert seen == [p.shifted(k) for k in range(p.n)]
