"""Compiled expressions equal the tree-walking reference bit for bit.

`dsl.evaluate` compiles a tree once per n into one straight-line function
that reads entries in place; `reference_evaluate` walks the tree on every
call. Values are compared by `repr`, errors by class, message and position.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import polycenter.dsl as dsl
from polycenter.dsl import Aggregate, Binary, Const, Dist, Index, ParsedCenter, Unary, evaluate
from polycenter.errors import EvalError, ExprIndexError
from polycenter.framework import coordinate_map_length
from polycenter.geometry import DistanceMatrix, Polygon, distance_matrix
from polycenter.sampling import random_convex_polygon, random_polygon

from reference_evaluate import reference_evaluate


def outcome(call):
    try:
        return ("value", repr(call()))
    except Exception as exc:  # every error class is part of the outcome
        return (type(exc), str(exc), exc.args, getattr(exc, "position", None))


indices = st.one_of(
    st.builds(Index, st.just("literal"), st.integers(1, 20)),
    st.builds(Index, st.just("n"), st.integers(-20, 20)),
)
constants = st.builds(
    Const,
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -2.5, 1e300, 1e-300]),
        st.floats(-1e3, 1e3),
    ),
)
# n-relative and literal pairs that may collide once reduced mod n
dists = st.builds(Dist, indices, indices, st.integers(0, 50))
leaves = st.one_of(constants, dists, st.just(Aggregate("perim", ())))
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "sqrt", "abs"]), sub),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
        st.builds(Aggregate, st.sampled_from(["min", "max"]),
                  st.lists(sub, min_size=1, max_size=3).map(tuple)),
    ),
    max_leaves=12,
)


def matrix(seed: int, n: int, kind: str) -> DistanceMatrix:
    rng = random.Random(seed)
    if kind == "convex":
        return distance_matrix(random_convex_polygon(rng, n))
    if kind == "repeated":
        # coincident vertices put zeros off the diagonal
        pts = [(rng.randrange(3), rng.randrange(3)) for _ in range(n)]
        return distance_matrix(Polygon.from_pairs(pts))
    return distance_matrix(random_polygon(rng, n))


matrices = st.builds(
    matrix, st.integers(0, 2**32 - 1), st.integers(3, 16),
    st.sampled_from(["random", "convex", "repeated"]),
)


def expect_equal_everywhere(e, D):
    pc = ParsedCenter(e, "generated")
    for view in [D, *D.rotations()]:
        expected = outcome(lambda: reference_evaluate(e, view))
        assert outcome(lambda: evaluate(pc, view)) == expected


@settings(max_examples=400, deadline=None)
@given(trees, matrices)
def test_compiled_evaluate_equals_the_tree_walker(e, D):
    expect_equal_everywhere(e, D)


@settings(max_examples=50, deadline=None)
@given(trees, st.lists(matrices, min_size=2, max_size=4))
def test_one_parsed_center_serves_every_n(e, Ds):
    # the compiled programs are kept per n; switching n must not reuse one
    pc = ParsedCenter(e, "generated")
    for D in Ds + Ds:
        assert outcome(lambda: evaluate(pc, D)) == outcome(lambda: reference_evaluate(e, D))


def test_every_node_kind_and_error():
    D = distance_matrix(Polygon.from_pairs([(0, 0), (3, 0), (3, 4), (0, 4), (-1, 2)]))
    sources = [
        "d(1,2)", "d(n,1)+d(1,2)", "d(n-1+2,3)", "perim", "-d(1,3)", "+d(1,3)",
        "abs(d(1,2)-d(2,3))", "sqrt(d(1,3))", "min(d(1,2))", "max(d(1,2),d(2,3),perim)",
        "d(1,2)*d(2,3)/d(3,4)", "d(1,2)^2-d(2,3)^0.5", "2^3^2",
        "1/(d(1,2)-d(2,1))", "sqrt(d(1,2)-d(2,3))", "(0-2)^0.5", "0^(0-1)",
        "10^(10^10)", "d(1,n+1)", "d(n+2,7)+1/0", "1/0+d(n+2,7)", "max(1/0,d(1,6))",
    ]
    # both operands raise, and differently: the left one must come first
    sources += [f"d(1,6){op}(1/0)" for op in "+-*/^"]
    sources += [f"sqrt(0-1){op}d(1,6)" for op in "+-*/^"]
    seen = set()
    for source in sources:
        pc = dsl.parse(source)
        for view in [D, *D.rotations()]:
            expected = outcome(lambda: reference_evaluate(pc, view))
            assert outcome(lambda: evaluate(pc, view)) == expected, source
            seen.add(expected[0])
    # values, EvalError and ExprIndexError (with its position) all occur
    assert {"value", EvalError, ExprIndexError} <= seen


def test_a_collision_raises_where_evaluation_reaches_it():
    # at n = 5, d(n+2,7) reduces to d(2,2); the division on its left comes first
    D = distance_matrix(random_polygon(random.Random(0), 5))
    pc = dsl.parse("1/(d(1,2)-d(1,2))+d(n+2,7)")
    assert outcome(lambda: evaluate(pc, D))[:2] == (EvalError, "division by zero")
    pc = dsl.parse("d(1,2)+d(n+2,7)")
    kind, message, _, position = outcome(lambda: evaluate(pc, D))
    assert kind is ExprIndexError and position == 7
    assert message == "d(n+2,7) collides at n=5 (at position 7)"


def test_a_node_that_is_not_an_expression_raises_when_reached():
    D = distance_matrix(random_polygon(random.Random(0), 4))
    for e in [Binary("+", Const(1.0), "junk"), Binary("+", Dist(Index("n", 0), Index("n", 4)), "junk")]:
        pc = ParsedCenter(e, "generated")
        assert outcome(lambda: evaluate(pc, D)) == outcome(lambda: reference_evaluate(e, D))


def test_rows_and_offset_read_every_entry_in_place():
    D = distance_matrix(random_polygon(random.Random(2), 7))
    for view in [D, *D.rotations()]:
        rows, k = view.rows_and_offset()
        assert [[rows[i + k][j + k] for j in range(7)] for i in range(7)] == [
            list(row) for row in view.d
        ]
    assert D.rows_and_offset() == (D.d, 0)


def test_a_perim_map_compiles_once_and_slices_no_row(monkeypatch):
    compiles, reads = [], []
    real_compile, real_d = dsl._compile, DistanceMatrix.d

    def counting_compile(node, n, offsets=None):
        compiles.append(n)
        return real_compile(node, n, offsets)

    def counting_d(self):
        reads.append(self)
        return real_d.fget(self)

    D = distance_matrix(random_convex_polygon(random.Random(1), 128))
    g = dsl.center_function(dsl.parse("perim"))
    monkeypatch.setattr(dsl, "_compile", counting_compile)
    monkeypatch.setattr(DistanceMatrix, "d", property(counting_d))
    values = coordinate_map_length(g, D).values
    assert compiles == [128]
    # the rotations share D's rows; no rotation builds its own
    assert reads and all(R is D for R in reads)
    monkeypatch.undo()
    pc = dsl.parse("perim")
    assert values == tuple(reference_evaluate(pc, D.rotated(k)) for k in range(128))
