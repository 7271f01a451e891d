"""Coordinate programs against evaluation on the distance matrix.

`dsl.static_facts` evaluates an expression on coordinates (`_compile`'s
coordinate mode): `measure((xs, ys, t))` must give what `evaluate` gives
on the distance matrix of the points times t (`distance_matrix`, then
`scaled`), values by `repr` and errors by class, message and position, and
`sample` that value with the magnitudes of the matrix-mode trace. The
polygons come at unit scale and at 2^+-1021, with t in {0.5, 1, 2, 4};
where the matrix cannot be built (an extent or a scaled entry overflows),
the axiom trials reject the input before any program reads it, so those
cases are skipped here.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polycenter.dsl as dsl
from polycenter import cli
from polycenter.dsl import ParsedCenter, evaluate, parse
from polycenter.errors import EvalError, ExprIndexError
from polycenter.geometry import Polygon, distance_matrix
from polycenter.sampling import random_convex_polygon, random_polygon

from reference_axioms import scaled
from test_compiled_dsl import trees
from test_generated_programs import TALLEST

SCALES = [0.5, 1.0, 2.0, 4.0]
EXPONENTS = [0, 1021, -1021]


def outcome(call):
    try:
        return ("value", repr(call()))
    except Exception as exc:  # every error class is part of the outcome
        return (type(exc), str(exc), exc.args, getattr(exc, "position", None))


def polygon(seed, n, kind, k):
    """A random n-gon of the kind (coincident vertices when "repeated")
    times 2^k, or None where a coordinate overflows."""
    rng = random.Random(seed)
    if kind == "repeated":
        pairs = [(rng.randrange(3), rng.randrange(3)) for _ in range(n)]
    else:
        make = random_convex_polygon if kind == "convex" else random_polygon
        pairs = [(v.x, v.y) for v in make(rng, n).vertices]
    pairs = [(2.0**k * x, 2.0**k * y) for x, y in pairs]
    if not all(math.isfinite(c) for pair in pairs for c in pair):
        return None
    return Polygon.from_pairs(pairs)


def matrix(p, t):
    """The distance matrix of p times t, or None where it cannot be built."""
    try:
        return scaled(distance_matrix(p), t)
    except (ArithmeticError, ValueError):  # NonFinite extent, or a scale that overflows
        return None


def expect_equal(pc, p, t):
    """Compare measure, sample and the trace with the matrix at t; the
    matrix outcome, or None where there is no matrix."""
    D = matrix(p, t)
    if D is None:
        return None
    n, c = p.n, (p.xs, p.ys, t)
    _, _, sample, measure = dsl.static_facts(pc, n)
    want = outcome(lambda: evaluate(pc, D))
    assert outcome(lambda: measure(c)) == want
    # the trace, every node's value, is the matrix-mode trace
    trace = dsl._compile(pc.expr, n, coordinates=True, traced=True)
    assert outcome(lambda: trace(*c)) == outcome(
        lambda: dsl._compile(pc.expr, n, traced=True)(*D.rows_and_offset()))
    got = outcome(lambda: sample(c))
    if want[0] != "value":
        assert got == want
    else:
        value, values = trace(*c)
        magnitudes = [abs(v) for v in values if v] or [1.0]
        assert repr(value) == want[1]
        assert got[1] == repr((value, min(magnitudes), sum(magnitudes)))
    return want


@settings(max_examples=400, deadline=None)
@given(trees, st.integers(0, 2**32 - 1), st.integers(3, 16),
       st.sampled_from(["random", "convex", "repeated"]), st.sampled_from(EXPONENTS),
       st.sampled_from(SCALES))
def test_coordinate_programs_equal_matrix_evaluation(e, seed, n, kind, k, t):
    p = polygon(seed, n, kind, k)
    assume(p is not None)
    assume(expect_equal(ParsedCenter(e, "generated"), p, t) is not None)


@pytest.mark.parametrize("name", TALLEST)
def test_a_tree_at_max_depth_equals_matrix_evaluation(name):
    pc = parse(TALLEST[name](dsl.MAX_DEPTH))
    for n in (5, 8):
        for k in EXPONENTS:
            p = polygon(n, n, "convex", k)
            for t in SCALES:
                if k == 0:
                    assert expect_equal(pc, p, t)[0] == "value"
                else:
                    expect_equal(pc, p, t)


ERRORS = {  # source -> the error it must reach on the pentagon below
    "d(1,n+1)": "collides",
    "1/(d(1,2)-d(2,1))": "division by zero",
    "sqrt(d(1,2)-d(1,3))": "sqrt of negative",
    "(d(1,2)+10)^400": "power overflow",
    "d(1,2)*10^308*10": "non-finite value",
    "d(n,1)*d(1,2)": None,
}


def test_every_error_is_the_matrix_error():
    p = Polygon.from_pairs([(0, 0), (1, 0), (3, 4), (0, 4), (-1, 2)])
    seen = Counter()
    for source, message in ERRORS.items():
        pc = parse(source)
        for t in SCALES:
            want = expect_equal(pc, p, t)
            if message is None:
                assert want[0] == "value", source
            else:
                assert want[0] in (EvalError, ExprIndexError) and message in want[1], source
            seen[want[0]] += 1
    assert set(seen) == {"value", EvalError, ExprIndexError}


def test_coordinate_programs_scale_with_t_where_the_matrix_entries_do():
    # at t = 2^s every distance, and so a degree-2 product, gains exactly 2^(2s)
    pc = parse("d(n,1)*d(1,2)")
    p = random_convex_polygon(random.Random(3), 7)
    measure = dsl.static_facts(pc, 7)[3]
    base = measure((p.xs, p.ys, 1.0))
    for s in (-1, 1, 2):
        assert measure((p.xs, p.ys, 2.0**s)) == math.ldexp(base, 2 * s)


def test_check_axioms_on_an_expression_compiles_two_coordinate_programs(monkeypatch, capsys):
    # the traced and the plain coordinate program of `static_facts`; no
    # matrix program, as no trial reads a matrix
    sources = []
    real = compile

    def spy(source, *rest):
        sources.append(source)
        return real(source, *rest)

    monkeypatch.setattr(dsl, "compile", spy, raising=False)
    argv = ["check-axioms", "--expr", "d(n,1)*d(1,2)", "--n", "8", "--trials", "20"]
    assert cli.main(argv) == 0
    assert '"homogeneity_ok": true' in capsys.readouterr().out
    assert len(sources) == 2 and all(s.startswith("def f(xs, ys, t):") for s in sources)


@pytest.mark.parametrize("source", ["perim", "max(perim, d(1,3)) * perim", "d(n,1)+d(1,2)"])
def test_the_matrix_trace_of_every_rotation_is_the_trace_of_the_shifted_polygon(source):
    # perim's sides are nodes in shift order on a rotation too
    pc = parse(source)
    for n in (3, 8, 13):
        p = random_polygon(random.Random(n), n)
        D = distance_matrix(p)
        traced = dsl._compile(pc.expr, n, traced=True)
        measured = dsl._compile(pc.expr, n, coordinates=True, traced=True)
        for k in range(n):
            q = p.shifted(k)
            assert outcome(lambda: traced(*D.rotated(k).rows_and_offset())) == outcome(
                lambda: measured(q.xs, q.ys, 1.0))
