"""Axiom trials that read an expression's static facts.

A guard-free expression function evaluates only the sample and the moved
copy when its tree proves the rest: the reversal's value is the sample's
when the tree is reversal-symmetric, and a rescaling's is the sample's
times 2^(degree*s) while every intermediate stays normal. The trials must
still equal `reference_axioms.axiom_trials` bit for bit, errors included,
and `check-axioms --expr` must print what the reference prints.
"""

import contextlib
import io
import math
import random
import sys
import threading
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import polycenter.dsl as dsl
import polycenter.framework as framework
import reference_axioms as ref
from polycenter import cli
from polycenter.catalog import CATALOG
from polycenter.dsl import Aggregate, Binary, Dist, Index, ParsedCenter, Unary, center_function
from polycenter.framework import AxiomTrial, LengthCenterFunction
from polycenter.geometry import distance_matrix
from polycenter.sampling import random_convex_polygon, random_polygon

from test_axiom_trials import EXPONENTS, expect_equal_streams, sampler
from test_compiled_dsl import trees

D_N1 = Dist(Index("n", 0), Index("literal", 1))


def homogenize(e):
    """e rewritten to have a degree: `^` becomes `*`, and the lower-degree
    operands of + - min max and an odd sqrt argument are multiplied by
    d(n,1) until the degrees match."""

    def lift(node, k, target):
        while k < target:
            node, k = Binary("*", node, D_N1), k + 1
        return node

    def go(node):
        if isinstance(node, Dist) or node == Aggregate("perim", ()):
            return node, 1
        if isinstance(node, Unary):
            arg, k = go(node.arg)
            if node.op != "sqrt":
                return Unary(node.op, arg), k
            return Unary("sqrt", lift(arg, k, k + k % 2)), (k + k % 2) // 2
        if isinstance(node, Binary):
            (left, kl), (right, kr) = go(node.left), go(node.right)
            if node.op in "*^":
                return Binary("*", left, right), kl + kr
            if node.op == "/":
                return Binary("/", left, right), kl - kr
            top = max(kl, kr)
            return Binary(node.op, lift(left, kl, top), lift(right, kr, top)), top
        if isinstance(node, Aggregate):
            pairs = [go(a) for a in node.args]
            top = max(k for _, k in pairs)
            return Aggregate(node.op, tuple(lift(a, k, top) for a, k in pairs)), top
        return node, 0

    return go(e)[0]


def evaluations_per_trial(fg, draw, trials=16, seed=0):
    """Expression evaluations per trial: each ends in one `dsl._finite`."""
    calls = []
    real = dsl._finite

    def counting(value):
        calls.append(value)
        return real(value)

    with mock.patch.object(dsl, "_finite", counting):
        assert len(list(framework.axiom_trials(fg, draw, trials, seed))) == trials
    return len(calls) / trials


@settings(max_examples=300, deadline=None)
@given(st.one_of(trees, trees.map(homogenize)), st.integers(3, 16), st.booleans(),
       st.sampled_from(EXPONENTS), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_shortcut_trials_equal_the_reference(e, n, convex, k, seed, trials):
    fg = center_function(ParsedCenter(e, "generated"))
    expect_equal_streams(fg, sampler(convex, n, k), trials, seed)


# A wrong degree rule for `/` changes the first two; sorting that
# reassociates calls the third and fourth symmetric, and their reversal
# sums in another order.
SOURCES = [
    "d(1,2)/d(2,3)", "d(n,1)*d(1,2)/perim", "d(n,1)+d(2,n)+d(1,2)",
    "d(n,1)+d(1,2)+d(n,1)^2+d(1,2)^2", "min(d(n,1),d(1,2))+max(d(1,2),d(n,1))",
    "sqrt(d(n,1)*d(1,2))", "abs(d(n,1)-d(1,2))*d(2,n)", "d(n,1)*d(1,2)-d(1,2)*d(n,1)",
]


def test_shortcut_trials_of_chosen_sources_equal_the_reference():
    for source in SOURCES:
        fg = center_function(dsl.parse(source))
        for n in (3, 5, 8):
            for k in EXPONENTS:
                for seed in range(4):
                    expect_equal_streams(fg, sampler(False, n, k), 8, seed)


def test_a_product_that_underflows_to_zero_is_evaluated():
    # at 2^-91 the degree-12 product rounds to 0, but the same tree at four
    # times the size does not: a zero from nonzero factors is no exact zero
    source = "*".join(["d(n,1)*d(1,2)"] * 6)
    pc = dsl.parse(source)
    draw = sampler(False, 5, -91)
    underflows = 0
    for seed in range(20):
        expect_equal_streams(center_function(pc), draw, 4, seed)
        D = distance_matrix(draw(random.Random(seed)))
        value, lo, hi = dsl.static_facts(pc, 5)[2](D)
        underflows += value == 0.0 and math.isnan(hi)
    assert underflows


FACTS = {  # the expressions of the expr-axioms workload at n = 8
    "d(n,1)+d(1,2)": (True, (1, 1, 1)),
    "perim": (False, (1, 1, 1)),
    "d(2,n)": (True, (1, 1, 1)),
    "d(n,1)*d(1,2)": (True, (2, 1, 2)),
    "sqrt(d(n,1)^2+d(1,2)^2)": (True, None),
    "d(1,2)": (False, (1, 1, 1)),
    "d(n,1)+d(1,2)+d(n,1)^2+d(1,2)^2": (False, None),
    "d(n,1)-d(1,2)": (False, (1, 1, 1)),
    "d(1,2)-d(2,1)": (False, (1, 1, 1)),
}


def test_static_facts_of_the_workload_expressions():
    for source, expected in FACTS.items():
        symmetric, degrees, _ = dsl.static_facts(dsl.parse(source), 8)
        assert (symmetric, degrees) == expected, source


def test_static_facts_rules():
    def facts(source, n=8):
        return dsl.static_facts(dsl.parse(source), n)[:2]

    assert facts("2") == (True, (0, 0, 0))
    assert facts("d(1,2)/d(2,3)*3") == (False, (0, 0, 1))
    assert facts("d(n,1)/d(1,2)/d(2,3)") == (False, (-1, -1, 1))
    assert facts("sqrt(d(n,1)*d(1,2))") == (True, (1, 1, 2))
    assert facts("sqrt(d(n,1))") == (False, None)
    assert facts("d(1,2)+1") == (False, None)
    assert facts("-abs(d(n,1)*d(1,2)*d(2,n))/perim") == (False, (2, 1, 3))
    # min and max keep their argument order: min(0.0, -0.0) is not min(-0.0, 0.0)
    assert facts("min(d(n,1),d(1,2))") == (False, (1, 1, 1))
    assert facts("min(d(n,1),d(1,2))+min(d(1,2),d(n,1))") == (True, (1, 1, 1))
    # at n = 4 the reversal swaps d(n,1) and d(1,2) and fixes d(1,3); no
    # sum is reassociated
    assert facts("d(n,1)+d(1,2)+d(1,3)", 4)[0] is True
    assert facts("d(1,3)+(d(1,2)+d(n,1))", 4)[0] is True
    assert facts("d(n,1)+d(1,3)+d(1,2)", 4)[0] is False
    assert facts("d(1,3)", 4)[0] is True and facts("d(1,3)", 5)[0] is False


def test_evaluations_per_trial():
    expected = {
        "d(n,1)+d(1,2)": 2, "d(2,n)": 2, "d(n,1)*d(1,2)": 2,
        "perim": 3, "d(1,2)-d(2,1)": 3, "sqrt(d(n,1)^2+d(1,2)^2)": 5,
    }
    draw = lambda rng: random_polygon(rng, 8)  # noqa: E731
    for source, count in expected.items():
        assert evaluations_per_trial(center_function(dsl.parse(source)), draw) == count, source
    # a guarded function, and one with no tree, evaluate all 6 inputs
    pc = dsl.parse("d(n,1)+d(1,2)")
    untreed = LengthCenterFunction(pc.source, lambda D: dsl.evaluate(pc, D))
    assert evaluations_per_trial(untreed, draw) == 6
    convex = lambda rng: random_convex_polygon(rng, 8)  # noqa: E731
    assert evaluations_per_trial(CATALOG["perimeter"].function, convex) == 6


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["d(n,1)+d(1,2)", "perim", "d(2,n)", "d(n,1)*d(1,2)",
                        "sqrt(d(n,1)^2+d(1,2)^2)"]),
       st.integers(3, 12), st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_check_axioms_expr_prints_what_the_reference_prints(source, n, seed, trials):
    argv = ["check-axioms", "--expr", source, "--n", str(n), "--trials", str(trials),
            "--seed", str(seed)]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    got = run()
    with mock.patch.object(framework, "axiom_trials", ref.axiom_trials):
        assert got == run()


# 4-tuples mixing signed zeros, sign changes, subnormals and magnitudes
# near 2^-1021 and 2^1021, where the logs are largest
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-1021, -(2.0**-1021),
                     2.0**1021, -(2.0**1021), 2.0**1023, 1.0, -1.0, 0.5, 2.0, 4.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=2.0**-1030, max_value=2.0**-1015),
    st.floats(min_value=2.0**1015, max_value=2.0**1022),
)


# and values c*t^k at the trial's scales t, which fit one power closely
powers = st.builds(lambda c, k: tuple(c * t**k for t in (0.5, 1.0, 2.0, 4.0)),
                   edge_floats, st.integers(-3, 6))


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.tuples(edge_floats, edge_floats, edge_floats, edge_floats), powers))
def test_slope_fit_equals_the_reference(values):
    trial = AxiomTrial(None, values[1], 0.0, 0.0, values)
    assert repr(trial.slope_fit()) == repr(ref.slope_fit(trial))


def test_samples_of_one_expression_in_several_threads():
    # each thread traces into its own list, so one thread's sample cannot
    # clear or pad another's intermediate values
    pc = dsl.parse("d(n,1)*d(1,2)+d(2,n)*d(1,2)")
    sample = dsl.static_facts(pc, 7)[2]
    matrices = [distance_matrix(random_polygon(random.Random(s), 7)) for s in range(40)]
    expected = [repr(sample(D)) for D in matrices]
    got = [[] for _ in range(6)]

    def work(out):
        for _ in range(20):
            out.append([repr(sample(D)) for D in matrices])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(run == expected for out in got for run in out) and all(len(out) == 20 for out in got)
