"""`framework.axiom_trials` against the reference trials.

The trial evaluates each distinct input once, measures the moved copy of a
length function's sample from moved coordinates and reads the unit
rescaling as the sample itself; `reference_axioms` keeps the 7-evaluation
trial with its moved `Polygon` and one `scaled` copy per factor. The two
trial streams, `slope_fit` and the `verify_axioms` and `admit` outcomes
built on them must agree: values by `repr`, errors by class and message,
`AxiomViolation`s by property and witness too.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import polycenter.dsl as dsl
import polycenter.framework as framework
import reference_axioms as ref
from polycenter.catalog import CATALOG
from polycenter.dsl import ParsedCenter, center_function
from polycenter.geometry import Polygon
from polycenter.sampling import random_convex_polygon, random_polygon

from test_compiled_dsl import trees

CATALOG_FUNCTIONS = [entry.function for entry in CATALOG.values()]
SOURCES = [
    "d(1,2)", "d(n,1)+d(1,2)", "d(n,1)*d(1,2)", "d(1,2)+1", "sqrt(perim)", "perim^0",
    "d(n,1)+d(1,2)+d(n,1)^2+d(1,2)^2", "d(n,1)-d(1,2)", "(d(n,1)-d(1,2))^2",
    "(sqrt(d(n,1)*d(1,2))^2-d(n,1)*d(1,2))*10^12", "max(d(n,1),d(1,2))/min(d(n,1),d(1,2))",
]
# At 2^1021 a sample's extent stays finite, but the moved copy's extent and
# the rescalings may overflow; at 2^1023 the sample's extent overflows and
# so may the moved coordinates themselves.
EXPONENTS = [0, 0, 1021, 1023, -1021]


def outcome(call):
    try:
        return ("value", repr(call()))
    except Exception as exc:  # every error class is part of the outcome
        return (type(exc).__name__, str(exc), repr(getattr(exc, "prop", None)),
                repr(getattr(exc, "witness", None)))


def stream(trials, slope_fit):
    """Each trial with its slope fit, then the error that ended the stream."""
    out = []
    try:
        for trial in trials:
            out.append(("trial", repr(trial), repr(slope_fit(trial))))
    except Exception as exc:  # every error class is part of the outcome
        out.append((type(exc).__name__, str(exc)))
    return out


def sampler(convex, n, k):
    make = random_convex_polygon if convex else random_polygon
    t = 2.0**k

    def draw(rng):
        return Polygon(tuple(v.scaled(t) for v in make(rng, n).vertices))

    return draw


functions = st.one_of(
    st.sampled_from(CATALOG_FUNCTIONS),
    st.sampled_from(SOURCES).map(lambda s: center_function(dsl.parse(s))),
    trees.map(lambda e: center_function(ParsedCenter(e, "generated"))),
)


def expect_equal_streams(fg, draw, trials, seed):
    got = stream(framework.axiom_trials(fg, draw, trials, seed), framework.AxiomTrial.slope_fit)
    assert got == stream(ref.axiom_trials(fg, draw, trials, seed), ref.slope_fit)
    return got


@settings(max_examples=300, deadline=None)
@given(functions, st.integers(3, 16), st.booleans(), st.sampled_from(EXPONENTS),
       st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_trials_equal_the_reference(fg, n, convex, k, seed, trials):
    expect_equal_streams(fg, sampler(convex, n, k), trials, seed)


@settings(max_examples=150, deadline=None)
@given(functions, st.integers(3, 16), st.booleans(), st.sampled_from(EXPONENTS),
       st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_verify_axioms_equals_the_reference(fg, n, convex, k, seed, trials):
    draw = sampler(convex, n, k)
    got = outcome(lambda: framework.verify_axioms(fg, draw, trials, seed))
    with mock.patch.object(framework, "axiom_trials", ref.axiom_trials):
        want = outcome(lambda: framework.verify_axioms(fg, draw, trials, seed))
    assert got == want


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(SOURCES).map(dsl.parse),
                 trees.map(lambda e: ParsedCenter(e, "generated"))),
       st.integers(3, 16), st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_admit_equals_the_reference(pc, n, seed, trials):
    # an admitted function is a fresh closure on each call, so compare names
    got = outcome(lambda: dsl.admit(pc, n, seed, trials).name)
    with mock.patch.object(dsl, "axiom_trials", ref.axiom_trials):
        want = outcome(lambda: dsl.admit(pc, n, seed, trials).name)
    assert got == want


def test_every_catalog_entry_and_source_at_every_n():
    for n in range(3, 17):
        for convex in (False, True):
            for k in (0, 1021, -1021):
                for fg in CATALOG_FUNCTIONS:
                    expect_equal_streams(fg, sampler(convex, n, k), 2, n)
    for source in SOURCES:
        for n in (3, 5, 8):
            expect_equal_streams(center_function(dsl.parse(source)),
                                 sampler(False, n, 0), 16, n)


def test_the_streams_reach_every_kind_of_outcome():
    # trials, the overflow of a moved coordinate and of an extent, a
    # rescaling's ValueError and an evaluation error all occur, so the
    # comparisons above are not vacuous
    seen = set()
    perimeter = center_function(dsl.parse("d(n,1)+d(1,2)"))
    cases = [(perimeter, sampler(False, 8, 0)), (perimeter, sampler(False, 8, 1021)),
             (perimeter, sampler(False, 8, 1023)),
             (CATALOG["lamina"].function, sampler(False, 8, 1021)),
             (center_function(dsl.parse("1/(d(1,2)-d(1,2))")), sampler(False, 5, 0))]
    for fg, draw in cases:
        for seed in range(20):
            for entry in expect_equal_streams(fg, draw, 3, seed):
                seen.add(entry[0] if entry[0] in ("trial", "EvalError")
                         else (entry[0], entry[1].split(" must")[0]))
    assert {"trial", ("NonFinite", "x"), ("NonFinite", "polygon extent"),
            ("ValueError", "scale 2.0"), "EvalError"} <= seen
