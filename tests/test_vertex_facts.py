"""Axiom trials of the catalog's vertex entries, which declare their facts.

`centroid`, `lamina` and `medoid` are reversal-symmetric, of degree 0, 2
and 0, and bound their intermediates from the coordinates (`catalog`). A
trial whose sample the bounds put in range evaluates, guard included, only
the sample and the moved copy; any other evaluates all six inputs. Either
way the trials must equal `reference_axioms.axiom_trials` bit for bit,
errors and their order included, and a copy of an entry with another
evaluator and guard (`dataclasses.replace`, as the benchmark's tracer
makes) must evaluate through them.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycenter.framework as framework
from polycenter.catalog import CATALOG
from polycenter.geometry import Polygon
from polycenter.sampling import random_convex_polygon, random_polygon

from test_axiom_trials import expect_equal_streams

NAMES = ("centroid", "lamina", "medoid")


def sampler(convex, n, k, tiny=None):
    """n-gons times 2^k; with `tiny`, then moved along x so that vertex 1's
    x is 2^-tiny, a coordinate far finer than the others."""
    make = random_convex_polygon if convex else random_polygon
    t = 2.0**k

    def draw(rng):
        q = make(rng, n)
        xs = [t * x for x in q.xs]
        if tiny is not None:
            xs = [x - xs[0] + 2.0**-tiny for x in xs]
        return Polygon._checked(xs, [t * y for y in q.ys])

    return draw


# the exponents k of the sizes 2^k, weighted toward the ends of the range
# the bounds prove, lamina's near 2^505 and medoid's near 2^1014, and the
# overflows above them
EXPONENTS = st.one_of(st.integers(-1074, 1023), st.integers(-60, 20), st.integers(495, 520),
                      st.integers(1000, 1023))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(NAMES), st.booleans(), st.integers(3, 40), EXPONENTS,
       st.one_of(st.none(), st.integers(300, 1074)), st.integers(0, 2**32 - 1),
       st.integers(1, 4))
def test_trials_equal_the_reference(name, convex, n, k, tiny, seed, trials):
    draw = sampler(convex, n, k, tiny)
    for entry in expect_equal_streams(CATALOG[name].function, draw, trials, seed):
        assert entry[0] != "trial" or entry[1].startswith("AxiomTrial(input=Polygon(")


@pytest.mark.parametrize("name", NAMES)
def test_trials_at_the_ends_of_the_range_equal_the_reference(name):
    # each size from inside lamina's and medoid's upper end to overflow,
    # and coordinates from 2^-300 to 2^-1074 beside unit ones
    for convex in (False, True):
        for n in (3, 6, 16):
            for k, tiny in [(k, None) for k in range(495, 521)] + [
                    (k, None) for k in range(1005, 1024)] + [(0, t) for t in range(300, 1075, 25)]:
                for seed in range(2):
                    expect_equal_streams(CATALOG[name].function, sampler(convex, n, k, tiny), 3, seed)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("k", [1020, 1021, 1022, 1023])
def test_trials_of_overflowing_samples_equal_the_reference(name, k):
    # the moved coordinates, the extent or a rescaling overflow, at input
    # time or in an evaluation, in the reference's order; seed k is the case
    # test_coordinate_builders checks with a guard-free vertex function
    for convex in (False, True):
        for seed in (*range(6), k):
            expect_equal_streams(CATALOG[name].function, sampler(convex, 5, k), 6, seed)


def test_a_reversal_whose_vertex_mean_overflows_is_evaluated():
    # a flat convex 9-gon whose x sum overflows when read from vertex 1
    # backwards but not forwards: out of range, its reversal raises
    # NonFinite, as the reference's does
    turns = [0.0, 2.5, 3.0, 3.5, 4.0, -0.08, -0.06, -0.04, -0.02]
    p = Polygon.from_pairs([(4.4e307 * math.cos(a), 0.1 * math.sin(a)) for a in turns])
    got = expect_equal_streams(CATALOG["lamina"].function, lambda rng: p, 1, 0)
    assert got == [("NonFinite", "vertex mean must be finite")]


def counted(fg):
    """A copy of fg whose evaluator and guard count their calls, and the
    counts: evaluations, guard calls, and the polygons evaluated."""
    calls = {"evaluator": 0, "guard": 0, "polygons": []}

    def evaluator(p):
        calls["evaluator"] += 1
        calls["polygons"].append(p)
        return fg.evaluator(p)

    def guard(p):
        calls["guard"] += 1
        return fg.domain_guard(p)

    copy = dataclasses.replace(fg, evaluator=evaluator,
                               domain_guard=guard if fg.domain_guard else None)
    return copy, calls


# (entry, sampler, whether its trials are in range): unit n-gons are far
# inside; lamina's bounds fail beside a coordinate 2^-400 and at the size
# 2^506, medoid's beside 2^-1000 and at 2^1016
CASES = [(name, (convex, n, 0, None), True) for name in ("lamina", "medoid")
         for convex, n in ((True, 6), (name == "lamina", 9))] + [
    ("lamina", (True, 6, 0, 400), False), ("lamina", (True, 6, 506, None), False),
    ("medoid", (False, 6, 0, 1000), False), ("medoid", (False, 6, 1016, None), False)]


@pytest.mark.parametrize("name, draw, in_range", CASES)
def test_a_trial_in_range_evaluates_the_sample_and_the_moved_copy(name, draw, in_range):
    fg = CATALOG[name].function
    copy, calls = counted(fg)
    draw = sampler(*draw)
    built = []
    real = framework._polygon
    trials = 8
    try:
        framework._polygon = lambda c: built.append(c) or real(c)
        got = list(framework.axiom_trials(copy, draw, trials, 1))
        evaluating = list(built)
    finally:
        framework._polygon = real
    assert [repr(t) for t in got] == [repr(t) for t in framework.axiom_trials(fg, draw, trials, 1)]
    per_trial = 2 if in_range else 6
    assert calls["evaluator"] == calls["guard"] == per_trial * trials
    # each polygon built is one evaluated, in that order; a trial's input
    # is built when read, here by repr, once
    evaluated = calls["polygons"]
    assert [(q.xs, q.ys) for q in map(real, evaluating)] == [(p.xs, p.ys) for p in evaluated]
    assert len(built) == len(evaluating) + trials
    if in_range:
        # two polygons a trial: the sample and the moved copy, in that order
        assert len(evaluating) == 2 * trials
        assert [(p.xs, p.ys) for p in evaluated[0::2]] == [(t.input.xs, t.input.ys) for t in got]


def test_centroid_evaluates_the_sample_and_the_moved_copy_at_every_scale():
    fg = CATALOG["centroid"].function
    for k in (-1074, -600, 0, 600, 1020):
        copy, calls = counted(fg)
        list(framework.axiom_trials(copy, sampler(False, 7, k), 5, 2))
        assert calls["evaluator"] == 10 and calls["guard"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_reports_equal_those_of_six_evaluations(name):
    # static_facts=None evaluates all six inputs of every trial
    fg = CATALOG[name].function
    six = dataclasses.replace(fg, static_facts=None)
    for convex, n, k, tiny in [(True, 6, 0, None), (False, 9, 0, None), (True, 4, -40, None),
                               (False, 16, 300, None), (True, 6, 0, 370), (False, 5, 504, None)]:
        draw = sampler(convex or name == "lamina", n, k, tiny)
        got, want = (framework.verify_axioms(f, draw, 20, 3) for f in (fg, six))
        assert repr(got) == repr(want)


def test_the_declared_facts():
    for name, degrees in (("centroid", (0, 0, 0)), ("lamina", (2, 1, 2)), ("medoid", (0, 1, 1))):
        symmetric, declared, bounds = CATALOG[name].function.static_facts(6)
        assert symmetric and declared == degrees
        q = random_polygon(random.Random(4), 6)
        lo, hi = bounds(q.xs, q.ys)
        assert 0.0 < lo <= hi < math.inf
    # a guarded expression keeps its guard: its facts are not read
    for name in ("perimeter", "circumcenter"):
        fg = CATALOG[name].function
        assert fg.domain_guard is not None and fg.static_facts is not None
        symmetric, degrees, sample, evaluate, least, greatest = framework._facts(fg, 3)
        assert (symmetric, degrees, least, greatest) == (False, None, 0, 0)
