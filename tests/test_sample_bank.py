"""`dsl.admit`'s shared set of trial inputs.

A process draws the trial inputs of the first 64 random n-gons from
Random(seed) whole, the first time it admits at (n, seed) (`_sample_set`),
keeps them for the last (n, seed) only and shares them across every
expression admitted there. Admissions interleaved across expressions, n,
seeds and trial counts must give what each gives in a fresh process, in
threads too; a cold admission draws the 64 trials once, whatever it reads,
and a witness's matrix is the caller's own.
"""

import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import polycenter
import polycenter.dsl as dsl
from polycenter.errors import AxiomViolation

from test_axiom_trials import SOURCES
from test_measured_views import ADMISSIONS

# with the ValueErrors for too few vertices or trials
CASES = [(source, n, seed, trials) for source in dict.fromkeys([*ADMISSIONS, *SOURCES])
         for n in (3, 5, 8) for seed in (0, 7) for trials in (1, 64, 100)]
CASES += [("perim", 2, 0, 64), ("perim", 2, 0, 1), ("perim", 8, 0, 0), ("d(1,2)", 5, 7, -1)]


def outcome(source, n, seed, trials):
    """The admitted function's name, or the error's class, message,
    property and witness, as JSON gives them back."""
    try:
        return ["value", dsl.admit(dsl.parse(source), n, seed, trials).name]
    except Exception as exc:  # every error class is part of the outcome
        return [type(exc).__name__, str(exc), repr(getattr(exc, "prop", None)),
                repr(getattr(exc, "witness", None))]


def fresh_outcomes():
    """Each case's outcome in a fresh interpreter, admitted with no sample set."""
    script = ("import json, sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import polycenter.dsl as dsl\n"
              "from test_sample_bank import CASES, outcome\n"
              "for case in CASES:\n"
              "    dsl._sample_set.cache_clear()\n"
              "    print(json.dumps(outcome(*case)))\n")
    src = str(Path(polycenter.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                         capture_output=True, text=True, check=True, env=env).stdout
    return [json.loads(line) for line in out.splitlines()]


def counted_samples(monkeypatch):
    """The n of each `random_polygon` sample admit draws from now on."""
    draws, original = [], dsl.random_polygon
    monkeypatch.setattr(dsl, "random_polygon", lambda rng, n: draws.append(n) or original(rng, n))
    return draws


def test_interleaved_admissions_equal_a_fresh_process():
    fresh = fresh_outcomes()
    assert len(fresh) == len(CASES)
    rng = random.Random(27)
    # first each (n, seed) in a run, so admissions reread one sample set;
    # then in any order, so each may replace the last one's sample set
    grouped = sorted(range(len(CASES)), key=lambda i: (CASES[i][1:3], rng.random()))
    shuffled = rng.sample(range(len(CASES)), len(CASES))
    for i in grouped + shuffled:
        assert outcome(*CASES[i]) == fresh[i], CASES[i]
    assert {"value", "AxiomViolation", "ValueError"} <= {o[0] for o in fresh}


def test_a_cold_admission_draws_the_64_trials_once(monkeypatch):
    dsl._sample_set.cache_clear()
    draws = counted_samples(monkeypatch)
    with pytest.raises(AxiomViolation):
        dsl.admit(dsl.parse("d(1,2)"), 5)
    assert draws == [5] * 64
    dsl.admit(dsl.parse("perim"), 5, trials=100)
    assert len(draws) == 100
    # the sample set keeps 64 of them; the rest are drawn again on each read
    dsl.admit(dsl.parse("d(n,1)+d(1,2)"), 5, trials=100)
    assert len(draws) == 136


def test_the_sample_set_keeps_64_trials_of_one_n_and_seed():
    dsl._sample_set.cache_clear()
    for n, seed in ((6, 3), (7, 3), (6, 4), (6, 4)):
        dsl.admit(dsl.parse("perim"), n, seed, 100)
        drawn = dsl._sample_set(n, seed)[0]
        assert len(drawn) == 64 and {len(inputs[0][0]) for inputs in drawn} == {n}
    info = dsl._sample_set.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (3, 1, 1)


def test_a_witness_matrix_is_the_callers_own():
    for _ in range(2):
        with pytest.raises(AxiomViolation) as info:
            dsl.admit(dsl.parse("d(1,2)"), 5)
        D = info.value.witness["matrix"]
        assert D._d is None
        D.d  # measured and kept by this matrix, not by the sample set
        assert D._d is not None
    # the sample set keeps coordinates (xs, ys, t), no matrix
    assert all(type(c) is tuple and len(c) == 3 for inputs in dsl._sample_set(5, 0)[0]
               for c in inputs)


def test_threads_admitting_at_once_each_get_the_fresh_result():
    # two threads at each n, so threads both replace one another's sample
    # set and read one sample set at the same time
    sources = ["d(n,1)+d(1,2)", "perim", "d(1,2)", "d(n,1)*d(1,2)"]
    ns = (4, 5, 6, 4, 5, 6)
    cases = [(source, n, 0, trials) for n in set(ns) for source in sources
             for trials in (64, 100)]
    expected = {}
    for case in cases:
        dsl._sample_set.cache_clear()
        expected[case] = outcome(*case)
    got = [[] for _ in ns]

    def work(n, out):
        for _ in range(4):
            out.extend((case, outcome(*case)) for case in cases if case[1] == n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=args) for args in zip(ns, got)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 4 * 2 * len(sources) for out in got)
    assert all(result == expected[case] for out in got for case, result in out)
