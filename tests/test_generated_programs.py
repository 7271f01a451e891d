"""The functions `dsl._compile` writes: one straight-line local per tree node.

A tree at `MAX_DEPTH` runs in every mode (matrix, chord, and coordinates
plain and traced) and equals the tree-walking reference bit for bit; one nested Python expression
per tree would exceed the interpreter's parenthesis limit there. The source
handed to `compile` holds only generated names, ints and operators, never a
number or index as the user wrote it.
"""

import io
import random
import re
import tokenize

import pytest

import polycenter.dsl as dsl
from polycenter.dsl import MAX_DEPTH, center_function, parse
from polycenter.errors import ExprSyntaxError
from polycenter.framework import coordinate_map
from polycenter.geometry import distance_matrix
from polycenter.sampling import random_convex_polygon

from reference_evaluate import reference_evaluate


def _min_abs_nest(levels):
    source = "d(n,1)"
    for level in range(levels):
        source = f"abs({source})" if level % 2 else f"min({source},d(2,n-{level % 3}))"
    return source


TALLEST = {  # each at MAX_DEPTH levels, and one level more
    "sqrt": lambda m: "sqrt(" * (m - 1) + "d(1,2)" + ")" * (m - 1),
    "neg": lambda m: "-" * (m - 1) + "d(1,3)",
    "sum": lambda m: "+".join(f"d({i % 2 + 1},n-{i % 3})" for i in range(m)),
    "min-abs": lambda m: _min_abs_nest(m - 1),
}


@pytest.mark.parametrize("name", TALLEST)
def test_a_tree_at_max_depth_equals_the_reference_in_every_mode(name):
    source = TALLEST[name](MAX_DEPTH)
    pc = parse(source)
    assert pc.expr.height == MAX_DEPTH
    with pytest.raises(ExprSyntaxError):
        parse(TALLEST[name](MAX_DEPTH + 1))
    for n in (5, 8):
        p = random_convex_polygon(random.Random(n), n)
        rotations = list(distance_matrix(p).rotations())
        want = [repr(reference_evaluate(pc, R)) for R in rotations]
        _, _, sample, measure = dsl.static_facts(pc, n)
        shifts = [(q.xs, q.ys, 1.0) for q in map(p.shifted, range(n))]
        assert [repr(dsl.evaluate(pc, R)) for R in rotations] == want
        assert [repr(sample(c)[0]) for c in shifts] == want
        assert [repr(measure(c)) for c in shifts] == want
        assert list(map(repr, coordinate_map(center_function(pc), p).values)) == want


HUGE = "1" + "0" * 299  # 300 digits, 1 mod 3: d(1,n+HUGE) collides at n = 3
SOURCES = [
    "0.000001*d(1,2)+d(n,1)",
    "d(1,2)/" + "1" + "0" * 308,  # 309 digits, 1e308
    f"d(1,n+{HUGE})*perim-sqrt(d(n-{HUGE},2))",
    f"min(d(n,1),0.5)^2.5/(d(1,{HUGE})-d(1,2))",
]
NAMES = {"def", "return", "or", "rows", "k", "xs", "ys", "t", "f", "sum", "min", "max", "abs",
         "hypot", "_div", "_sqrt", "_pow", "_raise", "nan"}


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # an error is an outcome too; the source is under test
        return exc


def test_generated_source_holds_only_generated_names_ints_and_operators(monkeypatch):
    sources = []

    def spy(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(dsl, "compile", spy, raising=False)
    ns = (3, 7)
    for text in SOURCES:
        pc = parse(text)
        for n in ns:
            p = random_convex_polygon(random.Random(n), n)
            _outcome(lambda: dsl.evaluate(pc, distance_matrix(p)))
            _outcome(lambda: dsl._chord_map(pc, p))
            _, _, sample, measure = dsl.static_facts(pc, n)
            _outcome(lambda: sample((p.xs, p.ys, 2.0)))
            _outcome(lambda: measure((p.xs, p.ys, 2.0)))
    # matrix, chord, and coordinates traced and plain
    assert len(sources) == 4 * len(ns) * len(SOURCES)
    coordinate_programs = [s for s in sources if s.startswith("def f(xs, ys, t):")]
    assert len(coordinate_programs) == 2 * len(ns) * len(SOURCES)
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert tok.string in NAMES or re.fullmatch(r"[cv]\d+", tok.string), source
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit() and int(tok.string) <= max(ns), source
            else:
                assert tok.type in (tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                                    tokenize.DEDENT, tokenize.ENDMARKER), source
