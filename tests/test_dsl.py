import json
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycenter import cli
from polycenter.catalog import CATALOG
import polycenter.dsl as dsl
from polycenter.dsl import (
    MAX_DEPTH,
    Aggregate,
    Binary,
    Const,
    Dist,
    Index,
    Unary,
    admit,
    center_function,
    evaluate,
    parse,
    to_source,
)
from polycenter.errors import (
    AxiomViolation,
    EvalError,
    ExprIndexError,
    ExprSyntaxError,
)
from polycenter.framework import LengthCenterFunction, coordinate_map_length
from polycenter.geometry import Polygon, distance_matrix
from polycenter.sampling import random_convex_polygon, random_polygon

TRI345 = Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])
D345 = distance_matrix(TRI345)


def ev(source, D=D345):
    return evaluate(parse(source), D)


# -------------------------------------------------------------- arithmetic


def test_numbers_and_precedence():
    assert ev("2+3*4") == 14.0
    assert ev("(2+3)*4") == 20.0
    assert ev("2*3^2") == 18.0
    assert ev("2^3^2") == 512.0  # right-associative
    assert ev("-2^2") == -4.0  # unary binds below pow
    assert ev("7-2-3") == 2.0  # left-associative
    assert ev("8/4/2") == 1.0
    assert ev("1.5*2") == 3.0
    assert ev("--3") == 3.0


def test_constant_one():
    assert ev("1") == 1.0
    assert ev("1", distance_matrix(Polygon.from_pairs([(0, 0), (1, 0), (1, 1), (0, 1)]))) == 1.0


def test_distance_terms():
    assert ev("d(1,2)") == 3.0
    assert ev("d(2,3)") == 5.0
    assert ev("d(n,1)") == 4.0
    assert ev("d(n-1,n)") == 5.0
    assert ev("d(1+1,3)") == 5.0
    assert ev("d(4,2)") == 3.0  # 4 reduces to 1 at n=3


def test_g1_fixture():
    assert ev("d(n,1)+d(1,2)") == 7.0


def test_perim_and_aggregates():
    assert ev("perim") == 12.0
    assert ev("min(d(1,2),d(2,3),d(3,1))") == 3.0
    assert ev("max(d(1,2),d(2,3),d(3,1))") == 5.0
    assert ev("min(10,2+3)") == 5.0
    assert ev("sqrt(d(2,3)^2)") == 5.0
    assert ev("abs(d(1,2)-d(2,3))") == 2.0


# ------------------------------------------------------------------ errors


def test_self_distance_rejected_at_parse():
    for bad in ("d(1,1)", "d(n,n)", "d(2+1,3)"):
        with pytest.raises(ExprIndexError):
            parse(bad)


def test_self_distance_after_reduction():
    pc = parse("d(n+1,1)")  # fine in general, collides at every n
    with pytest.raises(ExprIndexError):
        evaluate(pc, D345)


def test_index_below_one_rejected():
    with pytest.raises(ExprIndexError):
        parse("d(0,1)")
    with pytest.raises(ExprIndexError):
        parse("d(2-2,1)")


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2+")
    assert err.value.position == 2
    with pytest.raises(ExprSyntaxError) as err:
        parse("d(1,2")
    assert "expected" in str(err.value)
    with pytest.raises(ExprSyntaxError) as err:
        parse("foo(1)")
    assert err.value.position == 0
    with pytest.raises(ExprSyntaxError):
        parse("d(1.5,2)")
    with pytest.raises(ExprSyntaxError):
        parse("2 3")
    with pytest.raises(ExprSyntaxError):
        parse("2.")
    with pytest.raises(ExprSyntaxError):
        parse("d(1,2) @ 3")


def test_eval_guards():
    with pytest.raises(EvalError):
        ev("1/(d(1,2)-d(1,2))")
    with pytest.raises(EvalError):
        ev("sqrt(d(1,2)-d(2,3))")
    with pytest.raises(EvalError):
        ev("(0-2)^0.5")
    with pytest.raises(EvalError):
        ev("0^(0-1)")
    with pytest.raises(EvalError):
        ev("10^(10^10)")  # overflows to infinity


# -------------------------------------------------------------- printing


@pytest.mark.parametrize(
    "source",
    [
        "d(n,1)+d(1,2)",
        "2+3*4",
        "2*(3+4)",
        "2-(3-4)",
        "2^3^2",
        "(2^3)^2",
        "-(2+3)",
        "-2^2",
        "min(d(1,2),d(2,3),1.5)",
        "max(perim,sqrt(abs(d(1,3)-d(2,3))))",
        "d(n-1,n)*d(n+2,1)",
        "1/(2/3)",
    ],
)
def test_parse_print_parse_fixpoint(source):
    first = parse(source)
    printed = to_source(first.expr)
    second = parse(printed)
    assert second.expr == first.expr
    assert to_source(second.expr) == printed


def test_nesting_deeper_than_the_limit_is_a_syntax_error():
    assert ev("(" * (MAX_DEPTH - 1) + "d(1,2)" + ")" * (MAX_DEPTH - 1)) == 3.0
    for source in (
        "(" * 5000 + "d(1,2)" + ")" * 5000,
        "-" * 5000 + "d(1,2)",
        "2^" * 5000 + "2",
        "sqrt(" * 5000 + "perim" + ")" * 5000,
    ):
        with pytest.raises(ExprSyntaxError, match="nests deeper") as err:
            parse(source)
        assert err.value.position <= 5 * MAX_DEPTH
    with pytest.raises(ExprSyntaxError) as err:
        parse("(" * 5000 + "d(1,2)" + ")" * 5000)
    assert err.value.position == MAX_DEPTH


def test_operator_chains_count_toward_the_nesting_limit():
    # a chain is one tree level per operator; evaluation recurses per level
    assert ev("+".join(["d(1,2)"] * MAX_DEPTH)) == 3.0 * MAX_DEPTH
    stacked = "d(1,2)"
    for _ in range(3):
        # each chain is short, but the first operand of a chain sits below
        # all of its operators
        stacked = "(" + stacked + ")" + "+d(1,2)" * 40
    for source in (
        "+".join(["d(1,2)+d(1,3)"] * 2500),
        "*".join(["d(1,2)"] * (MAX_DEPTH + 1)),
        "sqrt(" + "-".join(["d(1,2)"] * MAX_DEPTH) + ")",
        stacked,
    ):
        with pytest.raises(ExprSyntaxError, match="nests deeper"):
            parse(source)


# Trees the parser can build: nonnegative finite constants, indices that
# are literals from 1 or n-relative, d(i,j) with structurally distinct i, j.
_INDICES = st.one_of(
    st.builds(Index, st.just("literal"), st.integers(1, 12)),
    st.builds(Index, st.just("n"), st.integers(-12, 12)),
)
_CONSTS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-4, exclude_max=True),
).map(Const)
_LEAVES = st.one_of(
    _CONSTS,
    st.tuples(_INDICES, _INDICES).filter(lambda ij: ij[0] != ij[1]).map(lambda ij: Dist(*ij)),
    st.just(Aggregate("perim", ())),
)


def _parents(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "sqrt", "abs"]), children),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(
            Aggregate, st.sampled_from(["min", "max"]),
            st.lists(children, min_size=1, max_size=3).map(tuple),
        ),
    )


# (node, leaf) -> a parent of node, one level taller
_SPINE_STEPS = (
    [lambda e, _, op=op: Unary(op, e) for op in ("neg", "sqrt", "abs")]
    + [lambda e, x, op=op: Binary(op, e, x) for op in "+-*/^"]
    + [lambda e, x, op=op: Binary(op, x, e) for op in "+-*/^"]
    + [lambda e, x: Aggregate("min", (x, e)), lambda e, x: Aggregate("max", (e, x))]
)


@st.composite
def _tall_trees(draw):
    """A spine of up to MAX_DEPTH nodes, each with a leaf beside it."""
    node = draw(_LEAVES)
    for _ in range(draw(st.integers(0, MAX_DEPTH - 1))):
        node = draw(st.sampled_from(_SPINE_STEPS))(node, draw(_LEAVES))
    return node


_TREES = st.one_of(
    st.recursive(_LEAVES, _parents, max_leaves=24).filter(lambda e: e.height <= MAX_DEPTH),
    _tall_trees(),
)


def _chain(op, depth, leaf=Dist(Index("literal", 1), Index("n", 0))):
    node = leaf
    for _ in range(depth - 1):
        node = op(node)
    return node


@settings(deadline=None)
@given(_TREES)
@example(Binary("*", Binary("+", Const(1.0), Const(2.0)), Const(3.0)))
@example(Binary("^", Const(2.0), Binary("-", Const(3.0), Const(4.0))))
@example(Binary("*", Const(1e20), Dist(Index("literal", 1), Index("literal", 2))))
@example(Const(0.00001))
@example(Const(sys.float_info.max))
@example(_chain(lambda e: Unary("neg", e), MAX_DEPTH))
@example(_chain(lambda e: Binary("-", e, Const(1.0)), MAX_DEPTH))
@example(_chain(lambda e: Binary("^", Const(2.0), e), MAX_DEPTH))
@example(_chain(lambda e: Binary("^", e, Const(2.0)), MAX_DEPTH))
def test_printed_trees_parse_back(e):
    assert e.height <= MAX_DEPTH
    assert parse(to_source(e)).expr == e


@given(st.sampled_from("+-"), st.integers(0, 99), st.integers(0, 99))
def test_a_fractional_index_offset_is_a_syntax_error(sign, whole, frac):
    source = f"d(n{sign}{whole}.{frac},1)"
    with pytest.raises(ExprSyntaxError, match="index offset must be an integer") as err:
        parse(source)
    assert err.value.position == 4


def test_printer_drops_redundant_parens():
    assert to_source(parse("((2)+(3))").expr) == "2+3"
    assert to_source(parse("(d(1,2))*((3))").expr) == "d(1,2)*3"


def test_a_parenthesized_index_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="index must be an integer or n±integer") as err:
        parse("d((1),2)")
    assert err.value.position == 2


# float() reads this literal as inf, which would print as "inf", a name that does not parse.
_BEYOND_FLOATS = "1" + "0" * 400


@pytest.mark.parametrize(
    "source, position",
    [(_BEYOND_FLOATS, 0), ("d(1,2)*" + _BEYOND_FLOATS, 7), (f"2^-({_BEYOND_FLOATS}.5)", 4)],
    ids=["alone", "factor", "exponent"],
)
def test_a_number_beyond_the_float_range_is_a_syntax_error(source, position):
    with pytest.raises(ExprSyntaxError, match="number out of float range") as err:
        parse(source)
    assert err.value.position == position


def test_a_number_beyond_the_float_range_exits_2(tmp_path, capsys):
    doc = tmp_path / "tri.json"
    doc.write_text(json.dumps({"vertices": [[0, 0], [3, 0], [0, 4]]}), encoding="utf-8")
    rc = cli.main(["center", str(doc), "--expr", _BEYOND_FLOATS])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.splitlines() == [
        "polycenter: ExprSyntaxError: number out of float range (at position 0)"
    ]


def _digit_limits():
    """Runs the loop body under the interpreter's limit on integer-string
    conversion as set, with no limit, and at the least limit, where the
    limit can be set (Python 3.11, and 3.10 from 3.10.7)."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    try:
        for limit in (old, 0, sys.int_info.str_digits_check_threshold):
            set_limit(limit)
            yield
    finally:
        set_limit(old)


_LONG_INDEX = "1" + "0" * 5000


@pytest.mark.parametrize(
    "source, position",
    [(f"d({_LONG_INDEX},2)", 2), (f"d(n+{_LONG_INDEX},2)", 4), (f"d(1,n-{_LONG_INDEX})", 6)],
    ids=["literal", "offset", "negative offset"],
)
def test_an_index_integer_past_the_digit_limit_exits_2(tmp_path, capsys, source, position):
    doc = tmp_path / "tri.json"
    doc.write_text(json.dumps({"vertices": [[0, 0], [3, 0], [0, 4]]}), encoding="utf-8")
    for _ in _digit_limits():
        with pytest.raises(ExprSyntaxError, match="index integer longer than 300 digits") as raised:
            parse(source)
        assert raised.value.position == position
        rc = cli.main(["center", str(doc), "--expr", source])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == [
            "polycenter: ExprSyntaxError: index integer longer than 300 digits"
            f" (at position {position})"
        ]


def test_index_integers_at_the_digit_limit_parse_and_print_back():
    wide = "9" * dsl.MAX_INDEX_DIGITS
    for _ in _digit_limits():
        source = f"d(n+{wide}+{wide},{wide})"
        assert to_source(parse(source).expr) == f"d(n+{2 * int(wide)},{wide})"


# ------------------------------------------------------------- admission


def test_admit_g1():
    g = admit(parse("d(n,1)+d(1,2)"), 5)
    D = distance_matrix(random_polygon(random.Random(0), 5))
    assert g.evaluate(D) == D.d[4][0] + D.d[0][1]


def test_admit_rejects_single_side():
    with pytest.raises(AxiomViolation) as err:
        admit(parse("d(1,2)"), 5)
    assert err.value.prop == "relabel-invariance"
    assert err.value.witness is not None


def test_admit_stops_at_the_first_failing_trial(monkeypatch):
    # one trial evaluates the input, its reversal, a moved copy and four
    # rescalings; d(1,2) fails reversal symmetry in the first trial
    calls = []
    real = dsl.evaluate

    def counting(pc, D):
        calls.append(D)
        return real(pc, D)

    monkeypatch.setattr(dsl, "evaluate", counting)
    with pytest.raises(AxiomViolation) as err:
        admit(parse("d(1,2)"), 5)
    assert err.value.prop == "relabel-invariance"
    assert 0 < len(calls) <= 7


def test_admit_rejects_motion_dependence():
    # reversal swaps the two factors of a commutative product, so only a
    # rigid motion moves the rounding residue this expression amplifies
    with pytest.raises(AxiomViolation) as err:
        admit(parse("(sqrt(d(n,1)*d(1,2))^2-d(n,1)*d(1,2))*10^12"), 5)
    assert err.value.prop == "motion-invariance"
    assert set(err.value.witness) == {"matrix", "value", "moved_value"}


def test_admit_witness_keys():
    with pytest.raises(AxiomViolation) as err:
        admit(parse("d(1,2)"), 5)
    assert set(err.value.witness) == {"matrix", "value", "reversed_value"}
    with pytest.raises(AxiomViolation) as err:
        admit(parse("d(n,1)+d(1,2)+d(n,1)^2+d(1,2)^2"), 5)
    assert set(err.value.witness) == {"matrix", "values"}
    with pytest.raises(AxiomViolation) as err:
        admit(parse("sqrt(perim)"), 5)
    assert set(err.value.witness) == {"slopes"}


def test_center_function_evaluates_the_expression():
    pc = parse("d(n,1)*d(1,2)")
    g = center_function(pc)
    assert isinstance(g, LengthCenterFunction) and g.name == pc.source
    D = distance_matrix(random_polygon(random.Random(4), 6))
    assert g.evaluate(D) == evaluate(pc, D)


def test_admit_full_perimeter():
    g = admit(parse("d(1,2)+d(2,3)+d(3,4)+d(4,5)+d(5,1)"), 5)
    D = distance_matrix(random_polygon(random.Random(1), 5))
    assert g.evaluate(D) == pytest.approx(ev("perim", D))


@pytest.mark.parametrize("trials", [0, -1])
def test_admit_needs_at_least_one_trial(trials):
    # with no trial run, d(1,2) would be admitted
    with pytest.raises(ValueError, match="at least 1 trial"):
        admit(parse("d(1,2)"), 5, trials=trials)


def test_admit_rejects_inhomogeneous():
    with pytest.raises(AxiomViolation) as err:
        admit(parse("perim+1"), 5)
    assert err.value.prop == "homogeneity"


def test_admit_rejects_fractional_degree():
    with pytest.raises(AxiomViolation) as err:
        admit(parse("sqrt(perim)"), 5)
    assert err.value.prop == "homogeneity"


def test_admit_accepts_integer_degree_with_sqrt():
    admit(parse("sqrt(perim^2)"), 5)
    admit(parse("sqrt(d(1,2)*d(1,n))*0+perim"), 5)


def test_admitted_circumcenter_expression_matches_catalog():
    # The built-in circumcenter weight is d(2,3)^2 * (d(3,1)^2 + d(1,2)^2
    # - d(2,3)^2): the leading factor is squared so that the weights
    # combine vertices directly.
    pc = parse("d(2,3)^2*(d(3,1)^2+d(1,2)^2-d(2,3)^2)")
    admit(pc, 3, seed=4)
    rng = random.Random(2)
    for _ in range(25):
        p = random_polygon(rng, 3)
        D = distance_matrix(p)
        mine = evaluate(pc, D)
        want = CATALOG["circumcenter"].function.evaluator(D)
        assert mine == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_unsquared_circumcenter_weight_admits_at_degree_three():
    # Same structure with an unsquared leading factor: still a valid
    # center function (reversal-symmetric, homogeneous of degree 3), it
    # just weights by distance-to-side rather than by vertex mass.
    fn = admit(parse("d(2,3)*(d(3,1)^2+d(1,2)^2-d(2,3)^2)"), 3, seed=5)
    D = distance_matrix(Polygon.from_pairs([(0, 0), (3, 0), (0, 4)]))
    # Right angle at vertex 1: the circumcenter lies on the opposite
    # side, so the distance-weighted first coordinate vanishes.
    assert fn.evaluator(D) == pytest.approx(0.0, abs=1e-12)


def test_slot_shifted_circumcenter_weight_is_rejected():
    # Aligning the outer factor with d(1,2) instead of the opposite side
    # d(2,3) breaks reversal symmetry: on a 3-4-5 triangle the original
    # and reversed labellings give 96 and 72.
    with pytest.raises(AxiomViolation) as exc_info:
        admit(parse("d(1,2)*(d(2,3)^2+d(3,1)^2-d(1,2)^2)"), 3, seed=6)
    assert exc_info.value.prop == "relabel-invariance"


def test_parsed_g1_matches_builtin_coordinates_exactly():
    pc = parse("d(n,1)+d(1,2)")
    rng = random.Random(3)
    g = center_function(pc)
    for _ in range(50):
        # Convex samples: the built-in perimeter entry guards its domain.
        p = random_convex_polygon(rng, rng.randrange(3, 9))
        D = distance_matrix(p)
        mine = coordinate_map_length(g, D)
        want = coordinate_map_length(CATALOG["perimeter"].function, D)
        assert mine.values == want.values  # float-identical
