"""An expression's map on a polygon, read from chord lists, against the map
of the polygon's distance matrix.

`dsl.center_function` maps a polygon through `all_shifts`, which measures
one `geometry.chords(p, s)` list per offset s the expression reads and
builds no matrix. On every polygon it must give what the evaluator gives on
the rotations of `distance_matrix(p)`, bit for bit, and the same error
class and message where that path raises. The catalog's `perimeter` and
`circumcenter` are such expressions.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from polycenter import catalog, dsl, framework, geometry
from polycenter.catalog import CATALOG
from polycenter.dsl import center_function, parse
from polycenter.framework import coordinate_map, cyclic_values
from polycenter.geometry import Polygon, distance_matrix
from polycenter.sampling import random_convex_polygon, random_polygon

# the expressions of the benchmark's expr-axioms workload
EXPR_AXIOMS = (
    "d(n,1)+d(1,2)",
    "perim",
    "d(2,n)",
    "d(n,1)*d(1,2)",
    "sqrt(d(n,1)^2+d(1,2)^2)",
    "d(1,2)",
    "d(n,1)+d(1,2)+d(n,1)^2+d(1,2)^2",
    "d(n,1)-d(1,2)",
    "d(1,2)-d(2,1)",
)
MORE = (
    "d(1,3)/d(2,n-1)",
    "d(1,2)^0.5*perim",
    "d(n,2)^3-d(1,n-1)^2",
    "sqrt(d(1,2)-d(2,3))",
    "abs(d(1,3)-d(n,2))",
    "min(d(1,2),d(2,3),d(n,1))",
    "max(d(n,1),d(1,n-2))*perim",
    "perim/d(n+1,n-1)",
    "d(1,4)",  # collides at n = 3
    "d(1,2)+d(n+2,7)",  # collides at n = 5
    "1/(d(1,2)-d(1,2))",  # division by zero
    "(d(1,2)-d(2,1))^-1",  # zero base with negative exponent
    "d(1,2)^1000",  # power overflow
    "-d(2,3)",
    "2.5",
)
FUNCTIONS = [CATALOG["perimeter"].function, CATALOG["circumcenter"].function] + [
    center_function(parse(source)) for source in EXPR_AXIOMS + MORE
]


def outcome(call):
    """repr of the value, or the class and message of the error."""
    try:
        return repr(call())
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))


@st.composite
def polygons(draw):
    """Random and convex n-gons, n = 3..40, scaled by 2^k, k in [-40, 40]."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.just(3), st.integers(3, 40)))
    make = draw(st.sampled_from([random_convex_polygon, random_polygon]))
    t = 2.0 ** draw(st.integers(-40, 40))
    return Polygon.from_pairs([(t * v.x, t * v.y) for v in make(rng, n).vertices])


@settings(max_examples=300, deadline=None)
@given(polygons(), st.sampled_from(range(len(FUNCTIONS))))
def test_a_polygon_map_equals_the_matrix_map(p, which):
    fg = FUNCTIONS[which]
    assert fg.all_shifts is not None
    on_polygon = outcome(lambda: cyclic_values(fg, p))
    assert on_polygon == outcome(lambda: cyclic_values(fg, distance_matrix(p))), fg.name


def test_overflowing_extents_and_maps_raise_as_the_matrix_path_does():
    extent = Polygon.from_pairs([(-1e308, 0), (1e308, 0), (0, 1)])
    sums = Polygon.from_pairs([(-8e307, 0), (8e307, 0), (8e307, 8e307), (-8e307, 8e307)])
    big = Polygon.from_pairs([(0, 0), (4e100, 0), (0, 3e100)])
    for fg in FUNCTIONS:
        for p in (extent, sums, big):
            assert outcome(lambda: cyclic_values(fg, p)) == outcome(
                lambda: cyclic_values(fg, distance_matrix(p))), fg.name
    assert outcome(lambda: cyclic_values(CATALOG["circumcenter"].function, big)) == (
        "EvalError", "non-finite value inf")


# ------------------------------------------------------------------ cost


def count_calls(monkeypatch, name, modules):
    """Count calls of the function bound to name in each of modules."""
    calls = []
    for module in modules:
        original = getattr(module, name, None)
        if original is None:
            continue

        def counted(*args, original=original):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


MODULES = (catalog, dsl, framework, geometry)


def test_an_expression_map_measures_one_chord_list_per_offset(monkeypatch):
    p = random_convex_polygon(random.Random(0), 128)
    pc = parse("d(n,1)+d(1,2)")
    g = center_function(pc)
    matrices = count_calls(monkeypatch, "distance_matrix", MODULES)
    chord_lists = count_calls(monkeypatch, "chords", MODULES)
    extents = count_calls(monkeypatch, "vertex_coordinates", MODULES)
    values = coordinate_map(g, p).values
    assert (len(matrices), len(chord_lists), len(extents)) == (0, 1, 1)
    assert [skip for _, skip in chord_lists] == [1]
    # two offsets, each measured once
    coordinate_map(center_function(parse("d(1,3)*d(n,1)+d(2,4)")), p)
    assert sorted(skip for _, skip in chord_lists[1:]) == [1, 2]
    monkeypatch.undo()
    assert values == tuple(dsl.evaluate(pc, D) for D in distance_matrix(p).rotations())


def test_an_expression_compiles_once_per_n_for_polygons(monkeypatch):
    pc = parse("perim-d(1,3)")
    g = center_function(pc)
    compiles = []
    real_compile = dsl._compile

    def counting_compile(node, n, offsets=None):
        if node is pc.expr:
            compiles.append((n, offsets is not None))
        return real_compile(node, n, offsets)

    monkeypatch.setattr(dsl, "_compile", counting_compile)
    rng = random.Random(3)
    for n in (8, 8, 9, 8):
        coordinate_map(g, random_convex_polygon(rng, n))
    assert compiles == [(8, True), (9, True)]
