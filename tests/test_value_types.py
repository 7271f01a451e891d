"""The value types are plain slotted classes that behave as frozen dataclasses.

For one sample of every value type that is a `geometry.Frozen` subclass,
repr is the dataclass's string, == needs the same class and compares the
listed fields, hash is that of their tuple, no attribute can be set or
deleted, and copy, deepcopy and every pickle protocol round-trip. The
constructors validate as before. Exactly three classes stay dataclasses,
because tools outside the package copy or read them with `dataclasses`.
"""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil
from dataclasses import FrozenInstanceError

import pytest

import polycenter
from polycenter import dsl
from polycenter.catalog import CatalogEntry
from polycenter.characterization import CharacterizationReport, CoincidenceReport
from polycenter.documents import PolygonDocument
from polycenter.errors import DocumentError, NonFinite
from polycenter.framework import (
    AxiomReport, AxiomTrial, BarycentricWeights, ProjectiveCoords, _CenterFunction,
)
from polycenter.geometry import (
    DihedralElement, DistanceMatrix, Frozen, Point2, Polygon, RigidMotion, Similarity,
)
from polycenter.optim import EnclosingCircle, MedianResult
from polycenter.reconstruction import FeasibilityReport, ReconstructionResult
from polycenter.svg import CenterRecord

TRI = Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])
MAT = DistanceMatrix.from_rows([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
TRI_REPR = "Polygon(vertices=(Point2(x=0.0, y=0.0), Point2(x=3.0, y=0.0), Point2(x=0.0, y=4.0)))"
D_N1 = "Dist(i=Index(base='n', offset=0), j=Index(base='literal', offset=1), pos=0)"
D_12 = "Dist(i=Index(base='literal', offset=1), j=Index(base='literal', offset=2), pos=7)"

# id -> (sample, the fields == and hash compare, repr as the dataclass wrote it)
SAMPLES = {
    "Point2": (lambda: Point2(1.5, -2.0), ("x", "y"), "Point2(x=1.5, y=-2.0)"),
    "DihedralElement": (
        lambda: DihedralElement(5, 7, True), ("n", "exponent_a", "flip"),
        "DihedralElement(n=5, exponent_a=2, flip=True)"),
    "RigidMotion": (
        lambda: RigidMotion(0.5, Point2(1.0, -2.0)), ("angle", "translation"),
        "RigidMotion(angle=0.5, translation=Point2(x=1.0, y=-2.0))"),
    "RigidMotion-default": (
        lambda: RigidMotion(0.25), ("angle", "translation"),
        "RigidMotion(angle=0.25, translation=Point2(x=0.0, y=0.0))"),
    "Similarity": (
        lambda: Similarity(2.0, RigidMotion(0.5)), ("scale", "motion"),
        "Similarity(scale=2.0, motion=RigidMotion(angle=0.5, translation=Point2(x=0.0, y=0.0)))"),
    "ProjectiveCoords": (
        lambda: ProjectiveCoords((1.0, 2.0, 3.0)), ("values",),
        "ProjectiveCoords(values=(1.0, 2.0, 3.0))"),
    "BarycentricWeights": (
        lambda: BarycentricWeights((0.25, 0.25, 0.5)), ("values",),
        "BarycentricWeights(values=(0.25, 0.25, 0.5))"),
    "AxiomReport": (
        lambda: AxiomReport(True, False, True, None, 1e-16),
        ("relabel_ok", "motion_ok", "homogeneity_ok", "estimated_degree", "max_violation"),
        "AxiomReport(relabel_ok=True, motion_ok=False, homogeneity_ok=True, "
        "estimated_degree=None, max_violation=1e-16)"),
    "AxiomTrial": (
        lambda: AxiomTrial(MAT, 12.0, 12.0, 12.000000000000002, (3.0, 12.0, 48.0, 192.0)),
        ("input", "base", "reversed", "moved", "scaled"),
        "AxiomTrial(input=DistanceMatrix(d=((0.0, 3.0, 4.0), (3.0, 0.0, 5.0), (4.0, 5.0, 0.0))), "
        "base=12.0, reversed=12.0, moved=12.000000000000002, scaled=(3.0, 12.0, 48.0, 192.0))"),
    "Index": (lambda: dsl.Index("n", -1), ("base", "offset"), "Index(base='n', offset=-1)"),
    "Const": (lambda: dsl.Const(2.5), ("value",), "Const(value=2.5)"),
    "Dist": (
        lambda: dsl.Dist(dsl.Index("n", 0), dsl.Index("literal", 1), 2), ("i", "j"),
        "Dist(i=Index(base='n', offset=0), j=Index(base='literal', offset=1), pos=2)"),
    "Unary": (
        lambda: dsl.Unary("sqrt", dsl.Const(2.0)), ("op", "arg"),
        "Unary(op='sqrt', arg=Const(value=2.0))"),
    "Binary": (
        lambda: dsl.parse("d(n,1)*d(1,2)+1").expr, ("op", "left", "right"),
        f"Binary(op='+', left=Binary(op='*', left={D_N1}, right={D_12}), "
        "right=Const(value=1.0))"),
    "Aggregate": (
        lambda: dsl.parse("min(perim,d(1,3))").expr, ("op", "args"),
        "Aggregate(op='min', args=(Aggregate(op='perim', args=()), Dist(i=Index(base='literal', "
        "offset=1), j=Index(base='literal', offset=3), pos=10)))"),
    "ParsedCenter": (
        lambda: dsl.parse("d(n,1)+d(1,2)"), ("expr", "source"),
        f"ParsedCenter(expr=Binary(op='+', left={D_N1}, right={D_12}), source='d(n,1)+d(1,2)')"),
    "_Token": (
        lambda: dsl._Token("number", "12", 3), ("kind", "text", "pos"),
        "_Token(kind='number', text='12', pos=3)"),
    "MedianResult": (
        lambda: MedianResult(Point2(1.0, 1.0), 12, 1e-13, None),
        ("point", "iterations", "residual", "at_vertex"),
        "MedianResult(point=Point2(x=1.0, y=1.0), iterations=12, residual=1e-13, at_vertex=None)"),
    "EnclosingCircle": (
        lambda: EnclosingCircle(Point2(1.5, 2.0), 2.5, (1, 2)), ("center", "radius", "support"),
        "EnclosingCircle(center=Point2(x=1.5, y=2.0), radius=2.5, support=(1, 2))"),
    "ReconstructionResult": (
        lambda: ReconstructionResult(TRI, 0.0), ("polygon", "max_residual"),
        f"ReconstructionResult(polygon={TRI_REPR}, max_residual=0.0)"),
    "FeasibilityReport": (
        lambda: FeasibilityReport(True, 1e-15, (0.0, -0.5)),
        ("feasible", "max_residual", "cm_checks"),
        "FeasibilityReport(feasible=True, max_residual=1e-15, cm_checks=(0.0, -0.5))"),
    "PolygonDocument": (
        lambda: PolygonDocument("tri", TRI), ("name", "vertices", "distances"),
        f"PolygonDocument(name='tri', vertices={TRI_REPR}, distances=None)"),
    "CenterRecord": (
        lambda: CenterRecord("chebyshev", point=Point2(1.5, 2.0), extra=(("radius", 2.5),)),
        ("name", "projective", "weights", "point", "error", "error_type", "extra"),
        "CenterRecord(name='chebyshev', projective=None, weights=None, point=Point2(x=1.5, y=2.0), "
        "error=None, error_type=None, extra=(('radius', 2.5),))"),
    "CoincidenceReport": (
        lambda: CoincidenceReport((1.0, 1.0, 1.0), True, 0.0), ("values", "coincident", "spread"),
        "CoincidenceReport(values=(1.0, 1.0, 1.0), coincident=True, spread=0.0)"),
}
CASES = [pytest.param(*case, id=name) for name, case in SAMPLES.items()]
# The dataclasses that tools outside the package copy (`dataclasses.replace`)
# or read (`dataclasses.asdict`); every other class is a plain class.
KEPT_DATACLASSES = (_CenterFunction, CatalogEntry, CharacterizationReport)


def _all_slots(cls):
    return [name for klass in cls.__mro__ for name in klass.__dict__.get("__slots__", ())]


def _package_classes():
    for info in pkgutil.iter_modules(polycenter.__path__):
        if info.name == "__main__":  # runs the command line
            continue
        module = importlib.import_module(f"polycenter.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_every_value_type_has_a_sample():
    frozen = {cls.__name__ for cls in _package_classes() if issubclass(cls, Frozen)}
    frozen -= {"Frozen", "Polygon", "DistanceMatrix"}
    assert frozen == {name.split("-")[0] for name in SAMPLES}


@pytest.mark.parametrize("make, compared, text", CASES)
def test_repr_is_the_dataclass_repr(make, compared, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, compared, text", CASES)
def test_equality_needs_the_same_class_and_hash_is_that_of_the_compared_fields(
        make, compared, text):
    a, b = make(), make()
    assert a == b and a is not b and not (a != b)
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in compared))
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(getattr(a, f) for f in compared)
    # the same slots under a subclass are not equal, either way round
    sub = type("Sub", (type(a),), {"__slots__": ()})
    twin = object.__new__(sub)
    for name in _all_slots(type(a)):
        object.__setattr__(twin, name, getattr(a, name))
    assert a != twin and twin != a


def test_uncompared_fields_stay_out_of_equality_and_hash():
    i, j = dsl.Index("n", 0), dsl.Index("literal", 1)
    assert dsl.Dist(i, j, 0) == dsl.Dist(i, j, 9)
    assert hash(dsl.Dist(i, j, 0)) == hash(dsl.Dist(i, j, 9)) == hash((i, j))
    used, fresh = dsl.parse("d(n,1)+d(1,2)"), dsl.parse("d(n,1)+d(1,2)")
    dsl.evaluate(used, MAT)
    assert used._programs and not fresh._programs
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


@pytest.mark.parametrize("make, compared, text", CASES)
def test_an_attribute_cannot_be_set_or_deleted(make, compared, text):
    a = make()
    for name in _all_slots(type(a)) + ["other"]:
        with pytest.raises(FrozenInstanceError):
            setattr(a, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(a, name)
    assert repr(a) == text


@pytest.mark.parametrize("make, compared, text", CASES)
def test_copy_deepcopy_and_pickle_round_trip(make, compared, text):
    a = make()
    copies = [copy.copy(a), copy.deepcopy(a)] + [
        pickle.loads(pickle.dumps(a, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(a) and c == a and hash(c) == hash(a) and repr(c) == text


def test_a_parsed_center_that_has_compiled_still_pickles():
    pc = dsl.parse("d(n,1)*d(1,2)")
    value = dsl.evaluate(pc, MAT)
    for c in [copy.deepcopy(pc), pickle.loads(pickle.dumps(pc))]:
        assert c == pc and not c._programs and dsl.evaluate(c, MAT) == value


@pytest.mark.parametrize("build, error", [
    (lambda: Point2(math.nan, 0.0), NonFinite),
    (lambda: Point2(0.0, math.inf), NonFinite),
    (lambda: ProjectiveCoords((1.0, 2.0)), ValueError),
    (lambda: ProjectiveCoords((0.0, 0.0, -0.0)), ValueError),
    (lambda: BarycentricWeights((0.5, 0.6, 0.0)), ValueError),
    (lambda: BarycentricWeights((math.inf, -math.inf, 1.0)), ValueError),
    (lambda: DihedralElement(2, 0, False), ValueError),
    (lambda: Similarity(0.0, RigidMotion(0.0)), ValueError),
    (lambda: Similarity(math.inf, RigidMotion(0.0)), ValueError),
    (lambda: PolygonDocument("both", TRI, MAT), DocumentError),
    (lambda: PolygonDocument(), DocumentError),
])
def test_constructors_validate_as_before(build, error):
    with pytest.raises(error):
        build()


def test_a_point_validates_through_its_post_init(monkeypatch):
    calls = []
    original = Point2.__post_init__
    monkeypatch.setattr(Point2, "__post_init__", lambda self: calls.append(original(self)))
    Point2(1.0, 2.0), TRI.vertex_mean()
    assert len(calls) == 2


def test_positional_patterns_read_the_fields_in_order():
    match dsl.parse("d(n,1)+2").expr:
        case dsl.Binary("+", dsl.Dist(dsl.Index("n", 0), _, 0), dsl.Const(2.0)):
            pass
        case _:
            pytest.fail("no match")


def test_tree_heights_are_set_when_built():
    e = dsl.parse("-sqrt(d(1,2)) + max(perim, 2 * d(1,3))")
    assert (e.expr.height, e.expr.left.height, e.expr.right.height) == (4, 3, 3)
    assert dsl.Binary("+", dsl.Const(1.0), "not a node").height == 2


def test_exactly_three_classes_stay_dataclasses():
    classes = list(_package_classes())
    assert {cls for cls in classes if dataclasses.is_dataclass(cls)} == {
        cls for cls in classes if issubclass(cls, KEPT_DATACLASSES)}
    assert {cls for cls in classes if "__dataclass_fields__" in cls.__dict__} == set(
        KEPT_DATACLASSES)
