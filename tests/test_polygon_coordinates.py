"""`Polygon.xs` and `Polygon.ys`: the vertex coordinates as tuples, the
polygon's own data on every path that builds one (only `Polygon(vertices)`
derives them, from its `Point2`s), and no part of its ==, hash or repr."""

import dataclasses
import math
import random

import pytest

from polycenter.geometry import (
    DihedralElement, Point2, Polygon, RigidMotion, Similarity, apply_motion,
    distance_matrix, relabel,
)
from polycenter.reconstruction import reconstruct
from polycenter.sampling import random_convex_polygon, random_polygon
from samplers import (
    random_convex_nonequiangular, random_equiangular_polygon, random_equilateral_polygon,
    regular_polygon,
)

BASE = Polygon.from_pairs([(0, 0), (3, -0.0), (2.5, 4), (-1, 2), (0.5, 1e-300)])


def _built():
    """(path, polygon) for every way the package builds a polygon."""
    rng = random.Random(7)
    motion = RigidMotion(0.7, Point2(1.5, -2.0))
    yield "from_pairs", BASE
    yield "constructor", Polygon(BASE.vertices)
    yield "relabel", relabel(DihedralElement(BASE.n, 2, True), BASE)
    yield "shifted", BASE.shifted(3)
    yield "apply_motion", apply_motion(motion, BASE)
    yield "apply_motion (similarity)", apply_motion(Similarity(2.5, motion), BASE)
    yield "reconstruct", reconstruct(distance_matrix(random_convex_polygon(rng, 7))).polygon
    yield "regular_polygon", regular_polygon(7, winding=3, radius=2.0)
    yield "random_polygon", random_polygon(rng, 9)
    yield "random_convex_polygon", random_convex_polygon(rng, 9)
    yield "random_equiangular_polygon", random_equiangular_polygon(rng, 6)
    yield "random_convex_nonequiangular", random_convex_nonequiangular(rng, 6)
    yield "random_equilateral_polygon", random_equilateral_polygon(rng, 5)
    yield "internal constructor", Polygon._of(BASE.xs[1:], BASE.ys[1:])
    yield "apply_motion (scaling)", apply_motion(Similarity(0.5, RigidMotion(0.0)), BASE)


@pytest.mark.parametrize("p", [pytest.param(p, id=path) for path, p in _built()])
def test_coordinates_are_the_vertex_coordinates_as_tuples(p):
    assert type(p.xs) is tuple and type(p.ys) is tuple
    assert p.xs == tuple(v.x for v in p.vertices)
    assert p.ys == tuple(v.y for v in p.vertices)
    # the same floats, signed zeros included
    assert [math.copysign(1.0, x) for x in p.xs] == [math.copysign(1.0, v.x) for v in p.vertices]
    plain = Polygon(p.vertices)
    assert p == plain and hash(p) == hash(plain) and repr(p) == repr(plain)
    assert "xs" not in repr(p) and "ys" not in repr(p)


def test_coordinates_are_not_constructor_arguments():
    with pytest.raises(TypeError):
        Polygon(BASE.vertices, BASE.xs, BASE.ys)
    with pytest.raises(TypeError):
        dataclasses.replace(BASE, xs=(0.0, 1.0, 2.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        BASE.xs = ()
