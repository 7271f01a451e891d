"""The axiom trials as they stood before a trial read the function once per
distinct input, kept as the reference that `framework.axiom_trials` must
equal bit for bit, errors included.

A trial here makes 7 evaluations: the sample, its reversal, a moved
`Polygon` of validated `Point2`s, and one rescaled copy per factor of
`_SCALES`, the unit one included. A length function reads the matrix
measured from the moved polygon and one `scaled` copy of the sample's
matrix per factor, each with its own check of the largest entry.
`slope_fit` computes its abscissae on every call.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import repeat
from operator import mul
from typing import Callable, Iterator, Optional

from polycenter.framework import _SCALES, AxiomTrial, CenterFunction, VertexCenterFunction
from polycenter.geometry import (
    DihedralElement, DistanceMatrix, Point2, Polygon, RigidMotion, distance_matrix, relabel,
)
from polycenter.sampling import random_rigid_motion

from helpers import permuted


def apply_motion(m: RigidMotion, p: Polygon) -> Polygon:
    c, s = math.cos(m.angle), math.sin(m.angle)
    tx, ty = m.translation.x, m.translation.y
    return Polygon(tuple(Point2(c * v.x - s * v.y + tx, s * v.x + c * v.y + ty)
                         for v in p.vertices))


def scaled(D: DistanceMatrix, t: float) -> DistanceMatrix:
    if not (t >= 0.0 and math.isfinite(t * D.max_entry())):
        raise ValueError(f"scale {t!r} must be nonnegative and keep entries finite")
    return DistanceMatrix._of(tuple(map(tuple, map(map, repeat(partial(mul, t)), D.d))))


def slope_fit(trial: AxiomTrial) -> Optional[tuple[float, float]]:
    if any(v == 0.0 for v in trial.scaled):
        return None
    if len({v > 0.0 for v in trial.scaled}) != 1:
        return math.nan, math.inf
    xs = [math.log(t) for t in _SCALES]
    ys = [math.log(abs(v)) for v in trial.scaled]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    dev = max(abs(y - (my + slope * (x - mx))) for x, y in zip(xs, ys))
    return slope, dev


def axiom_trials(
    fg: CenterFunction,
    sampler: Callable[[random.Random], Polygon],
    trials: int,
    seed: int,
) -> Iterator[AxiomTrial]:
    if trials < 1:
        raise ValueError(f"axiom checks need at least 1 trial, got {trials}")
    rng = random.Random(seed)
    is_vertex = isinstance(fg, VertexCenterFunction)
    for _ in range(trials):
        p = sampler(rng)
        moved = apply_motion(random_rigid_motion(rng), p)
        sigma = DihedralElement.sigma(p.n)
        if is_vertex:
            inputs = [p, relabel(sigma, p), moved]
            inputs += [Polygon(tuple(v.scaled(t) for v in p.vertices)) for t in _SCALES]
        else:
            D = distance_matrix(p)
            inputs = [D, permuted(D, sigma.permutation()), distance_matrix(moved)]
            inputs += [scaled(D, t) for t in _SCALES]
        base, rev, mv, *values = (fg.evaluate(y) for y in inputs)
        yield AxiomTrial(inputs[0], base, rev, mv, tuple(values))
