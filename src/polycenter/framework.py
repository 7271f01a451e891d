"""Center functions and their coordinate maps.

A vertex center function maps a polygon to a real number and must be

  (1) invariant under the index reversal that fixes vertex 1,
  (2) positively homogeneous of some natural-number degree under scaling
      of the vertex coordinates,
  (3) invariant under orientation-preserving rigid motions.

A length center function maps a distance matrix to a real number and must
satisfy the analogues of (1) and (2); motion invariance is automatic.

Evaluating a function on all n cyclic shifts of its input yields projective
coordinates. Normalizing those to sum 1 gives weights, and the weighted
vertex combination is the point the function designates.

A domain guard must be invariant under cyclic relabeling: its answer on the
input holds for every shift. `cyclic_values`, the one kernel behind both
coordinate maps and the coincidence probes, therefore checks the guard once
per map, on the input as given, and then evaluates all n shifts. A matrix
on which a numerically fragile guard would answer differently for different
shifts (a near-collinear or near-infeasible matrix under the
reconstruction-based `perimeter` guard) is decided by the unshifted matrix.

The per-shift `evaluator` is what `evaluate` and the axiom checks call. A
center function may also carry `all_shifts`, which returns the n values of
a polygon's map at once from work the shifts share; the two must agree on
every shift bit for bit, errors included. A vertex function defined by its
whole map, as the catalog's and the coincidence probes are, takes entry 0
of that map as its evaluator (`entry_zero`).

A length function's map on a polygon reads the distances measured from it:
`all_shifts` measures what it reads with the bits of `distance_matrix(p)`,
which is measured in its absence. The extent is checked first, once, and the
guard then decides on the polygon (`perimeter` asks `is_convex(p)`). A matrix
always maps through its rotations and the evaluator.

An axiom trial evaluates a function on a sample, its reversal, a moved copy
and three rescalings. A guard-free expression's `static_facts` imply some of
these values with the bits evaluation gives. IEEE + and * commute exactly,
so a reversal that leaves the tree's sorted form as it is keeps the value.
At scale 2^s a tree of degree k gains 2^(k*s) while every intermediate of
degree j, times 2^(j*s) and at scale 1, is zero or in [2^-1021, 2^1023],
where IEEE arithmetic commutes with power-of-two scaling (Goldberg 1991).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter, mul
from typing import Callable, ClassVar, Generic, Iterator, Optional, Sequence, TypeVar, Union

from .errors import AllZero, DomainViolation, EvalError, ZeroSum
from .geometry import (
    DihedralElement,
    DistanceMatrix,
    Frozen,
    MeasuredRows,
    Point2,
    Polygon,
    _set,
    apply_motion,
    distance_matrix,
    unit_factor,
    vertex_coordinates,
)
from .reconstruction import reconstruct
from .sampling import random_rigid_motion

# |sum of coordinates| at or below this fraction of the largest coordinate
# magnitude means no affine normalization exists.
ZERO_SUM_REL = 1e-10
# Tolerance of the relabel and motion checks.
CHECK_TOL = 1e-9
# Homogeneity slope estimates must sit within this band of one constant.
SLOPE_TOL = 1e-6
_SCALES = (0.5, 1.0, 2.0, 4.0)
_RESCALES = (0.5, 2.0, 4.0)  # the copies a trial rescales; by 1 it is the sample
_RESCALE_EXPONENTS = tuple(int(math.log2(t)) for t in _RESCALES)
_CENTRED_LOGS = tuple(math.log(t) - sum(map(math.log, _SCALES)) / len(_SCALES) for t in _SCALES)
_SXX = sum(dx ** 2 for dx in _CENTRED_LOGS)


def _check_domain(fg: "CenterFunction", x: object) -> None:
    if fg.domain_guard is not None and not fg.domain_guard(x):
        note = f" ({fg.domain_note})" if fg.domain_note else ""
        raise DomainViolation(f"{fg.name}: {fg.reads} outside domain{note}")


def _finite(fg: "CenterFunction", value: float) -> float:
    if not math.isfinite(value):
        raise EvalError(f"{fg.name}: non-finite value {value!r}")
    return value


_Input = TypeVar("_Input", Polygon, DistanceMatrix)


@dataclass(frozen=True)
class _CenterFunction(Generic[_Input]):
    """A named evaluator with an optional domain guard.

    The guard must give the same answer on every cyclic relabeling of its
    input; coordinate maps check it once per map. `all_shifts`, when given,
    reads a polygon the guard accepts and returns the evaluator's n values
    on its map at once, bit for bit; a length guard then also reads a
    polygon in place of its distances (module docstring). `static_facts(n)`
    gives an expression's facts on n-gons (`dsl.static_facts`), whose sample
    agrees with the evaluator in the same way.
    """

    name: str
    evaluator: Callable[[_Input], float]
    domain_guard: Optional[Callable[[_Input], bool]] = None
    domain_note: str = ""
    all_shifts: Optional[Callable[[Polygon], Sequence[float]]] = None
    static_facts: Optional[Callable[[int], tuple]] = None
    reads: ClassVar[str]

    def evaluate(self, x: _Input) -> float:
        _check_domain(self, x)
        return _finite(self, self.evaluator(x))


class VertexCenterFunction(_CenterFunction[Polygon]):
    """A center function on polygons."""

    reads = "polygon"


class LengthCenterFunction(_CenterFunction[DistanceMatrix]):
    """A center function on distance matrices."""

    reads = "distances"


CenterFunction = Union[VertexCenterFunction, LengthCenterFunction]


def entry_zero(all_shifts: Callable[[_Input], Sequence[float]]) -> Callable[[_Input], float]:
    """The per-shift evaluator of a function defined by its whole map: the
    value on an input is entry 0 of the input's map."""
    return lambda x: all_shifts(x)[0]


class ProjectiveCoords(Frozen):
    """A tuple of homogeneous coordinates, not all zero."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[float, ...]) -> None:
        if len(values) < 3:
            raise ValueError("projective coordinates need at least 3 entries")
        if all(v == 0.0 for v in values):
            raise ValueError("all-zero tuple is not a projective point")
        _set(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)


class BarycentricWeights(Frozen):
    """Affine weights over the vertices; entries sum to 1."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[float, ...]) -> None:
        # relative to the weights' magnitude: `normalize` divides by a sum
        # that may be far smaller than the values it divides
        try:
            mass = math.fsum(map(abs, values))
        except OverflowError:
            mass = math.inf
        if not (math.isfinite(mass) and abs(math.fsum(values) - 1.0) <= 1e-12 * max(1.0, mass)):
            raise ValueError("weights must sum to 1")
        _set(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    def combine(self, p: Polygon) -> Point2:
        if p.n != self.n:
            raise ValueError("weight count does not match vertex count")
        return Point2(sum(map(mul, self.values, p.xs)), sum(map(mul, self.values, p.ys)))


class AxiomReport(Frozen):
    __slots__ = ("relabel_ok", "motion_ok", "homogeneity_ok", "estimated_degree", "max_violation")

    def __init__(self, relabel_ok: bool, motion_ok: bool, homogeneity_ok: bool,
                 estimated_degree: Optional[float], max_violation: float) -> None:
        _set(self, "relabel_ok", relabel_ok)
        _set(self, "motion_ok", motion_ok)
        _set(self, "homogeneity_ok", homogeneity_ok)
        _set(self, "estimated_degree", estimated_degree)
        _set(self, "max_violation", max_violation)


# ------------------------------------------------------------ coordinate maps


def cyclic_values(
    fg: CenterFunction, x: Union[Polygon, DistanceMatrix]
) -> tuple[float, ...]:
    """Entry k is fg evaluated on x relabeled to start at vertex k.

    Equal to fg.evaluate on x.shifted(k) (vertex functions) or x.rotated(k)
    (length functions) for k = 0..n-1, with the same errors, except that the
    domain guard runs once, on x as given. On a polygon, `fg.all_shifts`
    builds no relabeled copy. A length function given a polygon reads the
    distances measured from it, as the module docstring describes.
    """
    whole = fg.all_shifts is not None and isinstance(x, Polygon)
    if whole and isinstance(fg, LengthCenterFunction):
        vertex_coordinates(x)  # the extent check of distance_matrix
    elif isinstance(fg, LengthCenterFunction) and isinstance(x, Polygon):
        x = distance_matrix(x)
    _check_domain(fg, x)
    if whole:
        values = fg.all_shifts(x)
    elif isinstance(fg, VertexCenterFunction):
        values = map(fg.evaluator, (x.shifted(k) for k in range(x.n)))
    else:
        values = map(fg.evaluator, x.rotations())
    return tuple(_finite(fg, v) for v in values)


def _projective(fg: CenterFunction, values: tuple[float, ...]) -> ProjectiveCoords:
    if all(v == 0.0 for v in values):
        raise AllZero(f"{fg.name}: every cyclic evaluation is zero")
    return ProjectiveCoords(values)


def coordinate_map_vertex(f: VertexCenterFunction, p: Polygon) -> ProjectiveCoords:
    """Entry k is f evaluated on the vertex cycle read from vertex k."""
    return _projective(f, cyclic_values(f, p))


def coordinate_map_length(
    g: LengthCenterFunction, D: Union[DistanceMatrix, Polygon]
) -> ProjectiveCoords:
    """Entry k is g evaluated on the matrix reindexed to start at vertex k;
    D may be the polygon the matrix is measured from."""
    return _projective(g, cyclic_values(g, D))


def coordinate_map(fg: CenterFunction, p: Polygon) -> ProjectiveCoords:
    """The coordinate map of fg at p; length functions read distances
    measured from p."""
    if isinstance(fg, VertexCenterFunction):
        return coordinate_map_vertex(fg, p)
    return coordinate_map_length(fg, p)


def normalize(coords: ProjectiveCoords) -> BarycentricWeights:
    """Scale coordinates to sum 1. Raises ZeroSum when the sum is negligible
    next to the largest coordinate magnitude. The coordinates are first
    scaled by `unit_factor` of the largest magnitude, so finite ones cannot
    sum past the float range; the scaling is exact for every coordinate
    above 2^-1021 times the largest."""
    largest = max(abs(v) for v in coords.values)
    t = unit_factor(largest)
    values = [t * v for v in coords.values]
    total = sum(values)
    if abs(total) <= ZERO_SUM_REL * (t * largest):
        raise ZeroSum(f"coordinate sum {total / t:.3e} is negligible at scale {largest:.3e}")
    return BarycentricWeights(tuple(v / total for v in values))


def geometric_center(fg: CenterFunction, p: Polygon) -> Point2:
    """The weighted vertex combination designated by the function on p."""
    return normalize(coordinate_map(fg, p)).combine(p)


# ------------------------------------------------------------- lift / lower


def lift_length_to_vertex(g: LengthCenterFunction) -> VertexCenterFunction:
    """View a length function as a vertex function by measuring distances."""
    guard = None
    if g.domain_guard is not None:
        guard = lambda p: g.domain_guard(distance_matrix(p))  # noqa: E731
    return VertexCenterFunction(
        f"{g.name} (lifted)", lambda p: g.evaluator(distance_matrix(p)), guard, g.domain_note,
        all_shifts=lambda p: list(map(g.evaluator, distance_matrix(p).rotations())),
    )


def lower_vertex_to_length(f: VertexCenterFunction) -> LengthCenterFunction:
    """View a vertex function as a length function via reconstruction.

    Evaluation embeds the matrix (clockwise canonical copy) and applies f;
    infeasible matrices raise InfeasibleDistances from the embedding step.
    """

    def evaluator(D: DistanceMatrix) -> float:
        return f.evaluate(reconstruct(D).polygon)

    return LengthCenterFunction(f"{f.name} (lowered)", evaluator, None, f.domain_note)


# ------------------------------------------------------------- verification


def _relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) / scale


class AxiomTrial(Frozen):
    """One sampled input (a polygon, or its distance matrix for length
    functions) and fg's values on it, its reversal, a moved copy and its
    rescalings by `_SCALES`."""

    __slots__ = ("input", "base", "reversed", "moved", "scaled")

    def __init__(self, input: Union[Polygon, DistanceMatrix], base: float, reversed: float,
                 moved: float, scaled: tuple[float, ...]) -> None:
        _set(self, "input", input)
        _set(self, "base", base)
        _set(self, "reversed", reversed)
        _set(self, "moved", moved)
        _set(self, "scaled", scaled)

    def relabel_gap(self) -> float:
        return _relative_gap(self.base, self.reversed)

    def motion_gap(self) -> float:
        return _relative_gap(self.base, self.moved)

    def slope_fit(self) -> Optional[tuple[float, float]]:
        """Least-squares slope of log|value| against log t, plus the max
        fit deviation. None when the function vanishes at some scale
        (0 = t**k * 0 holds for every k); (nan, inf) when its sign changes.
        """
        if 0.0 in self.scaled:
            return None
        if len({v > 0.0 for v in self.scaled}) != 1:
            return math.nan, math.inf
        ya, yb, yc, yd = ys = list(map(math.log, map(abs, self.scaled)))
        my = sum(ys) / 4
        xa, xb, xc, xd = _CENTRED_LOGS
        slope = sum([xa * (ya - my), xb * (yb - my), xc * (yc - my), xd * (yd - my)]) / _SXX
        return slope, max(abs(ya - (my + slope * xa)), abs(yb - (my + slope * xb)),
                          abs(yc - (my + slope * xc)), abs(yd - (my + slope * xd)))


def axiom_trials(
    fg: CenterFunction,
    sampler: Callable[[random.Random], Polygon],
    trials: int,
    seed: int,
) -> Iterator[AxiomTrial]:
    """The trials behind `verify_axioms` and `dsl.admit`, one at a time, so
    a caller that stops at a failing trial evaluates nothing further.
    Raises ValueError for fewer than one trial, which would report every
    axiom as holding.

    A trial reads fg on the sample, its reversal, a moved copy and the
    rescalings by 1/2, 2 and 4 (by 1 it is the sample, as a center function
    gives equal values on equal inputs): 6 evaluations, or as few as 2 when
    a guard-free length function's `static_facts` imply the others.

    A length function reads views (`geometry.MeasuredRows`) over the
    sample's coordinates (the reversal's permuted by sigma, a rescaling's
    times its t) or the moved ones, which measure a distance when it is
    read, and the whole matrix once, when its `d` is first read. The
    checks fail in the order of built matrices: a moved
    coordinate that overflows (`apply_motion`'s NonFinite), the sample's
    extent, the moved copy's, then a rescaling (ValueError), whose check
    reads the sample's extent. An implied value's view is built all the
    same, except a symmetric tree's reversal, which cannot fail its check.
    """
    if trials < 1:
        raise ValueError(f"axiom checks need at least 1 trial, got {trials}")
    rng = random.Random(seed)
    picks: dict[int, itemgetter] = {}  # n -> the reversal by sigma of n items
    for _ in range(trials):
        p = sampler(rng)
        motion = random_rigid_motion(rng)
        pick = picks.get(p.n) or picks.setdefault(
            p.n, itemgetter(*DihedralElement.sigma(p.n).permutation()))
        facts = fg.static_facts and not fg.domain_guard and fg.static_facts(p.n)
        symmetric, degrees, traced = facts or (False, None, None)
        moved = apply_motion(motion, p)
        if isinstance(fg, VertexCenterFunction):
            inputs = [p, Polygon._of(pick(p.xs), pick(p.ys)), moved]
            inputs += [Polygon._checked([t * x for x in p.xs], [t * y for y in p.ys])
                       for t in _RESCALES]
        else:
            xs, ys = p.xs, p.ys
            sample, moved = MeasuredRows(xs, ys), MeasuredRows(moved.xs, moved.ys)
            views = [sample, None if symmetric else MeasuredRows(
                pick(xs), pick(ys), 1.0, sample.diagonal), moved]
            views += [MeasuredRows(xs, ys, t, sample.diagonal) for t in _RESCALES]
            inputs = [v if v is None else DistanceMatrix._of(v) for v in views]
        if traced is None:
            base, rev, mv, half, double, quadruple = map(fg.evaluate, inputs)
        else:
            base, lo, hi = traced(inputs[0])
            rev = base if symmetric else fg.evaluate(inputs[1])
            mv = fg.evaluate(inputs[2])
            shifts = [0] + [j * s for j in (degrees or ())[1:] for s in _RESCALE_EXPONENTS]
            exact = degrees and math.isfinite(hi) and (
                math.frexp(hi)[1] + max(shifts) <= 1023 and math.frexp(lo)[1] + min(shifts) > -1021)
            half, double, quadruple = (
                [math.ldexp(base, degrees[0] * s) for s in _RESCALE_EXPONENTS] if exact
                else map(fg.evaluate, inputs[3:]))
        yield AxiomTrial(inputs[0], base, rev, mv, (half, base, double, quadruple))


def verify_axioms(
    fg: CenterFunction,
    sampler: Callable[[random.Random], Polygon],
    trials: int = 100,
    seed: int = 0,
) -> AxiomReport:
    """Check the defining properties on sampled inputs.

    Per trial (`axiom_trials`): one reversal-relabeling comparison, one
    random rigid motion comparison, and evaluations at four coordinate
    scales whose log-log slope estimates the homogeneity degree.
    Homogeneity passes when every trial's slope sits within SLOPE_TOL of
    the cross-trial mean and the per-trial fit is equally tight. Trials
    where the function vanishes contribute nothing to the slope; one where
    it changes sign fits no power and makes max_violation infinite.
    """
    worst = 0.0
    relabel_ok = True
    motion_ok = True
    slopes: list[float] = []
    fit_devs: list[float] = []
    for trial in axiom_trials(fg, sampler, trials, seed):
        relabel_gap, motion_gap = trial.relabel_gap(), trial.motion_gap()
        worst = max(worst, relabel_gap, motion_gap)
        relabel_ok = relabel_ok and relabel_gap <= CHECK_TOL
        motion_ok = motion_ok and motion_gap <= CHECK_TOL
        fit = trial.slope_fit()
        if fit is not None:
            slopes.append(fit[0])
            fit_devs.append(fit[1])

    # a function that vanished on every sample reveals no degree
    homogeneity_ok = True
    degree: Optional[float] = None
    if slopes:
        finite = [s for s in slopes if math.isfinite(s)]
        mean = sum(finite) / len(finite) if finite else math.nan
        # a sign change left a nan slope and an infinite fit deviation
        spread = max(fit_devs + [abs(s - mean) for s in finite])
        homogeneity_ok = spread <= SLOPE_TOL
        if homogeneity_ok:
            degree = mean
        else:
            worst = max(worst, spread)
    return AxiomReport(relabel_ok, motion_ok, homogeneity_ok, degree, worst)
