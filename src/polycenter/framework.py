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

A map's bookkeeping is O(n) passes in C: a matrix's n rotations share its
rows (`DistanceMatrix.rotations`), the shifts are evaluated up to the
first value that is not finite (`groupby`), or one `sum` checks the
values `all_shifts` returns (`_all_finite`), one `any` checks that some
value is not zero, and `normalize` skips the re-summing check of its
weights where a rounding bound proves that the check passes.

A length function's map on a polygon reads the distances measured from it:
`all_shifts` measures what it reads with the bits of `distance_matrix(p)`,
which is measured in its absence. The extent is checked first, once, and the
guard then decides on the polygon (`perimeter` asks `is_convex(p)`). A matrix
always maps through its rotations and the evaluator.

An axiom trial evaluates a function on a sample, its reversal, a moved copy
and three rescalings. Those inputs are drawn apart from any function
(`_trial_inputs`) and hold no value, so one draw can serve every function
checked on it, as `dsl.admit`'s does; `_trials` is the one body that
evaluates them, and `_verdict` the one that decides each trial against
CHECK_TOL and SLOPE_TOL, for `verify_axioms` and `dsl.admit` alike. The
degree rules are here too: `verify_axioms` takes the mean slope, and
`_admitted`, which raises `admit`'s violations, a natural number. A trial
whose base is not zero and whose rescalings `_trials` took as the base
times exact powers of two (below) carries the degree the tree proves
(`proven_degree`). `_admitted` counts that degree as the trial's slope and
takes no log; it fits the kept values only to word a violation of its
degree rule. `verify_axioms` fits every trial, since the degree it reports
is the mean of the fitted slopes. A trial's inputs are checked
coordinates and a scale. A vertex function reads the polygon they stand
for, built only when it is evaluated. A guard-free expression reads them
through its coordinate programs, which measure only the distances it
reads; any other length function reads a matrix view that measures an
entry when it is read (`MeasuredRows`).

A function's `static_facts` also imply some of the values, with the bits
evaluation gives: a guard-free expression's from its tree, and a vertex
function's as the function declares them (the catalog's, with a proof for
each). IEEE + and * commute exactly, so a reversal that leaves the tree's
sorted form as it is keeps the value. At scale 2^s a function of degree k
gains 2^(k*s) while every rounded intermediate of degree j, times 2^(j*s)
and at scale 1, is zero or in [2^-1021, 2^1023], where IEEE arithmetic
commutes with power-of-two scaling (Goldberg 1991). A vertex function's
facts, its reversal's included, are taken only there, and it is still
evaluated, guard included, by its own `evaluate` on the sample and the
moved copy: so its guard must answer on the reversal and on an exact 2^s
copy as on the sample, as `is_convex` and `is_nondegenerate`, which
decide on the exact coordinates, do.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import groupby, islice
from operator import itemgetter, mul
from typing import Callable, ClassVar, Generic, Iterator, Optional, Sequence, TypeVar, Union

from .errors import AllZero, AxiomViolation, DomainViolation, EvalError, ZeroSum
from .geometry import (
    DihedralElement,
    DistanceMatrix,
    Frozen,
    MeasuredRows,
    Point2,
    Polygon,
    _check_scale,
    _extent,
    _set,
    apply_motion,
    distance_matrix,
    largest_coordinate,
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
# Up to this many finite coordinates, the weights `normalize` builds pass
# BarycentricWeights' check by its rounding bound, so it is not run.
_TRUSTED_N = 4096


def _check_domain(fg: "CenterFunction", x: object) -> None:
    if fg.domain_guard is not None and not fg.domain_guard(x):
        note = f" ({fg.domain_note})" if fg.domain_note else ""
        raise DomainViolation(f"{fg.name}: {fg.reads} outside domain{note}")


def _finite(fg: "CenterFunction", value: float) -> float:
    if not math.isfinite(value):
        raise EvalError(f"{fg.name}: non-finite value {value!r}")
    return value


def _all_finite(fg: "CenterFunction", values: Sequence[float]) -> Sequence[float]:
    """values once each is finite, else the EvalError of the first that is
    not: one pass of the built-in `sum`, whose result is finite unless a
    value is not or a sum of finite ones overflows."""
    if not math.isfinite(sum(values)):
        for v in values:
            _finite(fg, v)
    return values


_Input = TypeVar("_Input", Polygon, DistanceMatrix)


@dataclass(frozen=True)
class _CenterFunction(Generic[_Input]):
    """A named evaluator with an optional domain guard.

    The guard must give the same answer on every cyclic relabeling of its
    input; coordinate maps check it once per map. `all_shifts`, when given,
    reads a polygon the guard accepts and returns the evaluator's n values
    on its map at once, bit for bit; a length guard then also reads a
    polygon in place of its distances (module docstring).

    `static_facts(n)` gives the function's facts on n-gons, which the axiom
    trials read (`_facts`). A length function's are an expression's
    (`dsl.static_facts`), whose sample agrees with the evaluator in the
    same way; they are read only when it has no guard. A vertex function's
    are (symmetric, (k, j, J), bounds), read with or without a guard:
    wherever `bounds(xs, ys)` = (lo, hi) puts every rounded intermediate,
    of degree j to J, at zero or within [lo, hi], and `_trials` finds that
    range normal at every scale, the reversal's value (if symmetric) and a
    2^s copy's, errors included, must be the sample's value and its
    `ldexp` by k*s. Its guard must then answer on the reversal and on exact
    2^s copies as on the sample: it is asked only on the sample and the
    moved copy.
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

    __slots__ = ("values",)  # tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 3:
            raise ValueError("projective coordinates need at least 3 entries")
        if all(v == 0.0 for v in self.values):
            raise ValueError("all-zero tuple is not a projective point")

    @property
    def n(self) -> int:
        return len(self.values)


class BarycentricWeights(Frozen):
    """Affine weights over the vertices; entries sum to 1."""

    __slots__ = ("values",)  # tuple[float, ...]

    def __post_init__(self) -> None:
        # relative to the weights' magnitude: `normalize` divides by a sum
        # that may be far smaller than the values it divides
        values = self.values
        try:
            mass = math.fsum(map(abs, values))
        except OverflowError:
            mass = math.inf
        if not (math.isfinite(mass) and abs(math.fsum(values) - 1.0) <= 1e-12 * max(1.0, mass)):
            raise ValueError("weights must sum to 1")

    @property
    def n(self) -> int:
        return len(self.values)

    def combine(self, p: Polygon) -> Point2:
        if p.n != self.n:
            raise ValueError("weight count does not match vertex count")
        return Point2(sum(map(mul, self.values, p.xs)), sum(map(mul, self.values, p.ys)))


def _unchecked(cls: type, values: tuple[float, ...]) -> Frozen:
    """cls(values), for values known to pass the check of cls, unchecked."""
    made = object.__new__(cls)
    _set(made, "values", values)
    return made


class AxiomReport(Frozen):
    # three bools, then estimated_degree: float | None and max_violation: float
    __slots__ = ("relabel_ok", "motion_ok", "homogeneity_ok", "estimated_degree", "max_violation")


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

    The shifts are evaluated in order, up to the first whose value is not
    finite or whose evaluation raises, which decides the error.
    """
    whole = fg.all_shifts is not None and isinstance(x, Polygon)
    if whole and isinstance(fg, LengthCenterFunction):
        vertex_coordinates(x)  # the extent check of distance_matrix
    elif isinstance(fg, LengthCenterFunction) and isinstance(x, Polygon):
        x = distance_matrix(x)
    _check_domain(fg, x)
    if whole:
        return _all_finite(fg, tuple(fg.all_shifts(x)))
    shifts = map(x.shifted, range(x.n)) if isinstance(fg, VertexCenterFunction) else x.rotations()
    values = ()
    # runs of finite values and of others; groupby reads no value past the
    # first of the others, and that value raises
    for finite, run in groupby(map(fg.evaluator, shifts), math.isfinite):
        if not finite:
            _finite(fg, next(run))
        values = tuple(run)
    return values


def _projective(fg: CenterFunction, values: tuple[float, ...]) -> ProjectiveCoords:
    """values, n >= 3 of them from a coordinate map, as ProjectiveCoords:
    tested for all zeros once, here, and not by its constructor."""
    if not any(values):
        raise AllZero(f"{fg.name}: every cyclic evaluation is zero")
    return _unchecked(ProjectiveCoords, values)


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
    above 2^-1021 times the largest.

    The weights skip `BarycentricWeights`' check, two `math.fsum`s, where it
    cannot fail: at most `_TRUSTED_N` coordinates whose scaled sum is
    finite, which holds exactly when every coordinate is (each scaled one
    is at most 1 in magnitude). Elsewhere, as on a public `ProjectiveCoords`
    that holds an infinity, the check runs and raises where it fails.

    The bound. With u = 2^-53, v the n scaled coordinates, s = sum(v) and
    q_i = v_i / s exactly, M = sum |q_i|: the built-in `sum` errs by at most
    g sum |v_i|, g = (n - 1)u / (1 - (n - 1)u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 4.2; the compensated `sum` of
    Python 3.12 on, by 2u |sum v| + O(n u^2) sum |v_i|), so |sum q_i - 1|
    <= g M, and M >= 1/(1 + g). Each weight w_i rounds q_i within u |q_i|,
    or 2^-1075 below the normal range, and fsum(w) rounds sum w_i once,
    so |fsum(w) - 1| <= (g + u)(1 + u)M + u + 2n 2^-1075, and
    fsum(w) - 1.0 is exact. The check allows 1e-12 max(1, fsum|w|), and
    fsum|w| >= (1 - u)^2 M - n 2^-1075. Both sides scale with M, and the
    error stays under half the allowance while 2(g + 2u) <= 1e-12, up to
    n = 4,500 or so; `_TRUSTED_N` is below that."""
    values = coords.values
    largest = max(map(abs, values))
    t = unit_factor(largest)
    scaled = [t * v for v in values]
    total = sum(scaled)
    if abs(total) <= ZERO_SUM_REL * (t * largest):
        raise ZeroSum(f"coordinate sum {total / t:.3e} is negligible at scale {largest:.3e}")
    weights = tuple([v / total for v in scaled])
    if len(weights) > _TRUSTED_N or not math.isfinite(total):
        return BarycentricWeights(weights)
    return _unchecked(BarycentricWeights, weights)


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


class AxiomTrial(Frozen):
    """One sampled input (a polygon, or its distance matrix for length
    functions) and fg's values on it, its reversal, a moved copy and its
    rescalings by `_SCALES`. The input may be given as the coordinate
    triple (xs, ys, t) of `_trial_inputs`; it is then built by `_build`
    when it is first read: as its lazily measured matrix (`_matrix`), or,
    where `_trials` sets `_polygon` for a vertex function, its polygon.

    `proven_degree` is None, or the degree k that `_trials` proved for a
    trial whose base is not zero and whose rescalings it took as the exact
    `ldexp(base, k*s)`. It is not a field: ==, hash, repr and pickle
    ignore it, and a copy drops it."""

    __slots__ = ("_input", "_build", "base", "reversed", "moved", "scaled", "proven_degree")
    _fields = ("input", "base", "reversed", "moved", "scaled")

    def __init__(self, input: Union[Polygon, DistanceMatrix, tuple], base: float,
                 reversed: float, moved: float, scaled: tuple[float, ...]) -> None:
        _set(self, "_input", input)
        _set(self, "_build", _matrix)
        _set(self, "base", base)
        _set(self, "reversed", reversed)
        _set(self, "moved", moved)
        _set(self, "scaled", scaled)
        _set(self, "proven_degree", None)

    @property
    def input(self) -> Union[Polygon, DistanceMatrix]:
        if self._input.__class__ is tuple:
            _set(self, "_input", self._build(self._input))
        return self._input

    def slope_fit(self) -> Optional[tuple[float, float]]:
        """The log-log fit of the rescaled values (`_slope_fit`), taken
        whether or not the trial carries a `proven_degree`."""
        return _slope_fit(self.scaled)


def _slope_fit(scaled: tuple[float, ...]) -> Optional[tuple[float, float]]:
    """Least-squares slope of log|value| against log t of the values at
    `_SCALES`, plus the max fit deviation: the one log fit. None when the
    function vanishes at some scale (0 = t**k * 0 holds for every k);
    (nan, inf) when its sign changes."""
    if 0.0 in scaled:
        return None
    if len({v > 0.0 for v in scaled}) != 1:
        return math.nan, math.inf
    ya, yb, yc, yd = ys = list(map(math.log, map(abs, scaled)))
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

    Each trial's inputs are drawn (`_trial_inputs`) from Random(seed) as it
    is read, then evaluated (`_trials`). A trial reads fg on the sample, its
    reversal, a moved copy and the rescalings by 1/2, 2 and 4 (by 1 it is
    the sample, as a center function gives equal values on equal inputs):
    6 evaluations, or as few as 2 when fg's `static_facts` imply the others,
    a guard-free expression's or a vertex function's, whose guard then runs
    on the sample and the moved copy only.
    """
    vertex = isinstance(fg, VertexCenterFunction)
    yield from _trials(fg, _trial_inputs(sampler, random.Random(seed), vertex), trials)


def _trial_inputs(
    sampler: Callable[[random.Random], Polygon], rng: random.Random, vertex: bool
) -> Iterator[tuple]:
    """The inputs of one trial after another, drawn from rng as each is
    read: a sample, its reversal, a moved copy and its rescalings by
    `_RESCALES`. They are the same for every function, so they hold no
    value and no matrix whose `d` a reader could fill.

    Each is a triple (xs, ys, t), the points (xs[i], ys[i]) times t: the
    sample's coordinates (the reversal's permuted by sigma, a rescaling's
    with its t) or the moved ones, with t = 1 but for the rescalings. A
    vertex function reads the polygon a triple stands for (`_polygon`),
    built only when it is evaluated, and a length function its distance
    matrix. They are checked as those inputs would be, in this order: a
    moved coordinate that overflows (`apply_motion`'s NonFinite), then, for
    polygons, a rescaled coordinate that overflows (`Polygon._checked`'s
    NonFinite), and for matrices the sample's extent, the moved copy's and
    each rescaling (`_check_scale`'s ValueError); the reversal's cannot fail.
    """
    picks: dict[int, itemgetter] = {}  # n -> the reversal by sigma of n items
    while True:
        p = sampler(rng)
        motion = random_rigid_motion(rng)
        pick = picks.get(p.n) or picks.setdefault(
            p.n, itemgetter(*DihedralElement.sigma(p.n).permutation()))
        moved = apply_motion(motion, p)
        xs, ys = p.xs, p.ys
        if not vertex:
            diagonal = _extent(xs, ys)
            _extent(moved.xs, moved.ys)
            for t in _RESCALES:
                _check_scale(xs, ys, t, diagonal)
        elif not math.isfinite(max(_RESCALES) * largest_coordinate(xs, ys)):
            for t in _RESCALES:
                Polygon._checked([t * x for x in xs], [t * y for y in ys])
        yield ((xs, ys, 1.0), (pick(xs), pick(ys), 1.0), (moved.xs, moved.ys, 1.0),
               *[(xs, ys, t) for t in _RESCALES])


def _polygon(c: tuple) -> Polygon:
    """The polygon of a coordinate triple (xs, ys, t) of `_trial_inputs`,
    which checked its coordinates."""
    xs, ys, t = c
    if t == 1.0:
        return Polygon._of(xs, ys)
    return Polygon._of(tuple([t * x for x in xs]), tuple([t * y for y in ys]))


def _matrix(c: tuple) -> DistanceMatrix:
    """The distance matrix of a coordinate triple of `_trial_inputs`, whose
    entries are measured as they are read (`MeasuredRows`)."""
    return DistanceMatrix._of(MeasuredRows(*c))


def _facts(fg: CenterFunction, n: int) -> tuple:
    """(symmetric, degrees, sample, evaluate) of fg on n-gons, on the
    coordinate triples of `_trial_inputs`, then the least and the greatest
    exponent by which a rescaling shifts an intermediate value. `evaluate`
    is fg.evaluate on a triple's polygon, or on its lazily measured matrix
    (`MeasuredRows`), and `sample(c)` is (evaluate(c), lo, hi).

    A guard-free length function's `static_facts(n)` give all four, with its
    coordinate programs for fg.evaluate; a guarded one's are not read, as
    those programs skip the guard. A vertex function's give (symmetric,
    degrees, bounds): it is still evaluated by fg.evaluate, and (lo, hi) is
    `bounds(xs, ys)`. Without facts: (False, None), with lo = hi = 0."""
    vertex = isinstance(fg, VertexCenterFunction)
    if vertex:
        evaluate = lambda c: fg.evaluate(_polygon(c))  # noqa: E731
    else:
        evaluate = lambda c: fg.evaluate(DistanceMatrix._of(MeasuredRows(*c)))  # noqa: E731
    facts = fg.static_facts and (vertex or not fg.domain_guard) and fg.static_facts(n)
    if not facts:
        symmetric, degrees, sample = False, None, lambda c: (evaluate(c), 0.0, 0.0)
    elif vertex:
        symmetric, degrees, bounds = facts
        sample = lambda c: (evaluate(c), *bounds(c[0], c[1]))  # noqa: E731
    else:
        symmetric, degrees, sample, evaluate = facts
    shifts = [0] + [j * s for j in (degrees or ())[1:] for s in _RESCALE_EXPONENTS]
    return symmetric, degrees, sample, evaluate, min(shifts), max(shifts)


def _trials(fg: CenterFunction, inputs: Iterator[tuple], trials: int) -> Iterator[AxiomTrial]:
    """fg's trials on the first `trials` of `inputs` (`_trial_inputs`),
    each evaluated before the next is read, by the functions of `_facts`: a
    guard-free expression's coordinate programs measure only the distances
    they read, and no matrix is built for them. A trial's `input`, the
    sample as a `Polygon` or a `DistanceMatrix`, is built when it is read,
    so the matrix whose `d` a reader may fill is the trial's own, and a
    vertex trial builds no polygon but those it evaluates.

    The reversal is evaluated unless fg is symmetric: an expression's tree
    at every scale, a vertex function only where the rescalings are exact,
    as its facts hold there alone (`catalog`)."""
    if trials < 1:
        raise ValueError(f"axiom checks need at least 1 trial, got {trials}")
    vertex = isinstance(fg, VertexCenterFunction)
    known: dict[int, tuple] = {}  # n -> the facts of `_facts`
    for sample, reversal, moved, *rescaled in islice(inputs, trials):
        n = len(sample[0])
        symmetric, degrees, probe, evaluate, least, greatest = known.get(n) or known.setdefault(
            n, _facts(fg, n))
        base, lo, hi = probe(sample)
        exact = degrees and math.isfinite(hi) and (
            math.frexp(hi)[1] + greatest <= 1023 and math.frexp(lo)[1] + least > -1021)
        rev = base if symmetric and (exact or not vertex) else evaluate(reversal)
        mv = evaluate(moved)
        half, double, quadruple = (
            [math.ldexp(base, degrees[0] * s) for s in _RESCALE_EXPONENTS] if exact
            else map(evaluate, rescaled))
        trial = AxiomTrial(sample, base, rev, mv, (half, base, double, quadruple))
        if vertex:
            _set(trial, "_build", _polygon)
        if exact and base:
            _set(trial, "proven_degree", degrees[0])
        yield trial


def _verdict(trial: AxiomTrial, proven: bool = False) -> tuple:
    """(relabel gap, motion gap, slope fit, and whether each holds) of one
    trial, the one place a trial meets a tolerance. A gap is relative to the
    larger value or 1; a fit holds where the function vanishes at some scale
    (`slope_fit` is None) or deviates by at most SLOPE_TOL.

    With `proven`, a trial that carries a `proven_degree` k fits as (k, 0.0)
    and takes no log: its four values are exactly base * t**k, whose fit
    deviates by rounding alone, some 1e-13 against SLOPE_TOL = 1e-6."""
    base, rev, moved = trial.base, trial.reversed, trial.moved
    relabel = abs(base - rev) / max(abs(base), abs(rev), 1.0)
    motion = abs(base - moved) / max(abs(base), abs(moved), 1.0)
    degree = trial.proven_degree if proven else None
    fit = trial.slope_fit() if degree is None else (degree, 0.0)
    return (relabel, motion, fit, relabel <= CHECK_TOL, motion <= CHECK_TOL,
            fit is None or fit[1] <= SLOPE_TOL)


def verify_axioms(
    fg: CenterFunction,
    sampler: Callable[[random.Random], Polygon],
    trials: int = 100,
    seed: int = 0,
) -> AxiomReport:
    """Check the defining properties on sampled inputs.

    Per trial (`axiom_trials`), decided by `_verdict`: one reversal-relabeling
    comparison, one random rigid motion comparison, and evaluations at four
    coordinate scales whose log-log slope estimates the homogeneity degree.
    Homogeneity passes when every trial's fit holds and every slope sits
    within SLOPE_TOL of the cross-trial mean, the degree (`_admitted` asks
    for a natural number). Trials where the function vanishes contribute
    nothing to the slope; one where it changes sign fits no power and makes
    max_violation infinite.
    """
    worst = 0.0
    relabel_ok = motion_ok = fits_ok = True
    fits: list[tuple[float, float]] = []
    for trial in axiom_trials(fg, sampler, trials, seed):
        relabel, motion, fit, relabel_holds, motion_holds, fit_holds = _verdict(trial)
        worst = max(worst, relabel, motion)
        relabel_ok = relabel_ok and relabel_holds
        motion_ok = motion_ok and motion_holds
        fits_ok = fits_ok and fit_holds
        if fit is not None:
            fits.append(fit)
    # a function that vanished on every sample reveals no degree
    homogeneity_ok = True
    degree: Optional[float] = None
    if fits:
        # a sign change left a nan slope and an infinite fit deviation
        finite = [s for s, _ in fits if math.isfinite(s)]
        mean = sum(finite) / len(finite) if finite else math.nan
        offsets = [abs(s - mean) for s in finite]  # every slope is finite where the fits hold
        homogeneity_ok = fits_ok and max(offsets) <= SLOPE_TOL
        if homogeneity_ok:
            degree = mean
        else:
            worst = max(worst, *offsets, *[dev for _, dev in fits])
    return AxiomReport(relabel_ok, motion_ok, homogeneity_ok, degree, worst)


def _admitted(fg: LengthCenterFunction, trials: Iterator[AxiomTrial]) -> LengthCenterFunction:
    """fg, once every trial holds (`_verdict`) and all slopes agree with one
    natural-number degree; else the AxiomViolation of the first trial that
    fails, raised before the next is read, or of the degree. Only a
    violation builds its message and its witness.

    A trial with a `proven_degree` k counts k as its slope, unfitted, and
    its four values are kept. Only when the degree rule raises are they
    fitted, so that the message's mean and the `slopes` witness are those
    of `verify_axioms`' fits, bit for bit."""
    slopes: list[float] = []
    proven: list[tuple[int, tuple[float, ...]]] = []  # (index in slopes, values) of each k
    for trial in trials:
        _, _, fit, relabel_holds, motion_holds, fit_holds = _verdict(trial, True)
        if not relabel_holds:
            raise AxiomViolation("relabel-invariance", f"{fg.name!r} distinguishes a matrix from "
                                 f"its reversal ({trial.base!r} vs {trial.reversed!r})",
                                 {"matrix": trial.input, "value": trial.base,
                                  "reversed_value": trial.reversed})
        if not motion_holds:
            raise AxiomViolation("motion-invariance", f"{fg.name!r} changes under a rigid motion "
                                 f"({trial.base!r} vs {trial.moved!r})",
                                 {"matrix": trial.input, "value": trial.base,
                                  "moved_value": trial.moved})
        if not fit_holds:
            # a sign change across scales fits with infinite deviation
            why = ("changes sign under rescaling" if math.isinf(fit[1])
                   else f"does not scale as a single power (fit deviation {fit[1]:.3e})")
            raise AxiomViolation("homogeneity", f"{fg.name!r} {why}",
                                 {"matrix": trial.input, "values": trial.scaled})
        if fit is not None:
            if trial.proven_degree is not None:
                proven.append((len(slopes), trial.scaled))
            slopes.append(fit[0])
    if slopes:
        mean = sum(slopes) / len(slopes)
        degree = round(mean)
        if degree < 0 or max(abs(s - degree) for s in slopes) > SLOPE_TOL:
            for i, scaled in proven:
                slopes[i] = _slope_fit(scaled)[0]
            mean = sum(slopes) / len(slopes)
            raise AxiomViolation("homogeneity", f"{fg.name!r} has degree {mean:.6f}, not a "
                                 "natural number", {"slopes": tuple(slopes)})
    return fg
