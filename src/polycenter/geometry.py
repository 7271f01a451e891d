"""Planar primitives: points, polygons, motions, relabelings, distances.

Conventions used throughout the package:

* vertices are numbered 1..n in prose and command-line output, 0..n-1 in code;
* a `Polygon` is its vertex coordinates `xs` and `ys`, tuples of finite
  floats, checked where they enter (`Polygon._checked`); kernels compute on
  them, and a `Point2` is built only for a point that leaves the library,
  such as the `Polygon.vertices` built on first read;
* the cyclic successor map is rho(i) = i+1 (mod n), the reversal fixing
  vertex 1 is sigma(i) = 2+n-i (mod n), both with representatives in 1..n;
* signed area is positive for counterclockwise vertex order;
* `distance_matrix` measures all pairwise distances of a polygon, and
  `chords` one cyclic diagonal (the sides at skip 1) with the same bits;
* a `DistanceMatrix` is the pair (rows, k) that `rows_and_offset` returns,
  entry (i, j) being rows[i + k][j + k], and `d`, its tuple of row tuples,
  is built from that pair on first read; a rotation shares the rows `d` of
  the matrix it rotates, and its k is negative, so Python's index wraps
  both i + k and j + k;
* `MeasuredRows` are the rows of the distance matrix of a list of points
  times a factor, which measure an entry when it is read, or all of them
  at once for `d`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import FrozenInstanceError
from functools import cache
from itertools import chain, combinations, repeat, starmap
from operator import attrgetter, gt, itemgetter, sub
from typing import ClassVar, Iterator

from .errors import DomainViolation, NonFinite


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise NonFinite(f"{what} must be finite, got {value!r}")


# What a value type's constructor sets its fields with, past `Frozen.__setattr__`.
_set = object.__setattr__


def _constructor(cls: type) -> object:
    """The `__init__` that `Frozen` gives cls, compiled once."""
    params = ", ".join([f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in cls._fields])
    body = [f"_set(self, {f!r}, {f})" for f in cls._fields]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    namespace = {"_set": _set, "_defaults": cls._defaults}
    exec(f"def __init__(self, {params}):\n    " + "\n    ".join(body), namespace)
    namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return namespace["__init__"]


class Frozen:
    """Base of the value types: slotted classes whose fields, `_fields`, are
    their base's and then their own slots unless named (other slots hold values
    derived from them). ==, hash, repr, copy and pickle read the fields as a
    frozen dataclass does, == and hash all but the `_uncompared`. Setting or
    deleting an attribute raises FrozenInstanceError. A subclass that defines
    no `__init__`, and whose `__new__` is object's, gets an `__init__`
    (`_constructor`) that takes the fields in order or by keyword, with
    defaults from `_defaults`, sets them with `_set`, then calls
    `self.__post_init__()`, where the class has one, to check them or set
    the derived slots."""

    __slots__ = ()
    _fields: ClassVar[tuple[str, ...]] = ()
    _uncompared: ClassVar[tuple[str, ...]] = ()
    _defaults: ClassVar[dict[str, object]] = {}

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = cls._fields + cls.__dict__.get("__slots__", ())
        cls.__match_args__ = cls._fields
        compared = [f for f in cls._fields if f not in cls._uncompared]
        get = attrgetter(*compared)
        cls._key = staticmethod(get if len(compared) > 1 else lambda v: (get(v),))
        if "__init__" not in cls.__dict__ and cls.__new__ is object.__new__:
            cls.__init__ = _constructor(cls)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, f) for f in self._fields])


class Point2(Frozen):
    """A point (or displacement) in the plane."""

    __slots__ = ("x", "y")

    def __post_init__(self) -> None:
        _require_finite(self.x, "x")
        _require_finite(self.y, "y")

    def scaled(self, t: float) -> "Point2":
        return Point2(t * self.x, t * self.y)

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


class Polygon(Frozen):
    """An ordered tuple of at least three vertices, indices taken cyclically.

    Its data are `xs` and `ys`, the vertex coordinates: tuples of finite
    floats, read from the checked `Point2`s given to `Polygon(vertices)` or,
    on every other path, checked where they enter (`_checked`). `vertices`
    are built on first read and kept. Its one field is `vertices`; == and
    hash read the coordinates in its place.
    """

    __slots__ = ("xs", "ys", "_vertices")
    _fields = ("vertices",)

    def __new__(cls, vertices: Sequence[Point2]) -> "Polygon":
        vertices = tuple(vertices)
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        return cls._of(tuple([v.x for v in vertices]), tuple([v.y for v in vertices]), vertices)

    @classmethod
    def _of(cls, xs: tuple[float, ...], ys: tuple[float, ...],
            vertices: tuple[Point2, ...] | None = None) -> "Polygon":
        """The polygon with coordinates xs and ys, tuples of at least three
        finite floats that the caller has checked."""
        p = object.__new__(cls)
        _set(p, "xs", xs)
        _set(p, "ys", ys)
        _set(p, "_vertices", vertices)
        return p

    @classmethod
    def _checked(cls, xs: Sequence[float], ys: Sequence[float]) -> "Polygon":
        """`_of` once every coordinate is finite (else NonFinite names the
        first, x before y, as `Point2` does) and there are at least three."""
        if not math.isfinite(sum(xs) + sum(ys)):  # or a sum of finite ones overflows
            for x, y in zip(xs, ys):
                _require_finite(x, "x")
                _require_finite(y, "y")
        if len(xs) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        return cls._of(tuple(xs), tuple(ys))

    @staticmethod
    def from_pairs(pairs) -> "Polygon":
        pts = [(float(x), float(y)) for x, y in pairs]
        return Polygon._checked([x for x, _ in pts], [y for _, y in pts])

    @property
    def vertices(self) -> tuple[Point2, ...]:
        if self._vertices is None:
            _set(self, "_vertices", tuple(map(Point2, self.xs, self.ys)))
        return self._vertices

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.xs == other.xs and self.ys == other.ys
        return NotImplemented

    def __hash__(self) -> int:
        return hash((tuple(zip(self.xs, self.ys)),))  # that of (vertices,)

    def __reduce__(self):
        return self.__class__._of, (self.xs, self.ys)

    @property
    def n(self) -> int:
        return len(self.xs)

    def vertex(self, i: int) -> Point2:
        """Vertex by cyclic 0-based index."""
        return self.vertices[i % self.n]

    def shifted(self, k: int) -> "Polygon":
        """The same vertex cycle read starting from vertex k (0-based)."""
        k %= self.n
        xs, ys = self.xs, self.ys
        return Polygon._of(xs[k:] + xs[:k], ys[k:] + ys[:k])

    def diameter(self) -> float:
        """Largest pairwise distance, the largest entry of `distance_matrix`
        bit for bit; raises NonFinite when the extent overflows. No matrix
        is built, and from 20 vertices on only the pairs that can be the
        largest are measured (`_largest_distance`)."""
        return _largest_distance(*vertex_coordinates(self))

    def vertex_mean(self) -> Point2:
        return Point2(sum(self.xs) / self.n, sum(self.ys) / self.n)


# --------------------------------------------------------------- relabeling


class DihedralElement(Frozen):
    """An element rho^a sigma^flip of the dihedral group acting on 1..n.

    Realized as the permutation i -> rho^a(sigma^flip(i)).
    """

    __slots__ = ("n", "exponent_a", "flip")  # int, int (kept mod n), bool

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("dihedral group needs n >= 3")
        _set(self, "exponent_a", self.exponent_a % self.n)

    @staticmethod
    def rho(n: int, power: int = 1) -> "DihedralElement":
        return DihedralElement(n, power, False)

    @staticmethod
    @cache
    def sigma(n: int) -> "DihedralElement":
        return DihedralElement(n, 0, True)

    def apply(self, i: int) -> int:
        """Image of a 0-based index."""
        j = (-i) % self.n if self.flip else i
        return (j + self.exponent_a) % self.n

    def permutation(self) -> tuple[int, ...]:
        """The realized permutation as a tuple of 0-based images."""
        return tuple(self.apply(i) for i in range(self.n))


def relabel(alpha: DihedralElement, p: Polygon) -> Polygon:
    """Reindex vertices: vertex i of the result is vertex alpha(i) of the input."""
    if alpha.n != p.n:
        raise ValueError(f"relabeling acts on {alpha.n} indices, polygon has {p.n}")
    pick = itemgetter(*alpha.permutation())
    return Polygon._of(pick(p.xs), pick(p.ys))


# ------------------------------------------------------------------ motions


class RigidMotion(Frozen):
    """Rotation by `angle` about the origin followed by a translation.

    Orientation-preserving by construction; reflections are deliberately
    not representable here.
    """

    __slots__ = ("angle", "translation")  # float, Point2
    _defaults = {"translation": Point2(0.0, 0.0)}

    def apply(self, v: Point2) -> Point2:
        return Point2(*[c[0] for c in moved_coordinates(self, [v.x], [v.y])])


class Similarity(Frozen):
    """Positive scaling about the origin followed by a rigid motion."""

    __slots__ = ("scale", "motion")  # float, RigidMotion

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("similarity scale must be positive and finite")

    def apply(self, v: Point2) -> Point2:
        return self.motion.apply(v.scaled(self.scale))


def apply_motion(m: RigidMotion | Similarity, p: Polygon) -> Polygon:
    """m applied to every vertex, as `m.apply` applies it; NonFinite names
    the first coordinate that overflows, scaled before moved."""
    if isinstance(m, Similarity):
        t, m = m.scale, m.motion
        p = Polygon._checked([t * x for x in p.xs], [t * y for y in p.ys])
    return Polygon._checked(*moved_coordinates(m, p.xs, p.ys))


def moved_coordinates(m: RigidMotion, xs: Sequence[float],
                      ys: Sequence[float]) -> tuple[list[float], list[float]]:
    """The points (xs[i], ys[i]) moved by m, unchecked: a coordinate that
    overflows is infinite here, where `Polygon._checked` raises NonFinite."""
    c, s = math.cos(m.angle), math.sin(m.angle)
    tx, ty = m.translation.x, m.translation.y
    return ([c * x - s * y + tx for x, y in zip(xs, ys)],
            [s * x + c * y + ty for x, y in zip(xs, ys)])


# -------------------------------------------------------------- distances


class MeasuredRows:
    """The rows of the distance matrix of the points (xs[i], ys[i]) times t,
    each entry measured when it is read.

    Entry (i, j) is t * hypot(xs[i] - xs[j], ys[i] - ys[j]): the bits
    `distance_matrix` holds there times t, as hypot ignores sign. Row i
    read by an int is a `_MeasuredRow`, which measures entry j when it is
    read by an int; `_whole` measures them all at once. It checks nothing:
    its maker checks what `distance_matrix` checks, the extent (`_extent`),
    and then the scale (`_check_scale`), as the axiom trials do.
    """

    __slots__ = ("_xs", "_ys", "_t")

    def __init__(self, xs: Sequence[float], ys: Sequence[float], t: float = 1.0) -> None:
        self._xs, self._ys, self._t = xs, ys, t

    def __len__(self) -> int:
        return len(self._xs)

    def __getitem__(self, i: int) -> "_MeasuredRow":
        return _MeasuredRow(self, i)

    def _whole(self) -> tuple[tuple[float, ...], ...]:
        t = self._t
        return tuple([tuple([t * v for v in row]) for row in _pairwise_rows(self._xs, self._ys)])


class _MeasuredRow:
    """Row i of a `MeasuredRows` view: entry j is measured when it is read."""

    __slots__ = ("_rows", "_x", "_y")

    def __init__(self, rows: MeasuredRows, i: int) -> None:
        self._rows = rows
        self._x, self._y = rows._xs[i], rows._ys[i]

    def __getitem__(self, j: int) -> float:
        rows = self._rows
        return rows._t * math.hypot(self._x - rows._xs[j], self._y - rows._ys[j])


class DistanceMatrix(Frozen):
    """A symmetric matrix of pairwise distances with zero diagonal.
    `DistanceMatrix(d)` validates every entry; matrices measured or derived
    here skip it (`_of`).

    Its data are the pair `rows_and_offset` returns: entry (i, j) is
    rows[i + k][j + k], read from n rows of n entries. The rows are a tuple
    of row tuples or a `MeasuredRows` view, with k = 0, or, for a rotation
    (`rotated`, `rotations`), the tuple `d` of the matrix it rotates, shared
    and not copied, with -n <= k < 0: i + k and j + k then lie in [-n, n),
    and Python wraps the negative ones. `d`, the tuple of row tuples, is the
    rows themselves or is built from the pair on first read and kept. Its
    one field is `d`.
    """

    __slots__ = ("_rows", "_k", "_d")
    _fields = ("d",)

    def __new__(cls, d: Sequence[Sequence[float]]) -> "DistanceMatrix":
        matrix = cls._of(tuple(map(tuple, d)))
        matrix.__post_init__()
        return matrix

    @staticmethod
    def _of(rows: Sequence[Sequence[float]], k: int = 0) -> "DistanceMatrix":
        """The matrix whose entry (i, j) is rows[i + k][j + k], rows read from
        a valid matrix or measured here, so not revalidated. Its slots are
        set through their descriptors (`_set_rows`, `_set_k`, `_set_d`), as
        `rotations` builds one per shift."""
        matrix = _new(DistanceMatrix)
        _set_rows(matrix, rows)
        _set_k(matrix, k)
        _set_d(matrix, None)
        return matrix

    def __post_init__(self) -> None:
        d = self.d
        n = len(d)
        if n < 3:
            raise ValueError("distance matrix needs at least 3 points")
        for i, row in enumerate(d):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                _require_finite(v, f"d[{i}][{j}]")
                if v < 0.0:
                    raise ValueError(f"d[{i}][{j}] is negative")
            if row[i] != 0.0:
                raise ValueError(f"d[{i}][{i}] must be zero")
        for i in range(n):
            for j in range(i + 1, n):
                if d[i][j] != d[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")

    @property
    def d(self) -> tuple[tuple[float, ...], ...]:
        if self._d is None:
            rows, k = self._rows, self._k
            _set(self, "_d", rows._whole() if rows.__class__ is MeasuredRows
                 else tuple([row[k:] + row[:k] for row in rows[k:] + rows[:k]]) if k else rows)
        return self._d

    def __reduce__(self):
        return self.__class__._of, (self.d,)

    @staticmethod
    def from_rows(rows) -> "DistanceMatrix":
        return DistanceMatrix(tuple(tuple(float(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self._rows)

    def rotated(self, k: int) -> "DistanceMatrix":
        """Entry (i,j) of the result is entry (i+k, j+k) of the input, read
        in place: the rows of a rotation, else `d`, with the input's offset
        plus k, reduced to [-n, 0). No row is copied, of a rotation either.
        Not revalidated: a rotation of a valid matrix is still square,
        finite, nonnegative, zero on the diagonal and symmetric."""
        rows = self._rows if self._k else self.d
        n = len(rows)
        return self._of(rows, (self._k + k) % n - n)

    def rotations(self) -> Iterator["DistanceMatrix"]:
        """rotated(0), ..., rotated(n-1): this matrix, then the rows that
        `rotated` reads with offsets k0 + 1, ..., k0 + n - 1 reduced to
        [-n, 0), k0 being this matrix's offset (-n for 0): k - n on a plain
        matrix. Every rotation shares the one row tuple, so the n of them
        copy no row and cost O(n) together; an evaluator that reads a few
        entries through `rows_and_offset` costs O(1) per rotation, not
        O(n)."""
        rows = self._rows if self._k else self.d
        n = len(rows)
        k = self._k or -n
        return chain([self], map(self._of, repeat(rows), chain(range(k + 1, 0), range(-n, k))))

    def rows_and_offset(self) -> tuple[Sequence[Sequence[float]], int]:
        """(rows, k) such that entry (i, j) is rows[i + k][j + k], read in
        place; k is 0 or, for a rotation, in [-n, 0)."""
        return self._rows, self._k

    def max_entry(self) -> float:
        """The largest entry, read once per pair (the upper triangle); d[0][0],
        as a scan of every row returns, when all are zeros of either sign."""
        d = self.d
        top = max([max(d[i][i + 1:]) for i in range(len(d) - 1)])
        return top if top > 0.0 else d[0][0]


_new = object.__new__
_set_rows, _set_k, _set_d = (DistanceMatrix.__dict__[slot].__set__
                             for slot in DistanceMatrix.__slots__)


def _extent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The diagonal of the bounding box of the points (xs[i], ys[i]), which
    bounds every distance between them; NonFinite when it overflows."""
    return _box_diagonal(max(xs) - min(xs), max(ys) - min(ys))


def _box_diagonal(width: float, height: float) -> float:
    """`_extent` of points whose bounding box is width by height."""
    diagonal = math.hypot(width, height)
    _require_finite(diagonal, "polygon extent")
    return diagonal


def _check_scale(xs: Sequence[float], ys: Sequence[float], t: float, diagonal: float) -> None:
    """ValueError unless t is nonnegative and keeps every distance between
    the points (xs[i], ys[i]) finite when multiplied by it, given their
    checked extent `diagonal`. The largest distance is measured
    (`_largest_distance`) only when 2t times the diagonal, which bounds it,
    is not finite."""
    if not (t >= 0.0 and (math.isfinite(2.0 * t * diagonal)
                          or math.isfinite(t * _largest_distance(xs, ys)))):
        raise ValueError(f"scale {t!r} must be nonnegative and keep entries finite")


# `_largest_distance` prunes from this many points on; at fewer, the sort
# costs more than the pairs it skips.
_PRUNE_FROM = 20
# Below this bounding-box diagonal a subnormal rounding step could pass the
# relative margin of `_largest_distance`'s cut, so every pair is measured.
_PRUNE_FLOOR = 2.0**-1000
_CUT_MARGIN = 1.0 + 2.0**-40


def _largest_distance(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The largest distance between the points (xs[i], ys[i]): the largest of
    the n(n-1)/2 pair distances, bit for bit, with no matrix. `math.dist`
    and `math.hypot` share one norm, so each distance keeps its bits.

    From `_PRUNE_FROM` points on, and when the diagonal of the bounding box
    is finite and at least `_PRUNE_FLOOR`, pairs that cannot be the largest
    are not measured. With c the box's midpoint and r_i = dist(v_i, c),
    the points are visited in order of falling r. Point a is measured
    against the later points b for which fl((r_a + r_b)(1 + 2^-40)) >= best,
    the largest distance so far (0 at first): a prefix of them, found by
    `bisect` unless the last one passes, as on cocircular points, where no
    pair can be skipped. The visit stops at the first point with none, as
    every later pair has a smaller r_a + r_b.

    The cut. With u = 2^-53, e = 2^-1074 and |a - b| exact: a rounding is
    within a factor 1 +- u of its exact value, or within e/2 of it below the
    normal range. `math.dist` rounds each coordinate difference (exactly
    when it is subnormal) and takes a norm within 1 ulp, so a measured
    distance is D_ab <= |a - b|(1 + u)(1 + 2u) + e, and
    r_i >= |v_i - c|(1 - u)(1 - 2u) - e. c is a point of floats, so
    |a - b| <= |a - c| + |c - b| holds exactly, whatever rounding made c.
    A skipped pair has fl(fl(r_a + r_b)(1 + 2^-40)) < best, so
    (r_a + r_b)(1 - u)^2 (1 + 2^-40) < best + e, hence
    D_ab < (best + 4e)(1 + u)(1 + 2u)/((1 - u)^3 (1 - 2u)(1 + 2^-40)) + e
    < best (1 - 2^-41) + 5e, which is at most best once best >= 2^-1030.
    The first point is measured against all, and every point is at least
    half the box's width from the point on one of its sides, and half its
    height from one on the top or bottom, so then best >= diagonal / 3
    >= 2^-1002. No skipped pair measures above best, and best only grows,
    so the largest is the pair scan's.
    """
    pts = list(zip(xs, ys))
    n = len(pts)
    if n >= _PRUNE_FROM:
        lo_x, lo_y = min(xs), min(ys)
        w, h = max(xs) - lo_x, max(ys) - lo_y
        if _PRUNE_FLOOR <= math.hypot(w, h) < math.inf:
            r = list(map(math.dist, pts, repeat((lo_x + w / 2.0, lo_y + h / 2.0))))
            pts = list(map(pts.__getitem__, sorted(range(n), key=r.__getitem__, reverse=True)))
            r.sort(reverse=True)
            best = 0.0
            for i in range(n - 1):
                ra = r[i]
                end = n if (ra + r[-1]) * _CUT_MARGIN >= best else bisect_left(
                    r, True, i + 1, n, key=lambda rb: (ra + rb) * _CUT_MARGIN < best)
                if end == i + 1:
                    break
                top = max(map(math.dist, repeat(pts[i]), pts[i + 1:end]))
                if top > best:
                    best = top
            return best
    return max(starmap(math.dist, combinations(pts, 2)))


def vertex_coordinates(p: Polygon) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """p.xs and p.ys, once the diagonal of their bounding box, which bounds
    every distance, is checked (`_extent`)."""
    _extent(p.xs, p.ys)
    return p.xs, p.ys


def largest_coordinate(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The largest magnitude among the coordinates xs and ys."""
    return max(max(xs), -min(xs), max(ys), -min(ys))


def unit_factor(largest: float) -> float:
    """The power of two t that brings t * largest into [0.5, 1), or as near
    as a finite t gets for a subnormal `largest`; 1 for 0. Multiplying by t
    is exact wherever the product stays normal."""
    return math.ldexp(1.0, min(-math.frexp(largest)[1], 1023))


def unit_coordinates(p: Polygon) -> tuple[float, list[float], list[float]]:
    """t, `unit_factor` of p's largest coordinate magnitude, and p's x and y
    coordinates times t, which is exact, so that no product of two of them
    overflows at any scale of p."""
    xs, ys = p.xs, p.ys
    t = unit_factor(largest_coordinate(xs, ys))
    return t, [t * x for x in xs], [t * y for y in ys]


def distance_matrix(p: Polygon) -> DistanceMatrix:
    """All pairwise distances of p, each measured once; not revalidated, as
    the extent check (`vertex_coordinates`) rules out overflow."""
    return DistanceMatrix._of(_pairwise_rows(*vertex_coordinates(p)))


def _pairwise_rows(xs: Sequence[float], ys: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """The rows of the distance matrix of the points (xs[i], ys[i]), with no
    extent check."""
    n = len(xs)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        xi, yi, row = xs[i], ys[i], rows[i]
        for j in range(i + 1, n):
            row[j] = rows[j][i] = math.hypot(xi - xs[j], yi - ys[j])
    return tuple(map(tuple, rows))


def chords(p: Polygon, skip: int) -> list[float]:
    """Entry i: the distance from vertex i to vertex i + skip (0-based,
    cyclic), which `distance_matrix` holds at (i, i + skip): O(n)."""
    xs, ys = p.xs, p.ys
    return list(map(math.hypot, map(sub, xs, xs[skip:] + xs[:skip]),
                    map(sub, ys, ys[skip:] + ys[:skip])))


def cayley_menger_quad(
    e12: float, e23: float, e34: float, e41: float, d13: float, d24: float
) -> float:
    """Bordered (Cayley-Menger) determinant of squared lengths for four
    labeled points.

    Arguments are the four consecutive side lengths and the two diagonals of
    a labeled quadrilateral. The determinant is 288 V**2, V the volume of
    the tetrahedron with these edges, so it vanishes exactly when some
    planar placement realizes all six lengths; it scales as t**6 under
    scaling every length by t.
    """
    for name, length in (("e12", e12), ("e23", e23), ("e34", e34), ("e41", e41),
                         ("d13", d13), ("d24", d24)):
        _require_finite(length, name)
        if length < 0.0:
            raise ValueError(f"{name} is negative")
    return _cayley_menger(e12, e23, e34, e41, d13, d24)


def _cayley_menger(e12: float, e23: float, e34: float, e41: float, d13: float,
                   d24: float) -> float:
    """`cayley_menger_quad` of lengths already checked, as a valid matrix's are."""
    # eight times the Gram determinant of the edge vectors at vertex 1:
    # a, b, c their squared lengths, u, v, w twice their dot products
    a, b, c = e12 * e12, d13 * d13, e41 * e41
    u = b + c - e34 * e34
    v = a + c - d24 * d24
    w = a + b - e23 * e23
    return 2.0 * (4.0 * a * b * c - a * u * u - b * v * v - c * w * w + u * v * w)


# --------------------------------------------------------- shape predicates


def shoelace(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Twice the signed area of the outline through (xs[i], ys[i]), in order."""
    total = 0.0
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
        total += x0 * y1 - x1 * y0
    return total


# Shewchuk's static filter for orient2d (Adaptive Precision Floating-Point
# Arithmetic and Fast Robust Geometric Predicates, DCG 18, 1997): with
# u = 2^-53, the rounded determinant l - r of two rounded products has the
# exact sign once it exceeds (3 + 16u) u (|l| + |r|). The bound assumes no
# product underflows, so it is trusted only where the determinant also
# exceeds 2^-900: a product that underflows then errs by at most 2^-1075,
# far inside the u^2 (|l| + |r|) the bound keeps to spare. An overflow
# makes the determinant or the bound infinite or NaN, which fails the test.
_ORIENT_BOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_ORIENT_FLOOR = 2.0**-900


def _dyadic(x: float) -> int:
    """x times 2^1074, an integer for every finite float."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _exact_orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """The sign of (a - c) x (b - c) over the rationals the floats
    represent: 1 when a, b, c turn counterclockwise, -1 clockwise, 0 when
    they are exactly collinear."""
    ax, ay, bx, by, cx, cy = map(_dyadic, (ax, ay, bx, by, cx, cy))
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


def is_nondegenerate(p: Polygon) -> bool:
    """Whether the vertices are pairwise distinct: finite points are at
    distance zero only when equal, and -0.0 equals and hashes like 0.0."""
    return len(set(zip(p.xs, p.ys))) == p.n


def is_convex(p: Polygon) -> bool:
    """One-pass turn test (O'Rourke, Computational Geometry in C, ch. 1),
    exact on the given floats.

    Every turn v[i-2] -> v[i-1] -> v[i] must have the same nonzero sign.
    Each sign is read from the floating-point orient2d behind Shewchuk's
    static filter (`_ORIENT_BOUND`), or, where the filter cannot vouch for
    it, from exact integer arithmetic (`_exact_orient`). A turn is zero only
    when its three points are exactly collinear, so the answer does not
    change under relabeling or under an exact rescaling by a power of two.

    The edge directions must also wind around exactly once: a {5/2} star
    turns the same way at every vertex but winds twice. With every turn
    strictly one way, the x-steps xs[i] - xs[i-1] change sign twice per
    winding, and a zero step always sits between steps of opposite signs,
    so counting it as negative changes no count. The polygon winds once
    when the steps go from positive to not positive exactly once around
    the cycle. Each comparison of two floats is exact.
    """
    xs, ys = p.xs, p.ys
    sign = 0
    for ax, ay, bx, by, cx, cy in zip(xs[-2:] + xs[:-2], ys[-2:] + ys[:-2],
                                      xs[-1:] + xs[:-1], ys[-1:] + ys[:-1], xs, ys):
        left = (ax - cx) * (by - cy)
        right = (ay - cy) * (bx - cx)
        det = left - right
        # |left + right| is |left| + |right| when the two share a sign; when
        # they do not, det has the exact sign and |det| >= |left + right|
        bound = _ORIENT_BOUND * abs(left + right) + _ORIENT_FLOOR
        if det > bound:
            turn = 1
        elif -det > bound:
            turn = -1
        else:
            turn = _exact_orient(ax, ay, bx, by, cx, cy)
            if not turn:
                return False
        if turn != sign:
            if sign:
                return False
            sign = turn
    up = bytes(map(gt, xs, xs[-1:] + xs[:-1]))
    return (up + up[:1]).count(b"\x01\x00") == 1


def require_nondegenerate(p: Polygon) -> None:
    if not is_nondegenerate(p):
        raise DomainViolation("polygon has coincident vertices")
