"""Planar primitives: points, polygons, motions, relabelings, distances.

Conventions used throughout the package:

* vertices are numbered 1..n in prose and command-line output, 0..n-1 in code;
* the cyclic successor map is rho(i) = i+1 (mod n), the reversal fixing
  vertex 1 is sigma(i) = 2+n-i (mod n), both with representatives in 1..n;
* signed area is positive for counterclockwise vertex order;
* `distance_matrix` measures all pairwise distances of a polygon, and
  `chords` one cyclic diagonal (the sides at skip 1) with the same bits;
* `DistanceMatrix.rotations` yields views, not copies: each row of a
  rotation is sliced when it is read, and `rows_and_offset` reads an entry
  without slicing its row;
* `MeasuredRows` are the rows of the distance matrix of a list of points
  times a factor, as a view that measures an entry each time it is read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from operator import itemgetter, sub
from typing import Iterator

from .errors import DomainViolation, NonFinite

# Cross products smaller than this (relative to the operand magnitudes) are
# treated as zero when testing collinearity.
COLLINEAR_EPS = 1e-12


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise NonFinite(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True)
class Point2:
    """A point (or displacement) in the plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite(self.x, "x")
        _require_finite(self.y, "y")

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def scaled(self, t: float) -> "Point2":
        return Point2(t * self.x, t * self.y)

    def dot(self, other: "Point2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Polygon:
    """An ordered tuple of at least three vertices, indices taken cyclically."""

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")

    @staticmethod
    def from_pairs(pairs) -> "Polygon":
        return Polygon(tuple(Point2(float(x), float(y)) for x, y in pairs))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> Point2:
        """Vertex by cyclic 0-based index."""
        return self.vertices[i % self.n]

    def shifted(self, k: int) -> "Polygon":
        """The same vertex cycle read starting from vertex k (0-based)."""
        k %= self.n
        return Polygon(self.vertices[k:] + self.vertices[:k])

    def perimeter(self) -> float:
        return sum(chords(self, 1))

    def diameter(self) -> float:
        """Largest pairwise distance, the largest entry of `distance_matrix`;
        raises NonFinite when the extent overflows. No matrix is built."""
        return _largest_distance(*vertex_coordinates(self))

    def vertex_mean(self) -> Point2:
        sx = sum(v.x for v in self.vertices)
        sy = sum(v.y for v in self.vertices)
        return Point2(sx / self.n, sy / self.n)


# --------------------------------------------------------------- relabeling


@dataclass(frozen=True)
class DihedralElement:
    """An element rho^a sigma^flip of the dihedral group acting on 1..n.

    Realized as the permutation i -> rho^a(sigma^flip(i)).
    """

    n: int
    exponent_a: int
    flip: bool

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("dihedral group needs n >= 3")
        object.__setattr__(self, "exponent_a", self.exponent_a % self.n)

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

    def compose(self, other: "DihedralElement") -> "DihedralElement":
        """self after other: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("cannot compose elements of different groups")
        a = self.exponent_a + (-other.exponent_a if self.flip else other.exponent_a)
        return DihedralElement(self.n, a, self.flip ^ other.flip)


def relabel(alpha: DihedralElement, p: Polygon) -> Polygon:
    """Reindex vertices: vertex i of the result is vertex alpha(i) of the input."""
    if alpha.n != p.n:
        raise ValueError(f"relabeling acts on {alpha.n} indices, polygon has {p.n}")
    return Polygon(tuple(p.vertices[alpha.apply(i)] for i in range(p.n)))


# ------------------------------------------------------------------ motions


@dataclass(frozen=True)
class RigidMotion:
    """Rotation by `angle` about the origin followed by a translation.

    Orientation-preserving by construction; reflections are deliberately
    not representable here.
    """

    angle: float
    translation: Point2 = Point2(0.0, 0.0)

    def apply(self, v: Point2) -> Point2:
        return Point2(*[c[0] for c in moved_coordinates(self, [v.x], [v.y])])

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        """self after other."""
        return RigidMotion(self.angle + other.angle, self.apply(other.translation))


@dataclass(frozen=True)
class Similarity:
    """Positive scaling about the origin followed by a rigid motion."""

    scale: float
    motion: RigidMotion

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("similarity scale must be positive and finite")

    def apply(self, v: Point2) -> Point2:
        return self.motion.apply(v.scaled(self.scale))


def apply_motion(m: RigidMotion | Similarity, p: Polygon) -> Polygon:
    """m applied to every vertex, as `m.apply` applies it."""
    if isinstance(m, Similarity):
        return apply_motion(m.motion, Polygon(tuple(v.scaled(m.scale) for v in p.vertices)))
    xs, ys = moved_coordinates(m, [v.x for v in p.vertices], [v.y for v in p.vertices])
    return Polygon(tuple(map(Point2, xs, ys)))


def moved_coordinates(m: RigidMotion, xs: list[float],
                      ys: list[float]) -> tuple[list[float], list[float]]:
    """The points (xs[i], ys[i]) moved by m, unchecked: a coordinate that
    overflows is infinite here, where `Point2` raises NonFinite."""
    c, s = math.cos(m.angle), math.sin(m.angle)
    tx, ty = m.translation.x, m.translation.y
    return ([c * x - s * y + tx for x, y in zip(xs, ys)],
            [s * x + c * y + ty for x, y in zip(xs, ys)])


# -------------------------------------------------------------- distances


class _Rows(Sequence):
    """A read-only sequence that iterates, compares, hashes and prints like
    the tuple its `_whole()` builds."""

    __slots__ = ()

    def __iter__(self) -> Iterator:
        return iter(self._whole())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, _Rows)):
            return self._whole() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._whole())

    def __repr__(self) -> str:
        return repr(self._whole())


class _RotatedRows(_Rows):
    """The rows of a matrix rotated by k, each sliced when it is read.

    Row i is row i + k of the matrix rotated by k, which is the slice
    [k, k + n) of that row written twice; the doubled rows are built once
    per `rotations` call, shared by its n views and read in place by
    `rows_and_offset`. A view reads as the tuple of its rows, so it equals
    `rotated(k)`.
    """

    __slots__ = ("_doubled", "_cut")

    def __init__(self, doubled: tuple[tuple[float, ...], ...], k: int) -> None:
        self._doubled = doubled[k:] + doubled[:k]
        self._cut = slice(k, k + len(doubled))

    def __len__(self) -> int:
        return len(self._doubled)

    def __getitem__(self, i):
        if i.__class__ is int:
            return self._doubled[i][self._cut]
        return self._whole()[i]  # a slice, or another index type

    def _whole(self) -> tuple[tuple[float, ...], ...]:
        cut = self._cut
        return tuple([row[cut] for row in self._doubled])


class MeasuredRows(_Rows):
    """The rows of the distance matrix of the points (xs[i], ys[i]) times t,
    each entry measured when it is read.

    Entry (i, j) is t * hypot(xs[i] - xs[j], ys[i] - ys[j]): the bits
    `distance_matrix` holds there times t, as hypot ignores sign. Row i
    read by an int is a `_MeasuredRow`; any other read (iteration, a slice,
    ==, hash, repr, and so `max_entry`) measures the whole matrix again, as
    no view keeps one. The constructor checks what `distance_matrix` and
    `DistanceMatrix.scaled(t)` check: the extent (NonFinite), unless its
    checked `diagonal` is given, then a t that is negative or makes the
    largest entry infinite (ValueError). That entry is measured
    (`_largest_distance`) only when 2t times the diagonal, which bounds it,
    is not finite.
    """

    __slots__ = ("_xs", "_ys", "_t", "diagonal")

    def __init__(self, xs: list[float], ys: list[float], t: float = 1.0,
                 diagonal: float | None = None) -> None:
        if diagonal is None:
            diagonal = _extent(xs, ys)
        if not (t >= 0.0 and (math.isfinite(2.0 * t * diagonal)
                              or math.isfinite(t * _largest_distance(xs, ys)))):
            raise ValueError(f"scale {t!r} must be nonnegative and keep entries finite")
        self._xs, self._ys, self._t, self.diagonal = xs, ys, t, diagonal

    def __len__(self) -> int:
        return len(self._xs)

    def __getitem__(self, i):
        if i.__class__ is int:
            return _MeasuredRow(self, i)
        return self._whole()[i]

    def _whole(self) -> tuple[tuple[float, ...], ...]:
        return _scaled_rows(_pairwise_rows(self._xs, self._ys), self._t)


class _MeasuredRow(_Rows):
    """Row i of a `MeasuredRows` view: an entry read by an int is measured
    then, and any other read measures the whole row."""

    __slots__ = ("_rows", "_x", "_y")

    def __init__(self, rows: MeasuredRows, i: int) -> None:
        self._rows = rows
        self._x, self._y = rows._xs[i], rows._ys[i]

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, j):
        if j.__class__ is int:
            rows = self._rows
            return rows._t * math.hypot(self._x - rows._xs[j], self._y - rows._ys[j])
        return self._whole()[j]

    def _whole(self) -> tuple[float, ...]:
        rows, x, y = self._rows, self._x, self._y
        t = rows._t
        return tuple([t * math.hypot(x - u, y - v) for u, v in zip(rows._xs, rows._ys)])


@dataclass(frozen=True)
class DistanceMatrix:
    """A symmetric matrix of pairwise distances with zero diagonal. Construction
    validates every entry; matrices measured or derived here skip it (`_derived`).

    `d` is a tuple of row tuples, except in views: those from `rotations`
    and `MeasuredRows`, where it is a read-only sequence of rows that
    compares equal to the tuple of row tuples it reads as."""

    d: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.d)
        if n < 3:
            raise ValueError("distance matrix needs at least 3 points")
        for i, row in enumerate(self.d):
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
                if self.d[i][j] != self.d[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")

    @staticmethod
    def from_rows(rows) -> "DistanceMatrix":
        return DistanceMatrix(tuple(tuple(float(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.d)

    def rotated(self, k: int) -> "DistanceMatrix":
        """Entry (i,j) of the result is entry (i+k, j+k) of the input."""
        return self.permuted(tuple((i + k) % self.n for i in range(self.n)))

    @classmethod
    def _derived(cls, d: Sequence[tuple[float, ...]]) -> "DistanceMatrix":
        """Wrap rows derived from a valid matrix, skipping revalidation."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "d", d)
        return matrix

    def rotations(self) -> Iterator["DistanceMatrix"]:
        """rotated(0), ..., rotated(n-1) as views of this matrix.

        The rows are doubled once, O(n^2); a view then copies no row up
        front but slices each one when it is read, so an evaluator that
        reads a few entries costs O(n) per rotation, not O(n^2). A view
        equals, and hashes like, `rotated(k)`.
        They are not revalidated: a rotation of a valid matrix is still
        square, finite, nonnegative, zero on the diagonal and symmetric.
        """
        doubled = tuple(row + row for row in self.d)
        return (self._derived(_RotatedRows(doubled, k)) for k in range(self.n))

    def rows_and_offset(self) -> tuple[Sequence[Sequence[float]], int]:
        """(rows, k) such that entry (i, j) is rows[i][j + k], read in place:
        (d, 0) for a matrix or a measured view, which measures the entry
        then, and the doubled rows and k for a view of rotation k."""
        d = self.d
        if d.__class__ is _RotatedRows:
            return d._doubled, d._cut.start
        return d, 0

    def permuted(self, perm: tuple[int, ...]) -> "DistanceMatrix":
        """Entry (i,j) of the result is entry (perm[i], perm[j]) of the input;
        not revalidated, as it reads only entries of this valid matrix."""
        pick = itemgetter(*perm)
        return self._derived(tuple(map(pick, pick(self.d))))

    def max_entry(self) -> float:
        return max(map(max, self.d))

    def scaled(self, t: float) -> "DistanceMatrix":
        """Every entry times t, not revalidated; ValueError when t is negative
        or makes the largest entry infinite."""
        if not (t >= 0.0 and math.isfinite(t * self.max_entry())):
            raise ValueError(f"scale {t!r} must be nonnegative and keep entries finite")
        return self._derived(_scaled_rows(self.d, t))


def _scaled_rows(rows: Sequence[tuple[float, ...]], t: float) -> tuple[tuple[float, ...], ...]:
    """Every entry of rows times t."""
    return tuple([tuple([t * v for v in row]) for row in rows])


def _extent(xs: list[float], ys: list[float]) -> float:
    """The diagonal of the bounding box of the points (xs[i], ys[i]), which
    bounds every distance between them; NonFinite when it overflows."""
    diagonal = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    _require_finite(diagonal, "polygon extent")
    return diagonal


def _largest_distance(xs: list[float], ys: list[float]) -> float:
    """The largest distance between the points (xs[i], ys[i]), from the n(n-1)/2
    pairs with no matrix: `math.dist` and `math.hypot` share one norm, so
    each distance keeps its bits."""
    pts = list(zip(xs, ys))
    return max(max(map(math.dist, repeat(pts[i]), pts[i + 1:])) for i in range(len(pts) - 1))


def vertex_coordinates(p: Polygon) -> tuple[list[float], list[float]]:
    """The x and the y coordinates of p's vertices, in order; the diagonal of
    their bounding box, which bounds every distance, is checked (`_extent`)."""
    xs, ys = [v.x for v in p.vertices], [v.y for v in p.vertices]
    _extent(xs, ys)
    return xs, ys


def unit_factor(largest: float) -> float:
    """The power of two t that brings t * largest into [0.5, 1), or as near
    as a finite t gets for a subnormal `largest`; 1 for 0. Multiplying by t
    is exact wherever the product stays normal."""
    return math.ldexp(1.0, min(-math.frexp(largest)[1], 1023))


def unit_coordinates(p: Polygon) -> tuple[float, list[float], list[float]]:
    """t, `unit_factor` of p's largest coordinate magnitude, and p's x and y
    coordinates times t, which is exact, so that no product of two of them
    overflows at any scale of p."""
    xs, ys = [v.x for v in p.vertices], [v.y for v in p.vertices]
    t = unit_factor(max(max(xs), -min(xs), max(ys), -min(ys)))
    return t, [t * x for x in xs], [t * y for y in ys]


def distance_matrix(p: Polygon) -> DistanceMatrix:
    """All pairwise distances of p, each measured once; not revalidated, as
    the extent check (`vertex_coordinates`) rules out overflow."""
    return DistanceMatrix._derived(_pairwise_rows(*vertex_coordinates(p)))


def _pairwise_rows(xs: list[float], ys: list[float]) -> tuple[tuple[float, ...], ...]:
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
    xs, ys = [v.x for v in p.vertices], [v.y for v in p.vertices]
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
    # eight times the Gram determinant of the edge vectors at vertex 1:
    # a, b, c their squared lengths, u, v, w twice their dot products
    a, b, c = e12 * e12, d13 * d13, e41 * e41
    u = b + c - e34 * e34
    v = a + c - d24 * d24
    w = a + b - e23 * e23
    return 2.0 * (4.0 * a * b * c - a * u * u - b * v * v - c * w * w + u * v * w)


# --------------------------------------------------------- shape predicates


def shoelace(xs: list[float], ys: list[float]) -> float:
    """Twice the signed area of the outline through (xs[i], ys[i]), in order."""
    total = 0.0
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
        total += x0 * y1 - x1 * y0
    return total


def signed_area(p: Polygon) -> float:
    """Shoelace area; positive for counterclockwise vertex order."""
    return 0.5 * shoelace([v.x for v in p.vertices], [v.y for v in p.vertices])


def _orient(ux: float, uy: float, vx: float, vy: float) -> int:
    """Sign of the turn a->b->c from u = b - a and v = c - a; 0 when nearly collinear."""
    cr = ux * vy - uy * vx
    if abs(cr) <= COLLINEAR_EPS * math.hypot(ux, uy) * math.hypot(vx, vy):
        return 0
    return 1 if cr > 0.0 else -1


def is_nondegenerate(p: Polygon) -> bool:
    """Whether the vertices are pairwise distinct: finite points are at
    distance zero only when equal, and -0.0 equals and hashes like 0.0."""
    return len(set(p.vertices)) == p.n


def is_convex(p: Polygon) -> bool:
    """One-pass turn test (O'Rourke, Computational Geometry in C, ch. 1).

    Every turn v[i-2] -> v[i-1] -> v[i] must have the same nonzero sign under
    `_orient`, and the edge directions must wrap around exactly once: a
    {5/2} star turns the same way at every vertex but wraps twice. A wrap
    is an edge whose atan2 angle steps back, against the turns, past the
    branch cut from that of the edge before it.

    The coordinates are read at unit scale (`unit_coordinates`), so no
    product overflows at any scale.
    """
    _, xs, ys = unit_coordinates(p)
    # edge i runs from vertex i - 1 to vertex i
    ex = [b - a for a, b in zip(xs[-1:] + xs[:-1], xs)]
    ey = [b - a for a, b in zip(ys[-1:] + ys[:-1], ys)]
    turns = (
        _orient(ex[i - 1], ey[i - 1], xs[i] - xs[i - 2], ys[i] - ys[i - 2])
        for i in range(p.n)
    )
    sign = next(turns)
    if sign == 0 or any(turn != sign for turn in turns):
        return False
    angles = [math.atan2(dy, dx) for dx, dy in zip(ex, ey)]
    wraps = sum(sign * (angles[i] - angles[i - 1]) < 0.0 for i in range(p.n))
    return wraps == 1


def require_nondegenerate(p: Polygon) -> None:
    if not is_nondegenerate(p):
        raise DomainViolation("polygon has coincident vertices")
