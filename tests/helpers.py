"""Operations that only the tests use: the dihedral identity and inverse,
projective equality, and matrix entries by cyclic index."""

from __future__ import annotations

from typing import Sequence

from polycenter.framework import CHECK_TOL, ProjectiveCoords
from polycenter.geometry import DihedralElement, DistanceMatrix


def identity(n: int) -> DihedralElement:
    return DihedralElement(n, 0, False)


def inverse(g: DihedralElement) -> DihedralElement:
    if g.flip:
        return g
    return DihedralElement(g.n, -g.exponent_a, False)


def proportional_to(a: ProjectiveCoords, b: ProjectiveCoords, tol: float = CHECK_TOL) -> bool:
    """Projective equality: normalize each by its largest-magnitude entry
    and compare in the max norm."""
    if a.n != b.n:
        return False
    x = _normalize_by_largest(a.values)
    y = _normalize_by_largest(b.values)
    return max(abs(u - v) for u, v in zip(x, y)) <= tol


def _normalize_by_largest(values: Sequence[float]) -> tuple[float, ...]:
    pivot = max(values, key=abs)
    return tuple(v / pivot for v in values)


def entry(D: DistanceMatrix, i: int, j: int) -> float:
    """Distance by cyclic 0-based indices."""
    return D.d[i % D.n][j % D.n]
