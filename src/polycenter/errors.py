"""Exception hierarchy shared across the package.

Grouped by how the command-line front end maps them to exit codes:
document/parse problems (exit 2), domain violations (exit 3), undefined
coordinate maps (exit 4), and numeric non-convergence (exit 5).
"""

from __future__ import annotations


class PolycenterError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- input/parse


class DocumentError(PolycenterError):
    """A polygon document is malformed. Carries a path into the structure."""

    def __init__(self, message: str, path: str = "") -> None:
        self.path = path
        super().__init__(message)


class ExprSyntaxError(PolycenterError):
    """An expression failed to parse. Carries the character position."""

    def __init__(self, message: str, position: int) -> None:
        self.position = position
        super().__init__(f"{message} (at position {position})")


class ExprIndexError(ExprSyntaxError):
    """A distance term names an invalid index pair, e.g. d(i,i)."""


# ------------------------------------------------------------------- domain


class DomainViolation(PolycenterError):
    """An input lies outside the domain a function was declared on."""


class Tie(DomainViolation):
    """Two or more vertices tie for the minimum distance sum."""


class ZeroArea(DomainViolation):
    """Signed area vanished where a nonzero area was required."""


class DegenerateVertex(DomainViolation):
    """A vertex coincides with one of its neighbours."""


class ParityMismatch(DomainViolation):
    """An operation requiring odd (or even) vertex count got the other parity."""


class InfeasibleDistances(DomainViolation):
    """No planar vertex placement realizes the given distance matrix."""


class NonFinite(DomainViolation, ValueError):
    """A coordinate or distance is infinite or NaN, or overflows when measured."""


class EvalError(PolycenterError):
    """Expression evaluation hit a guarded operation (division by zero,
    square root of a negative, fractional power of a negative base)."""


class AxiomViolation(PolycenterError):
    """A candidate center function failed an admission check.

    `prop` names the violated property; `witness` carries the offending
    input together with the two evaluations that should have agreed.
    """

    def __init__(self, prop: str, message: str, witness: object = None) -> None:
        self.prop = prop
        self.witness = witness
        super().__init__(f"{prop}: {message}")


# ------------------------------------------------- coordinate map undefined


class CoordinateMapError(PolycenterError):
    """The projective coordinate vector of a center function is unusable."""


class AllZero(CoordinateMapError):
    """Every cyclic evaluation of the center function is zero."""


class ZeroSum(CoordinateMapError):
    """Coordinates sum to (numerically) zero; no affine weights exist."""


# ---------------------------------------------------------------- numerics


class NoConvergence(PolycenterError):
    """An iteration exhausted its budget. `best` holds the last iterate."""

    def __init__(self, message: str, best: object = None) -> None:
        self.best = best
        super().__init__(message)
