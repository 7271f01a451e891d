"""Command-line interface.

Subcommands: center, coords, check-axioms, characterize, reconstruct,
plot. Exit codes are stable and documented in the README:

* 0 — success
* 2 — input or parse error (files, schema, expression syntax, flag values)
* 3 — domain violation (ties, collinearity, infeasible distances, ...)
* 4 — all-zero coordinates; for `center`, also zero-sum ones (a point at infinity)
* 5 — iteration budget exhausted without convergence

All numeric output is rounded to ``--precision`` significant digits
(default 12) before printing, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from typing import Callable, Optional

from .catalog import CATALOG, CatalogEntry, marked_vertex
from .characterization import COINCIDENCE_TOL, characterize
from .documents import (
    PolygonDocument,
    document_to_data,
    read_document,
    write_document,
)
from .dsl import center_function, parse
from .errors import (
    AxiomViolation,
    CoordinateMapError,
    DocumentError,
    DomainViolation,
    EvalError,
    ExprSyntaxError,
    NoConvergence,
    PolycenterError,
)
from .framework import coordinate_map, normalize, verify_axioms
from .geometry import Polygon
from .optim import chebyshev_center, geometric_median
from .reconstruction import reconstruct
from .sampling import random_convex_polygon, random_polygon
from .svg import CenterRecord, emit_svg

_SOLVER_NAMES = ("median", "chebyshev")


class _UsageError(Exception):
    """Bad flag combination or unknown name; maps to exit code 2."""


# ------------------------------------------------------------------ output


def _rounded(value: object, prec: int) -> object:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return None  # JSON has no inf or nan
        out = float(f"{value:.{prec}g}")
        if math.isinf(out):
            return value  # rounding up would leave the float range
        return 0.0 if out == 0.0 else out
    if isinstance(value, (list, tuple)):
        return [_rounded(v, prec) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v, prec) for k, v in value.items()}
    return value


def _emit(data: object, prec: int) -> None:
    print(json.dumps(_rounded(data, prec), indent=2, allow_nan=False))


def _record_data(rec: CenterRecord) -> dict:
    data: dict = {"name": rec.name}
    if rec.projective is not None:
        data["projective"] = list(rec.projective.values)
    if rec.weights is not None:
        data["weights"] = list(rec.weights.values)
    if rec.point is not None:
        data["point"] = [rec.point.x, rec.point.y]
    for key, value in rec.extra:
        data[key] = value
    return data


# ------------------------------------------------------------ computation


def _known_names() -> str:
    return ", ".join(list(CATALOG) + list(_SOLVER_NAMES))


def _catalog_entry(name: Optional[str]) -> CatalogEntry:
    entry = CATALOG.get(name or "")
    if entry is None:
        raise _UsageError(f"unknown center {name!r} (choose from {_known_names()})")
    return entry


def compute_record(
    p: Polygon,
    name: Optional[str] = None,
    expr: Optional[str] = None,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> CenterRecord:
    """One CenterRecord for a catalog name, a solver name, or an expression."""
    extras: tuple[tuple[str, object], ...] = ()
    if expr is not None:
        fg = center_function(parse(expr))
    elif name == "median":
        result = geometric_median(p, tol=tol, max_iter=max_iter)
        extra: list[tuple[str, object]] = [
            ("iterations", result.iterations),
            ("residual", result.residual),
        ]
        if result.at_vertex is not None:
            extra.append(("at_vertex", result.at_vertex + 1))
        return CenterRecord(name="median", point=result.point, extra=tuple(extra))
    elif name == "chebyshev":
        circle = chebyshev_center(p)
        return CenterRecord(
            name="chebyshev",
            point=circle.center,
            extra=(
                ("radius", circle.radius),
                ("support", [k + 1 for k in circle.support]),
            ),
        )
    else:
        fg = _catalog_entry(name).function
    coords = coordinate_map(fg, p)
    if expr is None and name == "medoid":
        extras = (("vertex", marked_vertex(coords.values) + 1),)  # raises Tie before any output
    weights = normalize(coords)
    return CenterRecord(
        name=fg.name,
        projective=coords,
        weights=weights,
        point=weights.combine(p),
        extra=extras,
    )


# ------------------------------------------------------------------ handlers


def _cmd_center(args: argparse.Namespace) -> int:
    p = read_document(args.file).polygon()
    rec = compute_record(
        p,
        name=args.name,
        expr=args.expr,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    _emit(_record_data(rec), args.precision)
    return 0


def _cmd_coords(args: argparse.Namespace) -> int:
    if args.name in _SOLVER_NAMES:
        raise _UsageError(f"{args.name} has no coordinate map; use `center`")
    p = read_document(args.file).polygon()
    fg = (center_function(parse(args.expr)) if args.expr is not None
          else _catalog_entry(args.name).function)
    _emit(list(coordinate_map(fg, p).values), args.precision)
    return 0


def _cmd_check_axioms(args: argparse.Namespace) -> int:
    make = random_polygon
    if args.expr is not None:
        fg = center_function(parse(args.expr))
    else:
        if args.name in _SOLVER_NAMES:
            raise _UsageError(
                f"{args.name} is a solver, not a center function; "
                "axiom checks apply to catalog names and expressions"
            )
        entry = _catalog_entry(args.name)
        fg = entry.function
        if entry.convex_only:
            make = random_convex_polygon
    sampler = lambda rng: make(rng, args.n)  # noqa: E731

    report = verify_axioms(fg, sampler, trials=args.trials, seed=args.seed)
    fields = {f: getattr(report, f) for f in report._fields}  # in field order
    _emit({"name": fg.name, "n": args.n, "trials": args.trials, **fields}, args.precision)
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    p = read_document(args.file).polygon()
    report = characterize(p, tol=args.tol)
    _emit(asdict(report), args.precision)
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    doc = read_document(args.file)
    if doc.distances is None:
        raise _UsageError("reconstruct needs a document with a distances block")
    result = reconstruct(doc.distances)
    out = PolygonDocument(doc.name, result.polygon, None)
    if args.output:
        write_document(out, args.output)
    else:
        _emit(document_to_data(out), args.precision)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    p = read_document(args.file).polygon()
    names = [s.strip() for s in args.centers.split(",") if s.strip()]
    for nm in names:
        if nm not in _SOLVER_NAMES:
            _catalog_entry(nm)  # raises for an unknown name before anything is drawn
    records = []
    for nm in names:
        try:
            records.append(compute_record(p, name=nm))
        except PolycenterError as exc:
            records.append(
                CenterRecord(name=nm, error=str(exc), error_type=type(exc).__name__)
            )
    emit_svg(p, records, args.output)
    return 0


# --------------------------------------------------------------- entrypoint


def _int_in(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """An argparse type: an integer from low to high."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bounds = f"at least {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    convert.__name__ = "int"  # argparse reports "invalid int value: ..."
    return convert


def _tolerance(text: str) -> float:
    """An argparse type: a finite float of at least 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


_tolerance.__name__ = "float"  # argparse reports "invalid float value: ..."


def _add_selection(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--name", help="catalog center name")
    group.add_argument("--expr", help="length expression (grammar in README)")


def _add_precision(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--precision",
        type=_int_in(0, 100),
        default=12,
        help="significant digits in numeric output, 0-100 (default 12)",
    )


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the polycenter command line."""
    parser = argparse.ArgumentParser(
        prog="polycenter",
        description="Polygon centers: coordinate maps, axiom checks, "
        "shape characterization, and distance-matrix reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("center", help="compute one center of a polygon")
    sp.add_argument("file", help="polygon document (JSON)")
    _add_selection(sp)
    _add_precision(sp)
    sp.add_argument(
        "--tol", type=_tolerance, default=1e-12,
        help="median residual bound, relative to the polygon's size, at least 0",
    )
    sp.add_argument(
        "--max-iter", dest="max_iter", type=_int_in(1), default=10000,
        help="median iteration budget, at least 1",
    )
    sp.set_defaults(handler=_cmd_center)

    sp = sub.add_parser("coords", help="projective coordinates only")
    sp.add_argument("file", help="polygon document (JSON)")
    _add_selection(sp)
    _add_precision(sp)
    sp.set_defaults(handler=_cmd_coords)

    sp = sub.add_parser(
        "check-axioms", help="verify the defining properties on random inputs"
    )
    _add_selection(sp)
    # random_polygon keeps about 2% of 128-gon draws and e^-16 of 256-gon
    # draws, so a larger --n would not return
    sp.add_argument(
        "--n", type=_int_in(3, 128), default=5, help="polygon size, 3-128 (default 5)"
    )
    sp.add_argument(
        "--trials", type=_int_in(1), default=100, help="sample count, at least 1"
    )
    sp.add_argument("--seed", type=int, default=0, help="sampling seed")
    _add_precision(sp)
    sp.set_defaults(handler=_cmd_check_axioms)

    sp = sub.add_parser("characterize", help="shape predicates and coincidences")
    sp.add_argument("file", help="polygon document (JSON)")
    sp.add_argument(
        "--tol", type=_tolerance, default=COINCIDENCE_TOL,
        help="coincidence spread tolerance, at least 0",
    )
    _add_precision(sp)
    sp.set_defaults(handler=_cmd_characterize)

    sp = sub.add_parser("reconstruct", help="embed a distance matrix in the plane")
    sp.add_argument("file", help="document with a distances block")
    sp.add_argument("-o", "--output", help="write a vertices document here")
    _add_precision(sp)
    sp.set_defaults(handler=_cmd_reconstruct)

    sp = sub.add_parser("plot", help="render the polygon and centers as SVG")
    sp.add_argument("file", help="polygon document (JSON)")
    sp.add_argument(
        "--centers", default="",
        help="comma-separated center names (empty: outline only)",
    )
    sp.add_argument("-o", "--output", required=True, help="SVG output path")
    sp.set_defaults(handler=_cmd_plot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that every `main` call in this process reuses."""
    return build_parser()


_EXIT_RULES: tuple[tuple[type, int], ...] = (
    (DocumentError, 2),
    (ExprSyntaxError, 2),
    (NoConvergence, 5),
    (CoordinateMapError, 4),
    (DomainViolation, 3),
    (EvalError, 3),
    (AxiomViolation, 3),
)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"polycenter: {exc}", file=sys.stderr)
        return 2
    except PolycenterError as exc:
        print(f"polycenter: {type(exc).__name__}: {exc}", file=sys.stderr)
        for klass, code in _EXIT_RULES:
            if isinstance(exc, klass):
                return code
        return 1


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
