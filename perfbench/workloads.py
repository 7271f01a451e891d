"""The four workloads: one pass of operations each, built from a seed.

An operation is one public call into ``polycenter``. Each carries the
outcome it must have, fixed when its input is generated: a value that an
oracle in ``oracles.py`` checks after the timed region, or an exception
class (with the violated property, for ``AxiomViolation``), or a CLI exit
code. Calls look functions up through their modules at call time, so the
traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from polycenter import (
    catalog,
    characterization,
    cli,
    dsl,
    framework,
    geometry,
    optim,
    reconstruction,
    sampling,
)

import inputs

# Expression list of expr-axioms with the admission outcome of each: None
# when admitted, else the property named by AxiomViolation.
EXPRESSIONS = {
    "d(n,1)+d(1,2)": None,
    "perim": None,
    "d(2,n)": None,
    "d(n,1)*d(1,2)": None,
    "sqrt(d(n,1)^2+d(1,2)^2)": None,
    "d(1,2)": "relabel-invariance",
    "d(n,1)+d(1,2)+d(n,1)^2+d(1,2)^2": "homogeneity",
    "d(n,1)-d(1,2)": "relabel-invariance",
    "d(1,2)-d(2,1)": None,
}
# Coordinate-map outcome where it is not a value.
MAP_ERRORS = {"d(n,1)-d(1,2)": "ZeroSum", "d(1,2)-d(2,1)": "AllZero"}
# Parsed expressions given to verify_axioms, with their homogeneity degree.
VERIFIED = {"d(n,1)+d(1,2)": 1.0, "d(n,1)*d(1,2)": 2.0}

VALUE = ("value",)


def raises(cls: str, prop: Optional[str] = None) -> tuple:
    return ("raise", cls, prop)


@dataclass
class Op:
    """One operation: `call` makes exactly the public call that is timed."""

    cls: str
    call: Callable[[], object]
    expect: tuple = VALUE
    oracle: tuple = ()
    digest: Callable[[object], object] = field(default=lambda r: r)


@dataclass
class Workload:
    ops: list[Op]
    # Center functions the workload built itself; the traced run wraps
    # their evaluators as it does the catalog's.
    functions: dict = field(default_factory=dict)


def _polygon(pts) -> geometry.Polygon:
    return geometry.Polygon.from_pairs(pts)


def _matrix(rows) -> geometry.DistanceMatrix:
    return geometry.DistanceMatrix.from_rows(rows)


def _point(p) -> tuple[float, float]:
    return (p.x, p.y)


# ------------------------------------------------------------- maps-catalog


def maps_catalog(rng: random.Random, work_dir: str) -> Workload:
    """geometric_center over the catalog; the domain guards dominate."""
    # perimeter and lamina run on a second 32-gon, so that p90 falls in the
    # middle of the perimeter block rather than next to a jump in latency.
    inputs_by_size = [
        ("tri", inputs.convex_polygon(rng, 3), tuple(catalog.CATALOG)),
        ("n8", inputs.convex_polygon(rng, 8), ("centroid", "perimeter", "lamina", "medoid")),
        ("n32", inputs.convex_polygon(rng, 32), ("centroid", "perimeter", "lamina", "medoid")),
        ("n32", inputs.convex_polygon(rng, 32), ("perimeter", "lamina")),
        ("n128", inputs.convex_polygon(rng, 128), ("centroid", "medoid")),
        ("star", inputs.star_polygon(rng, 32, 3), ("perimeter", "lamina")),
    ]
    ops = []
    for size, pts, names in inputs_by_size:
        p = _polygon(pts)
        for name in names:
            star = size == "star"
            ops.append(
                Op(
                    f"catalog.{name}.{size}",
                    lambda name=name, p=p: framework.geometric_center(
                        catalog.CATALOG[name].function, p
                    ),
                    raises("DomainViolation") if star else VALUE,
                    () if star else ("center", name, pts),
                    _point,
                )
            )
    return Workload(ops)


# -------------------------------------------------------------- expr-axioms


def map_and_normalize(g, D):
    """coordinate_map_length followed by normalize, as one operation."""
    return framework.normalize(framework.coordinate_map_length(g, D))


def _expression_function(pc) -> framework.LengthCenterFunction:
    return framework.LengthCenterFunction(pc.source, lambda D: dsl.evaluate(pc, D))


def _admit_digest(result) -> str:
    return "admitted"


def _report_digest(r) -> tuple:
    return (r.relabel_ok, r.motion_ok, r.homogeneity_ok, r.estimated_degree)


def expr_axioms(rng: random.Random, work_dir: str) -> Workload:
    """Expression parse/admit, length coordinate maps and axiom checks; no
    domain guard runs, so matrix copies and DSL evaluation do the work."""
    parsed = {src: dsl.parse(src) for src in EXPRESSIONS}
    functions = {src: _expression_function(pc) for src, pc in parsed.items()}
    ops = []
    for src, prop in EXPRESSIONS.items():
        ops.append(
            Op("dsl.parse", lambda src=src: dsl.parse(src), VALUE, ("parse", src),
               lambda pc: (pc.source, dsl.to_source(pc.expr)))
        )
        ops.append(
            Op("dsl.admit", lambda pc=parsed[src]: dsl.admit(pc, 8),
               raises("AxiomViolation", prop) if prop else VALUE, ("admitted",),
               _admit_digest)
        )
    # Two polygons at n = 32 and 64 put the median latency inside the
    # 17-29 ms block of n = 32 maps and admissions, and p90 inside the
    # n = 64 maps, away from the jumps between blocks.
    for n in (8, 32, 32, 64, 64):
        pts = inputs.scattered_polygon(rng, n)
        D = _matrix(inputs.distances(pts))
        for src in EXPRESSIONS:
            ops.append(
                Op(f"map.n{n}",
                   lambda src=src, D=D: map_and_normalize(functions[src], D),
                   raises(MAP_ERRORS[src]) if src in MAP_ERRORS else VALUE,
                   ("weights", src, pts),
                   lambda w: w.values)
            )
    seed = rng.randrange(2**31)
    for src, degree in VERIFIED.items():
        ops.append(
            Op("verify_axioms",
               lambda src=src: framework.verify_axioms(
                   functions[src], lambda r: sampling.random_polygon(r, 6), 20, seed),
               VALUE, ("axioms", degree), _report_digest)
        )
    ops.append(
        Op("verify_axioms",
           lambda: framework.verify_axioms(
               catalog.CATALOG["lamina"].function,
               lambda r: sampling.random_convex_polygon(r, 6), 20, seed),
           VALUE, ("axioms", 2.0), _report_digest)
    )
    return Workload(ops, functions)


# ------------------------------------------------------------ solvers-embed


def _median_digest(r) -> tuple:
    return (r.point.x, r.point.y, r.iterations, r.at_vertex)


def _circle_digest(c) -> tuple:
    return (c.center.x, c.center.y, c.radius, c.support)


def _report_fields(r) -> tuple:
    return (r.convex, r.equiangular, r.equilateral, r.regular,
            r.f1_coincident, r.f2_coincident, r.f3_coincident,
            r.consistent_with_theorems)


def solvers_embed(rng: random.Random, work_dir: str) -> Workload:
    """Solvers, trilateration and characterization; no coordinate map runs."""
    ops = []
    for n in (8, 32, 128):
        for kind, pts in (("random", inputs.convex_polygon(rng, n)),
                          ("clustered", inputs.hub_polygon(rng, n))):
            p = _polygon(pts)
            ops.append(Op(f"optim.median.{kind}.n{n}",
                          lambda p=p: optim.geometric_median(p), VALUE,
                          ("median", kind, pts), _median_digest))
            ops.append(Op(f"optim.chebyshev.{kind}.n{n}",
                          lambda p=p: optim.chebyshev_center(p), VALUE,
                          ("circle", pts), _circle_digest))
    for n in (8, 32, 128):
        rows = inputs.distances(inputs.convex_polygon(rng, n))
        D = _matrix(rows)
        ops.append(Op(f"reconstruct.n{n}", lambda D=D: reconstruction.reconstruct(D),
                      VALUE, ("embedding", rows),
                      lambda r: tuple(_point(v) for v in r.polygon.vertices)))
        if n < 128:
            ops.append(Op(f"validate.n{n}", lambda D=D: reconstruction.validate(D),
                          VALUE, ("feasibility", True, rows),
                          lambda r: (r.feasible, r.max_residual, len(r.cm_checks))))
            bad = inputs.infeasible_distances(inputs.convex_polygon(rng, n))
            B = _matrix(bad)
            ops.append(Op(f"validate.infeasible.n{n}",
                          lambda B=B: reconstruction.validate(B),
                          VALUE, ("feasibility", False, bad),
                          lambda r: (r.feasible, r.max_residual, len(r.cm_checks))))
    for n in (8, 32, 128):
        for kind, make in (("regular", inputs.regular_polygon),
                           ("equiangular", inputs.equiangular_polygon),
                           ("random", inputs.scattered_polygon)):
            pts = make(rng, n)
            p = _polygon(pts)
            ops.append(Op(f"characterize.{kind}.n{n}",
                          lambda p=p: characterization.characterize(p), VALUE,
                          ("shape", kind, pts), _report_fields))
    return Workload(ops)


# -------------------------------------------------------------- cli-oneshot


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main with stdout and stderr captured; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_json(path: str, data: object) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def cli_oneshot(rng: random.Random, work_dir: str) -> Workload:
    """In-process cli.main over small fixture documents written here."""
    os.makedirs(work_dir, exist_ok=True)
    tri = inputs.convex_polygon(rng, 3)
    hexa = inputs.convex_polygon(rng, 6)
    octa = inputs.convex_polygon(rng, 8)
    star = inputs.star_polygon(rng, 7, 2)
    f_tri = _write_json(os.path.join(work_dir, "tri.json"), {"vertices": tri})
    f_hex = _write_json(os.path.join(work_dir, "hexagon.json"), {"vertices": hexa})
    f_star = _write_json(os.path.join(work_dir, "star.json"), {"vertices": star})
    f_dist = _write_json(os.path.join(work_dir, "distances.json"),
                         {"distances": inputs.distances(octa)})
    f_missing = os.path.join(work_dir, "missing.json")
    out_doc = os.path.join(work_dir, "reconstructed.json")
    out_svg = os.path.join(work_dir, "plot.svg")
    seed = str(rng.randrange(1000))
    plotted = "centroid,lamina,median,chebyshev"
    cases = [
        ("center.name", ["center", f_tri, "--name", "circumcenter"], 0, ("center", tri)),
        ("center.name", ["center", f_hex, "--name", "lamina"], 0, ("center", hexa)),
        ("center.median", ["center", f_hex, "--name", "median"], 0, ("center", hexa)),
        ("center.chebyshev", ["center", f_hex, "--name", "chebyshev"], 0, ("center", hexa)),
        ("center.expr", ["center", f_hex, "--expr", "d(n,1)+d(1,2)"], 0, ("center", hexa)),
        ("coords", ["coords", f_hex, "--name", "perimeter"], 0, ("coords", hexa)),
        ("characterize", ["characterize", f_hex], 0, ("characterize", hexa)),
        ("check-axioms", ["check-axioms", "--name", "lamina", "--n", "6",
                          "--trials", "20", "--seed", seed], 0, ("check-axioms",)),
        ("check-axioms", ["check-axioms", "--expr", "d(n,1)*d(1,2)", "--n", "6",
                          "--trials", "20", "--seed", seed], 0, ("check-axioms",)),
        ("reconstruct.stdout", ["reconstruct", f_dist], 0, ("reconstruct", f_dist)),
        ("reconstruct.file", ["reconstruct", f_dist, "-o", out_doc], 0,
         ("reconstruct-file", f_dist, out_doc)),
        ("plot", ["plot", f_hex, "--centers", plotted, "-o", out_svg], 0,
         ("plot", plotted, out_svg)),
        ("error.missing-file", ["center", f_missing, "--name", "centroid"], 2, ()),
        ("error.syntax", ["center", f_hex, "--expr", "d(1,"], 2, ()),
        ("error.domain", ["center", f_star, "--name", "perimeter"], 3, ()),
        ("error.zero-sum", ["center", f_hex, "--expr", "d(n,1)-d(1,2)"], 4, ()),
        ("error.no-convergence", ["center", f_hex, "--name", "median", "--max-iter", "1"],
         5, ()),
    ]
    ops = [
        Op(f"cli.{cls}", lambda argv=argv: run_cli(argv), ("exit", code), (argv,) + oracle)
        for cls, argv, code, oracle in cases
    ]
    return Workload(ops)


BUILDERS = {
    "maps-catalog": maps_catalog,
    "expr-axioms": expr_axioms,
    "solvers-embed": solvers_embed,
    "cli-oneshot": cli_oneshot,
}


def build(name: str, seed: int, work_dir: str) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, work_dir)
