"""Oracles for the outcomes of each operation, used after the timed region.

Geometry is recomputed with numpy from the generated input points, by
formulas independent of the library's code paths. CLI output is compared
with the library's own result at the CLI's precision.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import asdict

import numpy as np

from polycenter import (
    catalog,
    characterization,
    dsl,
    framework,
    geometry,
    optim,
    reconstruction,
    sampling,
)

# Points agree when they differ by at most this fraction of the diameter.
POINT_REL = 1e-9
# Reconstructed distances agree within this fraction of the largest entry.
EMBED_REL = 1e-7
# Weights agree within this fraction of the largest weight.
WEIGHT_REL = 1e-9
DEGREE_TOL = 1e-6
PRECISION = 12  # the CLI's default --precision


def _pairwise(P: np.ndarray) -> np.ndarray:
    diff = P[:, None, :] - P[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def _close(point, expected, P: np.ndarray) -> tuple[bool, str]:
    gap = float(np.hypot(*(np.asarray(point) - expected)))
    tol = POINT_REL * float(_pairwise(P).max())
    return gap <= tol, f"off by {gap:.3e} (tolerance {tol:.3e})"


# ------------------------------------------------------------ catalog centers


def center_point(name: str, P: np.ndarray) -> np.ndarray:
    Q = np.roll(P, -1, axis=0)
    if name == "centroid":
        return P.mean(axis=0)
    if name == "perimeter":
        lengths = np.hypot(*(Q - P).T)
        return (lengths[:, None] * (P + Q) / 2.0).sum(axis=0) / lengths.sum()
    if name == "lamina":
        cross = P[:, 0] * Q[:, 1] - Q[:, 0] * P[:, 1]
        return ((P + Q) * cross[:, None]).sum(axis=0) / (3.0 * cross.sum())
    if name == "medoid":
        return P[np.argmin(_pairwise(P).sum(axis=1))]
    if name == "circumcenter":
        A = 2.0 * np.array([P[1] - P[0], P[2] - P[0]])
        b = np.array([P[1] @ P[1] - P[0] @ P[0], P[2] @ P[2] - P[0] @ P[0]])
        return np.linalg.solve(A, b)
    raise KeyError(name)


def _center(name, pts, digest):
    P = np.array(pts)
    return _close(digest, center_point(name, P), P)


# ---------------------------------------------------------------- expressions

# Each formula evaluated on the matrix R reindexed to start at vertex k.
FORMULAS = {
    "d(n,1)+d(1,2)": lambda R: R[-1, 0] + R[0, 1],
    "perim": lambda R: R[np.arange(len(R)), (np.arange(len(R)) + 1) % len(R)].sum(),
    "d(2,n)": lambda R: R[1, -1],
    "d(n,1)*d(1,2)": lambda R: R[-1, 0] * R[0, 1],
    "sqrt(d(n,1)^2+d(1,2)^2)": lambda R: np.sqrt(R[-1, 0] ** 2 + R[0, 1] ** 2),
    "d(1,2)": lambda R: R[0, 1],
    "d(n,1)+d(1,2)+d(n,1)^2+d(1,2)^2":
        lambda R: R[-1, 0] + R[0, 1] + R[-1, 0] ** 2 + R[0, 1] ** 2,
}


def _weights(src, pts, digest):
    M = _pairwise(np.array(pts))
    n = len(M)
    coords = np.array([FORMULAS[src](M[np.ix_((np.arange(n) + k) % n, (np.arange(n) + k) % n)])
                       for k in range(n)])
    expected = coords / coords.sum()
    gap = float(np.abs(np.asarray(digest) - expected).max())
    return gap <= WEIGHT_REL * float(np.abs(expected).max()), f"weights off by {gap:.3e}"


def _parse(src, digest):
    source, canonical = digest
    again = dsl.to_source(dsl.parse(canonical).expr)
    return source == src and again == canonical, f"parsed {digest!r}"


def _axioms(degree, digest):
    relabel_ok, motion_ok, homogeneity_ok, estimated = digest
    ok = relabel_ok and motion_ok and homogeneity_ok and estimated is not None \
        and abs(estimated - degree) <= DEGREE_TOL
    return ok, f"report {digest!r}, expected degree {degree}"


# -------------------------------------------------------------------- solvers


def _median(kind, pts, digest):
    x, y, iterations, at_vertex = digest
    P = np.array(pts)
    if kind == "clustered":
        others = P[1:] - P[0]
        pull = float(np.hypot(*(others / np.hypot(*others.T)[:, None]).sum(axis=0)))
        ok = at_vertex == 0 and (x, y) == tuple(P[0]) and pull <= 1.0
        return ok, f"at_vertex={at_vertex}, pull {pull:.3e}"
    diff = P - np.array([x, y])
    grad = float(np.hypot(*(diff / np.hypot(*diff.T)[:, None]).sum(axis=0)))
    return at_vertex is None and grad <= 1e-6, f"stationarity residual {grad:.3e}"


def _circle(pts, digest):
    cx, cy, radius, support = digest
    P = np.array(pts)
    c = np.array([cx, cy])
    d = np.hypot(*(P - c).T)
    ok = bool(d.max() <= radius * (1 + 1e-9)) and all(d[k] >= radius * (1 - 1e-9) for k in support)
    S = P[list(support)]
    if len(support) == 2:
        ok = ok and float(np.hypot(*(S.mean(axis=0) - c))) <= 1e-9 * radius
    else:
        # the center lies in the support triangle, or a smaller circle exists
        lam = np.linalg.solve(np.vstack([S.T, np.ones(3)]), np.append(c, 1.0))
        ok = ok and bool(lam.min() >= -1e-9)
    return ok, f"circle {digest!r}"


def _embedding(rows, vertices):
    D = np.array(rows)
    gap = float(np.abs(_pairwise(np.array(vertices)) - D).max())
    return gap <= EMBED_REL * float(D.max()), f"distances off by {gap:.3e}"


def _feasibility(feasible, rows, digest):
    got, residual, checks = digest
    n = len(rows)
    ok = got == feasible and checks == (n - 2) * (n - 3) // 2
    if feasible:
        ok = ok and residual <= EMBED_REL * max(map(max, rows))
    return ok, f"report {digest!r}, expected feasible={feasible}"


def _skip_diagonal_coincident(P: np.ndarray) -> bool:
    """Whether the n/2 -> n/2+2 diagonal has one length over all shifts."""
    n = len(P)
    lengths = np.hypot(*(np.roll(P, -(n // 2 + 1), axis=0) - np.roll(P, -(n // 2 - 1), axis=0)).T)
    return float(lengths.max() - lengths.min()) <= 1e-9 * max(1.0, float(lengths.max()))


def _shape(kind, pts, digest):
    P = np.array(pts)
    regular = kind == "regular"
    equiangular = kind != "random"
    expected = (
        kind != "random",  # convex
        equiangular,
        regular,  # equilateral
        regular,
        equiangular,  # angle cosines coincide exactly on equiangular polygons
        None,  # odd-n probe; every n here is even
        _skip_diagonal_coincident(P),
        True,
    )
    return digest == expected, f"flags {digest!r}, expected {expected!r}"


# ------------------------------------------------------------------------ CLI


def rounded(value, prec: int = PRECISION):
    """The CLI's output rounding, applied to a library result."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        out = float(f"{value:.{prec}g}")
        return 0.0 if out == 0.0 else out
    if isinstance(value, (list, tuple)):
        return [rounded(v, prec) for v in value]
    if isinstance(value, dict):
        return {k: rounded(v, prec) for k, v in value.items()}
    return value


def _flag(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _coordinates(p, argv):
    """Projective coordinates, weights and point for --name or --expr."""
    expr = _flag(argv, "--expr")
    if expr is not None:
        pc = dsl.parse(expr)
        fn = framework.LengthCenterFunction(pc.source, lambda D: dsl.evaluate(pc, D))
        label, kind = pc.source, "length"
    else:
        entry = catalog.CATALOG[_flag(argv, "--name")]
        fn, label, kind = entry.function, entry.name, entry.kind
    if kind == "vertex":
        coords = framework.coordinate_map_vertex(fn, p)
    else:
        coords = framework.coordinate_map_length(fn, geometry.distance_matrix(p))
    weights = framework.normalize(coords)
    point = weights.combine(p)
    return {"name": label, "projective": list(coords.values),
            "weights": list(weights.values), "point": [point.x, point.y]}


def _center_record(p, argv):
    name = _flag(argv, "--name")
    if name == "median":
        r = optim.geometric_median(p)
        data = {"name": "median", "point": [r.point.x, r.point.y],
                "iterations": r.iterations, "residual": r.residual}
        if r.at_vertex is not None:
            data["at_vertex"] = r.at_vertex + 1
        return data
    if name == "chebyshev":
        c = optim.chebyshev_center(p)
        return {"name": "chebyshev", "point": [c.center.x, c.center.y],
                "radius": c.radius, "support": [k + 1 for k in c.support]}
    data = _coordinates(p, argv)
    if name is not None:
        ok, why = _close(data["point"], center_point(name, np.array(_vertices(p))),
                         np.array(_vertices(p)))
        if not ok:
            raise AssertionError(f"library {name} center {why}")
    if name == "medoid":
        data["vertex"] = catalog.medoid(p) + 1
    return data


def _vertices(p):
    return [(v.x, v.y) for v in p.vertices]


def _axiom_record(argv):
    n = int(_flag(argv, "--n"))
    trials = int(_flag(argv, "--trials"))
    seed = int(_flag(argv, "--seed"))
    expr = _flag(argv, "--expr")
    if expr is not None:
        pc = dsl.parse(expr)
        fn = framework.LengthCenterFunction(pc.source, lambda D: dsl.evaluate(pc, D))
        label, sampler = pc.source, (lambda rng: sampling.random_polygon(rng, n))
    else:
        entry = catalog.CATALOG[_flag(argv, "--name")]
        fn, label = entry.function, entry.name
        make = sampling.random_convex_polygon if entry.convex_only else sampling.random_polygon
        sampler = lambda rng: make(rng, n)  # noqa: E731
    r = framework.verify_axioms(fn, sampler, trials=trials, seed=seed)
    if not (r.relabel_ok and r.motion_ok and r.homogeneity_ok):
        raise AssertionError(f"{label} fails its axioms: {r!r}")
    return {"name": label, "n": n, "trials": trials, "relabel_ok": r.relabel_ok,
            "motion_ok": r.motion_ok, "homogeneity_ok": r.homogeneity_ok,
            "estimated_degree": r.estimated_degree, "max_violation": r.max_violation}


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _reconstructed(dist_path):
    rows = _read_json(dist_path)["distances"]
    poly = reconstruction.reconstruct(geometry.DistanceMatrix.from_rows(rows)).polygon
    vertices = [[v.x, v.y] for v in poly.vertices]
    ok, why = _embedding(rows, vertices)
    if not ok:
        raise AssertionError(f"library reconstruction {why}")
    return vertices


def _plot(names, svg_path):
    root = ET.parse(svg_path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    labels = [t.text for t in root.iter(ns + "text")]
    ok = (root.tag == ns + "svg" and len(list(root.iter(ns + "path"))) == 1
          and len(list(root.iter(ns + "circle"))) == len(names) and labels == names)
    return ok, f"svg has labels {labels!r}"


def judge_cli(oracle, expected_code, digest):
    code, out, err = digest
    if code != expected_code:
        return False, f"exit {code}, expected {expected_code}: {err.strip()}"
    if expected_code != 0:
        ok = out == "" and err.startswith("polycenter: ") and err.count("\n") == 1
        return ok, f"error output {err!r}"
    argv, kind = oracle[0], oracle[1]
    if kind in ("center", "coords", "characterize"):
        p = geometry.Polygon.from_pairs(oracle[2])
        if kind == "center":
            want = _center_record(p, argv)
        elif kind == "coords":
            want = _coordinates(p, argv)["projective"]
        else:
            want = asdict(characterization.characterize(p))
        return json.loads(out) == rounded(want), f"stdout {out!r}"
    if kind == "check-axioms":
        return json.loads(out) == rounded(_axiom_record(argv)), f"stdout {out!r}"
    if kind == "reconstruct":
        want = {"vertices": _reconstructed(oracle[2])}
        return json.loads(out) == rounded(want), f"stdout {out!r}"
    if kind == "reconstruct-file":
        want = {"vertices": _reconstructed(oracle[2])}
        return out == "" and _read_json(oracle[3]) == want, "written document differs"
    if kind == "plot":
        return _plot(oracle[2].split(","), oracle[3]) if out == "" else (False, out)
    raise KeyError(kind)


# ---------------------------------------------------------------------- judge

CHECKS = {
    "center": _center,
    "weights": _weights,
    "parse": _parse,
    "admitted": lambda digest: (digest == "admitted", digest),
    "axioms": _axioms,
    "median": _median,
    "circle": _circle,
    "embedding": _embedding,
    "feasibility": _feasibility,
    "shape": _shape,
}


def judge(op, outcome) -> tuple[bool, str]:
    """Whether an operation's outcome is the one fixed for its input."""
    expect = op.expect
    if expect[0] == "raise":
        return outcome == expect, f"outcome {outcome!r}, expected {expect!r}"
    if outcome[0] != "ok":
        return False, f"outcome {outcome!r}"
    try:
        if expect[0] == "exit":
            return judge_cli(op.oracle, expect[1], outcome[1])
        return CHECKS[op.oracle[0]](*op.oracle[1:], outcome[1])
    except (AssertionError, ValueError, KeyError, np.linalg.LinAlgError) as exc:
        return False, f"oracle rejected the result: {exc!r}"
