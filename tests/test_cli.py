import contextlib
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import calls_of
import polycenter
from polycenter import catalog, cli, documents, reconstruction
from polycenter.cli import _EXIT_RULES, _rounded, main
from polycenter.documents import read_document
from polycenter.errors import PolycenterError
from polycenter.sampling import random_convex_polygon, random_polygon

SQUARE = {"name": "square", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
TRI345 = {"vertices": [[0, 0], [3, 0], [0, 4]]}
TRIMAT = {"name": "tri", "distances": [[0, 3, 4], [3, 0, 5], [4, 5, 0]]}
DART = {"vertices": [[0, 0], [4, 0], [1, 1], [0, 4]]}
TETRA = {"distances": [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]}


def write_doc(tmp_path, filename, data):
    path = tmp_path / filename
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def invoke(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------------ center


def test_center_centroid_square(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, out, err = invoke(capsys, ["center", doc, "--name", "centroid"])
    assert rc == 0 and err == ""
    data = json.loads(out)
    assert data == {
        "name": "centroid",
        "projective": [1.0, 1.0, 1.0, 1.0],
        "weights": [0.25, 0.25, 0.25, 0.25],
        "point": [0.5, 0.5],
    }


def test_center_perimeter_triangle(tmp_path, capsys):
    doc = write_doc(tmp_path, "tri.json", TRI345)
    rc, out, err = invoke(capsys, ["center", doc, "--name", "perimeter"])
    assert rc == 0
    data = json.loads(out)
    assert data["projective"] == [7.0, 8.0, 9.0]
    assert data["point"] == [1.0, 1.5]


def test_center_expression_matches_catalog(tmp_path, capsys):
    doc = write_doc(tmp_path, "tri.json", TRI345)
    rc1, out1, _ = invoke(capsys, ["center", doc, "--name", "perimeter"])
    rc2, out2, _ = invoke(capsys, ["center", doc, "--expr", "d(n,1)+d(1,2)"])
    assert rc1 == rc2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["projective"] == b["projective"]
    assert a["point"] == b["point"]


def test_center_median_square(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, out, _ = invoke(capsys, ["center", doc, "--name", "median"])
    assert rc == 0
    data = json.loads(out)
    assert data["point"] == [0.5, 0.5]
    assert data["iterations"] >= 1
    assert data["residual"] <= 1e-8
    assert "at_vertex" not in data


def test_center_chebyshev_square(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, out, _ = invoke(capsys, ["center", doc, "--name", "chebyshev"])
    assert rc == 0
    data = json.loads(out)
    assert data["point"] == [0.5, 0.5]
    assert data["radius"] == pytest.approx(math.sqrt(0.5), rel=1e-11)
    assert data["support"] == [1, 3]


def test_center_median_reports_vertex_capture(tmp_path, capsys):
    blunt = {"vertices": [[-1, 0], [0, 0.2], [1, 0]]}
    doc = write_doc(tmp_path, "blunt.json", blunt)
    rc, out, _ = invoke(capsys, ["center", doc, "--name", "median"])
    assert rc == 0
    data = json.loads(out)
    assert data["at_vertex"] == 2  # 1-based
    assert data["point"] == [0.0, 0.2]


def test_precision_flag_rounds_output(tmp_path, capsys):
    doc = write_doc(tmp_path, "tri.json", TRI345)
    rc, out, _ = invoke(
        capsys, ["center", doc, "--name", "centroid", "--precision", "3"]
    )
    assert rc == 0
    assert json.loads(out)["point"] == [1.0, 1.33]


def test_negative_precision_exits_2(tmp_path, capsys):
    doc = write_doc(tmp_path, "tri.json", TRI345)
    rc, out, err = invoke(
        capsys, ["center", doc, "--name", "centroid", "--precision", "-1"]
    )
    assert rc == 2 and out == ""
    assert "argument --precision: must be from 0 to 100, got -1" in err
    assert "Traceback" not in err


# ------------------------------------------------------------------ coords


def test_coords_prints_bare_projective_list(tmp_path, capsys):
    doc = write_doc(tmp_path, "tri.json", TRI345)
    rc, out, err = invoke(capsys, ["coords", doc, "--name", "perimeter"])
    assert rc == 0 and err == ""
    assert json.loads(out) == [7.0, 8.0, 9.0]


def test_coords_rejects_solver_names(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, out, err = invoke(capsys, ["coords", doc, "--name", "median"])
    assert rc == 2 and out == ""
    assert "no coordinate map" in err


@pytest.mark.parametrize("data, selection, values", [
    (TRI345, ["--expr", "d(n,1)-d(1,2)"], [1.0, -2.0, 1.0]),  # a point at infinity
    (SQUARE, ["--name", "medoid"], [1.0, 1.0, 1.0, 1.0]),  # four tied vertices
], ids=["zero-sum", "medoid-tie"])
def test_coords_prints_a_map_that_has_no_center(tmp_path, capsys, data, selection, values):
    # `center` on such input exits 4 or 3 (test_zero_sum_coordinates_exit_4,
    # test_medoid_tie_exits_3)
    doc = write_doc(tmp_path, "p.json", data)
    rc, out, err = invoke(capsys, ["coords", doc, *selection])
    assert rc == 0 and err == ""
    assert json.loads(out) == values


# ------------------------------------------------------------- exit codes


def test_missing_file_exits_2(capsys):
    rc, out, err = invoke(capsys, ["center", "nope.json", "--name", "centroid"])
    assert rc == 2 and out == ""
    assert err.startswith("polycenter: DocumentError: cannot read nope.json")


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"vertices": [[0,0],', encoding="utf-8")
    rc, _, err = invoke(capsys, ["center", str(path), "--name", "centroid"])
    assert rc == 2
    assert "is not valid JSON" in err


def test_schema_error_exits_2(tmp_path, capsys):
    doc = write_doc(tmp_path, "bad.json", {"vertices": [[0, 0], [1, 0]]})
    rc, _, err = invoke(capsys, ["center", doc, "--name", "centroid"])
    assert rc == 2
    assert "$.vertices" in err


def test_expression_syntax_error_exits_2(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, _, err = invoke(capsys, ["center", doc, "--expr", "d(1,"])
    assert rc == 2
    assert "ExprSyntaxError" in err


def test_diagonal_distance_index_exits_2(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, _, err = invoke(capsys, ["center", doc, "--expr", "d(1,1)"])
    assert rc == 2
    assert "ExprIndexError" in err


def test_unknown_center_exits_2(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, _, err = invoke(capsys, ["center", doc, "--name", "nonesuch"])
    assert rc == 2
    assert "unknown center 'nonesuch'" in err
    assert "centroid" in err  # the message lists the choices


def test_name_and_expr_are_mutually_exclusive(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, _, err = invoke(
        capsys, ["center", doc, "--name", "centroid", "--expr", "1+1"]
    )
    assert rc == 2
    assert "not allowed with" in err


@pytest.mark.parametrize("argv", [
    ["center", "sq.json", "--name", "chebyshev", "--seed", "1"],
    ["plot", "sq.json", "--centers", "chebyshev", "-o", "sq.svg", "--seed", "1"],
])
def test_the_chebyshev_seed_is_not_an_option(capsys, argv):
    rc, out, err = invoke(capsys, argv)
    assert rc == 2 and out == ""
    assert err.endswith("polycenter: error: unrecognized arguments: --seed 1\n")


def _error_classes(klass=PolycenterError):
    for sub in klass.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_every_error_class_has_an_exit_code():
    classes = set(_error_classes())
    assert len(classes) >= 16
    for klass in classes:
        codes = [code for rule, code in _EXIT_RULES if issubclass(klass, rule)]
        assert codes and codes[0] in (2, 3, 4, 5), klass


def test_no_subcommand_exits_2(capsys):
    assert invoke(capsys, [])[0] == 2


def test_medoid_tie_exits_3(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, out, err = invoke(capsys, ["center", doc, "--name", "medoid"])
    assert rc == 3 and out == ""
    assert err.startswith("polycenter: Tie:")


def test_circumcenter_wrong_size_exits_3(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, _, err = invoke(capsys, ["center", doc, "--name", "circumcenter"])
    assert rc == 3
    assert "DomainViolation" in err


def test_convex_guard_exits_3(tmp_path, capsys):
    doc = write_doc(tmp_path, "dart.json", DART)
    rc, _, err = invoke(capsys, ["center", doc, "--name", "perimeter"])
    assert rc == 3
    assert "DomainViolation" in err


def test_eval_error_exits_3(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, _, err = invoke(capsys, ["center", doc, "--expr", "1/(d(1,2)-d(1,2))"])
    assert rc == 3
    assert "EvalError" in err


def test_zero_sum_coordinates_exit_4(tmp_path, capsys):
    doc = write_doc(tmp_path, "tri.json", TRI345)
    rc, _, err = invoke(capsys, ["center", doc, "--expr", "d(1,2)-d(2,3)"])
    assert rc == 4
    assert "ZeroSum" in err


def test_nearly_cancelling_coordinates_normalize(tmp_path, capsys):
    # the coordinates nearly cancel, so the weights are large and their
    # float sum misses 1 by more than 1e-12, though not relative to them
    p = random_polygon(random.Random(1), 8)
    doc = write_doc(tmp_path, "p8.json", {"vertices": [[v.x, v.y] for v in p.vertices]})
    rc, out, err = invoke(capsys, ["center", doc, "--expr", "d(n,1)-d(1,2)+0.00001*d(1,2)"])
    assert rc == 0 and err == ""
    weights = json.loads(out)["weights"]
    assert max(map(abs, weights)) > 1.0
    assert math.fsum(weights) == pytest.approx(1.0)


QUAD_NEAR_MAX = [
    [-1.7592729819018495e306, 9.44762327641518e306],
    [8.75370936200776e306, -1.0802895994406287e306],
    [-9.672397494839219e306, -6.564236983296014e306],
    [-1.0545418179555092e307, -1.9805799201117533e306],
]
EQUILATERAL_4E102 = [[0.0, 0.0], [4.4e102, 0.0], [2.2e102, 4.4e102 * math.sqrt(3) / 2]]


@pytest.mark.parametrize("pairs, expr, k", [
    (QUAD_NEAR_MAX, "perim", -1000),
    (EQUILATERAL_4E102, "d(n,1)^3+d(1,2)^3", -300),  # cubes underflow at 2^-1000
], ids=["perim", "cubes"])
def test_coordinates_summing_past_the_float_range_normalize(tmp_path, capsys, pairs, expr, k):
    weights = []
    for t in (1.0, 2.0**k):
        doc = write_doc(tmp_path, "p.json", {"vertices": [[t * x, t * y] for x, y in pairs]})
        rc, out, err = invoke(capsys, ["center", doc, "--expr", expr])
        assert rc == 0 and err == ""
        weights.append(json.loads(out)["weights"])
        rc, out, err = invoke(capsys, ["coords", doc, "--expr", expr])
        assert rc == 0 and err == ""
    assert weights[0] == weights[1]


def test_all_zero_coordinates_exit_4(tmp_path, capsys):
    doc = write_doc(tmp_path, "tri.json", TRI345)
    rc, _, err = invoke(capsys, ["center", doc, "--expr", "0*d(1,2)"])
    assert rc == 4
    assert "AllZero" in err


def test_median_budget_exhaustion_exits_5(tmp_path, capsys):
    doc = write_doc(tmp_path, "tri.json", TRI345)
    rc, _, err = invoke(
        capsys, ["center", doc, "--name", "median", "--max-iter", "1"]
    )
    assert rc == 5
    assert "NoConvergence" in err


@pytest.mark.parametrize("argv", [
    ["center", "{doc}", "--name", "median", "--tol", "nan"],
    ["center", "{doc}", "--name", "median", "--tol", "inf"],
    ["center", "{doc}", "--name", "median", "--tol", "-1"],
    ["characterize", "{doc}", "--tol", "nan"],
    ["characterize", "{doc}", "--tol", "inf"],
    ["characterize", "{doc}", "--tol", "-1"],
    ["center", "{doc}", "--name", "median", "--max-iter", "0"],
    ["center", "{doc}", "--name", "median", "--max-iter", "-3"],
], ids=lambda argv: " ".join(argv[-2:]) + f" ({argv[0]})")
def test_out_of_range_tolerance_or_budget_exits_2(tmp_path, capsys, argv):
    doc = write_doc(tmp_path, "tri.json", TRI345)
    rc, out, err = invoke(capsys, [doc if a == "{doc}" else a for a in argv])
    assert rc == 2 and out == ""
    flag, value = argv[-2:]
    bound = "at least 1" if flag == "--max-iter" else "finite and at least 0"
    assert f"argument {flag}: must be {bound}, got {value}" in err


def test_zero_tolerance_is_accepted(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, out, err = invoke(capsys, ["characterize", doc, "--tol", "0"])
    assert rc == 0 and err == ""
    # the square's center is the exact median: residual 0 after one step
    rc, out, err = invoke(capsys, ["center", doc, "--name", "median", "--tol", "0"])
    assert rc == 0 and err == ""
    assert json.loads(out)["point"] == [0.5, 0.5]


def test_center_medoid_makes_one_medoid_pass(tmp_path, capsys):
    # the "vertex" field is read off the marks of the map itself
    doc = write_doc(tmp_path, "tri.json", TRI345)
    with calls_of(catalog._medoid_indicators) as passes:
        rc, out, err = invoke(capsys, ["center", doc, "--name", "medoid"])
    assert rc == 0 and err == ""
    assert json.loads(out)["vertex"] == 1
    assert len(passes) == 1


def test_center_perimeter_of_distances_reconstructs_once(tmp_path, capsys, monkeypatch):
    # the document is embedded once, and the convexity guard reads that polygon
    calls = []
    embed = reconstruction.reconstruct

    def counted(D):
        calls.append(D)
        return embed(D)

    for module in (documents, reconstruction):
        monkeypatch.setattr(module, "reconstruct", counted)
    quad = {"distances": [
        [0.0, 4.0, 5.830951894845301, 4.123105625617661],
        [4.0, 0.0, 3.1622776601683795, 5.0],
        [5.830951894845301, 3.1622776601683795, 0.0, 4.123105625617661],
        [4.123105625617661, 5.0, 4.123105625617661, 0.0],
    ]}
    doc = write_doc(tmp_path, "quad.json", quad)
    rc, out, err = invoke(capsys, ["center", doc, "--name", "perimeter"])
    assert rc == 0 and err == ""
    assert len(calls) == 1
    assert out == (
        '{\n  "name": "perimeter",\n  "projective": [\n    8.12310562562,\n'
        '    7.16227766017,\n    7.28538328579,\n    8.24621125124\n  ],\n'
        '  "weights": [\n    0.2635918964,\n    0.232413369713,\n    0.2364081036,\n'
        '    0.267586630287\n  ],\n  "point": [\n    2.37928062714,\n'
        '    -1.77957083195\n  ]\n}\n'
    )


def test_center_medoid_of_coincident_vertices_exits_3(tmp_path, capsys):
    doc = write_doc(tmp_path, "dup.json", {"vertices": [[0, 0], [1, 0], [1, 0], [0, 1]]})
    rc, out, err = invoke(capsys, ["center", doc, "--name", "medoid"])
    assert rc == 3 and out == ""
    assert err == (
        "polycenter: DomainViolation: medoid: polygon outside domain (distinct vertices)\n"
    )


@pytest.mark.parametrize("k", [-300, -30, 0, 300])
def test_medoid_vertex_and_weights_commute_with_scaling(tmp_path, capsys, k):
    p = random_convex_polygon(random.Random(3), 7)
    outputs = []
    for t in (1.0, 2.0**k):
        doc = write_doc(tmp_path, "p.json", {"vertices": [[t * v.x, t * v.y] for v in p.vertices]})
        rc, out, err = invoke(capsys, ["center", doc, "--name", "medoid"])
        assert rc == 0 and err == ""
        outputs.append(json.loads(out))
    base, data = outputs
    assert data["weights"] == base["weights"]
    assert data["vertex"] == base["vertex"]
    assert data["weights"][data["vertex"] - 1] == 1.0


# ------------------------------------------------------------- check-axioms


def test_check_axioms_centroid_passes(capsys):
    rc, out, _ = invoke(
        capsys,
        ["check-axioms", "--name", "centroid", "--n", "4", "--trials", "20"],
    )
    assert rc == 0
    data = json.loads(out)
    assert data["relabel_ok"] and data["motion_ok"] and data["homogeneity_ok"]
    assert data["estimated_degree"] == 0
    assert data["n"] == 4 and data["trials"] == 20


def test_check_axioms_perimeter_uses_convex_samples(capsys):
    rc, out, _ = invoke(
        capsys, ["check-axioms", "--name", "perimeter", "--trials", "20"]
    )
    assert rc == 0
    data = json.loads(out)
    assert data["relabel_ok"] and data["homogeneity_ok"]
    assert data["estimated_degree"] == 1


def test_check_axioms_reports_violations_with_exit_0(capsys):
    rc, out, _ = invoke(
        capsys, ["check-axioms", "--expr", "d(1,2)", "--trials", "20"]
    )
    assert rc == 0  # the report is the product; a bad center is not an error
    data = json.loads(out)
    assert data["relabel_ok"] is False
    assert data["max_violation"] > 0.01


def test_check_axioms_rejects_fewer_than_three_vertices(capsys):
    rc, out, err = invoke(capsys, ["check-axioms", "--name", "centroid", "--n", "2"])
    assert rc == 2 and out == ""
    assert "argument --n: must be from 3 to 128, got 2" in err


@pytest.mark.parametrize("selection, n", [
    (["--name", "centroid"], "129"),
    (["--expr", "d(n,1)+d(1,2)"], "256"),
])
def test_check_axioms_rejects_more_than_128_vertices(capsys, selection, n):
    # random_polygon keeps about e^-16 of 256-gon draws, so --n 256 never returned
    rc, out, err = invoke(capsys, ["check-axioms", *selection, "--n", n, "--trials", "1"])
    assert rc == 2 and out == ""
    usage, error = err.split("\npolycenter check-axioms: error: ")
    assert usage.startswith("usage: polycenter check-axioms ")
    assert error == f"argument --n: must be from 3 to 128, got {n}\n"


def test_check_axioms_at_128_vertices_exits_0(capsys):
    rc, out, err = invoke(capsys, ["check-axioms", "--name", "lamina", "--n", "128",
                                   "--trials", "1"])
    assert rc == 0 and err == ""
    assert json.loads(out)["n"] == 128


def test_check_axioms_rejects_zero_trials(capsys):
    # no trial would report every axiom as holding
    rc, out, err = invoke(capsys, ["check-axioms", "--expr", "d(1,2)", "--trials", "0"])
    assert rc == 2 and out == ""
    assert "argument --trials: must be at least 1, got 0" in err


def test_check_axioms_deeply_nested_expression_exits_2(capsys):
    expr = "(" * 5000 + "d(1,2)" + ")" * 5000
    rc, out, err = invoke(capsys, ["check-axioms", "--expr", expr])
    assert rc == 2 and out == ""
    assert "ExprSyntaxError: expression nests deeper than" in err


def test_long_operator_chain_exits_2(tmp_path, capsys):
    # each operator of a chain is one level of the tree that evaluation walks
    doc = write_doc(tmp_path, "tri.json", TRI345)
    expr = "+".join(["d(1,2)+d(1,3)"] * 2500)
    rc, out, err = invoke(capsys, ["center", doc, "--expr", expr])
    assert rc == 2 and out == ""
    assert err.startswith("polycenter: ExprSyntaxError: expression nests deeper than")


@pytest.mark.parametrize("argv, rc, line", [
    (["--name", "circumcenter", "--n", "5"],
     3, "DomainViolation: circumcenter: distances outside domain (non-collinear triangles)"),
    (["--expr", "d(1,4)", "--n", "3"],
     2, "ExprIndexError: d(1,4) collides at n=3 (at position 0)"),
])
def test_check_axioms_without_a_report_exits_as_elsewhere(capsys, argv, rc, line):
    # a report exits 0 whatever it finds; input that yields none does not
    assert invoke(capsys, ["check-axioms", *argv]) == (rc, "", f"polycenter: {line}\n")


def _strict_json(text):
    """json.loads that rejects the Infinity, -Infinity and NaN extensions."""

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("expr", ["perim-8", "perim-5"])
def test_check_axioms_reports_a_sign_change_as_an_unbounded_violation(capsys, expr):
    # perim-8 changes sign under rescaling on every sample at n=5, perim-5
    # on some; either way the violation is unbounded, printed as null
    rc, out, err = invoke(capsys, ["check-axioms", "--expr", expr, "--n", "5",
                                   "--trials", "10"])
    assert rc == 0 and err == ""
    report = _strict_json(out)
    assert report["homogeneity_ok"] is False
    assert report["estimated_degree"] is None
    assert report["max_violation"] is None


def test_output_near_the_float_limit_stays_json(tmp_path, capsys):
    # 1.7e308 rounds to 2e+308 at one digit, past the float range
    doc = write_doc(tmp_path, "far.json",
                    {"vertices": [[1.7e308, 0], [1.7e308, 1], [1.6e308, 0]]})
    rc, out, err = invoke(capsys, ["center", doc, "--name", "centroid", "--precision", "1"])
    assert rc == 0 and err == ""
    x, y = _strict_json(out)["point"]
    assert math.isfinite(x) and y == 0.3


def test_check_axioms_rejects_solver_names(capsys):
    rc, _, err = invoke(capsys, ["check-axioms", "--name", "chebyshev"])
    assert rc == 2
    assert "solver" in err


# ------------------------------------------------------------- characterize


def test_characterize_square(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, out, _ = invoke(capsys, ["characterize", doc])
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["convex"] and data["equiangular"] and data["equilateral"]
    assert data["regular"]
    assert data["f3_coincident"] is True
    assert data["f2_coincident"] is None  # odd-size probe on an even n
    assert data["consistent_with_theorems"] is True


def test_characterize_degenerate_vertex_exits_3(tmp_path, capsys):
    pinched = {"vertices": [[0, 0], [0, 0], [1, 0], [0, 1]]}
    doc = write_doc(tmp_path, "pinch.json", pinched)
    rc, _, err = invoke(capsys, ["characterize", doc])
    assert rc == 3
    assert "DegenerateVertex" in err


# ------------------------------------------------------------- reconstruct


def test_reconstruct_to_stdout(tmp_path, capsys):
    doc = write_doc(tmp_path, "mat.json", TRIMAT)
    rc, out, _ = invoke(capsys, ["reconstruct", doc])
    assert rc == 0
    data = json.loads(out)
    assert data == {"name": "tri", "vertices": [[0.0, 0.0], [3.0, 0.0], [0.0, -4.0]]}


def test_reconstruct_to_file_full_precision(tmp_path, capsys):
    doc = write_doc(tmp_path, "mat.json", TRIMAT)
    out_path = str(tmp_path / "rebuilt.json")
    rc, out, _ = invoke(capsys, ["reconstruct", doc, "-o", out_path])
    assert rc == 0 and out == ""
    rebuilt = read_document(out_path)
    assert rebuilt.name == "tri"
    assert rebuilt.vertices.vertices[1].x == 3.0


def test_reconstruct_requires_distances(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    rc, _, err = invoke(capsys, ["reconstruct", doc])
    assert rc == 2
    assert "distances block" in err


def test_reconstruct_infeasible_exits_3(tmp_path, capsys):
    doc = write_doc(tmp_path, "tetra.json", TETRA)
    rc, _, err = invoke(capsys, ["reconstruct", doc])
    assert rc == 3
    assert "InfeasibleDistances" in err


# ------------------------------------------------------------------- plot


def test_plot_writes_deterministic_svg(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    for target in (first, second):
        rc, _, err = invoke(
            capsys,
            ["plot", doc, "--centers", "centroid,chebyshev,median",
             "-o", str(target)],
        )
        assert rc == 0 and err == ""
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert ">centroid</text>" in text
    assert ">chebyshev</text>" in text


def test_plot_embeds_failures_as_comments(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    target = str(tmp_path / "out.svg")
    rc, _, err = invoke(capsys, ["plot", doc, "--centers", "medoid", "-o", target])
    assert rc == 0 and err == ""  # the picture is still produced
    text = Path(target).read_text(encoding="utf-8")
    assert "<!-- medoid failed: Tie:" in text


def test_plot_unknown_center_exits_2_without_writing(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    target = tmp_path / "never.svg"
    rc, _, err = invoke(
        capsys, ["plot", doc, "--centers", "centroid,bogus", "-o", str(target)]
    )
    assert rc == 2
    assert "unknown center 'bogus'" in err
    assert not target.exists()


def test_plot_unwritable_output_exits_2(tmp_path, capsys):
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    target = tmp_path / "missing-dir" / "x.svg"
    rc, _, err = invoke(capsys, ["plot", doc, "-o", str(target)])
    assert rc == 2
    assert err.startswith("polycenter: DocumentError: cannot write")
    assert len(err.strip().splitlines()) == 1


# --------------------------------------------------------- extreme scales


@pytest.mark.parametrize("scale", [1e308, 1e200])
def test_extreme_coordinates_end_in_an_exit_code(tmp_path, capsys, scale):
    # distances overflow at 1e308, their squares at 1e200
    doc = write_doc(
        tmp_path, "far.json", {"vertices": [[-scale, -scale], [scale, -scale], [0, scale]]}
    )
    names = list(polycenter.CATALOG) + ["median", "chebyshev"]
    runs = [["center", doc, "--name", nm] for nm in names]
    runs += [["coords", doc, "--name", nm] for nm in polycenter.CATALOG]
    runs += [
        ["center", doc, "--expr", "d(1,2)"],
        ["characterize", doc],
        ["plot", doc, "--centers", ",".join(names), "-o", str(tmp_path / "far.svg")],
    ]
    for argv in runs:
        rc, _, err = invoke(capsys, argv)
        assert rc in (0, 2, 3, 4, 5), argv
        assert len(err.splitlines()) == (rc != 0), (argv, err)


@pytest.mark.parametrize("k", [-900, 900])
def test_characterize_a_tiny_or_huge_polygon_exits_0(tmp_path, capsys, k):
    p = random_convex_polygon(random.Random(3), 7)
    pairs = [[2.0**k * v.x, 2.0**k * v.y] for v in p.vertices]
    doc = write_doc(tmp_path, "scaled.json", {"vertices": pairs})
    rc, out, err = invoke(capsys, ["characterize", doc])
    assert rc == 0 and err == ""
    assert json.loads(out)["n"] == 7
    assert json.loads(out)["convex"] is True


def test_perimeter_of_a_triangle_whose_squared_sides_overflow_exits_0(tmp_path, capsys):
    doc = write_doc(
        tmp_path, "far.json", {"vertices": [[-1e200, -1e200], [1e200, -1e200], [0, 1e200]]}
    )
    rc, out, err = invoke(capsys, ["center", doc, "--name", "perimeter"])
    assert rc == 0 and err == ""
    data = json.loads(out)
    assert data["weights"][0] == data["weights"][1] < data["weights"][2]


@pytest.mark.parametrize("k", [-900, -300, 900])
def test_perimeter_weights_commute_with_scaling(tmp_path, capsys, k):
    p = random_convex_polygon(random.Random(3), 7)
    outputs = []
    for t in (1.0, 2.0**k):
        pairs = [[t * v.x, t * v.y] for v in p.vertices]
        doc = write_doc(tmp_path, "p.json", {"vertices": pairs})
        rc, out, err = invoke(capsys, ["center", doc, "--name", "perimeter"])
        assert rc == 0 and err == ""
        outputs.append(json.loads(out))
    assert outputs[1]["weights"] == outputs[0]["weights"]


@pytest.mark.parametrize("k", [-900, 900])
def test_chebyshev_of_a_tiny_or_huge_polygon_keeps_its_circle(tmp_path, capsys, k):
    # squared coordinates underflowed at 2^-900, to a wrong point on the
    # support (4, 6), and overflowed at 2^900
    p = random_convex_polygon(random.Random(3), 7)
    records = []
    for e in (0, k):
        pairs = [[math.ldexp(v.x, e), math.ldexp(v.y, e)] for v in p.vertices]
        doc = write_doc(tmp_path, "p.json", {"vertices": pairs})
        rc, out, err = invoke(capsys, ["center", doc, "--name", "chebyshev"])
        assert rc == 0 and err == ""
        records.append(json.loads(out))
    assert records[1]["support"] == records[0]["support"] == [2, 4, 6]
    for got, want in zip(records[1]["point"] + [records[1]["radius"]],
                         records[0]["point"] + [records[0]["radius"]]):
        assert math.ldexp(got, -k) == pytest.approx(want, rel=1e-11)


def test_integer_past_float_range_exits_2(tmp_path, capsys):
    doc = write_doc(tmp_path, "big.json", {"vertices": [[0, 0], [10**400, 0], [0, 1]]})
    rc, out, err = invoke(capsys, ["center", doc, "--name", "centroid"])
    assert rc == 2 and out == ""
    assert err == f"polycenter: DocumentError: {doc}: $.vertices[1][0]: integer out of float range\n"


def test_integer_too_long_to_read_exits_2(tmp_path, capsys):
    # json.load refuses integers longer than sys.get_int_max_str_digits()
    doc = tmp_path / "long.json"
    doc.write_text('{"vertices": [[0, 0], [1' + "0" * 5000 + ", 0], [0, 1]]}", encoding="utf-8")
    rc, out, err = invoke(capsys, ["center", str(doc), "--name", "centroid"])
    assert rc == 2 and out == ""
    assert err.startswith(f"polycenter: DocumentError: {doc} is not valid JSON:")
    assert len(err.splitlines()) == 1


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    # json.load recurses once per array level and raises RecursionError
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 1000 + "]" * 1000, encoding="utf-8")
    rc, out, err = invoke(capsys, ["center", str(doc), "--name", "centroid"])
    assert rc == 2 and out == ""
    assert err.startswith(f"polycenter: DocumentError: {doc} is not valid JSON:")
    assert len(err.splitlines()) == 1


def test_plot_of_an_overflowing_extent_exits_3_without_writing(tmp_path, capsys):
    doc = write_doc(
        tmp_path, "far.json", {"vertices": [[-1e308, -1e308], [1e308, -1e308], [0, 1e308]]}
    )
    target = tmp_path / "far.svg"
    rc, out, err = invoke(capsys, ["plot", doc, "--centers", "centroid", "-o", str(target)])
    assert rc == 3 and out == ""
    assert err == "polycenter: NonFinite: plot extent must be finite\n"
    assert not target.exists()


# ------------------------------------------------------------ pinned bytes


PENTAGON = {"name": "pentagon", "vertices": [[0, 0], [4, 0], [5, 3], [2, 5], [-1, 3]]}
# equiangular, with sides 2, 1, 2, 1, 2, 1
HEXAGON = {"vertices": [[0, 0], [2, 0], [2.5, math.sqrt(3) / 2], [1.5, 3 * math.sqrt(3) / 2],
                        [0.5, 3 * math.sqrt(3) / 2], [-0.5, math.sqrt(3) / 2]]}
QUAD = {"vertices": [[0, 0], [4, 0], [5, 3], [1, 4]]}
QUADMAT = {"name": "quad", "distances": [
    [0, 4, 5.830951894845301, 4.123105625617661], [4, 0, 3.1622776601683795, 5],
    [5.830951894845301, 3.1622776601683795, 0, 4.123105625617661],
    [4.123105625617661, 5, 4.123105625617661, 0]]}
_AXIOMS = """{
  "name": "%s",
  "n": 6,
  "trials": 20,
  "relabel_ok": true,
  "motion_ok": true,
  "homogeneity_ok": true,
  "estimated_degree": 2.0,
  "max_violation": %s
}
"""
_CHARACTERIZE = """{
  "n": %d,
  "convex": true,
  "equiangular": %s,
  "equilateral": false,
  "regular": false,
  "f1_coincident": %s,
  "f2_coincident": %s,
  "f3_coincident": %s,
  "consistent_with_theorems": true
}
"""
# (argv with the document to write, or None, and stdout byte for byte)
PINNED = {
    "check-axioms-lamina": (
        ["check-axioms", "--name", "lamina", "--n", "6", "--trials", "20", "--seed", "7"], None,
        _AXIOMS % ("lamina", "4.7120988067e-16")),
    "check-axioms-expr": (
        ["check-axioms", "--expr", "d(n,1)*d(1,2)", "--n", "6", "--trials", "20", "--seed", "7"],
        None, _AXIOMS % ("d(n,1)*d(1,2)", "6.42470801462e-16")),
    "characterize-pentagon": (
        ["characterize"], PENTAGON, _CHARACTERIZE % (5, "false", "false", "false", "null")),
    "characterize-hexagon": (
        ["characterize"], HEXAGON, _CHARACTERIZE % (6, "true", "true", "null", "true")),
    "center-median": (["center", "--name", "median"], QUAD, """{
  "name": "median",
  "point": [
    2.75862068965,
    1.65517241379
  ],
  "iterations": 50,
  "residual": 1.50285203478e-13
}
"""),
    "center-chebyshev": (["center", "--name", "chebyshev"], QUAD, """{
  "name": "chebyshev",
  "point": [
    2.5,
    1.5
  ],
  "radius": 2.91547594742,
  "support": [
    1,
    3
  ]
}
"""),
    "reconstruct": (["reconstruct"], QUADMAT, """{
  "name": "quad",
  "vertices": [
    [
      0.0,
      0.0
    ],
    [
      4.0,
      0.0
    ],
    [
      5.0,
      -3.0
    ],
    [
      1.0,
      -4.0
    ]
  ]
}
"""),
}


@pytest.mark.parametrize("argv, data, want", PINNED.values(), ids=PINNED)
def test_records_are_pinned_byte_for_byte(tmp_path, capsys, argv, data, want):
    if data is not None:
        argv = argv[:1] + [write_doc(tmp_path, "doc.json", data)] + argv[1:]
    assert invoke(capsys, argv) == (0, want, "")


# check-axioms --name <entry> --n <n> --trials 20 --seed <seed> of the catalog's
# vertex entries, whose trials take the values their facts imply: (entry, n,
# seed) -> (estimated_degree, max_violation) as printed when every trial
# evaluated all six of its inputs; every axiom holds
VERTEX_AXIOMS = {
    ("centroid", n, seed): ("0.0", "0.0") for n in (3, 6, 9) for seed in (0, 7)
} | {
    ("lamina", 3, 0): ("2.0", "3.46944695195e-16"), ("lamina", 3, 7): ("2.0", "4.75314232418e-16"),
    ("lamina", 6, 0): ("2.0", "4.2631172657e-16"), ("lamina", 6, 7): ("2.0", "4.7120988067e-16"),
    ("lamina", 9, 0): ("2.0", "3.33066907388e-16"), ("lamina", 9, 7): ("2.0", "6.29252299594e-16"),
} | {
    ("medoid", n, seed): ("null" if (n, seed) == (9, 0) else "0.0", "0.0")
    for n in (3, 6, 9) for seed in (0, 7)
}


@pytest.mark.parametrize("name, n, seed", VERTEX_AXIOMS,
                         ids=[f"{name}-{n}-{seed}" for name, n, seed in VERTEX_AXIOMS])
def test_vertex_entry_axiom_records_are_pinned_byte_for_byte(capsys, name, n, seed):
    degree, worst = VERTEX_AXIOMS[name, n, seed]
    want = (f'{{\n  "name": "{name}",\n  "n": {n},\n  "trials": 20,\n  "relabel_ok": true,\n'
            f'  "motion_ok": true,\n  "homogeneity_ok": true,\n  "estimated_degree": {degree},\n'
            f'  "max_violation": {worst}\n}}\n')
    argv = ["check-axioms", "--name", name, "--n", str(n), "--trials", "20", "--seed", str(seed)]
    assert invoke(capsys, argv) == (0, want, "")


# ------------------------------------------------------------------- misc


def test_rounding_helper():
    assert _rounded(4 / 3, 3) == 1.33
    assert _rounded(-0.0, 6) == 0.0
    assert math.copysign(1.0, _rounded(-1e-30, 2)) == -1.0  # tiny, not zero
    assert _rounded(True, 3) is True
    assert _rounded([1.23456789, {"x": 2.0}], 4) == [1.235, {"x": 2.0}]


def _console_script_target(name):
    """The "module:function" target of a [project.scripts] entry."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    match = re.search(rf'^{name}\s*=\s*"([^"]+)"\s*$', section, re.MULTILINE)
    assert match, f"no [project.scripts] entry for {name}"
    return match.group(1)


def _python(args):
    """A fresh interpreter run with args, importing this checkout's package."""
    src = str(Path(polycenter.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _console_script(argv):
    # Runs the console script's target the way its installed wrapper does,
    # so the test does not depend on the package being installed.
    module, attr = _console_script_target("polycenter").split(":")
    return _python(["-c", f"import sys; from {module} import {attr}; sys.exit({attr}())", *argv])


def test_console_script_help():
    proc = _console_script(["--help"])
    assert proc.returncode == 0
    assert "center" in proc.stdout and "reconstruct" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["check-axioms", "--expr", "d(1,2)", "--trials", "0"],
    ["check-axioms", "--expr", "d(1,2)+", "--trials", "3"],
    ["check-axioms", "--name", "perimeter", "--trials", "2"],
])
def test_python_dash_m_runs_the_console_script(argv):
    want = _console_script(argv)
    assert want.returncode == (0 if argv[1] == "--name" else 2)
    for form in (["-m", "polycenter.cli"], ["-m", "polycenter"]):
        got = _python([*form, *argv])
        assert (got.returncode, got.stdout, got.stderr) == (
            want.returncode, want.stdout, want.stderr)


def test_importing_the_main_module_runs_nothing(monkeypatch):
    # `python -m polycenter` runs the command line; an import, as a tool that
    # imports every submodule makes, returns normally
    monkeypatch.delitem(sys.modules, "polycenter.__main__", raising=False)
    assert importlib.import_module("polycenter.__main__").run is cli.run


def test_characterize_reports_alike_at_every_power_of_two_scale(tmp_path, capsys):
    # the seeded 7-gon reported f2_coincident true below unit scale, where
    # the middle-side spread was compared against an absolute floor of 1
    p = random_convex_polygon(random.Random(3), 7)
    reports = {}
    for k in [*range(-1000, 1001, 25), -30, -1, 1, 999]:
        pairs = [[math.ldexp(v.x, k), math.ldexp(v.y, k)] for v in p.vertices]
        doc = write_doc(tmp_path, "scaled.json", {"vertices": pairs})
        rc, out, err = invoke(capsys, ["characterize", doc])
        assert rc == 0 and err == "", k
        reports[k] = out
    assert set(reports.values()) == {reports[0]}
    report = json.loads(reports[0])
    assert report["f2_coincident"] is False and report["consistent_with_theorems"] is True


# ------------------------------------------------------------ parser reuse


def run_with_columns(columns, argv):
    """(code, stdout, stderr) of one main call under COLUMNS=columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS=columns), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def reuse_docs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reuse")
    return {f"{{{key}}}": write_doc(tmp, f"{key}.json", data)
            for key, data in (("sq", SQUARE), ("tri", TRI345), ("mat", TRIMAT))}


REUSE_ARGVS = [
    ["center", "{sq}", "--name", "centroid"],
    ["center", "{tri}", "--expr", "d(n,1)+d(1,2)", "--precision", "3"],
    ["coords", "{tri}", "--name", "perimeter"],
    ["characterize", "{sq}", "--tol", "0"],
    ["reconstruct", "{mat}"],
    ["check-axioms", "--name", "centroid", "--n", "4", "--trials", "2"],
    ["center", "{sq}", "--name", "circumcenter"],
    ["center", "{sq}", "--expr", "d(1,2)-d(1,2)"],
    ["center", "{tri}", "--name", "median", "--max-iter", "1"],
    ["center", "{sq}", "--name", "nope"],
    ["center", "{sq}", "--name", "centroid", "--precision", "101"],
    ["center", "{sq}", "--name", "centroid", "--precision", "x"],
    ["characterize", "{sq}", "--tol", "nan"],
    ["center", "{tri}", "--name", "median", "--max-iter", "0"],
    ["check-axioms", "--name", "centroid", "--n", "2"],
    ["check-axioms", "--expr", "d(1,2)", "--n", "129"],
    ["center", "{sq}"],
    ["center", "{sq}", "--name", "centroid", "--expr", "d(1,2)"],
    ["center", "{sq}", "--name", "centroid", "--bogus"],
    ["frobnicate", "{sq}"],
    [],
    ["--help"],
    ["check-axioms", "--help"],
]
HELP = REUSE_ARGVS.index(["check-axioms", "--help"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(REUSE_ARGVS) - 1), st.sampled_from(["40", "120"])),
                min_size=1, max_size=8))
@example([(HELP, "40"), (HELP, "120"), (0, "40")])
def test_a_reused_parser_keeps_no_state(reuse_docs, calls):
    argvs = [([reuse_docs.get(a, a) for a in REUSE_ARGVS[i]], columns) for i, columns in calls]
    reused = [run_with_columns(columns, argv) for argv, columns in argvs]
    fresh = []
    for argv, columns in argvs:
        cli._parser.cache_clear()
        fresh.append(run_with_columns(columns, argv))
    assert reused == fresh
    assert {code for code, _, _ in reused} <= {0, 2, 3, 4, 5}


def test_help_is_formatted_for_the_columns_of_each_call():
    narrow = run_with_columns("40", ["check-axioms", "--help"])
    wide = run_with_columns("120", ["check-axioms", "--help"])
    assert narrow[0] == wide[0] == 0
    assert max(map(len, wide[1].splitlines())) > 40 >= max(map(len, narrow[1].splitlines()))


def test_main_builds_the_parser_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    doc = write_doc(tmp_path, "sq.json", SQUARE)
    assert invoke(capsys, ["center", doc, "--name", "centroid"])[0] == 0
    assert invoke(capsys, ["center", doc, "--precision", "x"])[0] == 2
    assert len(built) == 1
    assert build() is not build()
