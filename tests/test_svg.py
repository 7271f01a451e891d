import json
import math
import os
import random
import re
import subprocess
import sys
from xml.sax.saxutils import escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polycenter
from polycenter.cli import main
from polycenter.errors import NonFinite
from polycenter.geometry import Point2, Polygon
from polycenter.sampling import random_convex_polygon
from polycenter.svg import CenterRecord, render_svg

TRI = Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])


def test_cli_import_leaves_out_the_xml_and_url_modules():
    probe = (
        "import sys, polycenter.cli; "
        "print(sorted({'xml.sax.saxutils', 'urllib.request'} & set(sys.modules)))"
    )
    # the child imports the same polycenter, installed or not
    src = os.path.dirname(os.path.dirname(polycenter.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out == "[]\n"


def test_render_svg_builds_no_vertex_points():
    p = random_convex_polygon(random.Random(4), 9)
    render_svg(p, [CenterRecord("c", point=Point2(0.1, 0.2))])
    assert p._vertices is None


def test_center_names_are_escaped_like_saxutils():
    name = "a<b>&\"c'"
    text = render_svg(TRI, [CenterRecord(name, point=Point2(1.0, 1.0))])
    assert f">{escape(name)}</text>" in text


@pytest.mark.parametrize("pairs, marker", [
    # the viewBox width overflows
    ([(-1e308, 0), (1e308, 0), (0, 1)], None),
    # the viewBox is finite, its far edge and a label beside the marker are not
    ([(1.797e308, 0), (1.7e308, 0), (1.7e308, 1e306)], (1.797e308, 0.0)),
])
def test_an_extent_that_overflows_raises(pairs, marker):
    records = [] if marker is None else [CenterRecord("v", point=Point2(*marker))]
    with pytest.raises(NonFinite, match="plot extent must be finite"):
        render_svg(Polygon.from_pairs(pairs), records)


def test_a_finite_viewbox_with_a_huge_height_renders(tmp_path, capsys):
    # 640 times the viewBox height overflows; 640 times the ratio 1 does not
    pairs = [(0, 0), (1e306, 0), (0, 1e306)]
    text = render_svg(Polygon.from_pairs(pairs), [])
    assert 'width="640" height="640">' in text
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"vertices": pairs}), encoding="utf-8")
    target = tmp_path / "huge.svg"
    rc = main(["plot", str(doc), "--centers", "centroid", "-o", str(target)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert 'width="640" height="640">' in target.read_text(encoding="utf-8")


_LENGTHS = re.compile(r' (viewBox|d|stroke-width|cx|cy|r|x|y|font-size)="([^"]*)"')


def _lengths(text):
    """Every number the SVG gives in drawing units, in document order."""
    return [float(tok) for _, value in _LENGTHS.findall(text)
            for tok in value.split() if tok not in ("M", "L", "Z")]


@given(st.integers(-100, 100))
def test_the_drawing_scales_with_its_input(k):
    pairs = [(0.3, -1.2), (2.5, 0.7), (-0.4, 1.9), (0.1, 0.2)]
    marks = [(0.5, 0.4), (3.1, -1.7)]
    t = math.ldexp(1.0, k)

    def svg(scale):
        p = Polygon.from_pairs([(scale * x, scale * y) for x, y in pairs])
        records = [CenterRecord(f"m{i}", point=Point2(scale * x, scale * y))
                   for i, (x, y) in enumerate(marks)]
        return render_svg(p, records)

    base, scaled = svg(1.0), svg(t)
    assert base.splitlines()[0].split("width=")[1] == scaled.splitlines()[0].split("width=")[1]
    want, got = _lengths(base), _lengths(scaled)
    assert len(got) == len(want) > 20
    for a, b in zip(got, want):
        assert abs(a - t * b) <= 1e-7 * abs(t * b)


def test_a_tiny_triangle_is_drawn_at_its_own_scale():
    text = render_svg(Polygon.from_pairs([(0, 0), (1e-12, 0), (0, 1e-12)]),
                      [CenterRecord("c", point=Point2(1e-12 / 3, 1e-12 / 3))])
    assert 'viewBox="-1e-13 -1e-13 1.2e-12 1.2e-12"' in text
    assert 'r="1.2e-14"' in text


def test_a_box_that_is_one_point_gets_the_side_floor():
    text = render_svg(Polygon.from_pairs([(2, 3)] * 3), [])
    assert 'viewBox="2 3 2e-10 2e-10"' in text
