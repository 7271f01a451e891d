import subprocess
import sys
from xml.sax.saxutils import escape

import pytest

from polycenter.errors import NonFinite
from polycenter.geometry import Point2, Polygon
from polycenter.svg import CenterRecord, render_svg

TRI = Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])


def test_cli_import_leaves_out_the_xml_and_url_modules():
    probe = (
        "import sys, polycenter.cli; "
        "print(sorted({'xml.sax.saxutils', 'urllib.request'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_center_names_are_escaped_like_saxutils():
    name = "a<b>&\"c'"
    text = render_svg(TRI, [CenterRecord(name, point=Point2(1.0, 1.0))])
    assert f">{escape(name)}</text>" in text


@pytest.mark.parametrize("pairs, marker", [
    # the viewBox width overflows
    ([(-1e308, 0), (1e308, 0), (0, 1)], None),
    # the viewBox is finite, its far edge and a label beside the marker are not
    ([(1.797e308, 0), (1.7e308, 0), (1.7e308, 1e306)], (1.797e308, 0.0)),
    # the viewBox is finite, the height attribute, 640 times its height, is not
    ([(0, 0), (1e306, 0), (0, 1e306)], None),
])
def test_an_extent_that_overflows_raises(pairs, marker):
    records = [] if marker is None else [CenterRecord("v", point=Point2(*marker))]
    with pytest.raises(NonFinite, match="plot extent must be finite"):
        render_svg(Polygon.from_pairs(pairs), records)
