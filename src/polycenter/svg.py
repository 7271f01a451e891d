"""Deterministic SVG rendering of a polygon with labeled center markers.

The viewBox is the bounding box of the polygon together with every marker
point, padded by 10% of its larger side; strokes, markers and labels are
fractions of that side too, so the drawing scales with its input (a box
that is a single point gets the side 1e-9). The y axis is mirrored by hand
(SVG y grows downward) and every coordinate is written with a fixed
``%.8g`` format, so identical inputs produce byte-identical files. An
extent that overflows any of these numbers raises NonFinite.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import DocumentError, NonFinite
from .framework import BarycentricWeights, ProjectiveCoords
from .geometry import Frozen, Point2, Polygon, _set

_PALETTE = (
    "#d62728",
    "#1f77b4",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)

_OUTLINE = "#1f2937"


class CenterRecord(Frozen):
    """One computed center: coordinates on success, a diagnostic on failure."""

    __slots__ = ("name", "projective", "weights", "point", "error", "error_type", "extra")

    def __init__(self, name: str, projective: Optional[ProjectiveCoords] = None,
                 weights: Optional[BarycentricWeights] = None, point: Optional[Point2] = None,
                 error: Optional[str] = None, error_type: Optional[str] = None,
                 extra: tuple[tuple[str, object], ...] = ()) -> None:
        _set(self, "name", name)
        _set(self, "projective", projective)
        _set(self, "weights", weights)
        _set(self, "point", point)
        _set(self, "error", error)
        _set(self, "error_type", error_type)
        _set(self, "extra", extra)


def _fmt(x: float) -> str:
    out = f"{x:.8g}"
    return "0" if out == "-0" else out


def _escape(text: str) -> str:
    """Text as XML character data, as xml.sax.saxutils.escape writes it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(p: Polygon, records: list[CenterRecord]) -> str:
    marked = [r for r in records if r.point is not None]
    xs = [*p.xs, *(r.point.x for r in marked)]  # type: ignore[union-attr]
    ys = [*p.ys, *(r.point.y for r in marked)]  # type: ignore[union-attr]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    side = max(hi_x - lo_x, hi_y - lo_y) or 1e-9
    margin = 0.10 * side

    # mirror y about the bbox midline so screen-up matches plane-up
    def place(q: tuple[float, float]) -> tuple[float, float]:
        return q[0], (lo_y + hi_y) - q[1]

    vx = lo_x - margin
    vy = lo_y - margin
    vw = (hi_x - lo_x) + 2 * margin
    vh = (hi_y - lo_y) + 2 * margin

    width = 640.0
    # divide first: the ratio is finite wherever the viewBox is
    height = width * (vh / vw)
    # Every other number written is a fraction of side, a coordinate
    # between the viewBox edges, or one mirrored through lo_y + hi_y.
    bounds = (vx, vy, vw, vh, height, hi_x + margin, hi_y + margin, lo_y + hi_y)
    if not all(map(math.isfinite, bounds)):
        raise NonFinite("plot extent must be finite")

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">'
    ]

    steps = []
    for k, (x, y) in enumerate(map(place, zip(p.xs, p.ys))):
        steps.append(f"{'M' if k == 0 else 'L'} {_fmt(x)} {_fmt(y)}")
    steps.append("Z")
    stroke = 0.004 * side
    lines.append(
        f'<path d="{" ".join(steps)}" fill="none" '
        f'stroke="{_OUTLINE}" stroke-width="{_fmt(stroke)}"/>'
    )

    radius = 0.012 * side
    font = 0.045 * side
    for k, rec in enumerate(marked):
        assert rec.point is not None
        x, y = place(rec.point.as_tuple())
        color = _PALETTE[k % len(_PALETTE)]
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" '
            f'fill="{color}"/>'
        )
        lines.append(
            f'<text x="{_fmt(x + 1.8 * radius)}" y="{_fmt(y - 1.8 * radius)}" '
            f'font-family="sans-serif" font-size="{_fmt(font)}" '
            f'fill="{color}">{_escape(rec.name)}</text>'
        )

    for rec in records:
        if rec.error is not None:
            # XML comments must not contain "--"
            note = f"{rec.name} failed: {rec.error_type}: {rec.error}"
            lines.append(f"<!-- {note.replace('--', '- -')} -->")

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_svg(p: Polygon, records: list[CenterRecord], path: str) -> None:
    text = render_svg(p, records)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}", path) from exc
