"""Polygon documents: a small JSON schema for one polygon per file.

Top-level object carries an optional ``name`` plus exactly one of
``vertices`` (array of [x, y] pairs, at least 3) or ``distances`` (an
n-by-n symmetric array). Schema violations raise DocumentError with a
JSON-path diagnostic; floats are written with repr so a write/read
round trip reproduces every bit.
"""

from __future__ import annotations

import json
import math

from .errors import DocumentError
from .geometry import DistanceMatrix, Frozen, Polygon
from .reconstruction import reconstruct


class PolygonDocument(Frozen):
    # str, then exactly one of vertices: Polygon and distances: DistanceMatrix
    __slots__ = ("name", "vertices", "distances")
    _defaults = {"name": "", "vertices": None, "distances": None}

    def __post_init__(self) -> None:
        if (self.vertices is None) == (self.distances is None):
            raise DocumentError("exactly one of vertices/distances is required")

    def polygon(self) -> Polygon:
        """The stored polygon, reconstructing from distances if needed."""
        if self.vertices is not None:
            return self.vertices
        assert self.distances is not None
        return reconstruct(self.distances).polygon


def _number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise DocumentError(f"{where}: integer out of float range") from None
    # json.load accepts the Infinity/NaN extensions; keep them out here.
    if not math.isfinite(x):
        raise DocumentError(f"{where}: expected a finite number, got {value!r}")
    return x


def document_from_data(data: object) -> PolygonDocument:
    """Build a document from already-decoded JSON data; diagnostics give
    JSON paths from the root, `$`."""
    if not isinstance(data, dict):
        raise DocumentError("$: expected an object", "$")
    unknown = set(data) - {"name", "vertices", "distances"}
    if unknown:
        raise DocumentError(f"$: unknown keys {sorted(unknown)}", "$")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise DocumentError("$.name: expected a string", "$")
    has_v = "vertices" in data
    has_d = "distances" in data
    if has_v == has_d:
        raise DocumentError("$: exactly one of vertices/distances is required", "$")

    if has_v:
        raw = data["vertices"]
        if not isinstance(raw, list) or len(raw) < 3:
            raise DocumentError("$.vertices: expected an array of at least 3 pairs", "$")
        xs, ys = [], []
        for k, pair in enumerate(raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise DocumentError(f"$.vertices[{k}]: expected [x, y]", "$")
            xs.append(_number(pair[0], f"$.vertices[{k}][0]"))
            ys.append(_number(pair[1], f"$.vertices[{k}][1]"))
        return PolygonDocument(name, Polygon._of(tuple(xs), tuple(ys)), None)

    raw = data["distances"]
    if not isinstance(raw, list) or len(raw) < 3:
        raise DocumentError("$.distances: expected at least 3 rows", "$")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(raw):
            raise DocumentError(f"$.distances[{i}]: expected {len(raw)} entries", "$")
        rows.append(
            tuple(
                _number(v, f"$.distances[{i}][{j}]")
                for j, v in enumerate(row)
            )
        )
    try:
        return PolygonDocument(name, None, DistanceMatrix(tuple(rows)))
    except ValueError as exc:
        raise DocumentError(f"$.distances: {exc}", "$") from exc


def read_document(path: str) -> PolygonDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise DocumentError(f"cannot read {path}: {reason}", path) from exc
    # bad JSON, bytes not UTF-8, an integer too long to read, arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise DocumentError(
            f"{path} is not valid JSON: {exc}", path
        ) from exc
    try:
        return document_from_data(data)
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}", path) from exc


def document_to_data(doc: PolygonDocument) -> dict:
    data: dict = {}
    if doc.name:
        data["name"] = doc.name
    if doc.vertices is not None:
        data["vertices"] = [[x, y] for x, y in zip(doc.vertices.xs, doc.vertices.ys)]
    else:
        assert doc.distances is not None
        data["distances"] = [list(row) for row in doc.distances.d]
    return data


def write_document(doc: PolygonDocument, path: str) -> None:
    data = document_to_data(doc)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}", path) from exc
