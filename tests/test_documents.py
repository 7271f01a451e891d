import json
import math
import random
from pathlib import Path

import pytest

from polycenter.documents import (
    PolygonDocument,
    document_from_data,
    document_to_data,
    read_document,
    write_document,
)
from polycenter.errors import DocumentError
from polycenter.geometry import DistanceMatrix, Polygon, distance_matrix
from polycenter.sampling import random_polygon

TRI345 = Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])


# ------------------------------------------------------------ construction


def test_document_requires_exactly_one_payload():
    with pytest.raises(DocumentError):
        PolygonDocument("empty", None, None)
    with pytest.raises(DocumentError):
        PolygonDocument("both", TRI345, distance_matrix(TRI345))


def test_vertex_document_accessors():
    doc = PolygonDocument("tri", TRI345, None)
    assert doc.polygon() is TRI345


def test_matrix_document_reconstructs_a_polygon():
    doc = PolygonDocument("tri", None, distance_matrix(TRI345))
    p = doc.polygon()
    # Canonical embedding, not the original coordinates -- but the same
    # shape, so measuring it reproduces the stored matrix.
    back = distance_matrix(p)
    for i in range(3):
        for j in range(3):
            assert back.d[i][j] == pytest.approx(doc.distances.d[i][j], abs=1e-12)


# ------------------------------------------------------------ schema errors


def err(data):
    with pytest.raises(DocumentError) as exc_info:
        document_from_data(data)
    return str(exc_info.value)


def test_top_level_must_be_an_object():
    assert err([1, 2, 3]) == "$: expected an object"
    assert err("vertices") == "$: expected an object"


def test_unknown_keys_are_rejected():
    msg = err({"vertices": [[0, 0], [1, 0], [0, 1]], "color": "red", "z": 1})
    assert msg == "$: unknown keys ['color', 'z']"


def test_name_must_be_a_string():
    assert err({"name": 7, "vertices": [[0, 0], [1, 0], [0, 1]]}) == (
        "$.name: expected a string"
    )


def test_exactly_one_of_vertices_distances():
    assert "exactly one of vertices/distances" in err({"name": "x"})
    both = {
        "vertices": [[0, 0], [1, 0], [0, 1]],
        "distances": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    }
    assert "exactly one of vertices/distances" in err(both)


def test_vertices_shape_errors_carry_paths():
    assert err({"vertices": "nope"}) == (
        "$.vertices: expected an array of at least 3 pairs"
    )
    assert err({"vertices": [[0, 0], [1, 0]]}) == (
        "$.vertices: expected an array of at least 3 pairs"
    )
    assert err({"vertices": [[0, 0], [1, 0, 3], [0, 1]]}) == (
        "$.vertices[1]: expected [x, y]"
    )
    assert err({"vertices": [[0, 0], [1, 0], [0, "y"]]}) == (
        "$.vertices[2][1]: expected a number, got 'y'"
    )


def test_booleans_are_not_numbers():
    msg = err({"vertices": [[0, 0], [True, 0], [0, 1]]})
    assert msg == "$.vertices[1][0]: expected a number, got True"


def test_nonfinite_numbers_are_rejected():
    msg = err({"vertices": [[0, 0], [math.inf, 0], [0, 1]]})
    assert msg == "$.vertices[1][0]: expected a finite number, got inf"
    msg = err({"distances": [[0, 1, 1], [1, 0, math.nan], [1, math.nan, 0]]})
    assert msg == "$.distances[1][2]: expected a finite number, got nan"


def test_distance_shape_errors_carry_paths():
    assert err({"distances": [[0, 1], [1, 0]]}) == (
        "$.distances: expected at least 3 rows"
    )
    assert err({"distances": [[0, 1, 1], [1, 0], [1, 1, 0]]}) == (
        "$.distances[1]: expected 3 entries"
    )
    assert err({"distances": [[0, 1, 1], [1, 0, "q"], [1, 1, 0]]}) == (
        "$.distances[1][2]: expected a number, got 'q'"
    )


def test_distance_matrix_validation_is_wrapped():
    asym = [[0, 1, 1], [2, 0, 1], [1, 1, 0]]
    assert err({"distances": asym}) == "$.distances: matrix not symmetric at (0,1)"
    diag = [[0, 1, 1], [1, 5, 1], [1, 1, 0]]
    assert err({"distances": diag}) == "$.distances: d[1][1] must be zero"
    neg = [[0, -1, 1], [-1, 0, 1], [1, 1, 0]]
    assert err({"distances": neg}) == "$.distances: d[0][1] is negative"


# ------------------------------------------------------------ files


def test_write_then_read_is_float_identical(tmp_path):
    rng = random.Random(11)
    for k in range(20):
        p = random_polygon(rng, rng.randrange(3, 9))
        path = str(tmp_path / f"poly{k}.json")
        write_document(PolygonDocument("sample", p, None), path)
        doc = read_document(path)
        assert doc.name == "sample"
        assert doc.vertices.vertices == p.vertices  # every bit preserved


def test_matrix_write_then_read_is_float_identical(tmp_path):
    D = distance_matrix(Polygon.from_pairs([(0.1, 0.2), (1 / 3, 7), (-2, 0.5)]))
    path = str(tmp_path / "mat.json")
    write_document(PolygonDocument("", None, D), path)
    doc = read_document(path)
    assert doc.distances.d == D.d


def test_written_file_shape(tmp_path):
    path = str(tmp_path / "tri.json")
    write_document(PolygonDocument("tri", TRI345, None), path)
    text = Path(path).read_text(encoding="utf-8")
    assert text.endswith("\n")
    data = json.loads(text)
    assert data == {"name": "tri", "vertices": [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]}
    # indent=2 formatting, one coordinate pair per entry
    assert '  "name": "tri",' in text.splitlines()


def test_empty_name_is_omitted_on_write():
    data = document_to_data(PolygonDocument("", TRI345, None))
    assert "name" not in data


def test_read_missing_file():
    with pytest.raises(DocumentError) as exc_info:
        read_document("no-such-file.json")
    assert str(exc_info.value) == (
        "cannot read no-such-file.json: No such file or directory"
    )
    assert exc_info.value.path == "no-such-file.json"


def test_read_invalid_json(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\"vertices\": [[0, 0],")
    with pytest.raises(DocumentError) as exc_info:
        read_document(path)
    assert str(exc_info.value).startswith(f"{path} is not valid JSON:")


def test_read_schema_error_prefixes_filename(tmp_path):
    path = str(tmp_path / "short.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"vertices": [[0, 0], [1, 0]]}, fh)
    with pytest.raises(DocumentError) as exc_info:
        read_document(path)
    assert str(exc_info.value) == (
        f"{path}: $.vertices: expected an array of at least 3 pairs"
    )


def test_write_failure_is_a_document_error(tmp_path):
    target = str(tmp_path)  # a directory: open(..., "w") fails
    with pytest.raises(DocumentError) as exc_info:
        write_document(PolygonDocument("x", TRI345, None), target)
    assert str(exc_info.value).startswith(f"cannot write {target}")
