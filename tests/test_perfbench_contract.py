"""The benchmark tracer still finds every kernel it wraps.

`perfbench/tracing.py` wraps functions and methods by name; a renamed or
moved kernel breaks only a traced benchmark run. This runs the tracer
once over the catalog, which needs neither numpy nor a benchmark run.
"""

import importlib.util
from pathlib import Path

import polycenter.cli  # noqa: F401  (the tracer rebinds names in every loaded module)
from polycenter import catalog, framework
from polycenter.framework import geometric_center
from polycenter.geometry import Polygon, distance_matrix

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_one_guard_per_map_and_restores_the_catalog():
    tracing = load_tracing()
    entries = dict(catalog.CATALOG)
    tri = Polygon.from_pairs([(0, 0), (3, 0), (0, 4)])
    tracer = tracing.Tracer()
    tracer.install({})
    try:
        for entry in catalog.CATALOG.values():
            geometric_center(entry.function, tri)
        polygon_pass = tracer.metrics()
        # on a matrix the perimeter guard reconstructs a polygon
        framework.coordinate_map_length(
            catalog.CATALOG["perimeter"].function, distance_matrix(tri)
        )
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert polygon_pass["framework.guard_calls_per_map"] == 1.0
    # the lamina and perimeter guards read the polygon
    assert polygon_pass["geometry.is_convex.calls"] == 2
    assert polygon_pass["reconstruction.convex_distances.calls"] == 0
    assert metrics["framework.guard_calls_per_map"] == 1.0
    assert metrics["reconstruction.convex_distances.calls"] == 1
    assert all(catalog.CATALOG[name] is entry for name, entry in entries.items())
