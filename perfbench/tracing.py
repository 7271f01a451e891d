"""Spans and counters around the public functions of each polycenter layer.

Everything is wrapped from outside: module attributes in every
``polycenter`` namespace that binds the function, methods on their
classes, and the evaluator and guard of each center function through
``dataclasses.replace``. Spans stay in memory as ``[name, start, end,
parent]`` and are written out when the run ends. A span's self time is
its duration minus the durations of its child spans; calls nest, so the
children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
from collections import Counter
from typing import Callable, Optional

from polycenter import catalog, geometry

# Span name -> (module, attribute). Each is wrapped wherever it is bound.
FUNCTIONS = {
    "geometry.distance_matrix": ("polycenter.geometry", "distance_matrix"),
    "geometry.is_convex": ("polycenter.geometry", "is_convex"),
    "geometry.is_nondegenerate": ("polycenter.geometry", "is_nondegenerate"),
    "reconstruction.reconstruct": ("polycenter.reconstruction", "reconstruct"),
    "reconstruction.convex_distances": ("polycenter.reconstruction", "convex_distances"),
    "reconstruction.validate": ("polycenter.reconstruction", "validate"),
    "framework.coordinate_map_vertex": ("polycenter.framework", "coordinate_map_vertex"),
    "framework.coordinate_map_length": ("polycenter.framework", "coordinate_map_length"),
    "framework.normalize": ("polycenter.framework", "normalize"),
    "framework.verify_axioms": ("polycenter.framework", "verify_axioms"),
    "characterization.characterize": ("polycenter.characterization", "characterize"),
    "characterization.coincidence": ("polycenter.characterization", "coincidence"),
    "dsl.parse": ("polycenter.dsl", "parse"),
    "dsl.evaluate": ("polycenter.dsl", "evaluate"),
    "dsl.admit": ("polycenter.dsl", "admit"),
    "optim.geometric_median": ("polycenter.optim", "geometric_median"),
    "optim.chebyshev_center": ("polycenter.optim", "chebyshev_center"),
    "sampling.random_polygon": ("polycenter.sampling", "random_polygon"),
    "sampling.random_convex_polygon": ("polycenter.sampling", "random_convex_polygon"),
    "documents.read_document": ("polycenter.documents", "read_document"),
    "documents.write_document": ("polycenter.documents", "write_document"),
    "svg.render_svg": ("polycenter.svg", "render_svg"),
    "svg.emit_svg": ("polycenter.svg", "emit_svg"),
    "cli.main": ("polycenter.cli", "main"),
    "cli.build_parser": ("polycenter.cli", "build_parser"),
    "cli.compute_record": ("polycenter.cli", "compute_record"),
}
# Span name -> (class, method).
METHODS = {
    "geometry.shifted": (geometry.Polygon, "shifted"),
    "geometry.rotated": (geometry.DistanceMatrix, "rotated"),
}
# Counter name -> (class, method); counted only, they are too hot for spans.
COUNTED = {
    "geometry.point2_validations": (geometry.Point2, "__post_init__"),
    "geometry.matrix_validations": (geometry.DistanceMatrix, "__post_init__"),
}
EVALUATOR = "framework.evaluator"
GUARD = "framework.guard"
SPANS = tuple(FUNCTIONS) + tuple(METHODS) + (EVALUATOR, GUARD)
EXIT_CODES = ("0", "2", "3", "4", "5", "other")
COUNTERS = tuple(COUNTED) + (
    "optim.median_iterations",
    "optim.median_vertex_captures",
    "dsl.admit.rejected",
    "documents.bytes_written",
    "svg.bytes_written",
) + tuple(f"cli.exit_code.{c}" for c in EXIT_CODES)
# Operation classes of maps-catalog, reported as catalog.<entry>.<size>.p50_ms.
CATALOG_CLASSES = tuple(
    f"catalog.{name}.{size}"
    for size, names in (
        ("tri", ("centroid", "perimeter", "lamina", "medoid", "circumcenter")),
        ("n8", ("centroid", "perimeter", "lamina", "medoid")),
        ("n32", ("centroid", "perimeter", "lamina", "medoid")),
        ("n128", ("centroid", "medoid")),
        ("star", ("perimeter", "lamina")),
    )
    for name in names
)
ROOT = "op:"


def per_layer_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    specs: dict[str, tuple[str, str]] = {}
    for name in SPANS:
        specs[f"{name}.calls"] = ("count", "lower")
        specs[f"{name}.self_s"] = ("s", "lower")
    for name in COUNTERS:
        specs[name] = ("count", "lower")
    specs["optim.median_vertex_captures"] = ("count", "higher")
    specs["cli.exit_code.0"] = ("count", "higher")
    specs["framework.guard_calls_per_map"] = ("ratio", "lower")
    specs["dsl.eval_share"] = ("ratio", "higher")
    specs["sampling.convex_attempts_per_sample"] = ("ratio", "lower")
    for cls in CATALOG_CLASSES:
        specs[f"{cls}.p50_ms"] = ("ms", "lower")
    specs["import.polycenter_cli_ms"] = ("ms", "lower")
    specs["import.xml_sax_saxutils_ms"] = ("ms", "lower")
    specs["import.bare_python_ms"] = ("ms", "lower")
    specs["trace.overhead_ratio"] = ("ratio", "lower")
    return specs


class Tracer:
    """Installs the wrappers, holds the spans and counters, removes them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[Callable[[], None]] = []
        self._traced: dict[int, Callable] = {}

    # ----------------------------------------------------------- wrappers

    def wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        """A span around every call of fn; hook(args, result, exc) runs after
        the span closes."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if hook is not None and isinstance(exc, Exception):
                    hook(args, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if hook is not None:
                hook(args, result, None)
            return result

        return traced

    def _count(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _hooks(self) -> dict[str, Callable]:
        counts = self.counts

        def median(args, result, exc):
            if result is not None:
                counts["optim.median_iterations"] += result.iterations
                counts["optim.median_vertex_captures"] += result.at_vertex is not None

        def admit(args, result, exc):
            counts["dsl.admit.rejected"] += exc is not None

        def written(counter: str, position: int):
            def hook(args, result, exc):
                if exc is None:
                    counts[counter] += os.path.getsize(args[position])
            return hook

        def exit_code(args, result, exc):
            code = str(result)
            counts[f"cli.exit_code.{code if code in EXIT_CODES else 'other'}"] += 1

        return {
            "optim.geometric_median": median,
            "dsl.admit": admit,
            "documents.write_document": written("documents.bytes_written", 1),
            "svg.emit_svg": written("svg.bytes_written", 2),
            "cli.main": exit_code,
        }

    # ------------------------------------------------------ install/remove

    def _rebind(self, original: Callable, replacement: Callable) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "polycenter" and not modname.startswith("polycenter."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append(functools.partial(setattr, module, attr, original))

    def _patch(self, owner: type, attr: str, replacement: Callable) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._undo.append(functools.partial(setattr, owner, attr, original))

    def _traced_center(self, f):
        """The center function with its evaluator and guard wrapped; a guard
        that is itself a traced function calls the traced version."""
        guard = f.domain_guard
        if guard is not None:
            guard = self.wrap(self._traced.get(id(guard), guard), GUARD)
        return dataclasses.replace(f, evaluator=self.wrap(f.evaluator, EVALUATOR),
                                   domain_guard=guard)

    def _replace_items(self, table: dict, rewrap: Callable) -> None:
        for key, value in list(table.items()):
            table[key] = rewrap(value)
            self._undo.append(functools.partial(table.__setitem__, key, value))

    def install(self, functions: dict) -> None:
        """Wrap every layer; `functions` holds the workload's own center
        functions, which are rewrapped in place."""
        hooks = self._hooks()
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            traced = self.wrap(original, name, hooks.get(name))
            self._traced[id(original)] = traced
            self._rebind(original, traced)
        for name, (owner, attr) in METHODS.items():
            self._patch(owner, attr, self.wrap(owner.__dict__[attr], name))
        for name, (owner, attr) in COUNTED.items():
            self._patch(owner, attr, self._count(owner.__dict__[attr], name))
        self._replace_items(
            catalog.CATALOG,
            lambda e: dataclasses.replace(e, function=self._traced_center(e.function)),
        )
        self._replace_items(functions, self._traced_center)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._traced.clear()

    def root(self, call: Callable, cls: str) -> Callable:
        """A span that marks one benchmark operation of class cls."""
        return self.wrap(call, ROOT + cls)

    # ------------------------------------------------------------ analysis

    def _ancestor(self, idx: int, prefix: str) -> int:
        spans = self.spans
        idx = spans[idx][3]
        while idx >= 0 and not spans[idx][0].startswith(prefix):
            idx = spans[idx][3]
        return idx

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for idx, (name, start, end, parent) in enumerate(spans):
            if name in SPANS:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += end - start - child[idx]
        for name in COUNTERS:
            out[name] = self.counts[name]

        per_map = self._guard_calls_per_map()
        out["framework.guard_calls_per_map"] = (
            sum(per_map.values()) / len(per_map) if per_map else 0.0
        )

        map_time = eval_time = 0.0
        attempts = samples = 0
        for idx, (name, start, end, parent) in enumerate(spans):
            if name == "framework.coordinate_map_length":
                map_time += end - start
            elif name == "dsl.evaluate" and self._ancestor(
                    idx, "framework.coordinate_map_length") >= 0:
                eval_time += end - start
            elif name == "sampling.random_convex_polygon":
                samples += 1
            elif name == "geometry.is_convex" and parent >= 0 and \
                    spans[parent][0] == "sampling.random_convex_polygon":
                attempts += 1
        out["dsl.eval_share"] = eval_time / map_time if map_time else 0.0
        out["sampling.convex_attempts_per_sample"] = attempts / samples if samples else 0.0
        return out

    def _guard_calls_per_map(self) -> Counter:
        """Coordinate-map span -> guard calls inside it, for maps that have
        a guard."""
        per_map = Counter()
        for idx, span in enumerate(self.spans):
            if span[0] == GUARD:
                owner = self._ancestor(idx, "framework.coordinate_map_")
                if owner >= 0:
                    per_map[owner] += 1
        return per_map

    def guard_calls_by_class(self) -> dict[str, list[int]]:
        """Operation class -> guard calls of each coordinate map it made."""
        out: dict[str, list[int]] = {}
        for idx, count in sorted(self._guard_calls_per_map().items()):
            root = self._ancestor(idx, ROOT)
            out.setdefault(self.spans[root][0][len(ROOT):], []).append(count)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
