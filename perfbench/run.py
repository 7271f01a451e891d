"""Run one workload of the polycenter benchmark and print its metrics.

    python3 perfbench/run.py --workload maps-catalog --seed 1 --seconds 15 --trace 0

``--workload all`` runs the four workloads one after another. With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer metrics of a traced run. Each metric is printed on a line of its
own with its unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Processes run one at a time: each workload is a closed loop with a single
client, and no two of the benchmark's processes compete for a core.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time

import calibration
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("maps-catalog", "expr-axioms", "solvers-embed", "cli-oneshot")

# Set-up is timed this many times per run, in fresh processes; the median
# is reported.
SETUP_RUNS = 5
# Calibration-kernel runs on each side of a timed process.
CALIBRATION_RUNS = 5
COLD_STARTS = 20
IMPORT_RUNS = 7
BARE_RUNS = 11
# A subprocess that takes longer than this has hung.
TIMEOUT_S = 150

E2E_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_start_p50_ms": "ms",
}
COLD_START = "from polycenter.cli import run; run()"
BARE = [sys.executable, "-c", "pass"]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {argv[:4]}") from exc


def _timed_run(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = _run(argv)
    return time.perf_counter() - t0, proc


def worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Start a workload process; return its result with its set-up time and
    the calibration-kernel times taken around it."""
    work_dir = os.path.join(WORK, workload)
    os.makedirs(work_dir, exist_ok=True)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--work-dir", work_dir]
    before = calibration.time_kernel(CALIBRATION_RUNS)
    spawned = time.monotonic()
    proc = _run(argv)
    after = calibration.time_kernel(CALIBRATION_RUNS)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["setup_kernels"] = before + after
    return result


def cold_starts(workload: str, seed: int) -> tuple[list[float], list[float], int]:
    """Wall times (ms) of one-shot CLI processes after one untimed start, raw
    and at reference speed, and the number whose output was wrong."""
    pts = inputs.convex_polygon(random.Random(f"cold-start:{seed}"), 3)
    path = os.path.join(WORK, workload, "cold-start-tri.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"vertices": pts}, fh)
    want = [sum(p[0] for p in pts) / 3.0, sum(p[1] for p in pts) / 3.0]
    argv = [sys.executable, "-c", COLD_START, "center", path, "--name", "centroid"]
    _run(argv)
    raw, scaled, wrong = [], [], 0
    before = _timed_run(BARE)[0]
    for _ in range(COLD_STARTS):
        seconds, proc = _timed_run(argv)
        after = _timed_run(BARE)[0]
        raw.append(1e3 * seconds)
        scaled.append(1e3 * calibration.at_reference(seconds, [before, after],
                                                      calibration.START_REFERENCE_S))
        before = after
        try:
            got = json.loads(proc.stdout)["point"]
            ok = proc.returncode == 0 and all(
                math.isclose(g, w, rel_tol=1e-11, abs_tol=1e-11) for g, w in zip(got, want))
        except (ValueError, KeyError, TypeError):
            ok = False
        wrong += not ok
    return raw, scaled, wrong


def import_times() -> dict[str, float]:
    """Cumulative import times from -X importtime, and bare interpreter
    start-up, each a median over fresh processes with a warm cache."""
    cli_ms, sax_ms = [], []
    for i in range(IMPORT_RUNS + 1):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import polycenter.cli"])
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e3
        if "polycenter.cli" not in cumulative:
            raise BenchError(f"importing polycenter.cli failed: {proc.stderr[-300:]}")
        if i:  # the first run only warms the cache
            cli_ms.append(cumulative["polycenter.cli"])
            sax_ms.append(cumulative.get("xml.sax.saxutils", 0.0))
    bare = [1e3 * _timed_run(BARE)[0] for _ in range(BARE_RUNS + 1)][1:]
    return {
        "import.polycenter_cli_ms": statistics.median(cli_ms),
        "import.xml_sax_saxutils_ms": statistics.median(sax_ms),
        "import.bare_python_ms": statistics.median(bare),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    runs = [worker(workload, seed, seconds, "setup") for _ in range(SETUP_RUNS - 1)]
    res = worker(workload, seed, seconds, "run")
    runs.append(res)
    cold_raw, cold, wrong = cold_starts(workload, seed)
    setup = [calibration.at_reference(r["setup_s"], r["setup_kernels"]) for r in runs]
    metrics = {
        "throughput_ops_s": res["throughput_ops_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_p90_ms": res["latency_p90_ms"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "cold_start_p50_ms": statistics.median(cold),
    }
    raw = {
        "throughput_ops_s": res["raw_throughput_ops_s"],
        "latency_p50_ms": res["raw_latency_p50_ms"],
        "latency_p90_ms": res["raw_latency_p90_ms"],
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "cold_start_p50_ms": statistics.median(cold_raw),
    }
    counts = {
        "attempted": res["attempted"] + len(cold),
        "failed": res["failed"] + wrong,
        "samples": res["samples"],
        "passes": res["passes"],
    }
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, raw, counts


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    sys.path.insert(0, SRC)
    import tracing

    specs = tracing.per_layer_specs()
    res = worker(workload, seed, seconds, "trace")
    values = dict(res["per_layer"])
    values.update(import_times())
    missing = set(specs) - set(values)
    if missing:
        raise BenchError(f"per-layer metrics not measured: {sorted(missing)}")
    for cls, counts in sorted(res["guard_calls_by_class"].items()):
        print(f"# guard calls per map, {cls}: {counts}")
    print(f"# spans written to {res['spans_file']}")
    counts = {"attempted": res["attempted"], "failed": res["failed"],
              "samples": res["samples"], "passes": res["passes"]}
    return {k: (values[k], specs[k][0]) for k in specs}, {}, counts


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    measure = per_layer if trace else end_to_end
    metrics, raw, counts = measure(workload, seed, seconds)
    print(f"# workload {workload}, seed {seed}, {counts['passes']} passes, "
          f"{counts['samples']} latency samples, closed loop, one client")
    for name, (value, unit) in metrics.items():
        note = f"  (raw {raw[name]:.6g} {unit})" if name in raw else ""
        print(f"{workload} {name} = {value:.6g} {unit}{note}")
    ratio = counts["failed"] / counts["attempted"]
    print(f"{workload} failure_ratio = {ratio:.6g} ({counts['failed']}/{counts['attempted']})")
    return {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "polycenter", "__init__.py")):
        print(f"perfbench: no polycenter sources under {SRC}", file=sys.stderr)
        return 2
    # Warm the bytecode caches so no timed process compiles.
    for path in (os.path.join(SRC, "polycenter"), HERE):
        compileall.compile_dir(path, quiet=1)
    try:
        results = [run_one(w, args.seed, args.seconds, args.trace)
                   for w in (WORKLOADS if args.workload == "all" else (args.workload,))]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({w: r for w, r in zip(WORKLOADS, results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
