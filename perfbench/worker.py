"""One workload process: set up, run the closed loop, check the outcomes.

Started by ``run.py``; prints one JSON line of raw results on stdout.

Set-up is interpreter start, ``import polycenter``, input generation and
one untimed warm-up run of each operation class.

* ``--mode setup`` stops right after set-up and reports when it got
  there, so ``run.py`` can time set-up from spawn.
* ``--mode run`` then times whole passes over the operations, one at a
  time, until ``--seconds`` have passed and at least MIN_SAMPLES
  operations are timed. A calibration kernel runs after each operation.
* ``--mode trace`` does the same, then one more pass with every layer
  wrapped, and reports the per-layer metrics.

Outcomes are checked against the oracles after the timed region; peak RSS
is read before the oracles import numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 100


class Recorder:
    """Per operation: the first outcome, how often a later one differed,
    and every latency."""

    def __init__(self, ops: list) -> None:
        self.ops = ops
        self.first: list = [None] * len(ops)
        self.runs = [0] * len(ops)
        self.mismatches = [0] * len(ops)
        self.latencies: list[float] = []
        self.classes: list[str] = []
        # One calibration-kernel time before the first timed operation and
        # one after each.
        self.kernel_times: list[float] = []

    def record(self, i: int, seconds: float, result, exc, timed: bool) -> None:
        op = self.ops[i]
        if exc is None:
            try:
                outcome = ("ok", op.digest(result))
            except Exception as err:  # a malformed result is a failed operation
                outcome = ("bad-result", repr(err))
        else:
            outcome = ("raise", type(exc).__name__, getattr(exc, "prop", None))
        self.runs[i] += 1
        if self.first[i] is None:
            self.first[i] = outcome
        elif outcome != self.first[i]:
            self.mismatches[i] += 1
        if timed:
            self.latencies.append(seconds)
            self.classes.append(op.cls)
            self.kernel_times.extend(calibration.time_kernel())

    def at_reference(self) -> list[float]:
        return calibration.interleaved(self.latencies, self.kernel_times)

    def p50_by_class(self, latencies: list[float]) -> dict[str, float]:
        by_class: dict[str, list[float]] = {}
        for cls, lat in zip(self.classes, latencies):
            by_class.setdefault(cls, []).append(lat)
        return {cls: statistics.median(v) for cls, v in by_class.items()}

    def failed(self) -> int:
        import oracles

        failed = 0
        for i, op in enumerate(self.ops):
            if not self.runs[i]:
                continue
            ok, why = oracles.judge(op, self.first[i])
            if not ok:
                print(f"perfbench: {op.cls}: {why}", file=sys.stderr)
                failed += self.runs[i]
            elif self.mismatches[i]:
                print(f"perfbench: {op.cls}: outcome changed between runs", file=sys.stderr)
                failed += self.mismatches[i]
        return failed

    @property
    def attempted(self) -> int:
        return sum(self.runs)


def run_one(call, i: int, recorder: Recorder, timed: bool) -> None:
    exc = result = None
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as err:  # every outcome, expected or not, is judged later
        exc = err
    t1 = time.perf_counter()
    recorder.record(i, t1 - t0, result, exc, timed)


def run_pass(calls: list, recorder: Recorder, timed: bool) -> None:
    for i, call in enumerate(calls):
        run_one(call, i, recorder, timed)


def closed_loop(calls: list, recorder: Recorder, seconds: float) -> int:
    """Whole passes until `seconds` have passed and MIN_SAMPLES are timed;
    returns the number of passes."""
    recorder.kernel_times.extend(calibration.time_kernel())
    passes = 0
    start = time.perf_counter()
    while True:
        run_pass(calls, recorder, True)
        passes += 1
        if time.perf_counter() - start >= seconds and len(recorder.latencies) >= MIN_SAMPLES:
            return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    wl = workloads.build(args.workload, args.seed, args.work_dir)
    calls = [op.call for op in wl.ops]
    recorder = Recorder(wl.ops)
    warmed = set()
    for i, op in enumerate(wl.ops):
        if op.cls not in warmed:
            warmed.add(op.cls)
            run_one(calls[i], i, recorder, False)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    passes = closed_loop(calls, recorder, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"ready": ready, "samples": len(recorder.latencies), "passes": passes,
           "peak_rss_mb": peak_rss_mb}
    for label, lat in (("", recorder.at_reference()), ("raw_", recorder.latencies)):
        out[label + "throughput_ops_s"] = len(lat) / sum(lat)
        out[label + "latency_p50_ms"] = 1e3 * statistics.median(lat)
        out[label + "latency_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8]

    if args.mode == "trace":
        import tracing

        untraced = recorder.at_reference()
        p50 = recorder.p50_by_class(untraced)
        n = len(wl.ops)
        untraced_pass = statistics.median(
            sum(untraced[k:k + n]) for k in range(0, len(untraced), n))
        tracer = tracing.Tracer()
        tracer.install(wl.functions)
        traced_calls = [tracer.root(op.call, op.cls) for op in wl.ops]
        try:
            run_pass(traced_calls, recorder, True)
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        for cls in tracing.CATALOG_CLASSES:
            layers[f"{cls}.p50_ms"] = 1e3 * p50.get(cls, 0.0)
        layers["trace.overhead_ratio"] = sum(recorder.at_reference()[-n:]) / untraced_pass
        out["per_layer"] = layers
        out["guard_calls_by_class"] = {
            cls: sorted(set(counts)) for cls, counts in tracer.guard_calls_by_class().items()
        }
        spans_path = os.path.join(args.work_dir, f"spans-{args.seed}.jsonl")
        tracer.write(spans_path)
        out["spans_file"] = os.path.relpath(spans_path, ROOT)

    out["failed"] = recorder.failed()
    out["attempted"] = recorder.attempted
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
