"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

At the default seed, with one-second runs, for every workload:

* the untraced run prints exactly the end-to-end metrics of BENCHMARK.json
  and the traced run exactly its per-layer metrics, with the same units;
* every operation has its expected outcome (failure_ratio is 0);
* two traced runs report identical counts;
* on maps-catalog a coordinate map makes n guard calls on accepted inputs
  and one on the star polygons it rejects.

Last, the benchmark must fail, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS

SIZES = {"tri": 3, "n8": 8, "n32": 32, "n128": 128, "star": 1}


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(proc: subprocess.CompletedProcess, where: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(out)}")
    if not (out["correct"] and out["failed"] == 0 and out["attempted"] >= 1):
        raise AssertionError(f"{where}: {out['failed']} of {out['attempted']} failed\n{proc.stderr}")
    if "failure_ratio = 0 (" not in proc.stdout:
        raise AssertionError(f"{where}: failure_ratio line missing or nonzero")
    return out


def check_names(out: dict, specs: list[dict], where: str) -> None:
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if got != want:
        raise AssertionError(f"{where}: metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}, units {got == want}")


def check_guards(stdout: str) -> None:
    seen = 0
    for cls, counts in re.findall(r"# guard calls per map, (catalog\.\S+): \[(.*)\]", stdout):
        expected = SIZES[cls.rsplit(".", 1)[1]]
        if [int(c) for c in counts.split(",")] != [expected]:
            raise AssertionError(f"{cls}: guard calls per map {counts}, expected {expected}")
        seen += 1
    if seen != 13:
        raise AssertionError(f"guard calls reported for {seen} catalog classes, expected 13")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("benchmark ran without the program's sources")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise AssertionError("BENCHMARK.json lists other workloads")
    for workload in WORKLOADS:
        check_names(result(bench(ROOT, workload, 0), workload), spec["end_to_end"], workload)
        traced = [bench(ROOT, workload, 1) for _ in range(2)]
        runs = [result(p, f"{workload} traced") for p in traced]
        check_names(runs[0], spec["per_layer"], f"{workload} traced")
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r in runs]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            raise AssertionError(f"{workload}: counts differ between traced runs: {diff}")
        if workload == "maps-catalog":
            check_guards(traced[0].stdout)
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
