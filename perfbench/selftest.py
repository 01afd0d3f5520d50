#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at toy size with tracing off and on, and checks that the
result line carries exactly the metrics ``BENCHMARK.json`` names, with their
units, that the human-readable lines name every end-to-end metric of the
workload, and that outputs match the recorded reference.  Then checks that a
deliberately perturbed reference is reported as a failure, and that a
directory holding only the benchmark exits non-zero without a result.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, HERE, OUT_DIR, PER_LAYER, WORKLOADS

ROOT = Path.cwd()
# End-to-end metrics the report lines name, per workload, besides those in BENCHMARK.json.
REPORTED = {
    "mc-sec6": ("reps_per_s", "failed_ratio"),
    "pipeline-10x-mixed-n": ("rows_per_s", "failed_ratio"),
    "cli-sec6": ("cmd_s_p50", "cmd_s_tail", "failed_ratio"),
}


def bench(workload: str, trace: int, bench_dir: Path = HERE) -> tuple[int, list[str]]:
    argv = [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        print(proc.stderr[-3000:], file=sys.stderr)
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines: list[str], expected: dict) -> list[str]:
    problems = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(result["metrics"]) != set(expected):
        problems.append(f"metrics {sorted(result['metrics'])} != {sorted(expected)}")
    for name, m in result["metrics"].items():
        if m.get("unit") != expected.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r} != {expected.get(name)!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"correct {result['correct']}, failed {result['failed']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    if e2e != dict(END_TO_END) or layers != dict(PER_LAYER):
        failures.append("BENCHMARK.json metrics differ from run.py's")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py's")

    for workload in WORKLOADS:
        for trace, expected in ((0, e2e), (1, layers)):
            rc, lines = bench(workload, trace)
            if rc != 0 or not lines:
                failures.append(f"{workload} trace {trace}: exit {rc}")
                continue
            failures += [f"{workload} trace {trace}: {p}" for p in check_result(lines, expected)]
            report = lines[:-1]
            for name in (*e2e, *REPORTED[workload]):
                unit = e2e.get(name, "")
                if not any(line.split()[:1] == [name] and unit in line for line in report):
                    failures.append(f"{workload}: report line for {name} missing")
            print(f"{workload} trace {trace}: {len(failures)} failures so far", flush=True)

    perturbed = ROOT / OUT_DIR / "perturbed" / HERE.name
    shutil.rmtree(perturbed.parent, ignore_errors=True)
    shutil.copytree(HERE, perturbed, ignore=shutil.ignore_patterns("__pycache__"))
    ref = json.loads((perturbed / "reference.json").read_text())
    ref["anchor"]["estimates"]["joint"]["coefficients"][0] *= 1 + 1e-8
    (perturbed / "reference.json").write_text(json.dumps(ref))
    rc, lines = bench("mc-sec6", 0, perturbed)
    shutil.rmtree(perturbed.parent)
    result = json.loads(lines[-1]) if rc == 0 and lines else None
    if result is None or result["correct"] or result["failed"] < 1:
        failures.append(f"perturbed reference not reported as a failure: {result}")

    bare = ROOT / OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [*spec["command"], "--workload", WORKLOADS[0], "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("a directory without src/ did not fail cleanly")

    for f in failures:
        print(f"FAIL: {f}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
