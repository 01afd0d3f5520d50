#!/usr/bin/env python3
"""Benchmark of sativ: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload mc-sec6 --seed 0 --seconds 22 --trace 0

Run from the root of a checkout.  Workloads (see perfbench/README.md for why):

  mc-sec6               serial ``run_mc`` studies on the Sec. 6 design
  pipeline-10x-mixed-n  write CSV -> ingest -> estimate_all -> curves -> IOR
                        on 10x G with group sizes spread over 20..212
  cli-sec6              the 11-command ``python -m sativ.cli`` sequence

Every unit runs in a fresh interpreter (``worker.py``, or the CLI itself), so
peak memory is per process and nothing is reused across units.  Inputs come
from ``--seed`` alone.  Outputs are checked against values recorded at
commit 9a2be62 (``reference.json``) and, for the CLI, against in-process results
on the same CSV.  Human-readable lines go first; the last line of stdout is
one JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics
from wrapped public functions with ``--trace 1``.  Spans of a traced run are
written to ``.perfbench_out/trace-<workload>-seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
RUN_LIMIT_S = 170.0  # hard stop for any child; a run must end within 180 s
LAST_UNIT_START_S = 110.0  # no unit starts later than this into the run
RTOL = 1e-10
# Values below this share of the largest magnitude in their array are
# compared relative to that floor (vcov off-diagonals near zero).
ZERO_FLOOR = 1e-3
Z_95 = 1.959963984540054

WORKLOADS = ("mc-sec6", "pipeline-10x-mixed-n", "cli-sec6")
END_TO_END = (("setup_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.import_s", "s"),
    ("dgp.simulate_s", "s"),
    ("estimator.estimate_all_s", "s"),
    ("estimator.estimate_all_self_s", "s"),
    ("estimator.build_instruments_s", "s"),
    ("estimator.naive_iv_s", "s"),
    ("moments.q_z_at_count_calls", "count"),
    ("moments.q_z_at_count_s", "s"),
    ("estimator.distinct_keys", "count"),
    ("estimator.rows", "count"),
    ("trace.overhead_ratio", "ratio"),
)
# Median duration per call of each wrapped boundary, reported where it is called.
PER_CALL = {
    "cli.write_data_csv_s": "cli.write_data_csv",
    "dgp.oracle_s": "dgp.oracle_subpopulation_means",
    "estimator.ingest_csv_s": "estimator.ingest_csv",
    "estimator.rsiv_estimate_s": "estimator.rsiv_estimate",
    "estimator.estimate_all_s": "estimator.estimate_all",
    "estimator.naive_iv_s": "estimator.naive_iv",
    "estimator.ior_test_s": "estimator.ior_test",
    "effects.effect_curve_s": "effects.effect_curve",
    "design.validate_design_s": "design.validate_design",
}
# Boundaries the prediction table expects calls on, per workload.
EXPECTED = {
    "mc-sec6": (
        "montecarlo.run_mc", "montecarlo.replicate_once", "montecarlo.oracle_truths",
        "dgp.simulate_experiment", "dgp.oracle_subpopulation_means",
        "estimator.estimate_all", "estimator.naive_iv", "moments.q_z_at_count",
        "estimator.build_instruments",
    ),
    "pipeline-10x-mixed-n": (
        "dgp.simulate_group", "cli.write_data_csv", "estimator.ingest_csv",
        "estimator.estimate_all", "estimator.naive_iv", "moments.q_z_at_count",
        "effects.effect_curve", "estimator.ior_test", "estimator.build_instruments",
    ),
    "cli-sec6": (
        "dgp.simulate_experiment", "cli.write_data_csv", "estimator.ingest_csv",
        "estimator.rsiv_estimate", "estimator.estimate_all", "estimator.naive_iv",
        "moments.q_z_at_count", "effects.effect_curve", "estimator.ior_test",
        "design.validate_design", "estimator.build_instruments",
        "cli.cmd.simulate", "cli.cmd.estimate", "cli.cmd.effects", "cli.cmd.ior-test",
        "cli.cmd.validate-design",
    ),
}
# Unit sizes.  ``--toy`` shrinks the two in-process workloads for the self-test.
SIZES = {
    False: {"reps": 16, "oracle_draws": 10**6, "g_factor": 10, "min_units": 3},
    True: {"reps": 2, "oracle_draws": 10**5, "g_factor": 1, "min_units": 1},
}
CLI_TARGETS = ("joint", "complier-psi", "never-taker", "population", "complier-theta", "naive")
# Set-up samples per timed run.  Every fresh worker gives one (anchor, units,
# CLI checks); probes that only set up make up the rest.
SETUP_SAMPLES = 9


def unit_seed(seed: int, unit: int) -> int:
    """Every unit gets its own inputs, so no result can be reused across units."""
    return seed * 1000 + unit


def tail(values: list) -> tuple[float, int] | None:
    """The highest percentile with at least ten samples beyond it, and its percent."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], math.floor(100 * (n - 10) / n)


# ---------------------------------------------------------------------------
# output comparison
# ---------------------------------------------------------------------------


def _numbers(x) -> list:
    if isinstance(x, list):
        return [v for item in x for v in _numbers(item)]
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return [x]
    return []


def compare(got, ref, path: str = "", scale: float | None = None, out: list | None = None):
    """Mismatches of ``got`` against ``ref`` at RTOL relative, as readable paths."""
    out = [] if out is None else out
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            out.append(f"{path}: keys differ")
            return out
        for k in ref:
            compare(got[k], ref[k], f"{path}.{k}", None, out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            out.append(f"{path}: length differs")
            return out
        nums = _numbers(ref)
        if scale is None and nums:
            scale = max((abs(v) for v in nums if math.isfinite(v)), default=0.0)
        for i, (g, r) in enumerate(zip(got, ref)):
            compare(g, r, f"{path}[{i}]", scale, out)
    elif isinstance(ref, (bool, str)) or ref is None:
        if got != ref or type(got) is not type(ref):
            out.append(f"{path}: {got!r} != {ref!r}")
    elif isinstance(got, bool) or not isinstance(got, (int, float)):
        out.append(f"{path}: {got!r} is not a number")
    elif math.isnan(ref) or not math.isfinite(ref):
        if not (got == ref or (math.isnan(got) and math.isnan(ref))):
            out.append(f"{path}: {got!r} != {ref!r}")
    else:
        floor = ZERO_FLOOR * scale if scale else 0.0
        if not abs(got - ref) <= RTOL * max(abs(ref), floor):
            out.append(f"{path}: {got!r} != {ref!r}")
    return out


def mc_aggregation_problems(mc: dict) -> list:
    """Recompute each report row from the per-replication estimates."""
    used = [r for r in mc["per_replication"] if r is not None]
    problems = []
    if len(used) != mc["reps_used"]:
        problems.append("reps_used disagrees with per-replication results")
    for row in mc["rows"]:
        est = [r[row["name"]][0] for r in used]
        se = [r[row["name"]][1] for r in used]
        sd = statistics.stdev(est) if len(est) > 1 else 0.0
        if sd <= 1e-9 * max(1.0, max(abs(e) for e in est)):
            coverage = None
        else:
            coverage = sum(abs(e - row["truth"]) <= Z_95 * s for e, s in zip(est, se)) / len(est)
        expect = {**row, "mean": statistics.fmean(est), "sd": sd, "coverage": coverage}
        problems += compare(row, expect, f"rows.{row['name']}")
    return problems


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, args, root: Path, reference: dict):
        self.root = root
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = SIZES[args.toy]
        self.reference = reference
        self.t_start = time.monotonic()
        self.work = root / OUT_DIR / f"{self.workload}-seed{self.seed}-{os.getpid()}"
        pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.env = {**os.environ, "PYTHONPATH": pythonpath}
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.unit_s: dict[bool, list[float]] = {False: [], True: []}
        self.work_done: list[float] = []  # work per untraced unit: reps, individuals, commands
        self.rss_kb = 0
        self.singular = 0
        self.descriptors: dict = {}
        self.csv_bytes = None
        self.cmd_s: dict[str, list[float]] = defaultdict(list)
        self.traced: list[tuple[object, list]] = []  # (dataset label, spans) per traced process

    # -- processes ---------------------------------------------------------

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        print(f"FAILED: {message}", file=sys.stderr)

    def spawn(self, argv: list, cwd: Path) -> tuple[int, float, int]:
        """Run one child to exit; return (exit code, wall seconds, peak RSS in KiB)."""
        remaining = self.t_start + RUN_LIMIT_S - time.monotonic()
        if remaining <= 0:
            return -1, 0.0, 0
        reaped = {}
        with open(self.work / "stderr.log", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                reaped.update(t1=time.perf_counter(), status=status, usage=usage)

            waiter = threading.Thread(target=reap)
            waiter.start()
            waiter.join(remaining)
            if waiter.is_alive():
                proc.kill()
                waiter.join()
            proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
        return proc.returncode, reaped["t1"] - t0, reaped["usage"].ru_maxrss

    def worker(self, spec: dict, cwd: Path | None = None) -> dict | None:
        """Run worker.py on one spec; None (and the stderr tail) if it failed."""
        out = self.work / "worker-out.json"
        out.unlink(missing_ok=True)
        spec = {
            "root": str(self.root),
            "config": str(HERE / "sec6.json"),
            "workdir": str(self.work),
            "trace": False,
            **spec,
        }
        argv = [sys.executable, str(HERE / "worker.py"), json.dumps(spec), str(out)]
        rc, _, rss = self.spawn(argv, cwd or self.work)
        if rc != 0 or not out.exists():
            print(f"worker {spec['kind']} exited with {rc}:", file=sys.stderr)
            print(self._stderr_tail(), file=sys.stderr)
            return None
        result = json.loads(out.read_text())
        result["rss_kb"] = rss
        return result

    def _stderr_tail(self) -> str:
        log = self.work / "stderr.log"
        return log.read_text(errors="replace")[-2000:] if log.exists() else ""

    def units(self, run_one) -> None:
        """Run units until their timed parts add up to ``--seconds``; traced runs alternate.

        Only the timed parts count (studies, passes, command processes), so
        interpreter start-up and output checks do not change how much work a
        run measures.
        """
        min_units = 1 if self.workload == "cli-sec6" else self.size["min_units"]
        min_units = max(min_units, 2 if self.trace else 1)
        i = 0
        while i < min_units or (
            sum(self.unit_s[False]) + sum(self.unit_s[True]) < self.seconds
            and time.monotonic() - self.t_start < LAST_UNIT_START_S
        ):
            run_one(i, self.trace and i % 2 == 1)
            i += 1

    # -- checks ------------------------------------------------------------

    def check(self, what: str, problems: list) -> None:
        """One failed operation if any output of ``what`` is off."""
        if problems:
            self.fail(f"{what}: {len(problems)} problems: {'; '.join(problems[:5])}")

    def full_reference(self) -> dict | None:
        """Recorded outputs of unit 0 for this workload and seed, at this size."""
        entry = self.reference["full"].get(self.workload, {}).get(str(self.seed))
        return entry["outputs"] if entry and entry["size"] == self.size_key() else None

    def size_key(self) -> dict:
        keys = {"mc-sec6": ("reps", "oracle_draws"), "pipeline-10x-mixed-n": ("g_factor",)}
        return {k: self.size[k] for k in keys.get(self.workload, ())}

    def anchor(self) -> None:
        """Fixed inputs checked against ``reference.json`` on every run (also warms caches)."""
        self.attempted += 1
        res = self.worker({"kind": "anchor"})
        if res is None:
            self.fail("anchor worker")
        else:
            self.setup_s.append(res["setup_s"])
            self.check("anchor", compare(res["anchor"], self.reference["anchor"], "anchor"))

    def setup_probes(self) -> None:
        """Fresh interpreters that only set up, until a timed run has SETUP_SAMPLES."""
        while not self.trace and len(self.setup_s) < SETUP_SAMPLES:
            self.attempted += 1
            res = self.worker({"kind": "probe"})
            if res is None:
                self.fail("set-up probe")
                return
            self.setup_s.append(res["setup_s"])
            self.import_s.append(res["import_s"])

    def record(self, res: dict, traced: bool, label) -> None:
        self.setup_s.append(res["setup_s"])
        self.import_s.append(res["import_s"])
        self.unit_s[traced].append(res["unit_s"])
        self.rss_kb = max(self.rss_kb, res["rss_kb"])
        if traced:
            self.traced.append((label, res["spans"]))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def work_per_s(run: Run) -> float:
    """Throughput over all untraced units: total work over total timed seconds.

    A ratio of sums, not a median of per-unit rates: on a shared machine the
    speed drifts in phases longer than one unit, and the sum averages them.
    """
    return sum(run.work_done) / sum(run.unit_s[False])


def workload_mc(run: Run) -> dict:
    reps = run.size["reps"]

    def one(i: int, traced: bool) -> None:
        run.attempted += reps
        res = run.worker(
            {
                "kind": "mc",
                "seed": unit_seed(run.seed, i),
                "reps": reps,
                "oracle_draws": run.size["oracle_draws"],
                "trace": traced,
            }
        )
        if res is None:
            run.fail(f"study {i}", count=reps)
            return
        mc = res["mc"]
        singular = mc["reps"] - mc["reps_used"]
        run.singular += singular
        if singular:
            run.fail(f"study {i}: {singular} singular replications", count=singular)
        problems = mc_aggregation_problems(mc)
        ref = run.full_reference() if i == 0 else None
        if ref is not None:
            problems += compare(
                {"rows": mc["rows"], "descriptors": res["descriptors"]}, ref, "reference"
            )
        run.check(f"study {i}", problems)
        run.record(res, traced, i)
        if not traced:
            run.work_done.append(reps)
        run.descriptors = run.descriptors or {**res["descriptors"], "R": reps}

    run.anchor()
    run.units(one)
    run.setup_probes()
    return {"reps_per_s": (work_per_s(run), "1/s")}


def workload_pipeline(run: Run) -> dict:
    def one(i: int, traced: bool) -> None:
        run.attempted += 1
        res = run.worker(
            {
                "kind": "pipeline",
                "seed": unit_seed(run.seed, i),
                "unit": i,
                "g_factor": run.size["g_factor"],
                "trace": traced,
            }
        )
        if res is None:
            run.fail(f"pass {i}")
            return
        problems = []
        if not res["roundtrip_ok"]:
            problems.append("ingested data differs from the data written")
        if not res["identity_ok"]:
            problems.append("complier theta breaks its identity")
        ref = run.full_reference() if i == 0 else None
        if ref is not None:
            got = {"outputs": res["outputs"], "descriptors": res["descriptors"]}
            problems += compare(got, ref, "reference")
        run.check(f"pass {i}", problems)
        run.record(res, traced, i)
        if not traced:
            run.work_done.append(res["descriptors"]["N"])
        run.descriptors = run.descriptors or res["descriptors"]
        run.csv_bytes = run.csv_bytes or res["csv_bytes"]

    run.anchor()
    run.units(one)
    run.setup_probes()
    return {"rows_per_s": (work_per_s(run), "individuals/s")}


def cli_commands() -> list[tuple[str, list[str]]]:
    data = ["--data", "data.csv"]
    cfg = ["--config", "config.json"]
    cmds = [("simulate", ["simulate", *cfg, "--out", "data.csv"])]
    for t in CLI_TARGETS:
        cmds.append(("estimate", ["estimate", *cfg, *data, "--target", t, "--out", f"est-{t}.json"]))
    cmds.append(
        ("estimate", ["estimate", *cfg, *data, "--target", "joint", "--pure-control", "drop",
                      "--out", "est-joint-drop.json"])
    )
    cmds.append(("effects", ["effects", *cfg, *data, "--out", "effects.csv"]))
    cmds.append(("ior-test", ["ior-test", *data, "--out", "ior.json"]))
    cmds.append(("validate-design", ["validate-design", *cfg, "--out", "design.json"]))
    return cmds


def _estimate_file(path: Path) -> tuple[str, dict]:
    d = json.loads(path.read_text())
    return d["target"], {"coefficients": d["coefficients"], "vcov": d["vcov"]}


def _effects_file(path: Path) -> list:
    curves: dict[str, dict] = {}
    lines = path.read_text().splitlines()
    if lines[0] != "kind,dbar,estimate,se,ci_low,ci_high":
        raise ValueError(f"unexpected effects header {lines[0]!r}")
    for line in lines[1:]:
        kind, *vals = line.split(",")
        c = curves.setdefault(
            kind, {"kind": kind, "grid": [], "point": [], "se": [], "ci_low": [], "ci_high": []}
        )
        for key, v in zip(("grid", "point", "se", "ci_low", "ci_high"), vals):
            c[key].append(float(v))
    return list(curves.values())


def cli_output_problems(path: Path, inproc: dict) -> list:
    """Mismatches of one CLI output file against in-process results on the same CSV."""
    try:
        if path.name == "effects.csv":
            return compare(_effects_file(path), inproc["curves"], "effects")
        if path.name == "est-joint-drop.json":
            return compare(_estimate_file(path)[1], inproc["joint_drop"], "joint-drop")
        if path.name.startswith("est-"):
            target, got = _estimate_file(path)
            return compare(got, inproc["estimates"].get(target), path.name)
        key = {"ior.json": "ior", "design.json": "design"}[path.name]
        return compare(json.loads(path.read_text()), inproc[key], key)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{path.name} unreadable: {exc!r}"]


def workload_cli(run: Run) -> dict:
    config = json.loads((HERE / "sec6.json").read_text())
    commands = cli_commands()
    python = sys.executable

    def one(i: int, traced: bool) -> None:
        seqdir = run.work / f"seq{i}"
        seqdir.mkdir()
        config["sim"]["seed"] = unit_seed(run.seed, i)
        (seqdir / "config.json").write_text(json.dumps(config))
        written = set()
        for kind, argv in commands:
            run.attempted += 1
            if traced:
                out = seqdir / "launch-out.json"
                spec = {"kind": "cli", "root": str(run.root), "argv": argv}
                rc, wall, rss = run.spawn(
                    [python, str(HERE / "worker.py"), json.dumps(spec), str(out)], seqdir
                )
                if rc == 0:
                    launched = json.loads(out.read_text())
                    run.import_s.append(launched["import_s"])
                    run.traced.append((i, launched["spans"]))
            else:
                rc, wall, rss = run.spawn([python, "-m", "sativ.cli", *argv], seqdir)
            if rc != 0:
                run.fail(f"sequence {i}: `sativ {' '.join(argv)}` exited with {rc}\n{run._stderr_tail()}")
                continue
            run.unit_s[traced].append(wall)
            if not traced:
                run.cmd_s[kind].append(wall)
                run.work_done.append(1)
            run.rss_kb = max(run.rss_kb, rss)
            written.add(argv[argv.index("--out") + 1])
        if "data.csv" not in written:
            return
        res = run.worker({"kind": "check", "csv": str(seqdir / "data.csv"), "trace": traced}, seqdir)
        if res is None:
            run.fail(f"sequence {i}: in-process check on the CLI's CSV")
            return
        run.setup_s.append(res["setup_s"])
        if traced:
            run.traced.append(("probe", res["spans"]))
        for name in sorted(written - {"data.csv"}):
            problems = cli_output_problems(seqdir / name, res["outputs"])
            run.check(f"sequence {i}: {name} against in-process results", problems)
        problems = [] if res["identity_ok"] else ["complier theta breaks its identity"]
        ref = run.full_reference() if i == 0 else None
        if ref is not None:
            got = {"outputs": res["outputs"], "descriptors": res["descriptors"]}
            problems += compare(got, ref, "reference")
        run.check(f"sequence {i}: in-process results", problems)
        run.descriptors = run.descriptors or {**res["descriptors"], "commands": len(commands)}
        run.csv_bytes = run.csv_bytes or res["csv_bytes"]
        shutil.rmtree(seqdir)

    run.anchor()
    run.units(one)
    run.setup_probes()
    cmd_all = [t for ts in run.cmd_s.values() for t in ts]
    out = {"cmd_s_p50": (statistics.median(cmd_all), "s")}
    cut = tail(cmd_all)
    out["cmd_s_tail"] = (
        (cut[0], f"s (p{cut[1]} of {len(cmd_all)} commands)")
        if cut else (max(cmd_all), f"s (max; only {len(cmd_all)} commands)")
    )
    return out


WORKLOAD_FUNCS = {
    "mc-sec6": workload_mc,
    "pipeline-10x-mixed-n": workload_pipeline,
    "cli-sec6": workload_cli,
}


# ---------------------------------------------------------------------------
# trace accounting
# ---------------------------------------------------------------------------


def layer_metrics(run: Run) -> dict:
    """Per-layer numbers from the spans of the traced processes."""
    calls: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, list[float]] = defaultdict(list)
    per_dataset: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    probes: dict[object, float] = defaultdict(float)
    nesting = 0
    for proc, (label, spans) in enumerate(run.traced):
        children = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                p = spans[parent]
                children[parent] += t1 - t0
                if t0 < p[1] or t1 > p[2]:
                    nesting += 1
        for idx, (name, t0, t1, parent) in enumerate(spans):
            own = (t1 - t0) - children[idx]
            if own < -1e-6:
                nesting += 1
            chain = [idx]
            while spans[chain[-1]][3] >= 0:
                chain.append(spans[chain[-1]][3])
            names = [spans[c][0] for c in chain]
            if "bench.probe" in names:
                if name == "estimator.build_instruments":
                    calls[name].append(t1 - t0)
                    probes[(proc, chain[names.index("bench.probe")])] += t1 - t0
                continue
            calls[name].append(t1 - t0)
            self_s[name].append(own)
            if run.workload == "mc-sec6":
                if "montecarlo.replicate_once" not in names:
                    continue
                dataset = (proc, chain[names.index("montecarlo.replicate_once")])
            else:
                dataset = label
            if name == "moments.q_z_at_count":
                per_dataset[dataset]["q_calls"] += 1
                per_dataset[dataset]["q_s"] += t1 - t0
            outer_sim = name == "dgp.simulate_experiment" or (
                name == "dgp.simulate_group" and "dgp.simulate_experiment" not in names
            )
            if outer_sim:
                per_dataset[dataset]["sim_s"] += t1 - t0

    out: dict[str, tuple] = {}
    med = statistics.median
    if run.import_s:
        out["cli.import_s"] = (med(run.import_s), "s")
    for metric, boundary in PER_CALL.items():
        if calls[boundary]:
            out[metric] = (med(calls[boundary]), "s")
    if self_s["estimator.estimate_all"]:
        out["estimator.estimate_all_self_s"] = (med(self_s["estimator.estimate_all"]), "s")
    if probes:
        out["estimator.build_instruments_s"] = (med(probes.values()), "s")
    datasets = [d for d in per_dataset.values() if d["q_calls"] or d["sim_s"]]
    if datasets:
        q_calls = statistics.median_low(d["q_calls"] for d in datasets)
        out["moments.q_z_at_count_calls"] = (int(q_calls), "count")
        out["moments.q_z_at_count_s"] = (med(d["q_s"] for d in datasets), "s")
        out["dgp.simulate_s"] = (med(d["sim_s"] for d in datasets), "s")
    for name, durations in sorted(calls.items()):
        if name.startswith("cli.cmd."):
            out[f"{name}_s"] = (med(durations), "s")
    reps = calls["montecarlo.replicate_once"]
    if reps:
        out["montecarlo.replicate_once_s_p50"] = (med(reps), "s")
        cut = tail(reps)
        if cut:
            out["montecarlo.replicate_once_s_tail"] = (cut[0], f"s (p{cut[1]} of {len(reps)})")
        out["montecarlo.run_mc_self_s"] = (med(self_s["montecarlo.run_mc"]), "s")
        out["montecarlo.singular_reps"] = (run.singular, "count")
    if run.csv_bytes is not None:
        out["cli.csv_bytes"] = (run.csv_bytes, "count")
    out["estimator.distinct_keys"] = (run.descriptors["distinct_keys"], "count")
    out["estimator.rows"] = (run.descriptors["N"], "count")
    out["trace.overhead_ratio"] = (med(run.unit_s[True]) / med(run.unit_s[False]), "ratio")

    run.attempted += 1  # the accounting itself
    missing = [b for b in EXPECTED[run.workload] if not calls[b]]
    problems = [f"wrapped boundary {b} recorded zero calls" for b in missing]
    if nesting:
        problems.append(f"{nesting} spans whose children exceed them")
    run.check("trace accounting", problems)
    out["trace.zero_call_boundaries"] = (len(missing), "count")
    out["trace.nesting_violations"] = (nesting, "count")
    return out


def write_trace(run: Run) -> Path:
    path = run.root / OUT_DIR / f"trace-{run.workload}-seed{run.seed}.json"
    fields = ("name", "start", "end", "parent")
    records = [
        {"process": p, "unit": label, "spans": [dict(zip(fields, s)) for s in spans]}
        for p, (label, spans) in enumerate(run.traced)
    ]
    path.write_text(json.dumps({"workload": run.workload, "seed": run.seed, "processes": records}))
    return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="small units, for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sativ" / "__init__.py").is_file():
        print(f"error: {root} has no src/sativ; run from the root of a sativ checkout",
              file=sys.stderr)
        return 2
    run = Run(args, root, json.loads((HERE / "reference.json").read_text()))
    run.work.mkdir(parents=True)
    try:
        shown = WORKLOAD_FUNCS[run.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if not run.unit_s[False] or not run.setup_s or (run.trace and not run.unit_s[True]):
        print("error: no unit completed; nothing to measure", file=sys.stderr)
        return 1
    layers = layer_metrics(run) if run.trace else {}
    trace_path = write_trace(run) if run.trace else None

    end_to_end = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "work_per_s": (work_per_s(run), "1/s"),
        "peak_rss_mb": (run.rss_kb / 1024.0, "MB"),
    }
    descriptors = {**run.descriptors}
    if run.csv_bytes is not None:
        descriptors["cli.csv_bytes"] = run.csv_bytes
    print(f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  "
          f"units {len(run.unit_s[False])} untraced, {len(run.unit_s[True])} traced")
    print("unit seconds:", " ".join(f"{t:.3f}" for t in run.unit_s[False]))
    print("setup seconds:", " ".join(f"{t:.3f}" for t in run.setup_s))
    print("end-to-end:")
    for name, (value, unit) in {**end_to_end, **shown}.items():
        print(f"  {name:<34} {_fmt(value):>14} {unit}")
    ratio = run.failed / run.attempted
    print(f"  {'failed_ratio':<34} {_fmt(ratio):>14} 1  ({run.failed} of {run.attempted} operations)")
    print("input descriptors (exact counts):")
    for name, value in descriptors.items():
        print(f"  {name:<34} {value:>14}")
    if run.trace:
        print(f"per-layer (spans in {trace_path.relative_to(root)}):")
        for name, (value, unit) in sorted(layers.items()):
            print(f"  {name:<34} {_fmt(value):>14} {unit}")
    chosen = layers if run.trace else end_to_end
    spec = PER_LAYER if run.trace else END_TO_END
    unmeasured = [name for name, _ in spec if name not in chosen]
    if unmeasured:  # a layer with no calls reads 0 and fails the run
        run.attempted += 1
        run.check("metrics", [f"{name} was not measured" for name in unmeasured])
    metrics = {
        name: {"value": chosen[name][0] if name in chosen else 0.0, "unit": unit}
        for name, unit in spec
    }
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a broken benchmark exits non-zero without a result line
        traceback.print_exc()
        sys.exit(1)
