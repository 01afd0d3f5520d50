#!/usr/bin/env python3
"""Record ``reference.json`` from the checkout in the current directory.

    python3 perfbench/record_reference.py

Records the anchor outputs and, for the default seed 0 and the held-out
seed 1, unit 0 of every workload at full size.  Run it only at a commit
whose outputs are the accepted ones; ``run.py`` compares against the file.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from run import HERE, SIZES, WORKLOADS, Run, cli_commands, unit_seed

SEEDS = (0, 1)


def record(run: Run, workload: str, seed: int) -> dict:
    size = SIZES[False]
    i = 0
    if workload == "mc-sec6":
        res = run.worker({"kind": "mc", "seed": unit_seed(seed, i), "reps": size["reps"],
                          "oracle_draws": size["oracle_draws"]})
        return {"rows": res["mc"]["rows"], "descriptors": res["descriptors"]}
    if workload == "pipeline-10x-mixed-n":
        res = run.worker({"kind": "pipeline", "seed": unit_seed(seed, i), "unit": i,
                          "g_factor": size["g_factor"]})
        return {"outputs": res["outputs"], "descriptors": res["descriptors"]}
    seqdir = run.work / f"{workload}-{seed}"
    seqdir.mkdir()
    config = json.loads((HERE / "sec6.json").read_text())
    config["sim"]["seed"] = unit_seed(seed, i)
    (seqdir / "config.json").write_text(json.dumps(config))
    _, simulate = cli_commands()[0]
    rc, _, _ = run.spawn([sys.executable, "-m", "sativ.cli", *simulate], seqdir)
    if rc != 0:
        raise RuntimeError(f"sativ simulate exited with {rc}")
    res = run.worker({"kind": "check", "csv": str(seqdir / "data.csv")}, seqdir)
    return {"outputs": res["outputs"], "descriptors": res["descriptors"]}


def main() -> int:
    root = Path.cwd()
    out = {"anchor": None, "full": {}}
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=0, seconds=1, trace=0, toy=False)
        run = Run(args, root, reference={})
        run.work.mkdir(parents=True)
        try:
            if out["anchor"] is None:
                out["anchor"] = run.worker({"kind": "anchor"})["anchor"]
            entries = {}
            for seed in SEEDS:
                entries[str(seed)] = {"size": run.size_key(), "outputs": record(run, workload, seed)}
            out["full"][workload] = entries
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
        print(f"recorded {workload}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
