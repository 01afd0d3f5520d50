"""One benchmark unit in a fresh interpreter.

    python perfbench/worker.py SPEC_JSON OUT_JSON

``run.py`` starts this script once per unit, with ``PYTHONPATH`` pointing at
the checkout's ``src``.  It times ``import sativ`` and the config load, runs
the unit named by ``spec["kind"]`` and writes times, outputs and (when
traced) spans to OUT_JSON.  Kind ``cli`` is the traced CLI launcher: it times
the import, installs the span wrappers and calls ``sativ.cli.main``.

Every call into the package goes through a module attribute
(``estimator.estimate_all``, not a name imported from it), so the wrappers in
``spans.py`` see it.
"""
from __future__ import annotations

import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer

ANCHOR_SEED = 0
ANCHOR_REPS = 3
ANCHOR_ORACLE_DRAWS = 10**5
# Group sizes of the mixed-n pipeline: uniform on 20..212, mean 116 as in Sec. 6.
SIZE_MIN, SIZE_MAX = 20, 212


def _floats(a) -> list:
    import numpy as np

    return np.asarray(a, dtype=float).tolist()


def estimate_output(res) -> dict:
    return {"coefficients": _floats(res.coefficients), "vcov": _floats(res.vcov)}


def estimate_outputs(results: dict) -> dict:
    return {r.target: estimate_output(r) for r in results.values()}


def effect_curves(results: dict, basis) -> list:
    """The seven curves ``sativ effects`` writes, in its order, at its defaults."""
    from sativ import effects, estimator as est

    grid = effects.default_grid(effects.DEFAULT_GRID_POINTS)
    delta = effects.DEFAULT_DELTA
    ie_grid = grid[grid + delta <= 1.0 + 1e-12]
    table = (
        (est.TARGET_JOINT, effects.KIND_DE_TREATED, grid),
        (est.TARGET_POPULATION, effects.KIND_IE0_POPULATION, ie_grid),
        (est.TARGET_COMPLIER_THETA, effects.KIND_IE0_TREATED, ie_grid),
        (est.TARGET_COMPLIER_PSI, effects.KIND_IE1_TREATED, ie_grid),
        (est.TARGET_NEVER_TAKER, effects.KIND_IE0_NEVER_TAKER, ie_grid),
        (est.TARGET_COMPLIER_THETA, effects.KIND_PO_LINE, grid),
        (est.TARGET_COMPLIER_PSI, effects.KIND_PO_LINE, grid),
    )
    return [effects.effect_curve(results[t], kind, g, delta, basis) for t, kind, g in table]


def curve_outputs(curves: list) -> list:
    """Curves in the shape of the ``sativ effects`` CSV (PO lines carry their label)."""
    from sativ import effects

    out = []
    for c in curves:
        kind = c.kind if c.kind != effects.KIND_PO_LINE else f"{c.kind}:{c.label}"
        out.append(
            {
                "kind": kind,
                "grid": _floats(c.grid),
                "point": _floats(c.point),
                "se": _floats(c.se),
                "ci_low": _floats(c.ci_low),
                "ci_high": _floats(c.ci_high),
            }
        )
    return out


def ior_outputs(res) -> dict:
    """IOR result in the shape of the ``sativ ior-test`` JSON."""
    return {
        "bins": [
            {"saturation": s, "offered": c, "take_up_rate": r}
            for s, c, r in zip(res.saturations, res.offered_counts, res.take_up_rates)
        ],
        "wald": res.wald,
        "df": res.df,
        "n_clusters": res.n_clusters,
        "p_value": res.p_value,
    }


def descriptors(data) -> dict:
    """Exact input counts; distinct keys are (Chat, n) over rows with S > 0."""
    import numpy as np
    from sativ import estimator

    keys = set()
    for g in data.groups:
        if g.saturation > 0.0:
            chat = estimator.estimate_chat(g.z, g.d)
            keys.update((float(c), g.n) for c in np.unique(chat))
    return {
        "G": data.n_groups,
        "N": data.n_individuals,
        "distinct_n": len(set(data.sizes.tolist())),
        "distinct_keys": len(keys),
    }


def instrument_probe(data, basis, design, tracer) -> None:
    """Public ``build_instruments`` for each RS target: the transform apart from the solve."""
    from sativ import estimator

    with tracer.span("bench.probe"):
        for target in estimator.RS_TARGETS:
            estimator.build_instruments(data, basis, design, target)


def _same_data(a, b) -> bool:
    import numpy as np

    return (
        [g.group_id for g in a.groups] == [g.group_id for g in b.groups]
        and all(
            np.array_equal(getattr(a, f), getattr(b, f))
            for f in ("sizes", "saturation", "z", "d", "y")
        )
    )


def _complier_theta_identity(data, results) -> bool:
    """theta_c = theta_n + (theta - theta_n) / E[C] holds for the reported estimates."""
    import numpy as np
    from sativ import estimator as est

    rate = est.compliance_rate(data)
    pop = results[est.TARGET_POPULATION].coefficients
    nt = results[est.TARGET_NEVER_TAKER].coefficients
    ct = results[est.TARGET_COMPLIER_THETA].coefficients
    expect = nt + (pop - nt) / rate
    return bool(np.all(np.abs(ct - expect) <= 1e-10 * np.maximum(np.abs(expect), 1.0)))


def _mc_outputs(report) -> dict:
    return {
        "reps": report.reps,
        "reps_used": report.reps_used,
        "rows": [asdict(r) for r in report.rows],
        "per_replication": [
            None if rec is None else {k: list(v) for k, v in rec.items()}
            for rec in report.per_replication
        ],
    }


# ---------------------------------------------------------------------------
# unit kinds
# ---------------------------------------------------------------------------


def unit_anchor(spec, cfg, sim, tracer) -> dict:
    """Fixed small inputs whose outputs ``reference.json`` records."""
    from sativ import cli, dgp, estimator, montecarlo

    basis = cli.basis_from_config(cfg)
    sim0 = replace(sim, seed=ANCHOR_SEED)
    path = Path(spec["workdir"]) / "anchor.csv"
    cli.write_data_csv(dgp.simulate_experiment(sim0), path)
    data = estimator.ingest_csv(path)
    path.unlink()
    results = estimator.estimate_all(data, basis, sim.design, pure_control="gmm")
    report = montecarlo.run_mc(sim0, ANCHOR_REPS, jobs=1, oracle_draws=ANCHOR_ORACLE_DRAWS)
    return {
        "anchor": {
            "estimates": estimate_outputs(results),
            "curves": curve_outputs(effect_curves(results, basis)),
            "ior": ior_outputs(estimator.ior_test(data)),
            "mc_rows": [asdict(r) for r in report.rows],
        }
    }


def unit_probe(spec, cfg, sim, tracer) -> dict:
    """Set-up only: the import and config load are timed by ``main``."""
    return {}


def unit_mc(spec, cfg, sim, tracer) -> dict:
    """One serial ``run_mc`` study with both estimators and oracle truths."""
    from sativ import cli, dgp, montecarlo
    from sativ.streams import replication_seed

    sim_u = replace(sim, seed=spec["seed"])
    with tracer.span("bench.unit"):
        t0 = perf_counter()
        report = montecarlo.run_mc(
            sim_u, spec["reps"], jobs=1, pure_control="gmm", oracle_draws=spec["oracle_draws"]
        )
        unit_s = perf_counter() - t0
    out = {"unit_s": unit_s, "mc": _mc_outputs(report)}
    with tracer.span("bench.probe"):
        data0 = dgp.simulate_experiment(replace(sim_u, seed=replication_seed(sim_u.seed, 0)))
    out["descriptors"] = descriptors(data0)
    if spec["trace"]:
        instrument_probe(data0, cli.basis_from_config(cfg), sim.design, tracer)
    return out


def unit_pipeline(spec, cfg, sim, tracer) -> dict:
    """simulate_group inputs, then write CSV -> ingest -> estimate_all -> curves -> IOR."""
    import numpy as np
    from sativ import cli, dgp, estimator
    from sativ import design as design_mod

    design = design_mod.SaturationDesign.from_counts(
        sim.design.saturations, [c * spec["g_factor"] for c in sim.design.counts]
    )
    G = sum(design.counts)
    rng = np.random.default_rng(spec["seed"])
    sizes = rng.integers(SIZE_MIN, SIZE_MAX + 1, G).tolist()
    sats = design_mod.sample_saturations(design, G, rng).tolist()
    base = replace(sim, G=G, design=design, seed=spec["seed"])
    configs = {n: replace(base, n=n) for n in set(sizes)}
    with tracer.span("bench.generate"):
        groups = [
            dgp.simulate_group(configs[n], g, s) for g, (n, s) in enumerate(zip(sizes, sats))
        ]
        data = dgp.ExperimentData(groups, check=False)
    basis = cli.basis_from_config(cfg)
    path = Path(spec["workdir"]) / f"pipeline-{spec['unit']}.csv"
    with tracer.span("bench.unit"):
        t0 = perf_counter()
        cli.write_data_csv(data, path)
        ingested = estimator.ingest_csv(path)
        results = estimator.estimate_all(
            ingested, basis, design, pure_control="gmm", include_naive=True
        )
        curves = effect_curves(results, basis)
        ior = estimator.ior_test(ingested)
        unit_s = perf_counter() - t0
    csv_bytes = path.stat().st_size
    path.unlink()
    out = {
        "unit_s": unit_s,
        "csv_bytes": csv_bytes,
        "descriptors": descriptors(data),
        "outputs": {
            "estimates": estimate_outputs(results),
            "curves": curve_outputs(curves),
            "ior": ior_outputs(ior),
        },
        "roundtrip_ok": _same_data(data, ingested),
        "identity_ok": _complier_theta_identity(ingested, results),
    }
    if spec["trace"]:
        instrument_probe(ingested, basis, design, tracer)
    return out


def unit_check(spec, cfg, sim, tracer) -> dict:
    """In-process results on the CSV the CLI wrote, in the CLI's output shapes."""
    from sativ import cli, estimator

    basis = cli.basis_from_config(cfg)
    path = Path(spec["csv"])
    data = estimator.ingest_csv(path)
    results = estimator.estimate_all(data, basis, sim.design, pure_control="gmm")
    drop = estimator.rsiv_estimate(
        data, basis, sim.design, estimator.TARGET_JOINT, pure_control="drop"
    )
    diag = asdict(cli.validate_design(sim.design, basis))
    diag["per_saturation_counts"] = (
        list(diag["per_saturation_counts"]) if diag["per_saturation_counts"] else None
    )
    out = {
        "csv_bytes": path.stat().st_size,
        "descriptors": descriptors(data),
        "outputs": {
            "estimates": estimate_outputs(results),
            "joint_drop": estimate_output(drop),
            "curves": curve_outputs(effect_curves(results, basis)),
            "ior": ior_outputs(estimator.ior_test(data)),
            "design": diag,
        },
        "identity_ok": _complier_theta_identity(data, results),
    }
    if spec["trace"]:
        tracer.install()
        instrument_probe(data, basis, sim.design, tracer)
    return out


UNITS = {
    "anchor": unit_anchor,
    "probe": unit_probe,
    "mc": unit_mc,
    "pipeline": unit_pipeline,
    "check": unit_check,
}


def _check_origin(root: Path) -> None:
    import sativ

    src = (root / "src").resolve()
    if not Path(sativ.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"sativ imported from {sativ.__file__}, not from {src}")


def launch_cli(spec, out_path: Path) -> int:
    t0 = perf_counter()
    import sativ  # noqa: F401  (the timed import)

    import_s = perf_counter() - t0
    _check_origin(Path(spec["root"]))
    from sativ import cli

    tracer = Tracer()
    tracer.install()
    argv = spec["argv"]
    with tracer.span(f"cli.cmd.{argv[0]}"):
        rc = cli.main(argv)
    out_path.write_text(json.dumps({"import_s": import_s, "rc": rc, "spans": tracer.spans}))
    return rc


def main() -> int:
    spec = json.loads(sys.argv[1])
    out_path = Path(sys.argv[2])
    if spec["kind"] == "cli":
        return launch_cli(spec, out_path)
    t0 = perf_counter()
    import sativ  # noqa: F401  (the timed import)

    t1 = perf_counter()
    from sativ import cli

    cfg = cli.load_config(spec["config"])
    sim = cli.simconfig_from_config(cfg)
    t2 = perf_counter()
    _check_origin(Path(spec["root"]))
    tracer = Tracer() if spec["trace"] else NullTracer()
    if spec["trace"] and spec["kind"] != "check":  # check installs after its own work
        tracer.install()
    result = {"import_s": t1 - t0, "setup_s": t2 - t0}
    result.update(UNITS[spec["kind"]](spec, cfg, sim, tracer))
    result["spans"] = tracer.spans
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
