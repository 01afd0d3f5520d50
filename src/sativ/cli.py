"""Command-line interface: simulate, estimate, effects, montecarlo, ior-test,
validate-design.

Configuration is a JSON file with blocks per subcommand (design, basis, sim,
estimation, mc); unknown keys are rejected.  Results go to files or stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 validation error, 2
numerical failure (singular system).
"""
from __future__ import annotations

import argparse
import json
import operator
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import dgp, effects, estimator, montecarlo
from .design import SaturationDesign, validate_design
from .dgp import ExperimentData, SimConfig
from .errors import SingularSystemError, ValidationError
from .model import basis_by_name

TARGET_NAMES = {
    "joint": estimator.TARGET_JOINT,
    "complier-psi": estimator.TARGET_COMPLIER_PSI,
    "never-taker": estimator.TARGET_NEVER_TAKER,
    "population": estimator.TARGET_POPULATION,
    "complier-theta": estimator.TARGET_COMPLIER_THETA,
    "naive": estimator.TARGET_NAIVE,
}

_TOP_KEYS = ("design", "basis", "sim", "estimation", "mc")
_DESIGN_KEYS = ("saturations", "counts", "probs")
_SIM_KEYS = ("G", "n", "means", "kappa", "sigma", "complier_shares", "share_probs", "seed")
_ESTIMATION_KEYS = ("pure_control",)
_MC_KEYS = ("reps", "jobs", "estimators", "oracle_draws")


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with usage, not argparse's exit 2
        raise _CliError(f"{message}\n{self.format_usage()}")


def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {', '.join(unknown)}")


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    return cfg


def design_from_config(cfg: dict) -> SaturationDesign:
    block = cfg.get("design")
    if block is None:
        raise ValidationError("config is missing the 'design' block")
    _check_keys(block, _DESIGN_KEYS, "design")
    sats = block.get("saturations")
    if sats is None:
        raise ValidationError("design block needs 'saturations'")
    if "counts" in block and "probs" in block:
        raise ValidationError("design block takes 'counts' or 'probs', not both")
    if "counts" in block:
        return SaturationDesign.from_counts(sats, block["counts"])
    if "probs" in block:
        return SaturationDesign.from_probs(sats, block["probs"])
    j = len(sats)
    return SaturationDesign.from_probs(sats, [1.0 / j] * j)


def basis_from_config(cfg: dict):
    return basis_by_name(cfg.get("basis", "linear"))


def simconfig_from_config(cfg: dict) -> SimConfig:
    block = cfg.get("sim")
    if block is None:
        raise ValidationError("config is missing the 'sim' block")
    _check_keys(block, _SIM_KEYS, "sim")
    design = design_from_config(cfg)
    try:
        kwargs = dict(
            G=int(block["G"]),
            n=int(block["n"]),
            design=design,
            means=tuple(block["means"]),
            kappa=tuple(block.get("kappa", (0.0, 0.0, 0.0, 0.0))),
            sigma=tuple(block.get("sigma", (0.0, 0.0, 0.0, 0.0))),
            seed=block.get("seed", 0),
        )
    except KeyError as exc:
        raise ValidationError(f"sim block is missing {exc}") from None
    if "complier_shares" in block:
        kwargs["complier_shares"] = tuple(block["complier_shares"])
    if "share_probs" in block:
        kwargs["share_probs"] = tuple(block["share_probs"])
    return SimConfig(**kwargs)


def write_data_csv(data: ExperimentData, path) -> None:
    """Write the pinned data schema: group_id,saturation,z,d,y (one row per individual)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(estimator.CSV_HEADER) + "\n")
        for g in data.groups:
            # one line prefix per (z, d), indexed by 2z + d; z and d are binary
            head = f"{g.group_id},{float(g.saturation)!r},"
            prefix = [f"{head}{z},{d}," for z in (0, 1) for d in (0, 1)]
            cell = _ints(2 * np.asarray(g.z) + np.asarray(g.d))
            lines = map(operator.add, map(prefix.__getitem__, cell), map(repr, _floats(g.y)))
            fh.write("\n".join(lines) + "\n")


def write_latent_csv(data: ExperimentData, path) -> None:
    """Latent-truth schema: group_id,complier,alpha,beta,gamma,delta."""
    if not data.has_latent:
        raise ValidationError("data has no latent truth (not generated by the simulator)")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("group_id,complier,alpha,beta,gamma,delta\n")
        for g in data.groups:
            prefix = [f"{g.group_id},{c}," for c in (0, 1)]  # by the binary complier flag
            coefs = map(repr, _floats(g.coefs.ravel()))
            rows = map(",".join, zip(coefs, coefs, coefs, coefs))
            lines = map(operator.add, map(prefix.__getitem__, _ints(g.complier)), rows)
            fh.write("\n".join(lines) + "\n")


def _ints(v: np.ndarray) -> list[int]:
    """Python ints, as ``int()`` gives them, for fast per-group formatting."""
    return np.asarray(v).astype(np.int64).tolist()


def _floats(v: np.ndarray) -> list:
    """Python floats, as ``float()`` gives them, for fast per-group formatting."""
    return np.asarray(v, dtype=float).tolist()


def _finite_or_none(x: float | None):
    return float(x) if x is not None and np.isfinite(x) else None


def _fallback_json(diag: estimator.EstimatorDiagnostics) -> dict:
    """The policy that ran and the fallback counts of one estimate."""
    return {
        "pure_control": diag.pure_control,
        "n_chat_fallback": diag.n_chat_fallback,
        "n_instrument_keys": diag.n_instrument_keys,
        "n_pseudo_inverted": diag.n_pseudo_inverted,
    }


def _result_json(res: estimator.EstimateResult, cfg_echo: dict) -> dict:
    return {
        "target": res.target,
        "coefficients": [float(v) for v in res.coefficients],
        "se": [float(v) for v in res.se],
        "vcov": [[float(v) for v in row] for row in res.vcov],
        "G_used": res.G_used,
        "N_used": res.N_used,
        "diagnostics": {
            "min_abs_det_r": _finite_or_none(res.diagnostics.min_abs_det_r),
            "cond_a": _finite_or_none(res.diagnostics.cond_a),
            **_fallback_json(res.diagnostics),
        },
        "config": cfg_echo,
    }


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _write_meta(out_path: str, cfg_echo: dict) -> None:
    Path(out_path + ".meta.json").write_text(
        json.dumps(cfg_echo, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    sim = simconfig_from_config(cfg)
    data = dgp.simulate_experiment(sim)
    write_data_csv(data, args.out)
    _write_meta(args.out, montecarlo.config_dict(sim))
    if args.latent:
        write_latent_csv(data, args.latent)
    print(
        f"wrote {data.n_individuals} individuals in {data.n_groups} groups to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_estimate(args) -> int:
    cfg = load_config(args.config)
    design = design_from_config(cfg)
    basis = basis_from_config(cfg)
    est_block = cfg.get("estimation", {})
    _check_keys(est_block, _ESTIMATION_KEYS, "estimation")
    pure_control = args.pure_control or est_block.get("pure_control", "gmm")
    data = estimator.ingest_csv(args.data)
    target = TARGET_NAMES[args.target]
    if target == estimator.TARGET_NAIVE:
        res = estimator.naive_iv(data)
    else:
        res = estimator.rsiv_estimate(
            data, basis, design, target, pure_control=pure_control
        )
    echo = {"config_file": str(args.config), "data": str(args.data), "target": args.target}
    _emit(_result_json(res, echo), args.out)
    return 0


def _cmd_effects(args) -> int:
    if args.grid_points < 2:
        raise ValidationError(f"--grid-points must be at least 2, got {args.grid_points}")
    if not 0.0 < args.delta < 1.0:  # false for nan
        raise ValidationError(f"--delta must be a finite number in (0, 1), got {args.delta!r}")
    cfg = load_config(args.config)
    design = design_from_config(cfg)
    basis = basis_from_config(cfg)
    est_block = cfg.get("estimation", {})
    _check_keys(est_block, _ESTIMATION_KEYS, "estimation")
    pure_control = est_block.get("pure_control", "gmm")
    data = estimator.ingest_csv(args.data)
    res = estimator.estimate_all(
        data, basis, design, pure_control=pure_control, include_naive=False
    )
    grid = effects.default_grid(args.grid_points)
    ie_grid = grid[grid + args.delta <= 1.0 + 1e-12]
    curves = [
        effects.effect_curve(res[estimator.TARGET_JOINT], effects.KIND_DE_TREATED, grid, basis=basis),
        effects.effect_curve(
            res[estimator.TARGET_POPULATION], effects.KIND_IE0_POPULATION, ie_grid, args.delta, basis
        ),
        effects.effect_curve(
            res[estimator.TARGET_COMPLIER_THETA], effects.KIND_IE0_TREATED, ie_grid, args.delta, basis
        ),
        effects.effect_curve(
            res[estimator.TARGET_COMPLIER_PSI], effects.KIND_IE1_TREATED, ie_grid, args.delta, basis
        ),
        effects.effect_curve(
            res[estimator.TARGET_NEVER_TAKER], effects.KIND_IE0_NEVER_TAKER, ie_grid, args.delta, basis
        ),
        effects.effect_curve(res[estimator.TARGET_COMPLIER_THETA], effects.KIND_PO_LINE, grid, basis=basis),
        effects.effect_curve(res[estimator.TARGET_COMPLIER_PSI], effects.KIND_PO_LINE, grid, basis=basis),
    ]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("kind,dbar,estimate,se,ci_low,ci_high\n")
        for c in curves:
            kind = c.kind if c.kind != effects.KIND_PO_LINE else f"{c.kind}:{c.label}"
            for i, x in enumerate(c.grid):
                vals = (x, c.point[i], c.se[i], c.ci_low[i], c.ci_high[i])
                fh.write(kind + "," + ",".join(repr(float(v)) for v in vals) + "\n")
    _write_meta(args.out, {"config_file": str(args.config), "data": str(args.data),
                           "delta": args.delta, "grid_points": args.grid_points,
                           "diagnostics": {t: _fallback_json(r.diagnostics) for t, r in res.items()}})
    return 0


def _count(flag_value, flag: str, block: dict, key: str, default):
    """The flag's value if given, else the mc block's, else ``default``: an integer >= 1."""
    if flag_value is not None:
        value, source = flag_value, flag
    elif key in block:
        value, source = block[key], f"mc.{key}"
    else:
        return default
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{source} must be an integer of at least 1, got {value!r}")
    return value


def _cmd_montecarlo(args) -> int:
    cfg = load_config(args.config)
    sim = simconfig_from_config(cfg)
    basis = basis_from_config(cfg)
    if basis.name != "linear":  # replicate_once fits f = (1, x); RS_ROWS name k=2 terms
        raise ValidationError(f"montecarlo supports only the linear basis, not {basis.name!r}")
    mc_block = cfg.get("mc", {})
    _check_keys(mc_block, _MC_KEYS, "mc")
    est_block = cfg.get("estimation", {})
    _check_keys(est_block, _ESTIMATION_KEYS, "estimation")
    reps = _count(args.reps, "--reps", mc_block, "reps", None)
    if reps is None:
        raise ValidationError("replication count required (--reps or mc.reps)")
    jobs = _count(args.jobs, "--jobs", mc_block, "jobs", 1)
    estimators = tuple(mc_block.get("estimators", (montecarlo.ESTIMATOR_RS, montecarlo.ESTIMATOR_NAIVE)))
    report = montecarlo.run_mc(
        sim,
        reps,
        estimators=estimators,
        jobs=jobs,
        pure_control=est_block.get("pure_control", "gmm"),
        oracle_draws=int(mc_block.get("oracle_draws", 10**6)),
    )
    text = montecarlo.report_to_json(report)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        # the report stays canonical; the runtime and singular replications go beside it
        _write_meta(args.out, {
            "runtime_seconds": report.runtime_seconds,
            "singular": [
                {"rep": s.rep, "message": s.message,
                 "condition_number": _finite_or_none(s.condition_number)}
                for s in report.singular
            ],
        })
    else:
        print(text)
    if args.estimates_csv:
        Path(args.estimates_csv).write_text(
            "\n".join(montecarlo.per_replication_csv_lines(report)) + "\n", encoding="utf-8"
        )
    print(
        f"{report.reps_used}/{report.reps} replications in {report.runtime_seconds:.1f}s "
        f"({report.n_singular_excluded} singular excluded)",
        file=sys.stderr,
    )
    return 0


def _cmd_ior_test(args) -> int:
    data = estimator.ingest_csv(args.data)
    res = estimator.ior_test(data)
    payload = {
        "bins": [
            {"saturation": s, "offered": c, "take_up_rate": r}
            for s, c, r in zip(res.saturations, res.offered_counts, res.take_up_rates)
        ],
        "wald": res.wald,
        "df": res.df,
        "n_clusters": res.n_clusters,
        "p_value": res.p_value,
    }
    _emit(payload, args.out)
    return 0


def _cmd_validate_design(args) -> int:
    cfg = load_config(args.config)
    design = design_from_config(cfg)
    basis = basis_from_config(cfg)
    diag = validate_design(design, basis)
    payload = asdict(diag)
    payload["per_saturation_counts"] = (
        list(diag.per_saturation_counts) if diag.per_saturation_counts else None
    )
    _emit(payload, args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="sativ", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate an experiment and write the data CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--latent", help="also write latent complier flags and coefficients")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate one target from a data CSV")
    p.add_argument("--config", "--design", dest="config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True, choices=sorted(TARGET_NAMES))
    p.add_argument("--pure-control", choices=("drop", "gmm"), dest="pure_control")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("effects", help="emit plot-ready effect curves as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=float, default=effects.DEFAULT_DELTA)
    p.add_argument("--grid-points", type=int, default=effects.DEFAULT_GRID_POINTS)
    p.set_defaults(func=_cmd_effects)

    p = sub.add_parser("montecarlo", help="replication study: bias, SD, coverage")
    p.add_argument("--config", required=True)
    p.add_argument("--reps", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out")
    p.add_argument("--estimates-csv", dest="estimates_csv")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("ior-test", help="test that take-up is saturation-free")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ior_test)

    p = sub.add_parser("validate-design", help="identification diagnostics for a design")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate_design)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularSystemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
