"""Command-line interface: simulate, estimate, effects, montecarlo, ior-test,
validate-design.

Configuration is a JSON file with blocks per subcommand (design, basis, sim,
estimation, mc); unknown keys are rejected.  Results go to files or stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 validation error or a file
that cannot be read or written, 2 numerical failure (singular system).

Each command imports the modules it runs when it runs: reading a data CSV
loads no simulator and no Monte Carlo harness, and simulating loads no
estimator.  Commands call them through module attributes
(``estimator.ingest_csv``), so a wrapper set on the module sees every call.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .design import SaturationDesign, validate_design
from .errors import SingularSystemError, ValidationError, as_integer, as_seed
from .io import per_replication_csv_lines, write_curves_csv, write_data_csv, write_latent_csv
from .model import (
    TARGET_COMPLIER_PSI,
    TARGET_COMPLIER_THETA,
    TARGET_JOINT,
    TARGET_NAIVE,
    TARGET_NEVER_TAKER,
    TARGET_POPULATION,
    basis_by_name,
)

TARGET_NAMES = {
    "joint": TARGET_JOINT,
    "complier-psi": TARGET_COMPLIER_PSI,
    "never-taker": TARGET_NEVER_TAKER,
    "population": TARGET_POPULATION,
    "complier-theta": TARGET_COMPLIER_THETA,
    "naive": TARGET_NAIVE,
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
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {', '.join(unknown)}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated key would otherwise keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"config repeats the key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"config {path} is not UTF-8 text") from None
    _check_keys(cfg, _TOP_KEYS, "config")
    return cfg


def design_from_config(cfg: dict) -> SaturationDesign:
    block = cfg.get("design")
    if block is None:
        raise ValidationError("config is missing the 'design' block")
    _check_keys(block, _DESIGN_KEYS, "design")
    if "saturations" not in block:
        raise ValidationError("design block needs 'saturations'")
    sats = _numbers(block["saturations"], "design.saturations")
    if "counts" in block and "probs" in block:
        raise ValidationError("design block takes 'counts' or 'probs', not both")
    if "counts" in block:
        return SaturationDesign.from_counts(sats, _numbers(block["counts"], "design.counts"))
    if "probs" in block:
        return SaturationDesign.from_probs(sats, _numbers(block["probs"], "design.probs"))
    return SaturationDesign.from_probs(sats, [1.0 / len(sats) for _ in sats])


def basis_from_config(cfg: dict):
    name = cfg.get("basis", "linear")
    if not isinstance(name, str):
        raise ValidationError(f"basis must be a string, got {name!r}")
    return basis_by_name(name)


def pure_control_from_config(cfg: dict, flag: str | None = None) -> str:
    """``flag`` if given, else estimation.pure_control (checked either way), else gmm."""
    from . import estimator

    block = cfg.get("estimation", {})
    _check_keys(block, _ESTIMATION_KEYS, "estimation")
    policy = block.get("pure_control", "gmm")
    estimator.check_pure_control(policy, "estimation.pure_control")
    return flag or policy


def _numbers(value, source: str) -> tuple:
    """A config list of finite numbers, as a tuple of the values as given (ints stay
    ints, so the config echo keeps them).  Bools, strings and non-lists are refused."""

    def finite(v) -> bool:  # an int too large for a float is still finite
        return not isinstance(v, bool) and (
            isinstance(v, int) or (isinstance(v, float) and math.isfinite(v))
        )

    if not isinstance(value, list) or not all(map(finite, value)):
        raise ValidationError(f"{source} must be a list of finite numbers, got {value!r}")
    return tuple(value)


def simconfig_from_config(cfg: dict):
    from .dgp import SimConfig

    block = cfg.get("sim")
    if block is None:
        raise ValidationError("config is missing the 'sim' block")
    _check_keys(block, _SIM_KEYS, "sim")
    design = design_from_config(cfg)
    try:
        kwargs = dict(
            G=as_integer(block["G"], "sim.G", 2),
            n=as_integer(block["n"], "sim.n", 2),
            design=design,
            means=_numbers(block["means"], "sim.means"),
            seed=as_seed(block.get("seed", 0), "sim.seed"),
        )
    except KeyError as exc:
        raise ValidationError(f"sim block is missing {exc}") from None
    for key in ("kappa", "sigma", "complier_shares", "share_probs"):
        if key in block:
            kwargs[key] = _numbers(block[key], f"sim.{key}")
    return SimConfig(**kwargs)


def _finite_or_none(x: float | None):
    return float(x) if x is not None and math.isfinite(x) else None


def _fallback_json(diag) -> dict:
    """The policy that ran and the fallback counts of one estimate."""
    return {
        "pure_control": diag.pure_control,
        "n_chat_fallback": diag.n_chat_fallback,
        "n_instrument_keys": diag.n_instrument_keys,
        "n_pseudo_inverted": diag.n_pseudo_inverted,
        "n_groups_identifying": diag.n_groups_identifying,
    }


def _note_unidentified_vcov(results) -> None:
    """Warn on stderr about fits whose instruments are nonzero in too few groups."""
    for res in results:
        groups, k = res.diagnostics.n_groups_identifying, len(res.coefficients)
        if groups <= k:
            print(
                f"note: {res.target}: the instruments are nonzero in {groups} groups, "
                f"not more than the {k} coefficients, so its standard errors are not identified",
                file=sys.stderr,
            )


def _result_json(res, cfg_echo: dict) -> dict:
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
    from . import dgp

    cfg = load_config(args.config)
    sim = simconfig_from_config(cfg)
    data = dgp.simulate_experiment(sim)
    write_data_csv(data, args.out)
    _write_meta(args.out, dgp.config_dict(sim))
    if args.latent:
        write_latent_csv(data, args.latent)
    print(
        f"wrote {data.n_individuals} individuals in {data.n_groups} groups to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_estimate(args) -> int:
    from . import estimator

    cfg = load_config(args.config)
    design = design_from_config(cfg)
    basis = basis_from_config(cfg)
    pure_control = pure_control_from_config(cfg, args.pure_control)
    data = estimator.ingest_csv(args.data)
    res = estimator.rsiv_estimate(
        data, basis, design, TARGET_NAMES[args.target], pure_control=pure_control
    )
    _note_unidentified_vcov([res])
    echo = {"config_file": str(args.config), "data": str(args.data), "target": args.target}
    _emit(_result_json(res, echo), args.out)
    return 0


def _cmd_effects(args) -> int:
    from . import effects, estimator

    if args.delta is None:
        args.delta = effects.DEFAULT_DELTA
    if args.grid_points is None:
        args.grid_points = effects.DEFAULT_GRID_POINTS
    if args.grid_points < 2:
        raise ValidationError(f"--grid-points must be at least 2, got {args.grid_points}")
    if not 0.0 < args.delta < 1.0:  # false for nan
        raise ValidationError(f"--delta must be a finite number in (0, 1), got {args.delta!r}")
    cfg = load_config(args.config)
    design = design_from_config(cfg)
    basis = basis_from_config(cfg)
    pure_control = pure_control_from_config(cfg)
    data = estimator.ingest_csv(args.data)
    res = estimator.estimate_all(
        data, basis, design, pure_control=pure_control, include_naive=False
    )
    _note_unidentified_vcov(res.values())
    grid = effects.default_grid(args.grid_points)
    ie_grid = grid[grid + args.delta <= 1.0 + 1e-12]
    curves = [
        effects.effect_curve(res[target], kind, g, args.delta, basis)
        for target, kind, g in (
            (estimator.TARGET_JOINT, effects.KIND_DE_TREATED, grid),
            (estimator.TARGET_POPULATION, effects.KIND_IE0_POPULATION, ie_grid),
            (estimator.TARGET_COMPLIER_THETA, effects.KIND_IE0_TREATED, ie_grid),
            (estimator.TARGET_COMPLIER_PSI, effects.KIND_IE1_TREATED, ie_grid),
            (estimator.TARGET_NEVER_TAKER, effects.KIND_IE0_NEVER_TAKER, ie_grid),
            (estimator.TARGET_COMPLIER_THETA, effects.KIND_PO_LINE, grid),
            (estimator.TARGET_COMPLIER_PSI, effects.KIND_PO_LINE, grid),
        )
    ]
    write_curves_csv(curves, args.out)
    _write_meta(args.out, {"config_file": str(args.config), "data": str(args.data),
                           "delta": args.delta, "grid_points": args.grid_points,
                           "diagnostics": {t: _fallback_json(r.diagnostics) for t, r in res.items()}})
    return 0


def _count(flag_value, flag: str, block: dict, key: str, default):
    """The flag's value if given, else the mc block's, else ``default``: an integer >= 1."""
    if flag_value is not None:
        return as_integer(flag_value, flag, 1)
    return as_integer(block[key], f"mc.{key}", 1) if key in block else default


def _cmd_montecarlo(args) -> int:
    from . import montecarlo

    cfg = load_config(args.config)
    sim = simconfig_from_config(cfg)
    basis = basis_from_config(cfg)
    if basis.name != "linear":  # replicate_once fits f = (1, x); RS_ROWS name k=2 terms
        raise ValidationError(f"montecarlo supports only the linear basis, not {basis.name!r}")
    mc_block = cfg.get("mc", {})
    _check_keys(mc_block, _MC_KEYS, "mc")
    pure_control = pure_control_from_config(cfg)
    reps = _count(args.reps, "--reps", mc_block, "reps", None)
    if reps is None:
        raise ValidationError("replication count required (--reps or mc.reps)")
    jobs = _count(args.jobs, "--jobs", mc_block, "jobs", 1)
    estimators = mc_block.get("estimators", [montecarlo.ESTIMATOR_RS, montecarlo.ESTIMATOR_NAIVE])
    if not isinstance(estimators, list):
        raise ValidationError(f"mc.estimators must be a list, got {estimators!r}")
    report = montecarlo.run_mc(
        sim,
        reps,
        estimators=tuple(estimators),
        jobs=jobs,
        pure_control=pure_control,
        oracle_draws=as_integer(mc_block.get("oracle_draws", 10**6), "mc.oracle_draws", 1),
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
            "\n".join(per_replication_csv_lines(report)) + "\n", encoding="utf-8"
        )
    print(
        f"{report.reps_used}/{report.reps} replications in {report.runtime_seconds:.1f}s "
        f"({report.n_singular_excluded} singular excluded)",
        file=sys.stderr,
    )
    return 0


def _cmd_ior_test(args) -> int:
    from . import estimator

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
    _emit(asdict(diag), args.out)
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
    # the defaults are effects.DEFAULT_DELTA and DEFAULT_GRID_POINTS, read when the command runs
    p.add_argument("--delta", type=float)
    p.add_argument("--grid-points", type=int)
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
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularSystemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
