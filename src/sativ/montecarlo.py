"""Monte Carlo harness: replicate simulate -> estimate, report bias/SD/coverage.

Replication r draws its entire experiment from the splittable seed
(root, r), so reports are identical for any degree of parallelism and the
per-replication results can be combined in index order for bit-stable output.
"""
from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import dgp, estimator
from .dgp import SimConfig
from .effects import Z_95
from .errors import SingularSystemError, ValidationError
from .estimator import TARGET_COMPLIER_THETA, TARGET_JOINT, TARGET_NAIVE, TARGET_NEVER_TAKER
from .io import per_replication_csv_lines  # noqa: F401  criterion 11 imports it from here
from .model import LABEL_COMPLIER, LABEL_NEVER_TAKER, LABEL_POPULATION, linear_basis
from .streams import replication_seed

# Each row, in the order a replication records them: its estimate (target,
# coefficient) and its oracle truth (sub-population, mean block, entry).  Naive
# rows are measured against the causal truths, so their coverage reflects the
# bias of the naive estimands for the spillover terms.
_ROWS = {
    "alpha": (TARGET_JOINT, 0, LABEL_POPULATION, "theta_mean", 0),
    "gamma": (TARGET_JOINT, 1, LABEL_POPULATION, "theta_mean", 1),
    "beta_c": (TARGET_JOINT, 2, LABEL_COMPLIER, "contrast_mean", 0),
    "delta_c": (TARGET_JOINT, 3, LABEL_COMPLIER, "contrast_mean", 1),
    "alpha_n": (TARGET_NEVER_TAKER, 0, LABEL_NEVER_TAKER, "theta_mean", 0),
    "gamma_n": (TARGET_NEVER_TAKER, 1, LABEL_NEVER_TAKER, "theta_mean", 1),
    "alpha_c": (TARGET_COMPLIER_THETA, 0, LABEL_COMPLIER, "theta_mean", 0),
    "gamma_c": (TARGET_COMPLIER_THETA, 1, LABEL_COMPLIER, "theta_mean", 1),
    "naive_alpha": (TARGET_NAIVE, 0, LABEL_POPULATION, "theta_mean", 0),
    "naive_beta": (TARGET_NAIVE, 1, LABEL_COMPLIER, "contrast_mean", 0),
    "naive_gamma": (TARGET_NAIVE, 2, LABEL_POPULATION, "theta_mean", 1),
    "naive_delta": (TARGET_NAIVE, 3, LABEL_COMPLIER, "contrast_mean", 1),
}
# the report's order
RS_ROWS = ("alpha", "gamma", "alpha_n", "gamma_n", "alpha_c", "beta_c", "gamma_c", "delta_c")
NAIVE_ROWS = tuple(name for name, row in _ROWS.items() if row[0] == TARGET_NAIVE)

ESTIMATOR_RS = "rs_iv"
ESTIMATOR_NAIVE = "naive"


@dataclass
class MCRow:
    name: str
    truth: float
    mean: float
    sd: float
    coverage: float | None


@dataclass(frozen=True)
class SingularReplication:
    """A replication left out because one of its linear systems was singular."""

    rep: int
    message: str
    condition_number: float | None


@dataclass
class MCReport:
    rows: list[MCRow]
    reps: int
    reps_used: int
    n_singular_excluded: int
    estimators: tuple[str, ...]
    pure_control: str
    config: dict
    runtime_seconds: float
    per_replication: list[dict[str, tuple[float, float]] | None]
    singular: list[SingularReplication]  # in replication order


def config_dict(cfg: SimConfig) -> dict:
    """JSON-friendly echo of a simulation config."""
    out = {
        "G": cfg.G,
        "n": cfg.n,
        "design": {
            "saturations": list(cfg.design.saturations),
            **(
                {"counts": list(cfg.design.counts)}
                if cfg.design.counts is not None
                else {"probs": list(cfg.design.weights)}
            ),
        },
        "means": list(cfg.means),
        "kappa": list(cfg.kappa),
        "sigma": list(cfg.sigma),
        "complier_shares": list(cfg.complier_shares),
        "share_probs": list(cfg.probs),
        "seed": cfg.seed if isinstance(cfg.seed, int) else list(cfg.seed),
    }
    return out


def oracle_truths(
    cfg: SimConfig, estimators=(ESTIMATOR_RS, ESTIMATOR_NAIVE), oracle_draws: int = 10**6
) -> dict[str, float]:
    """Ground-truth parameter values from the brute-force DGP oracle: every
    RS-IV row's, and the naive rows' when ``estimators`` holds naive IV."""
    means = dgp.oracle_subpopulation_means(cfg, oracle_draws)
    return {
        name: getattr(means[label], block)[entry]
        for name, (target, _, label, block, entry) in _ROWS.items()
        if target != TARGET_NAIVE or ESTIMATOR_NAIVE in estimators
    }


def replicate_once(
    cfg: SimConfig, rep: int, estimators=(ESTIMATOR_RS, ESTIMATOR_NAIVE), pure_control="gmm"
) -> dict[str, tuple[float, float]] | SingularReplication:
    """One simulate -> estimate replication, or what made its system singular."""
    rep_cfg = replace(cfg, seed=replication_seed(cfg.seed, rep))
    data = dgp.simulate_experiment(rep_cfg)
    res: dict[str, estimator.EstimateResult] = {}
    try:
        if ESTIMATOR_RS in estimators:
            res = estimator.estimate_all(
                data, linear_basis(), cfg.design, pure_control=pure_control, include_naive=False
            )
        if ESTIMATOR_NAIVE in estimators:
            res[TARGET_NAIVE] = estimator.naive_iv(data)
    except SingularSystemError as exc:
        return SingularReplication(rep, str(exc), exc.condition_number)
    return {
        name: (float(res[target].coefficients[i]), float(res[target].se[i]))
        for name, (target, i, *_) in _ROWS.items()
        if target in res
    }


def run_mc(
    cfg: SimConfig,
    reps: int,
    estimators=(ESTIMATOR_RS, ESTIMATOR_NAIVE),
    jobs: int = 1,
    pure_control: str = "gmm",
    oracle_draws: int = 10**6,
) -> MCReport:
    """Run the replication study and summarize mean, SD, and 95% coverage."""
    if reps < 2:
        raise ValidationError("need at least two replications")
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    estimator.check_pure_control(pure_control)
    for e in estimators:
        if e not in (ESTIMATOR_RS, ESTIMATOR_NAIVE):
            raise ValidationError(f"unknown estimator {e!r}")
    if not estimators:
        raise ValidationError(f"need at least one estimator: {ESTIMATOR_RS!r} or {ESTIMATOR_NAIVE!r}")
    t0 = time.perf_counter()
    truths = oracle_truths(cfg, estimators, oracle_draws)

    args = ([cfg] * reps, range(reps), [tuple(estimators)] * reps, [pure_control] * reps)
    # the replications share one table of per-key R^+ per process (estimator._KeyTable)
    jobs = min(jobs, reps)  # a fork pool starts all its workers at the first task
    if jobs > 1:
        with ProcessPoolExecutor(jobs, initializer=estimator._start_study_tables) as pool:
            results = list(pool.map(replicate_once, *args, chunksize=max(1, reps // (4 * jobs))))
    else:
        with estimator._study_tables():
            results = list(map(replicate_once, *args))

    singular = [r for r in results if isinstance(r, SingularReplication)]
    results = [None if isinstance(r, SingularReplication) else r for r in results]
    used = [r for r in results if r is not None]
    n_excluded = len(singular)
    if not used:
        raise SingularSystemError("every replication produced a singular system")

    row_names = (RS_ROWS if ESTIMATOR_RS in estimators else ()) + (
        NAIVE_ROWS if ESTIMATOR_NAIVE in estimators else ()
    )
    rows = []
    for name in row_names:
        est = np.array([r[name][0] for r in used])
        se = np.array([r[name][1] for r in used])
        truth = truths[name]
        sd = float(est.std(ddof=1))
        if sd <= 1e-9 * max(1.0, float(np.abs(est).max())):
            coverage = None  # zero-variance row: coverage degenerate
        else:
            covered = np.abs(est - truth) <= Z_95 * se
            coverage = float(covered.mean())
        rows.append(MCRow(name, float(truth), float(est.mean()), sd, coverage))

    return MCReport(
        rows=rows,
        reps=reps,
        reps_used=len(used),
        n_singular_excluded=n_excluded,
        estimators=tuple(estimators),
        pure_control=pure_control,
        config=config_dict(cfg),
        runtime_seconds=time.perf_counter() - t0,
        per_replication=results,
        singular=singular,
    )


def report_to_json(report: MCReport) -> str:
    """Canonical JSON for an MCReport.

    Excludes wall-clock runtime, per-replication details and the singular
    replications so that reports from runs with different parallelism are
    byte-identical.
    """
    payload = {
        "reps": report.reps,
        "reps_used": report.reps_used,
        "n_singular_excluded": report.n_singular_excluded,
        "estimators": list(report.estimators),
        "pure_control": report.pure_control,
        "config": report.config,
        "rows": [asdict(r) for r in report.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True)

