"""Transformed-instrument IV estimation for randomized saturation experiments.

The feasible estimator plugs the leave-one-out take-up/offer ratio Chat into
the design-implied moment matrices, transforms the endogenous regressors into
instruments Zhat = R(Chat, N)^+ W, and solves the just-identified IV system
with standard errors clustered by group.  Designs with a 0% saturation are
handled either by dropping pure-control groups (with moments conditioned on
S > 0) or by augmenting the instruments with a pure-control indicator and
solving the over-identified system by two-stage least squares.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from . import moments
from .design import SaturationDesign
from .dgp import Cells, ExperimentData, _loo_take_up
from .errors import SingularSystemError, ValidationError
from .io import ingest_csv  # noqa: F401  the CLI calls, and perfbench traces, estimator.ingest_csv
from .model import BasisSpec

TARGET_JOINT = "joint"
TARGET_COMPLIER_PSI = "complier_psi"
TARGET_NEVER_TAKER = "never_taker"
TARGET_POPULATION = "population"
TARGET_COMPLIER_THETA = "complier_theta"
TARGET_NAIVE = "naive_iv"

RS_TARGETS = (TARGET_JOINT, TARGET_COMPLIER_PSI, TARGET_NEVER_TAKER, TARGET_POPULATION)

COND_LIMIT = 1e12


@dataclass
class EstimatorDiagnostics:
    """Numerical health indicators collected while building instruments.

    ``pure_control`` is the policy that ran: "gmm", "drop" (also when gmm
    finds no pure-control group in the data, and always for the never-taker
    part of complier theta) or None without a 0% saturation in the design.
    ``n_chat_fallback`` counts rows whose Chat fell to 0 because no neighbor
    was offered; ``n_instrument_keys`` the distinct (Chat, n) keys.
    ``n_groups_identifying`` counts the groups where the fit's instruments
    are nonzero (for complier theta, the fewer of its two fits'): at or
    below the number of coefficients the fit can leave every group score at
    zero, and the clustered vcov is then rounding noise.
    """

    n_pseudo_inverted: int = 0
    min_abs_det_r: float = math.inf
    cond_a: float = math.nan
    pure_control: str | None = None
    n_chat_fallback: int = 0
    n_instrument_keys: int = 0
    n_groups_identifying: int = 0


@dataclass
class EstimateResult:
    target: str
    coefficients: np.ndarray
    vcov: np.ndarray
    G_used: int
    N_used: int
    diagnostics: EstimatorDiagnostics = field(default_factory=EstimatorDiagnostics)

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.vcov))


@dataclass
class InstrumentSet:
    """Per-individual regressors, instrument building blocks, and instruments."""

    x: np.ndarray
    w: np.ndarray
    zhat: np.ndarray
    n_pseudo_inverted: int
    min_abs_det_r: float


@dataclass
class IORTestResult:
    """Regression-based test that take-up among the offered is saturation-free."""

    saturations: tuple[float, ...]
    offered_counts: tuple[int, ...]
    take_up_rates: tuple[float, ...]
    wald: float
    df: int
    n_clusters: int
    p_value: float


def estimate_chat(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Leave-one-out complier share estimate for one group.

    Chat_i = Dbar_i / Zbar_i where any neighbor was offered, else 0.
    """
    z = np.asarray(z, dtype=float)
    d = np.asarray(d, dtype=float)
    return _loo_take_up(d.sum() - d, z.sum() - z)


def check_pure_control(policy: str, source: str = "pure_control policy") -> None:
    """Reject a pure-control policy other than "gmm" and "drop"."""
    if policy not in ("gmm", "drop"):
        raise ValidationError(f"{source} must be 'gmm' or 'drop', got {policy!r}")


def compliance_rate(data: ExperimentData) -> float:
    """Sample take-up rate among offered individuals (the estimate of E[C])."""
    offered = data.cells.count @ data.cells.z
    if offered == 0:
        raise ValidationError("no offered individuals; compliance rate undefined")
    return float(data.cells.count @ data.cells.d / offered)


# ---------------------------------------------------------------------------
# internal estimation machinery
# ---------------------------------------------------------------------------


def _cells(data: ExperimentData, chat_policy: str) -> Cells:
    """The cells an RS-IV fit runs on: split by the complier flag for the oracle."""
    if chat_policy == "estimate":
        return data.cells
    if chat_policy == "oracle":
        if not data.has_latent:
            raise ValidationError("oracle chat policy requires latent complier flags")
        return data.latent_cells
    raise ValidationError(f"unknown chat policy {chat_policy!r}")


def _target_arrays(
    cells: Cells, basis: BasisSpec, target: str
) -> tuple[np.ndarray, np.ndarray]:
    """Regressors X and instrument building blocks W per the estimator table."""
    f = basis.values(cells.dbar)
    if target == TARGET_JOINT:
        x = np.hstack([f, cells.d[:, None] * f])
        w = np.hstack([f, cells.z[:, None] * f])
    elif target == TARGET_COMPLIER_PSI:
        x = f
        w = cells.d[:, None] * f
    elif target == TARGET_NEVER_TAKER:
        x = f
        w = (cells.z * (1.0 - cells.d))[:, None] * f
    elif target == TARGET_POPULATION:
        x = f
        w = (1.0 - cells.z)[:, None] * f
    else:
        raise ValidationError(f"unknown RS-IV target {target!r}")
    return x, w


# The ``_KeyTable``s shared by the plans built inside ``_study_tables()`` (one
# Monte Carlo study, or one of its pool workers), keyed by (basis, design).
# A context variable, so that studies in other threads keep their own.
_STUDY_TABLES: ContextVar[dict[tuple[BasisSpec, SaturationDesign], "_KeyTable"] | None] = (
    ContextVar("sativ_study_tables", default=None)
)


@contextmanager
def _study_tables():
    """Let the plans built inside share one ``_KeyTable`` per basis and design."""
    token = _STUDY_TABLES.set({})
    try:
        yield
    finally:
        _STUDY_TABLES.reset(token)


def _start_study_tables() -> None:
    """A pool worker's initializer: its plans share tables until it exits."""
    _STUDY_TABLES.set({})


# The R of each RS target: the stacked Q, Q0 or Q1.
_R_FAMILY = {
    TARGET_JOINT: "q", TARGET_POPULATION: "q0", TARGET_COMPLIER_PSI: "q1", TARGET_NEVER_TAKER: "q1"
}


class _KeyTable:
    """Per (cbar, n) key, for one basis and design: for each R family ("q" the
    stacked Q, "q0", "q1"), R^+, the flag that an eigenvalue was cut and
    |det R|, in the equal-length columns ``cols[f"{family}_pinv"]``,
    ``_cut`` and ``_det``.

    The keys a plan misses are built whole in one step: one ``q_extended``
    call, then per family one ``pseudo_inverse_stack`` and one determinant.
    Those calls give a key the same numbers whatever keys share its batch, so
    a plan reading a shared table gets the bytes of a table of its own.  Each
    batch is concatenated onto the columns: a study appends at most once per
    replication.
    """

    def __init__(self, basis: BasisSpec, design: SaturationDesign):
        self.basis, self.design = basis, design
        self.row: dict[complex, int] = {}
        self.cols: dict[str, np.ndarray] = {}

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """The row of each key cbar + 1j * n, with the missing keys built."""
        rows = np.array([self.row.get(key, -1) for key in keys.tolist()], dtype=np.intp)
        missing = np.flatnonzero(rows < 0)
        if len(missing):
            new = keys[missing]
            q0, q1 = moments.q_extended(self.basis, new.real, new.imag.astype(np.int64), self.design)
            built = {}
            for name, r in (("q", moments.assemble_q(q0, q1)), ("q0", q0), ("q1", q1)):
                built[f"{name}_pinv"], built[f"{name}_cut"] = moments.pseudo_inverse_stack(r)
                built[f"{name}_det"] = np.abs(np.linalg.det(r))
            size = len(self.row)
            rows[missing] = at = np.arange(size, size + len(new))
            self.cols = {
                name: np.concatenate([self.cols.get(name, col[:0]), col])
                for name, col in built.items()
            }
            self.row.update(zip(new.tolist(), at.tolist()))
        return rows


class _InstrumentPlan:
    """Zhat = R(cbar, n)^+ W for every RS target of one dataset.

    R depends on a cell only through its key (cbar, n), so each R family
    (Q0, Q1, stacked Q) is pseudo-inverted once per key for all targets, in
    a ``_KeyTable``: the study's, inside ``_study_tables()``, else one built
    for this plan alone.  The plan covers the cells of ``mask``: with a 0%
    saturation in the design, the groups with S > 0, and the moments
    condition on S > 0.
    """

    def __init__(self, cells: Cells, basis: BasisSpec, design: SaturationDesign, chat_policy: str):
        if design.has_pure_control:
            self.mask = cells.saturation > 0.0
            if not self.mask.any():
                raise ValidationError("all groups are pure control; nothing to estimate")
            design = design.positive_part()
        else:
            self.mask = np.ones(len(cells.count), dtype=bool)
        cbar = (cells.chat if chat_policy == "estimate" else cells.cbar_true)[self.mask]
        n = cells.n[self.mask]
        self.count = cells.count[self.mask]
        self.n_chat_fallback = (
            int(self.count[cells.chat_fallback[self.mask]].sum())
            if chat_policy == "estimate"
            else 0
        )
        keys, key_of_cell = np.unique(cbar + 1j * n, return_inverse=True)  # by cbar, then n
        self.n_keys = len(keys)
        tables = _STUDY_TABLES.get()
        if tables is None:  # outside a study every plan starts empty
            tables = {}
        self.table = tables.setdefault((basis, design), _KeyTable(basis, design))
        self.rows = self.table.rows(keys)
        self.cell_row = self.rows[key_of_cell]  # the table row of each cell

    def zhat(self, target: str, w: np.ndarray) -> np.ndarray:
        """Zhat for the cells of the mask, given W on those cells only."""
        pinv = self.table.cols[f"{_R_FAMILY[target]}_pinv"]
        return np.einsum("nij,nj->ni", pinv[self.cell_row], w)

    def diagnostics(self, target: str, pure_control: str | None) -> EstimatorDiagnostics:
        cols, name = self.table.cols, _R_FAMILY[target]
        return EstimatorDiagnostics(
            n_pseudo_inverted=int(self.count[cols[f"{name}_cut"][self.cell_row]].sum()),
            min_abs_det_r=float(cols[f"{name}_det"][self.rows].min()),
            pure_control=pure_control,
            n_chat_fallback=self.n_chat_fallback,
            n_instrument_keys=self.n_keys,
        )


def _require_well_conditioned(cond: float, what: str) -> None:
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        raise SingularSystemError(
            f"{what} is singular (condition number {cond:.3e})",
            condition_number=float(cond),
        )


@dataclass
class _CoreResult:
    result: EstimateResult
    influence: np.ndarray  # (G, p) per-group influence contributions
    groups: np.ndarray  # the index of each of those groups in the data


def _fit_iv(
    cells: Cells,
    x: np.ndarray,
    inst: np.ndarray,
    y: np.ndarray,
    target: str,
    diag: EstimatorDiagnostics,
) -> _CoreResult:
    """Just-identified IV of y on x with instruments ``inst``, clustered by group.

    The one least-squares core: every fit (RS-IV, the 2SLS second stage,
    naive IV and, with inst = x, the IOR test's OLS) solves here, and this
    is the one place that forms the CR0 cluster sandwich
    A^{-1} (sum_g s_g s_g') A^{-T} from the group scores s_g.

    x and inst hold one row per cell, y one per individual in the order of
    ``cells.y``.  The sums run over rows, each cell's values repeated, so
    that they round as the per-row fit does; products such as the fitted
    values X beta depend only on the cell and are taken per cell, which
    gives the same bytes without a row copy.
    """
    if cells.n_groups < 2:
        raise ValidationError("need at least two clusters (groups)")
    inst_rows = cells.rows(inst)
    a = inst_rows.T @ cells.rows(x)
    diag.cond_a = float(np.linalg.cond(a))
    nonzero = np.any(inst != 0.0, axis=1)
    diag.n_groups_identifying = int(np.logical_or.reduceat(nonzero, cells.starts).sum())
    _require_well_conditioned(diag.cond_a, "instrument-regressor cross-product")
    coef = np.linalg.solve(a, inst_rows.T @ y)
    inst_rows *= (y - cells.rows(x @ coef))[:, None]  # the score of each row
    scores = np.add.reduceat(inst_rows, cells.row_starts, axis=0)
    ainv = np.linalg.inv(a)
    vcov = ainv @ (scores.T @ scores) @ ainv.T
    result = EstimateResult(
        target=target,
        coefficients=coef,
        vcov=(vcov + vcov.T) / 2.0,
        G_used=cells.n_groups,
        N_used=len(y),
        diagnostics=diag,
    )
    return _CoreResult(result, scores @ ainv.T, cells.group[cells.starts])


def _validate_inputs(data: ExperimentData, design: SaturationDesign) -> None:
    if not design.interior_saturations:
        raise ValidationError("design has no interior saturation; effects not identified")
    sats, valid = data.group_saturation, np.asarray(design.saturations)
    nearest = np.abs(sats[:, None] - valid[None, :]).argmin(axis=1)
    off = np.abs(sats - valid[nearest]) > 1e-9
    empty = np.asarray(design.weights)[nearest] == 0.0  # a saturation no group can get
    for bad, why in ((off, "not in the design"), (empty, "has weight 0 in the design")):
        if bad.any():
            g = data.groups[int(np.argmax(bad))]
            raise ValidationError(f"group {g.group_id}: saturation {g.saturation} {why}")


def _core_rsiv(
    cells: Cells,
    basis: BasisSpec,
    plan: _InstrumentPlan,
    target: str,
    pure_control: str | None,
) -> _CoreResult:
    """Just-identified RS-IV on exactly the cells the plan covers."""
    x, w = _target_arrays(cells, basis, target)
    zhat = plan.zhat(target, w)
    diag = plan.diagnostics(target, pure_control)
    return _fit_iv(cells, x, zhat, cells.y, target, diag)


def _core_pure_control(
    cells: Cells, basis: BasisSpec, plan: _InstrumentPlan, target: str
) -> _CoreResult:
    """2SLS on all cells, with a pure-control indicator as an extra instrument.

    Over-identified linear GMM with the 2SLS weight (Z'Z)^{-1}.
    """
    x, w = _target_arrays(cells, basis, target)
    pos = plan.mask
    p = x.shape[1]
    zmat = np.zeros((len(cells.count), p + 1))
    zmat[pos, :p] = plan.zhat(target, w[pos])
    zmat[~pos, p] = 1.0
    diag = plan.diagnostics(target, "gmm")
    # the first stage, Xhat = Z (Z'Z)^{-1} Z'X; the 2SLS fit is IV on Xhat
    z_rows = cells.rows(zmat)
    zz = z_rows.T @ z_rows
    _require_well_conditioned(float(np.linalg.cond(zz)), "instrument cross-product")
    zx = z_rows.T @ cells.rows(x)
    del z_rows  # before _fit_iv makes its own row copies
    xhat = zmat @ np.linalg.solve(zz, zx)
    return _fit_iv(cells, x, xhat, cells.y, target, diag)


# ---------------------------------------------------------------------------
# public estimators
# ---------------------------------------------------------------------------


def build_instruments(
    data: ExperimentData,
    basis: BasisSpec,
    design: SaturationDesign,
    target: str,
    chat_policy: str = "estimate",
) -> InstrumentSet:
    """Per-individual (X, W, Zhat) arrays in data row order for one target."""
    _validate_inputs(data, design)
    if target not in RS_TARGETS:
        raise ValidationError(f"instruments defined for RS-IV targets only, not {target!r}")
    cells = _cells(data, chat_policy)
    plan = _InstrumentPlan(cells, basis, design, chat_policy)
    x, w = _target_arrays(cells, basis, target)
    zhat = np.zeros_like(w)
    zhat[plan.mask] = plan.zhat(target, w[plan.mask])
    diag = plan.diagnostics(target, None)
    row = cells.row_cell
    return InstrumentSet(x[row], w[row], zhat[row], diag.n_pseudo_inverted, diag.min_abs_det_r)


def _derive_complier_theta(
    data: ExperimentData,
    pop_core: _CoreResult,
    nt_core: _CoreResult,
) -> EstimateResult:
    """Delta-method vcov for the derived complier theta.

    Stacks the per-group influence contributions of the population and
    never-taker estimators with that of the compliance rate, then pushes the
    joint clustered covariance through the identity
    theta_c = theta_n + (theta - theta_n) / E[C].
    """
    rate = compliance_rate(data)
    k = len(pop_core.result.coefficients)
    h = np.zeros((data.n_groups, 2 * k + 1))
    h[nt_core.groups, :k] = nt_core.influence
    h[pop_core.groups, k : 2 * k] = pop_core.influence
    cells = data.cells
    offered = cells.count * cells.z
    h[:, 2 * k] = np.add.reduceat(offered * (cells.d - rate), cells.starts) / offered.sum()

    theta_n = np.asarray(nt_core.result.coefficients)
    theta_pop = np.asarray(pop_core.result.coefficients)
    theta_c = theta_n + (theta_pop - theta_n) / rate
    jac = np.zeros((k, 2 * k + 1))
    jac[:, :k] = (1.0 - 1.0 / rate) * np.eye(k)
    jac[:, k : 2 * k] = (1.0 / rate) * np.eye(k)
    jac[:, 2 * k] = -(theta_pop - theta_n) / rate**2
    joint = h.T @ h
    vcov = jac @ joint @ jac.T
    pop_diag = pop_core.result.diagnostics
    nt_diag = nt_core.result.diagnostics
    diag = EstimatorDiagnostics(
        n_pseudo_inverted=pop_diag.n_pseudo_inverted + nt_diag.n_pseudo_inverted,
        min_abs_det_r=min(pop_diag.min_abs_det_r, nt_diag.min_abs_det_r),
        cond_a=max(pop_diag.cond_a, nt_diag.cond_a),
        pure_control=pop_diag.pure_control,
        n_chat_fallback=pop_diag.n_chat_fallback,
        n_instrument_keys=pop_diag.n_instrument_keys,
        n_groups_identifying=min(pop_diag.n_groups_identifying, nt_diag.n_groups_identifying),
    )
    return EstimateResult(
        target=TARGET_COMPLIER_THETA,
        coefficients=theta_c,
        vcov=(vcov + vcov.T) / 2.0,
        G_used=pop_core.result.G_used,
        N_used=pop_core.result.N_used,
        diagnostics=diag,
    )


def _estimate_cores(
    data: ExperimentData,
    basis: BasisSpec,
    design: SaturationDesign,
    targets,
    pure_control: str,
    chat_policy: str,
) -> dict[str, _CoreResult]:
    _validate_inputs(data, design)
    check_pure_control(pure_control)
    for target in targets:
        if target not in RS_TARGETS:
            raise ValidationError(f"unknown RS-IV target {target!r}")
    has_zero = design.has_pure_control
    cells = _cells(data, chat_policy)
    plan = _InstrumentPlan(cells, basis, design, chat_policy)
    gmm = has_zero and pure_control == "gmm" and data.has_pure_control_groups
    dropped = None
    cores: dict[str, _CoreResult] = {}
    for target in targets:
        if gmm and target in (TARGET_JOINT, TARGET_POPULATION):
            cores[target] = _core_pure_control(cells, basis, plan, target)
        else:
            if dropped is None:
                dropped = cells.take(plan.mask) if has_zero else cells
            cores[target] = _core_rsiv(
                dropped, basis, plan, target, "drop" if has_zero else None
            )
    return cores


def rsiv_estimate(
    data: ExperimentData,
    basis: BasisSpec,
    design: SaturationDesign,
    target: str,
    *,
    pure_control: str = "gmm",
    chat_policy: str = "estimate",
) -> EstimateResult:
    """The RS-IV estimator for one target.

    ``pure_control`` selects how 0% saturation groups are handled when the
    design includes them: "gmm" augments the instruments per the pure-control
    construction (joint and population targets), "drop" discards those groups
    and conditions the moment matrices on S > 0.
    """
    if target == TARGET_NAIVE:
        return naive_iv(data)
    if target == TARGET_COMPLIER_THETA:
        # derived from the population and never-taker targets with a joint
        # delta-method clustered covariance
        rate = compliance_rate(data)
        if not 0.0 < rate < 1.0:
            raise ValidationError(
                f"compliance rate {rate} is degenerate; complier theta not separately identified"
            )
        targets = (TARGET_NEVER_TAKER, TARGET_POPULATION)
        cores = _estimate_cores(data, basis, design, targets, pure_control, chat_policy)
        return _derive_complier_theta(data, cores[TARGET_POPULATION], cores[TARGET_NEVER_TAKER])
    cores = _estimate_cores(data, basis, design, (target,), pure_control, chat_policy)
    return cores[target].result


def rsiv_pure_control(
    data: ExperimentData,
    basis: BasisSpec,
    design: SaturationDesign,
    target: str,
    *,
    chat_policy: str = "estimate",
) -> EstimateResult:
    """Over-identified 2SLS using pure-control groups as extra instruments."""
    _validate_inputs(data, design)
    if not design.has_pure_control:
        raise ValidationError("design has no 0% saturation; use rsiv_estimate")
    if not data.has_pure_control_groups:
        raise ValidationError("data has no pure-control groups")
    if target not in (TARGET_JOINT, TARGET_POPULATION):
        raise ValidationError("pure-control GMM applies to the joint and population targets")
    cores = _estimate_cores(data, basis, design, (target,), "gmm", chat_policy)
    return cores[target].result


def estimate_all(
    data: ExperimentData,
    basis: BasisSpec,
    design: SaturationDesign,
    *,
    pure_control: str = "gmm",
    chat_policy: str = "estimate",
    include_naive: bool = True,
) -> dict[str, EstimateResult]:
    """All RS-IV targets, the derived complier theta, and (optionally) naive IV."""
    cores = _estimate_cores(data, basis, design, RS_TARGETS, pure_control, chat_policy)
    out = {t: cores[t].result for t in RS_TARGETS}
    out[TARGET_COMPLIER_THETA] = _derive_complier_theta(
        data, cores[TARGET_POPULATION], cores[TARGET_NEVER_TAKER]
    )
    if include_naive:
        out[TARGET_NAIVE] = naive_iv(data)
    return out


def naive_iv(data: ExperimentData) -> EstimateResult:
    """IV regression of Y on (1, D, Dbar, D*Dbar) with instruments (1, Z, S, ZS)."""
    cells = data.cells
    one = np.ones_like(cells.z)
    x = np.column_stack([one, cells.d, cells.dbar, cells.d * cells.dbar])
    zmat = np.column_stack([one, cells.z, cells.saturation, cells.z * cells.saturation])
    diag = EstimatorDiagnostics(n_pseudo_inverted=0, min_abs_det_r=math.nan)
    return _fit_iv(cells, x, zmat, cells.y, TARGET_NAIVE, diag).result


def ior_test(data: ExperimentData) -> IORTestResult:
    """Test that take-up among offered individuals does not vary with saturation.

    On the Z=1 subsample, regress D on an intercept plus saturation-bin
    dummies (lowest bin excluded) and Wald-test the dummies with a
    cluster-robust covariance.  Uses the standard small-sample cluster
    correction and an F(df, G-1) reference distribution so the test holds
    size at a few hundred clusters.
    """
    cells = data.cells
    offered = cells.z == 1.0
    if not offered.any():
        raise ValidationError("no offered individuals; IOR test undefined")
    cells = cells.take(offered)
    sat, d, count = cells.saturation, cells.d, cells.count
    sats = np.unique(sat)
    if len(sats) < 2:
        raise ValidationError("IOR test needs at least two saturation bins with offers")
    n_clusters = cells.n_groups
    if n_clusters < 2:
        raise ValidationError("IOR test needs offered individuals in at least two groups")
    x = np.column_stack([np.ones_like(d)] + [(sat == s).astype(float) for s in sats[1:]])
    fit = _fit_iv(cells, x, x, cells.rows(d), "ior_test", EstimatorDiagnostics()).result
    n_obs, n_par = fit.N_used, x.shape[1]
    correction = (n_clusters / (n_clusters - 1)) * ((n_obs - 1) / (n_obs - n_par))
    b = fit.coefficients[1:]
    vb = correction * fit.vcov[1:, 1:]
    _require_well_conditioned(float(np.linalg.cond(vb)), "IOR covariance of the bin dummies")
    wald = float(b @ np.linalg.solve(vb, b))
    df = len(sats) - 1
    p = _f_sf(wald / df, df, n_clusters - 1)
    counts = [int(count[sat == s].sum()) for s in sats]
    taken = [int((count * d)[sat == s].sum()) for s in sats]
    return IORTestResult(
        saturations=tuple(float(s) for s in sats),
        offered_counts=tuple(counts),
        take_up_rates=tuple(t / c for t, c in zip(taken, counts)),
        wald=wald,
        df=df,
        n_clusters=n_clusters,
        p_value=p,
    )


def _f_sf(x: float, df1: int, df2: int) -> float:
    """The survival function of F(df1, df2) at x, and 1 for x < 0.

    A numerically indefinite covariance can put a Wald statistic below 0.
    The survival function is the regularized incomplete beta function
    I_w(a, b) at a = df2/2, b = df1/2 and w = df2/(df2 + df1 x).  With
    t = df1 x / df2, w = 1/(1+t) and 1 - w = t/(1+t), and
    lambda = (a+b)(1-w) - b = b (x-1)/(1+t) tells the sides apart: for x >= 1
    the continued fraction of I_w(a, b) converges and gives the survival
    probability itself; below 1 that of I_{1-w}(b, a) converges and gives the
    distribution function, which stays well below 1 there, so subtracting
    it from 1 loses little.
    """
    if math.isnan(x):
        return math.nan
    a, b, t = df2 / 2.0, df1 / 2.0, df1 * x / df2
    if t <= 0.0:  # x <= 0, or a positive x that underflows
        return 1.0
    if math.isinf(t):
        return 0.0
    w, v = 1.0 / (1.0 + t), t / (1.0 + t)
    lam = b * (x - 1.0) / (1.0 + t)
    # log(w^a v^b) from the log1p form with the smaller terms
    if t < 1.0:
        log_front = b * math.log(t) - (a + b) * math.log1p(t)
    else:
        log_front = -b * math.log1p(1.0 / t) - a * math.log1p(t)
    front = math.exp(log_front - _log_beta(a, b))  # w^a v^b / B(a, b)
    if lam >= 0.0:
        return front * _beta_fraction(a, b, w, v, lam)
    return 1.0 - front * _beta_fraction(b, a, v, w, -lam)


_STIRLING_MIN = 30.0  # log-gamma ratios at or above this argument take Stirling's series
_FRACTION_EPS = 1e-15
_FRACTION_MAX_TERMS = 10_000  # F tails take under 150 at any df2 up to 1e9


def _log_beta(a: float, b: float) -> float:
    """log B(a, b).  The difference of ``math.lgamma`` values cancels when one
    argument is large; there the ratio Gamma(big + small) / Gamma(big) is
    taken from Stirling's series instead."""
    big, small = max(a, b), min(a, b)
    if big < _STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def correction(z: float) -> float:  # log Gamma(z) minus its Stirling approximation
        r = 1.0 / (z * z)
        return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / z

    log_ratio = (
        (big - 0.5) * math.log1p(small / big)
        + small * math.log(big + small)
        - small
        + (correction(big + small) - correction(big))
    )
    return math.lgamma(small) - log_ratio


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) / (x^a y^b / B(a, b)) for y = 1 - x and lam = (a+b) y - b >= 0.

    The even part of the continued fraction of Numerical Recipes (6.4.5), in
    the form of TOMS 708's ``bfrac`` (Didonato and Morris), evaluated by a
    rescaled forward recurrence.  It takes y and lam as arguments and never
    forms 1 - x.  The plain fraction works from x alone, and near the mean
    of a beta with large a, where y is small, its denominators lose y's
    relative accuracy: ~7e-12 at df2 = 1e5, against ~1e-13 here.
    """
    c, c0, c1, yp1 = lam + 1.0, b / a, 1.0 / a + 1.0, y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _FRACTION_MAX_TERMS + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _FRACTION_EPS * r:
            break
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    return r
