"""Effect curves with delta-method confidence bands.

Every identified effect is a linear functional of an estimated coefficient
vector, so point estimates are dot products and pointwise variances are
quadratic forms in the cluster-robust covariance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnidentifiedEffectError, ValidationError
from .estimator import (
    TARGET_COMPLIER_PSI,
    TARGET_COMPLIER_THETA,
    TARGET_JOINT,
    TARGET_NEVER_TAKER,
    TARGET_POPULATION,
    EstimateResult,
)
from .model import BasisSpec, linear_basis

Z_95 = 1.959963984540054

KIND_DE_TREATED = "DE_treated"
KIND_IE0_POPULATION = "IE0_population"
KIND_IE0_TREATED = "IE0_treated"
KIND_IE1_TREATED = "IE1_treated"
KIND_IE0_NEVER_TAKER = "IE0_never_taker"
KIND_PO_LINE = "potential_outcome_line"

# Which estimate feeds each kind; DE uses the contrast block of the joint fit.
_THETA_SOURCES = {
    KIND_IE0_POPULATION: (TARGET_POPULATION, TARGET_JOINT),
    KIND_IE0_TREATED: (TARGET_COMPLIER_THETA,),
    KIND_IE1_TREATED: (TARGET_COMPLIER_PSI,),
    KIND_IE0_NEVER_TAKER: (TARGET_NEVER_TAKER,),
}
_PO_SOURCES = {
    TARGET_COMPLIER_THETA: "untreated_complier",
    TARGET_COMPLIER_PSI: "treated_complier",
    TARGET_NEVER_TAKER: "untreated_never_taker",
    TARGET_POPULATION: "untreated_population",
}
KINDS = (
    KIND_DE_TREATED,
    KIND_IE0_POPULATION,
    KIND_IE0_TREATED,
    KIND_IE1_TREATED,
    KIND_IE0_NEVER_TAKER,
    KIND_PO_LINE,
)

DEFAULT_GRID_POINTS = 101
DEFAULT_DELTA = 0.1


@dataclass
class EffectCurve:
    kind: str
    label: str
    grid: np.ndarray
    point: np.ndarray
    se: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray


def default_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    return np.linspace(0.0, 1.0, points)


def _gradients(
    est: EstimateResult, basis: BasisSpec, kind: str, grid: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray, str]:
    """Per-grid-point gradient rows of the effect functional w.r.t. est.coefficients."""
    k = basis.k
    fg = basis.values(grid)  # (m, K)

    if kind == KIND_DE_TREATED:
        if est.target != TARGET_JOINT:
            raise ValidationError(
                "DE_treated requires the joint estimate (its complier contrast block)"
            )
        block, rows, label = slice(k, 2 * k), fg, "complier"
    elif kind in _THETA_SOURCES:
        if est.target not in _THETA_SOURCES[kind]:
            raise ValidationError(
                f"{kind} requires one of {_THETA_SOURCES[kind]}, got {est.target!r}"
            )
        if np.any(grid + delta > 1.0 + 1e-12):
            raise ValidationError("grid + delta must stay within [0, 1]")
        diff = basis.values(np.minimum(grid + delta, 1.0)) - fg
        block, rows, label = slice(0, k), diff, est.target  # joint estimates: theta block leads
    elif kind == KIND_PO_LINE:
        label = _PO_SOURCES.get(est.target)
        if label is None:
            raise UnidentifiedEffectError(
                f"no potential-outcome line defined for target {est.target!r}"
            )
        block, rows = slice(0, k), fg
    else:
        raise UnidentifiedEffectError(
            f"unknown or unidentified effect kind {kind!r}; valid kinds: {KINDS}"
        )

    p = 2 * k if est.target == TARGET_JOINT else k
    if len(est.coefficients) != p:
        raise ValidationError(
            f"the {est.target} estimate has {len(est.coefficients)} coefficients, but the "
            f"{basis.name} basis gives {p}; pass the basis it was fitted with"
        )
    grad = np.zeros((len(grid), p))
    grad[:, block] = rows
    return grad, grad @ est.coefficients, label


def effect_curve(
    est: EstimateResult,
    kind: str,
    grid: np.ndarray | None = None,
    delta: float = DEFAULT_DELTA,
    basis: BasisSpec | None = None,
) -> EffectCurve:
    """Evaluate one effect curve with 95% pointwise normal bands.

    The variance at each grid point is gradient' vcov gradient with the
    gradient of the linear effect functional in the estimated coefficients.
    ``basis`` defaults to the linear basis and must be the one the estimate
    was fitted with: an estimate whose coefficient count does not match it
    raises ``ValidationError``.
    """
    if basis is None:
        basis = linear_basis()
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if not np.all((grid >= 0.0) & (grid <= 1.0)):  # false for nan
        raise ValidationError("grid values must lie in [0, 1]")
    if not 0.0 < delta < np.inf:  # false for nan
        raise ValidationError(f"delta must be a finite positive increment, got {delta!r}")
    grad, point, label = _gradients(est, basis, kind, grid, delta)
    var = np.einsum("mi,ij,mj->m", grad, est.vcov, grad)
    se = np.sqrt(np.maximum(var, 0.0))
    return EffectCurve(
        kind=kind,
        label=label,
        grid=grid,
        point=point,
        se=se,
        ci_low=point - Z_95 * se,
        ci_high=point + Z_95 * se,
    )
