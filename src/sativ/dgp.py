"""Simulation of randomized saturation experiments with one-sided non-compliance.

Each group draws a complier share from a finite support and receives exactly
that proportion of compliers (count rounded to the nearest integer when the
share is not exactly realizable) at random positions.  Individual random
coefficients are correlated with the leave-one-out neighbor complier share
through a normal factor structure, take-up is complier-and-offered, and
outcomes follow the linear potential-outcome model
y = alpha + beta*d + gamma*dbar + delta*d*dbar.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from . import design as design_mod
from .design import SaturationDesign
from .errors import ValidationError
from .model import (
    LABEL_COMPLIER,
    LABEL_NEVER_TAKER,
    LABEL_POPULATION,
    MeanCoefficients,
)
from .streams import TAG_GROUP, TAG_ORACLE, TAG_SATURATIONS, Seed, substream

DEFAULT_SHARES = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the simulated experiment."""

    G: int
    n: int
    design: SaturationDesign
    means: tuple[float, float, float, float]
    kappa: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    sigma: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    complier_shares: tuple[float, ...] = DEFAULT_SHARES
    share_probs: tuple[float, ...] | None = None
    seed: Seed = 0

    def __post_init__(self):
        if self.G < 2:
            raise ValidationError("need at least two groups")
        if self.n < 2:
            raise ValidationError("each group must have at least two members")
        for name in ("means", "kappa", "sigma"):
            if len(getattr(self, name)) != 4:
                raise ValidationError(f"{name} must have four entries (alpha,beta,gamma,delta)")
        if any(s < 0 for s in self.sigma):
            raise ValidationError("sigma entries must be nonnegative")
        if not self.complier_shares:
            raise ValidationError("complier_shares must be nonempty")
        for c in self.complier_shares:
            if not 0.0 <= c <= 1.0:
                raise ValidationError(f"complier share {c} outside [0, 1]")
        if self.share_probs is not None:
            if len(self.share_probs) != len(self.complier_shares):
                raise ValidationError("share_probs and complier_shares must align")
            if any(p < 0 for p in self.share_probs) or abs(sum(self.share_probs) - 1) > 1e-12:
                raise ValidationError("share_probs must be a probability vector")

    @property
    def probs(self) -> tuple[float, ...]:
        if self.share_probs is not None:
            return self.share_probs
        j = len(self.complier_shares)
        return tuple(1.0 / j for _ in range(j))

    @property
    def complier_counts(self) -> tuple[int, ...]:
        """Compliers per group for each support point, rounded to an integer."""
        return tuple(int(round(self.n * c)) for c in self.complier_shares)

    @property
    def realized_shares(self) -> tuple[float, ...]:
        """The shares actually realizable with integer counts in groups of size n."""
        return tuple(k / self.n for k in self.complier_counts)


def share_moments(cfg: SimConfig) -> tuple[float, float]:
    """Mean and standard deviation of the realized group-share distribution."""
    shares = np.asarray(cfg.realized_shares)
    probs = np.asarray(cfg.probs)
    mu = float(probs @ shares)
    var = float(probs @ shares**2) - mu**2
    return mu, math.sqrt(max(var, 0.0))


def draw_coefficient(
    mean: float,
    kappa_j: float,
    sigma_j: float,
    cbar_ig: np.ndarray,
    cbar_moments: tuple[float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw coefficients correlated with the standardized neighbor complier share.

    coef = mean + [ z * kappa/sqrt(kappa^2+1) + u/sqrt(kappa^2+1) ] * sigma
    with z the standardized share and u ~ N(0,1), so the implied correlation
    with the standardized share is kappa/sqrt(kappa^2+1).
    """
    cbar_ig = np.asarray(cbar_ig, dtype=float)
    if sigma_j == 0.0:
        return np.full(cbar_ig.shape, mean)
    scale = math.sqrt(kappa_j**2 + 1.0)
    u = rng.standard_normal(cbar_ig.shape)
    if kappa_j == 0.0:
        return mean + sigma_j * u / scale
    mu, sd = cbar_moments
    if sd <= 0.0:
        raise ValidationError("share distribution is degenerate but kappa is nonzero")
    z = (cbar_ig - mu) / sd
    return mean + sigma_j * (z * kappa_j / scale + u / scale)


@dataclass
class GroupData:
    """One group's observed vectors, plus latent truth when simulated."""

    group_id: int
    saturation: float
    z: np.ndarray
    d: np.ndarray
    y: np.ndarray
    complier: np.ndarray | None = None
    coefs: np.ndarray | None = None  # (n, 4): alpha, beta, gamma, delta

    @property
    def n(self) -> int:
        return len(self.z)

    def validate(self) -> None:
        n = self.n
        if n < 2:
            raise ValidationError(f"group {self.group_id} has fewer than two members")
        if len(self.d) != n or len(self.y) != n:
            raise ValidationError(f"group {self.group_id}: vector lengths differ")
        if not 0.0 <= self.saturation <= 1.0:
            raise ValidationError(f"group {self.group_id}: saturation outside [0, 1]")
        for name, v in (("z", self.z), ("d", self.d)):
            if not ((v == 0) | (v == 1)).all():
                raise ValidationError(f"group {self.group_id}: {name} must be binary")
        if np.any(self.d > self.z):
            raise ValidationError(
                f"group {self.group_id}: one-sided compliance violated (d=1 with z=0)"
            )


@dataclass(eq=False)
class ExperimentData:
    """Grouped observations; the sole input to all estimators.

    ``check=False`` skips per-group validation; reserved for data whose
    invariants already hold: the simulator's, by construction, and
    ``ingest_csv``'s, which checks every row.
    """

    groups: list[GroupData]
    check: InitVar[bool] = True

    def __post_init__(self, check: bool = True):
        if not self.groups:
            raise ValidationError("no groups")
        if check:
            for g in self.groups:
                g.validate()

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_individuals(self) -> int:
        return int(self.sizes.sum())

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([g.n for g in self.groups])

    @cached_property
    def starts(self) -> np.ndarray:
        """Row offset of each group in the flat arrays."""
        return np.concatenate([[0], np.cumsum(self.sizes)[:-1]])

    @cached_property
    def group_index(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_groups), self.sizes)

    @cached_property
    def z(self) -> np.ndarray:
        return np.concatenate([g.z for g in self.groups]).astype(float)

    @cached_property
    def d(self) -> np.ndarray:
        return np.concatenate([g.d for g in self.groups]).astype(float)

    @cached_property
    def y(self) -> np.ndarray:
        return np.concatenate([g.y for g in self.groups]).astype(float)

    @cached_property
    def saturation(self) -> np.ndarray:
        """Per-row saturation."""
        return np.repeat([g.saturation for g in self.groups], self.sizes)

    @cached_property
    def n_per_row(self) -> np.ndarray:
        return np.repeat(self.sizes, self.sizes).astype(float)

    def group_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-group sums of a per-row array, expanded back to rows."""
        sums = np.add.reduceat(values, self.starts)
        return sums[self.group_index]

    @cached_property
    def dbar(self) -> np.ndarray:
        """Leave-one-out neighbor take-up share."""
        return (self.group_sum(self.d) - self.d) / (self.n_per_row - 1)

    @property
    def has_latent(self) -> bool:
        return all(g.complier is not None for g in self.groups)

    @cached_property
    def complier(self) -> np.ndarray:
        if not self.has_latent:
            raise ValidationError("latent complier flags are not available")
        return np.concatenate([g.complier for g in self.groups]).astype(float)

    @cached_property
    def cbar_true(self) -> np.ndarray:
        """Leave-one-out neighbor complier share from the latent truth."""
        c = self.complier
        return (self.group_sum(c) - c) / (self.n_per_row - 1)

    @property
    def has_pure_control_groups(self) -> bool:
        return any(g.saturation == 0.0 for g in self.groups)


def simulate_group(
    cfg: SimConfig,
    group_id: int,
    saturation: float,
    _moments: tuple[float, float] | None = None,
) -> GroupData:
    """Simulate one group; reproducible from (cfg.seed, group_id) alone."""
    rng = substream(cfg.seed, TAG_GROUP, group_id)
    n = cfg.n
    moments = share_moments(cfg) if _moments is None else _moments

    idx = int(np.searchsorted(np.cumsum(cfg.probs), rng.random(), side="right"))
    idx = min(idx, len(cfg.complier_shares) - 1)
    k = cfg.complier_counts[idx]
    c = np.zeros(n, dtype=np.int8)
    c[rng.permutation(n)[:k]] = 1

    z = design_mod.assign_offers(n, saturation, rng)
    d = (c * z).astype(np.int8)

    cbar = (k - c.astype(float)) / (n - 1)
    coefs = np.empty((n, 4))
    for j in range(4):
        coefs[:, j] = draw_coefficient(
            cfg.means[j], cfg.kappa[j], cfg.sigma[j], cbar, moments, rng
        )
    dbar = (d.sum() - d) / (n - 1)
    y = coefs[:, 0] + coefs[:, 1] * d + coefs[:, 2] * dbar + coefs[:, 3] * d * dbar
    return GroupData(group_id, float(saturation), z, d, y, complier=c, coefs=coefs)


def simulate_experiment(cfg: SimConfig) -> ExperimentData:
    """Simulate the full experiment: saturations, compliers, offers, outcomes."""
    rng_sat = substream(cfg.seed, TAG_SATURATIONS)
    saturations = design_mod.sample_saturations(cfg.design, cfg.G, rng_sat)
    moments = share_moments(cfg)
    groups = [
        simulate_group(cfg, g, saturations[g], _moments=moments) for g in range(cfg.G)
    ]
    return ExperimentData(groups, check=False)


def _oracle_draws(cfg: SimConfig, n_draws: int, seed: Seed | None):
    """Draw (complier flag, leave-one-out share, coefficients) for i.i.d. individuals.

    Exchangeability within groups means an individual's latent state is fully
    described by the group share and her own complier flag, so no group
    structure is needed here.
    """
    if n_draws < 10**5:
        raise ValidationError("oracle needs at least 1e5 draws")
    rng = substream(cfg.seed if seed is None else seed, TAG_ORACLE)
    counts = np.asarray(cfg.complier_counts)
    idx = rng.choice(len(counts), size=n_draws, p=np.asarray(cfg.probs))
    k = counts[idx]
    c = (rng.random(n_draws) * cfg.n < k).astype(float)
    cbar = (k - c) / (cfg.n - 1)
    moments = share_moments(cfg)
    coefs = np.column_stack(
        [
            draw_coefficient(cfg.means[j], cfg.kappa[j], cfg.sigma[j], cbar, moments, rng)
            for j in range(4)
        ]
    )
    return c, cbar, coefs


def oracle_subpopulation_means(
    cfg: SimConfig, n_draws: int = 10**6, seed: Seed | None = None
) -> dict[str, MeanCoefficients]:
    """Brute-force average coefficients for {population, compliers, never-takers}.

    These are the ground-truth targets for the estimator bias checks.
    """
    c, _, coefs = _oracle_draws(cfg, n_draws, seed)

    def _means(mask) -> tuple[tuple[float, float], tuple[float, float]]:
        sub = coefs[mask].mean(axis=0)
        return (float(sub[0]), float(sub[2])), (float(sub[1]), float(sub[3]))

    all_mask = np.ones(len(c), dtype=bool)
    theta_all, contrast_all = _means(all_mask)
    theta_c, contrast_c = _means(c == 1.0)
    theta_n, _ = _means(c == 0.0)
    return {
        LABEL_POPULATION: MeanCoefficients(LABEL_POPULATION, theta_all, contrast_all),
        LABEL_COMPLIER: MeanCoefficients(LABEL_COMPLIER, theta_c, contrast_c),
        LABEL_NEVER_TAKER: MeanCoefficients(LABEL_NEVER_TAKER, theta_n),
    }


def oracle_naive_iv_estimands(
    cfg: SimConfig, n_draws: int = 10**6, seed: Seed | None = None
) -> np.ndarray:
    """The four naive-IV probability limits, evaluated by simulation:

    alpha_IV = E[alpha],              beta_IV  = E[C beta] / E[C],
    gamma_IV = E[Cbar gamma]/E[Cbar], delta_IV = E[C Cbar delta] / E[C Cbar].
    """
    c, cbar, coefs = _oracle_draws(cfg, n_draws, seed)
    alpha_iv = coefs[:, 0].mean()
    beta_iv = (c * coefs[:, 1]).mean() / c.mean()
    gamma_iv = (cbar * coefs[:, 2]).mean() / cbar.mean()
    delta_iv = (c * cbar * coefs[:, 3]).mean() / (c * cbar).mean()
    return np.array([alpha_iv, beta_iv, gamma_iv, delta_iv])
