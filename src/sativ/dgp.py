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
from dataclasses import InitVar, dataclass, field, fields
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

    # The derived values below are cached: the config is frozen, and a
    # simulate_group call per group would otherwise recompute them each time.

    @cached_property
    def probs(self) -> tuple[float, ...]:
        if self.share_probs is not None:
            return self.share_probs
        j = len(self.complier_shares)
        return tuple(1.0 / j for _ in range(j))

    @cached_property
    def complier_counts(self) -> tuple[int, ...]:
        """Compliers per group for each support point, rounded to an integer."""
        return tuple(int(round(self.n * c)) for c in self.complier_shares)

    @cached_property
    def realized_shares(self) -> tuple[float, ...]:
        """The shares actually realizable with integer counts in groups of size n."""
        return tuple(k / self.n for k in self.complier_counts)

    @cached_property
    def _share_moments(self) -> tuple[float, float]:
        shares = np.asarray(self.realized_shares)
        probs = np.asarray(self.probs)
        mu = float(probs @ shares)
        var = float(probs @ shares**2) - mu**2
        return mu, math.sqrt(max(var, 0.0))

    @cached_property
    def _share_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative support probabilities and the complier count of each point."""
        return np.cumsum(self.probs), np.asarray(self.complier_counts)


def share_moments(cfg: SimConfig) -> tuple[float, float]:
    """Mean and standard deviation of the realized group-share distribution."""
    return cfg._share_moments


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
        return np.full(cbar_ig.shape, mean, dtype=float)
    u = rng.standard_normal(cbar_ig.shape)
    return _coefficient(mean, kappa_j, sigma_j, cbar_ig, cbar_moments, u)


def _coefficient(
    mean: float,
    kappa_j: float,
    sigma_j: float,
    cbar: np.ndarray,
    cbar_moments: tuple[float, float],
    u: np.ndarray,
) -> np.ndarray:
    """``draw_coefficient``'s formula, given its standard normal draws u (sigma_j > 0).

    It is evaluated in place, in u and at most one new array, with the
    operations and order of ``mean + sigma_j * (z * kappa_j / scale + u / scale)``
    and ``z = (cbar - mu) / sd``, so the bytes are those of that expression.
    u is overwritten.
    """
    scale = math.sqrt(kappa_j**2 + 1.0)
    if kappa_j == 0.0:  # mean + sigma_j * u / scale
        u *= sigma_j
        u /= scale
        u += mean
        return u
    mu, sd = cbar_moments
    if sd <= 0.0:
        raise ValidationError("share distribution is degenerate but kappa is nonzero")
    coef = np.subtract(cbar, mu)
    coef /= sd
    coef *= kappa_j
    coef /= scale
    u /= scale
    coef += u
    coef *= sigma_j
    coef += mean
    return coef


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


@dataclass
class Cells:
    """The rows of one dataset pooled into cells of equal (group, z, d).

    With one-sided non-compliance a group has at most the cells (0, 0),
    (1, 0) and (1, 1).  Every leave-one-out share of a row depends on its
    group totals and its own (z, d), so it is constant within a cell, as is
    everything an estimator derives from them: only the outcome varies.
    The latent cells also split on the complier flag, which the true
    neighbor share ``cbar_true`` depends on.  Cells run in (group, z, d,
    flag) order.  ``y`` holds the outcomes cell by cell, each cell's in the
    canonical row order, so a per-row array is a per-cell one repeated
    ``count`` times, and sums over it do not depend on the order of
    individuals within a group.
    """

    group: np.ndarray  # index of the cell's group in ExperimentData.groups
    z: np.ndarray
    d: np.ndarray
    count: np.ndarray
    y: np.ndarray  # one entry per row, not per cell
    saturation: np.ndarray
    n: np.ndarray
    dbar: np.ndarray
    chat: np.ndarray
    chat_fallback: np.ndarray  # no offered neighbor: Chat falls back to 0
    cbar_true: np.ndarray | None = None
    row_cell: np.ndarray | None = None  # the cell of each row, in data order
    starts: np.ndarray = field(init=False)  # the first cell of each group
    row_starts: np.ndarray = field(init=False)  # the first row of each group in y

    def __post_init__(self):
        first = np.ones(len(self.group), dtype=bool)
        first[1:] = self.group[1:] != self.group[:-1]
        self.starts = np.flatnonzero(first)
        self.row_starts = np.concatenate([[0], np.cumsum(self.count)])[self.starts]

    @property
    def n_groups(self) -> int:
        return len(self.starts)

    def rows(self, per_cell: np.ndarray) -> np.ndarray:
        """A per-cell array as a per-row one, in the order of ``y``."""
        return np.repeat(per_cell, self.count, axis=0)

    def take(self, keep: np.ndarray) -> "Cells":
        """The cells where ``keep`` holds, without row ids."""
        per_cell = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.init and f.name not in ("row_cell", "y")
        }
        return Cells(
            **{k: None if v is None else v[keep] for k, v in per_cell.items()},
            y=self.y[self.rows(keep)],
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
    def cell_key(self) -> np.ndarray:
        """Each row's (group, z, d) cell as one integer, 4*group + 2*z + d."""
        return 4 * self.group_index + (2 * self.z + self.d).astype(np.intp)

    @cached_property
    def row_order(self) -> np.ndarray:
        """The canonical row order: by group, z, d and y, ties in data order.

        Estimators sum over rows in this order, so their results do not
        depend on the order of individuals within a group.  Two stable sorts
        give ``np.lexsort((y, cell_key))``'s permutation: by y, then by the
        key in its narrowest unsigned type, which numpy radix-sorts while
        it fits in 16 bits (fewer than 16,385 groups).
        """
        key = self.cell_key
        by_y = np.argsort(self.y, kind="stable")
        narrow = key[by_y].astype(np.min_scalar_type(key.max()))
        return by_y[np.argsort(narrow, kind="stable")]

    @cached_property
    def cells(self) -> Cells:
        """The (group, z, d) cells, shared by every estimator run on this data."""
        return self._pool(self.cell_key, latent=False)

    @cached_property
    def latent_cells(self) -> Cells:
        """The (group, z, d, complier) cells, with the true neighbor share."""
        return self._pool(2 * self.cell_key + self.complier.astype(np.intp), latent=True)

    def _pool(self, key: np.ndarray, latent: bool) -> Cells:
        """Cells of the rows with equal ``key``; a latent key ends in the complier bit."""
        counts = np.bincount(key)
        present = counts > 0
        cell = np.flatnonzero(present)
        count = counts[cell]
        row_cell = (np.cumsum(present) - 1)[key]
        order = self.row_order
        if latent:  # the flag splits cells whose rows interleave in the canonical order
            order = order[np.argsort(row_cell[order], kind="stable")]
            flag = (cell & 1).astype(float)
            cell = cell >> 1
        group, z, d = cell >> 2, ((cell >> 1) & 1).astype(float), (cell & 1).astype(float)

        def total(per_cell: np.ndarray) -> np.ndarray:
            return np.bincount(group, weights=count * per_cell, minlength=self.n_groups)[group]

        sum_d = total(d)
        n = self.sizes[group].astype(float)
        offered = total(z) - z
        fallback = offered == 0
        return Cells(
            group=group,
            z=z,
            d=d,
            count=count,
            y=self.y[order],
            saturation=self.group_saturation[group],
            n=n,
            dbar=(sum_d - d) / (n - 1),
            chat=np.divide(sum_d - d, offered, out=np.zeros_like(d), where=~fallback),
            chat_fallback=fallback,
            cbar_true=(total(flag) - flag) / (n - 1) if latent else None,
            row_cell=row_cell,
        )

    @cached_property
    def group_saturation(self) -> np.ndarray:
        """Per-group saturation."""
        return np.array([g.saturation for g in self.groups], dtype=float)

    @cached_property
    def saturation(self) -> np.ndarray:
        """Per-row saturation."""
        return np.repeat(self.group_saturation, self.sizes)

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
        cells = self.latent_cells
        return cells.cbar_true[cells.row_cell]

    @property
    def has_pure_control_groups(self) -> bool:
        return any(g.saturation == 0.0 for g in self.groups)


def _simulate_groups(cfg: SimConfig, group_ids, saturations) -> list[GroupData]:
    """Simulate groups of size cfg.n, each from its own (cfg.seed, group id) stream.

    Per group the stream gives, in this order: the share draw, the complier
    positions, the offers and one normal draw per member for each
    coefficient with sigma > 0.  Only the draws are made group by group;
    everything computed from them is done once for all groups, and each
    group holds row views of the shared (groups, n) arrays.
    """
    n = cfg.n
    noisy = [j for j in range(4) if cfg.sigma[j] != 0.0]
    n_groups = len(group_ids)
    share_u = np.empty(n_groups)
    perm = np.empty((n_groups, n), dtype=np.intp)
    z = np.empty((n_groups, n), dtype=np.int8)
    u = np.empty((n_groups, len(noisy), n))
    for r, (gid, s) in enumerate(zip(group_ids, saturations)):
        rng = substream(cfg.seed, TAG_GROUP, gid)
        share_u[r] = rng.random()
        perm[r] = rng.permutation(n)
        z[r] = design_mod.assign_offers(n, s, rng)
        if noisy:
            rng.standard_normal(out=u[r])

    cdf, counts = cfg._share_lookup
    idx = np.minimum(np.searchsorted(cdf, share_u, side="right"), len(counts) - 1)
    k = counts[idx][:, None]
    c = np.zeros((n_groups, n), dtype=np.int8)
    # the first k positions of a group's permutation are its compliers
    c[np.arange(n_groups)[:, None], perm] = np.arange(n) < k
    d = c * z

    cbar = (k - c.astype(float)) / (n - 1)
    moments = share_moments(cfg)
    coefs = np.full((n_groups, n, 4), cfg.means, dtype=float)
    for i, j in enumerate(noisy):
        coefs[:, :, j] = _coefficient(
            cfg.means[j], cfg.kappa[j], cfg.sigma[j], cbar, moments, u[:, i]
        )
    dbar = (d.sum(axis=1, keepdims=True) - d) / (n - 1)
    y = coefs[..., 0] + coefs[..., 1] * d + coefs[..., 2] * dbar + coefs[..., 3] * d * dbar
    return [
        GroupData(gid, float(s), z[r], d[r], y[r], complier=c[r], coefs=coefs[r])
        for r, (gid, s) in enumerate(zip(group_ids, saturations))
    ]


def simulate_group(cfg: SimConfig, group_id: int, saturation: float) -> GroupData:
    """Simulate one group; reproducible from (cfg.seed, group_id) alone."""
    return _simulate_groups(cfg, [group_id], [saturation])[0]


def simulate_experiment(cfg: SimConfig) -> ExperimentData:
    """Simulate the full experiment: saturations, compliers, offers, outcomes."""
    rng_sat = substream(cfg.seed, TAG_SATURATIONS)
    saturations = design_mod.sample_saturations(cfg.design, cfg.G, rng_sat)
    return ExperimentData(_simulate_groups(cfg, range(cfg.G), saturations), check=False)


def _oracle_draws(cfg: SimConfig, n_draws: int, seed: Seed | None):
    """Draw (complier flag, leave-one-out share, coefficients) for i.i.d. individuals.

    Exchangeability within groups means an individual's latent state is fully
    described by the group share and her own complier flag, so no group
    structure is needed here.  The coefficients come as an iterator over
    their four rows (alpha, beta, gamma, delta), each drawn only when the
    iterator reaches it, so a caller that reduces each row before taking the
    next never holds more than one.
    """
    if n_draws < 10**5:
        raise ValidationError("oracle needs at least 1e5 draws")
    rng = substream(cfg.seed if seed is None else seed, TAG_ORACLE)
    counts = np.asarray(cfg.complier_counts)
    k = counts[rng.choice(len(counts), size=n_draws, p=np.asarray(cfg.probs))]
    c = (rng.random(n_draws) * cfg.n < k).astype(float)
    cbar = (k - c) / (cfg.n - 1)
    del k
    moments = share_moments(cfg)
    rows = (
        draw_coefficient(cfg.means[j], cfg.kappa[j], cfg.sigma[j], cbar, moments, rng)
        for j in range(4)
    )
    return c, cbar, rows


def oracle_subpopulation_means(
    cfg: SimConfig, n_draws: int = 10**6, seed: Seed | None = None
) -> dict[str, MeanCoefficients]:
    """Brute-force average coefficients for {population, compliers, never-takers}.

    These are the ground-truth targets for the estimator bias checks.
    """
    c, _, rows = _oracle_draws(cfg, n_draws, seed)
    n_c = c.sum()
    total, complier = [], []
    # a plain loop with del: enumerate or zip would keep the last row alive
    # while the next one is drawn
    for row in rows:
        total.append(row.sum())
        complier.append(row @ c)
        del row
    total, complier = np.array(total), np.array(complier)

    def _means(m) -> tuple[tuple[float, float], tuple[float, float]]:
        return (float(m[0]), float(m[2])), (float(m[1]), float(m[3]))

    theta_all, contrast_all = _means(total / n_draws)
    theta_c, contrast_c = _means(complier / n_c)
    theta_n, _ = _means((total - complier) / (n_draws - n_c))
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
    c, cbar, rows = _oracle_draws(cfg, n_draws, seed)
    weights = iter((None, c, cbar, c * cbar))
    estimands = []
    for row in rows:  # one row at a time, as in oracle_subpopulation_means
        w = next(weights)
        estimands.append(row.mean() if w is None else (w * row).mean() / w.mean())
        del row
    return np.array(estimands)
