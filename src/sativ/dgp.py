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
from collections import Counter
from dataclasses import InitVar, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import design as design_mod
from .design import SaturationDesign
from .errors import ValidationError, as_integer, as_seed
from .model import (
    LABEL_COMPLIER,
    LABEL_NEVER_TAKER,
    LABEL_POPULATION,
    MeanCoefficients,
)
from .streams import TAG_GROUP, TAG_ORACLE, TAG_SATURATIONS, Seed, substream, substreams

DEFAULT_SHARES = (0.1, 0.2, 0.3, 0.4, 0.5)
ORACLE_BLOCK = 2**15  # draws per block of the oracle's stream (256 KB per float array)


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
        for name in ("G", "n"):  # an integral float such as 10.0 is stored as the int
            object.__setattr__(self, name, as_integer(getattr(self, name), name, 2))
        object.__setattr__(self, "seed", as_seed(self.seed, "seed"))
        for name in ("means", "kappa", "sigma"):
            if len(getattr(self, name)) != 4:
                raise ValidationError(f"{name} must have four entries (alpha,beta,gamma,delta)")
            if not all(abs(v) < math.inf for v in getattr(self, name)):  # false for nan
                raise ValidationError(f"{name} entries must be finite")
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
            probs = self.share_probs
            if not (all(p >= 0 for p in probs) and abs(sum(probs) - 1) <= 1e-12):  # not nan
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
    def share_moments(self) -> tuple[float, float]:
        """Mean and standard deviation of the realized group-share distribution."""
        shares = np.asarray(self.realized_shares)
        probs = np.asarray(self.probs)
        mu = float(probs @ shares)
        var = float(probs @ shares**2) - mu**2
        return mu, math.sqrt(max(var, 0.0))

    @cached_property
    def key_cbar(self) -> np.ndarray:
        """Read-only cbar_k = (k_j - c) / (n - 1) of each key k = 2j + c: the true neighbor
        complier share at support point j (k_j compliers) with own complier flag c."""
        cbar = ((np.asarray(self.complier_counts)[:, None] - [0.0, 1.0]) / (self.n - 1)).ravel()
        cbar.flags.writeable = False
        return cbar

    @cached_property
    def _support_edges(self) -> np.ndarray:
        cdf = np.cumsum(self.probs, dtype=float)
        return cdf[:-1] / cdf[-1]

    def support_index(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out``, set to the support point of each uniform in u: the number of interior
        edges of the normalized cdf ``cumsum(p) / cumsum(p)[-1]`` at or below it, which is
        ``Generator.choice``'s ``searchsorted(cdf, u, side="right")``, so a point of
        probability 0 is never drawn.  The edges are counted one by one, which on many
        uniforms is ~15x faster than that branchy binary search."""
        out.fill(0)
        for edge in self._support_edges:
            out += u >= edge
        return out


def _coefficient(
    mean: float,
    kappa_j: float,
    sigma_j: float,
    cbar: np.ndarray,
    cbar_moments: tuple[float, float],
    u: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """coef = mean + sigma_j * (z * kappa_j / scale + u / scale), correlated
    kappa_j / scale with the standardized neighbor complier share
    z = (cbar - mu) / sd, with scale = sqrt(kappa_j^2 + 1) and u ~ N(0, 1).
    A coefficient with sigma_j = 0 is its mean and draws no u.

    It is evaluated in ``out`` (a new array by default), with u overwritten
    as scratch, by the operations and order of that expression, so it has
    its bytes.
    """
    scale = math.sqrt(kappa_j**2 + 1.0)
    if kappa_j == 0.0:  # mean + sigma_j * u / scale
        out = np.multiply(u, sigma_j, out=out)
        out /= scale
        out += mean
        return out
    mu, sd = cbar_moments
    if sd <= 0.0:
        raise ValidationError("share distribution is degenerate but kappa is nonzero")
    out = np.subtract(cbar, mu, out=out)
    out /= sd
    out *= kappa_j
    out /= scale
    u /= scale
    out += u
    out *= sigma_j
    out += mean
    return out


@dataclass
class GroupData:
    """One group's observed vectors, plus latent truth when simulated."""

    group_id: int
    saturation: float
    z: np.ndarray
    d: np.ndarray
    y: np.ndarray
    complier: np.ndarray | None = None
    # (n, 4): alpha, beta, gamma, delta; from the simulator a view of a
    # (groups, 4, n) array, so not C-contiguous
    coefs: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.z)

    def validate(self) -> None:
        n = self.n
        if n < 2:
            raise ValidationError(f"group {self.group_id} has fewer than two members")
        if len(self.d) != n or len(self.y) != n:
            raise ValidationError(f"group {self.group_id}: vector lengths differ")
        if not np.isfinite(self.y).all():
            raise ValidationError(f"group {self.group_id}: outcome must be finite")
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
    flag) order.  ``y`` holds the outcomes cell by cell, each cell's sorted
    by y, equal y in any order (``_canonical_order``), so a per-row array
    is a per-cell one repeated ``count`` times, and sums over it do not
    depend on the order of individuals within a group.
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


def _loo_take_up(taken: np.ndarray, offered: np.ndarray) -> np.ndarray:
    """Chat: the neighbours' take-ups over their offers, and 0 where no neighbour was offered."""
    return np.divide(taken, offered, out=np.zeros_like(taken), where=offered > 0)


def _canonical_order(key: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A permutation that sorts the rows by the key, then by y.

    y is argsorted with numpy's default (unstable) kind, so rows of equal y
    (-0.0 beside 0.0 among them) take any order within a key.  A fit only
    sums a cell's y, and no order of equal values, or of signed zeros,
    changes the bits of a floating-point sum.  A stable sort by the key in
    its narrowest unsigned type, which numpy radix-sorts while it fits 16
    bits, finishes the order.
    """
    by_y = np.argsort(y)
    narrow = key.astype(np.min_scalar_type(key.max()))[by_y]
    return by_y[np.argsort(narrow, kind="stable")]


@dataclass(eq=False)
class ExperimentData:
    """Grouped observations; the sole input to all estimators.

    ``check=False`` skips per-group validation and the check that group ids
    are unique; reserved for data whose invariants already hold: the
    simulator's, by construction, and ``ingest_csv``'s, which checks every
    row and pools the rows of an id into one group.

    ``cells`` and ``latent_cells`` are the only per-row caches.  The per-row
    properties (``z``, ``d``, ``y``, ``cell_key`` and the rest) are rebuilt
    from the groups on each access, so hot paths should read the cells.
    """

    groups: list[GroupData]
    check: InitVar[bool] = True

    def __post_init__(self, check: bool = True):
        if not self.groups:
            raise ValidationError("no groups")
        if check:
            for g in self.groups:
                g.validate()
            repeated = [i for i, k in Counter(g.group_id for g in self.groups).items() if k > 1]
            if repeated:
                raise ValidationError(f"group {repeated[0]}: id repeated; ids must be unique")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_individuals(self) -> int:
        return int(self.sizes.sum())

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([g.n for g in self.groups])

    @property
    def group_index(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_groups), self.sizes)

    @property
    def z(self) -> np.ndarray:
        return np.concatenate([g.z for g in self.groups], dtype=float)

    @property
    def d(self) -> np.ndarray:
        return np.concatenate([g.d for g in self.groups], dtype=float)

    @property
    def y(self) -> np.ndarray:
        return np.concatenate([g.y for g in self.groups], dtype=float)

    @property
    def cell_key(self) -> np.ndarray:
        """Each row's (group, z, d) cell as one integer, 4*group + 2*z + d."""
        return 4 * self.group_index + (2 * self.z + self.d).astype(np.intp)

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
        y = self.y
        y = y[_canonical_order(key, y)]
        counts = np.bincount(key)
        present = counts > 0
        cell = np.flatnonzero(present)
        count = counts[cell]
        row_cell = (np.cumsum(present) - 1)[key]
        if latent:
            flag = (cell & 1).astype(float)
            cell = cell >> 1
        group, z, d = cell >> 2, ((cell >> 1) & 1).astype(float), (cell & 1).astype(float)

        def total(per_cell: np.ndarray) -> np.ndarray:
            return np.bincount(group, weights=count * per_cell, minlength=self.n_groups)[group]

        sum_d = total(d)
        n = self.sizes[group].astype(float)
        offered = total(z) - z
        return Cells(
            group=group,
            z=z,
            d=d,
            count=count,
            y=y,
            saturation=self.group_saturation[group],
            n=n,
            dbar=(sum_d - d) / (n - 1),
            chat=_loo_take_up(sum_d - d, offered),
            chat_fallback=offered == 0,
            cbar_true=(total(flag) - flag) / (n - 1) if latent else None,
            row_cell=row_cell,
        )

    @cached_property
    def group_saturation(self) -> np.ndarray:
        """Per-group saturation."""
        return np.array([g.saturation for g in self.groups], dtype=float)

    @property
    def saturation(self) -> np.ndarray:
        """Per-row saturation."""
        return np.repeat(self.group_saturation, self.sizes)

    @property
    def has_latent(self) -> bool:
        return all(g.complier is not None for g in self.groups)

    @property
    def complier(self) -> np.ndarray:
        if not self.has_latent:
            raise ValidationError("latent complier flags are not available")
        return np.concatenate([g.complier for g in self.groups], dtype=float)

    @property
    def has_pure_control_groups(self) -> bool:
        return any(g.saturation == 0.0 for g in self.groups)


def _simulate_groups(cfg: SimConfig, streams, group_ids, saturations) -> list[GroupData]:
    """Simulate groups of size cfg.n, each from its own generator in ``streams``.

    Per group the stream gives, in this order: the share draw, the complier
    positions (``permutation(n)``'s draws: a shuffle of 0..n-1), the offers
    (at an interior s, n uniforms, each an offer iff below s) and one normal
    draw per member for each coefficient with sigma > 0.  Only the draws are
    made group by group, into rows of arrays made once; everything computed
    from them is done once for all groups, and each group holds views of the
    shared (groups, n) arrays and of the (groups, 4, n) coefficients.
    """
    n = cfg.n
    noisy = [j for j in range(4) if cfg.sigma[j] != 0.0]
    n_groups = len(group_ids)
    sats = np.asarray(saturations, dtype=float)
    if not np.all((sats >= 0.0) & (sats <= 1.0)):  # false for nan
        raise ValidationError("saturation outside [0, 1]")
    share_u = np.empty(n_groups)
    perm = np.tile(np.arange(n), (n_groups, 1))
    z = np.empty((n_groups, n), dtype=np.int8)
    z[...] = (sats == 1.0)[:, None]  # s = 0 and s = 1 draw no offers
    offer_u = np.empty(n)
    u = np.empty((n_groups, len(noisy), n))
    for r, (rng, s) in enumerate(zip(streams, sats)):
        share_u[r] = rng.random()
        rng.shuffle(perm[r])
        if 0.0 < s < 1.0:
            np.less(rng.random(out=offer_u), s, out=z[r])
        if noisy:
            rng.standard_normal(out=u[r])

    point = cfg.support_index(share_u, out=np.empty(n_groups, dtype=np.intp))[:, None]
    k = np.asarray(cfg.complier_counts)[point]
    c = np.zeros((n_groups, n), dtype=np.int8)
    # the first k positions of a group's permutation are its compliers
    c[np.arange(n_groups)[:, None], perm] = np.arange(n) < k
    d = c * z

    cbar = cfg.key_cbar[2 * point + c]
    coefs = np.empty((n_groups, 4, n))
    for j, mean in enumerate(cfg.means):
        if j not in noisy:
            coefs[:, j] = mean
    for i, j in enumerate(noisy):
        _coefficient(
            cfg.means[j], cfg.kappa[j], cfg.sigma[j], cbar, cfg.share_moments, u[:, i],
            out=coefs[:, j],
        )
    dbar = (d.sum(axis=1, keepdims=True) - d) / (n - 1)
    alpha, beta, gamma, delta = coefs.transpose(1, 0, 2)
    y = alpha + beta * d + gamma * dbar + delta * d * dbar
    return [
        GroupData(gid, float(s), z[r], d[r], y[r], complier=c[r], coefs=coefs[r].T)
        for r, (gid, s) in enumerate(zip(group_ids, sats))
    ]


def simulate_group(cfg: SimConfig, group_id: int, saturation: float) -> GroupData:
    """Simulate one group; reproducible from (cfg.seed, group_id) alone."""
    rng = substream(cfg.seed, TAG_GROUP, group_id)
    return _simulate_groups(cfg, [rng], [group_id], [saturation])[0]


def simulate_experiment(cfg: SimConfig) -> ExperimentData:
    """Simulate the full experiment: saturations, compliers, offers, outcomes."""
    rng_sat = substream(cfg.seed, TAG_SATURATIONS)
    saturations = design_mod.sample_saturations(cfg.design, cfg.G, rng_sat)
    streams = substreams(cfg.seed, TAG_GROUP, count=cfg.G)
    return ExperimentData(_simulate_groups(cfg, streams, range(cfg.G), saturations), check=False)


def _oracle_sums(cfg: SimConfig, n_draws: int):
    """The oracle's draws for i.i.d. individuals, summed per latent state.

    An individual's state is its group's support point j and its own complier
    flag c, keyed k = 2j + c, which fixes its true neighbor complier share
    (``SimConfig.key_cbar``).  Each coefficient is affine in its normal
    draw, so the N_k draws of key k sum to S_k = N_k * coef(cbar_k, U_k / N_k),
    with U_k the sum of their normals.

    The draws are those of one full-size call each for all support uniforms,
    all complier uniforms and each noisy coefficient's normals, made in blocks
    of ``ORACLE_BLOCK`` (PCG64's draws do not depend on the call size).  Per
    draw only the key is kept (1 byte up to 128 support points).  A block's
    uniforms, normals and intp keys live in buffers reused from block to block:
    allocating them per block made glibc trim and re-fault its heap top.
    Returns N_k, cbar_k and the (4, 2J) sums S_jk.
    """
    if n_draws < 10**5:
        raise ValidationError("oracle needs at least 1e5 draws")
    rng = substream(cfg.seed, TAG_ORACLE)
    counts = np.asarray(cfg.complier_counts)
    n_keys = 2 * len(counts)
    blocks = [slice(a, min(a + ORACLE_BLOCK, n_draws)) for a in range(0, n_draws, ORACLE_BLOCK)]
    key = np.empty(n_draws, dtype=np.min_scalar_type(n_keys - 1))
    u = np.empty(ORACLE_BLOCK)
    # numpy gathers and bincounts an intp index without a copy, a narrow one after one
    at = np.empty(ORACLE_BLOCK, dtype=np.intp)
    for b in blocks:  # the support index j, turned into the key below
        cfg.support_index(rng.random(out=u[: b.stop - b.start]), out=key[b])
    n_k = np.zeros(n_keys, dtype=np.int64)
    for b in blocks:  # complier iff u * n < k_j, the point's complier count
        m = b.stop - b.start
        rng.random(out=u[:m])
        u[:m] *= cfg.n
        np.copyto(at[:m], key[b])
        complier = u[:m] < counts[at[:m]]
        at[:m] *= 2
        at[:m] += complier
        key[b] = at[:m]
        n_k += np.bincount(at[:m], minlength=n_keys)
    cbar, moments = cfg.key_cbar, cfg.share_moments
    sums = np.outer(np.asarray(cfg.means, dtype=float), n_k)
    for j, (mean, kappa, sigma) in enumerate(zip(cfg.means, cfg.kappa, cfg.sigma)):
        if sigma == 0.0:
            continue
        normal_sums = np.zeros(n_keys)
        for b in blocks:
            m = b.stop - b.start
            np.copyto(at[:m], key[b])
            rng.standard_normal(out=u[:m])
            normal_sums += np.bincount(at[:m], weights=u[:m], minlength=n_keys)
        # an empty key's mean normal is read as 0; its sum N_k * coef is 0 anyway
        mean_u = normal_sums / np.maximum(n_k, 1)
        sums[j] = n_k * _coefficient(mean, kappa, sigma, cbar, moments, mean_u)
    return n_k, cbar, sums


def oracle_subpopulation_means(cfg: SimConfig, n_draws: int = 10**6) -> dict[str, MeanCoefficients]:
    """Brute-force average coefficients for {population, compliers, never-takers}.

    These are the ground-truth targets for the estimator bias checks.  Each
    mean is a sum of per-key coefficient sums over its keys (odd keys are the
    compliers', even ones the never-takers').  An empty subpopulation raises.
    """
    n_k, _, sums = _oracle_sums(cfg, n_draws)
    n_c = n_k[1::2].sum()
    for label, count in ((LABEL_COMPLIER, n_c), (LABEL_NEVER_TAKER, n_draws - n_c)):
        if count == 0:
            raise ValidationError(f"{label} means are undefined: no {label} in the oracle draws")

    def _means(m) -> tuple[tuple[float, float], tuple[float, float]]:
        return (float(m[0]), float(m[2])), (float(m[1]), float(m[3]))

    theta_all, contrast_all = _means(sums.sum(axis=1) / n_draws)
    theta_c, contrast_c = _means(sums[:, 1::2].sum(axis=1) / n_c)
    theta_n, _ = _means(sums[:, ::2].sum(axis=1) / (n_draws - n_c))
    return {
        LABEL_POPULATION: MeanCoefficients(LABEL_POPULATION, theta_all, contrast_all),
        LABEL_COMPLIER: MeanCoefficients(LABEL_COMPLIER, theta_c, contrast_c),
        LABEL_NEVER_TAKER: MeanCoefficients(LABEL_NEVER_TAKER, theta_n),
    }


def oracle_naive_iv_estimands(cfg: SimConfig, n_draws: int = 10**6) -> np.ndarray:
    """The four naive-IV probability limits, evaluated by simulation:

    alpha_IV = E[alpha],              beta_IV  = E[C beta] / E[C],
    gamma_IV = E[Cbar gamma]/E[Cbar], delta_IV = E[C Cbar delta] / E[C Cbar].

    Each is a ratio Σw·coefficient / Σw of per-key sums, with the weight w
    of each key from its (c, cbar).  A ratio whose denominator is 0 in the
    draws is undefined and raises ``ValidationError``: E[C Cbar] = 0 when no
    complier has a complier neighbour (n = 2 with one complier per group),
    E[C] = E[Cbar] = 0 without compliers.
    """
    n_k, cbar, sums = _oracle_sums(cfg, n_draws)
    c = np.resize([0.0, 1.0], len(cbar))  # each key's own complier flag
    weights = {"1": np.ones_like(c), "E[C]": c, "E[Cbar]": cbar, "E[C Cbar]": c * cbar}
    w = np.stack(list(weights.values()))
    sum_w = (w * n_k).sum(axis=1)
    for name, moment, s in zip(("alpha_IV", "beta_IV", "gamma_IV", "delta_IV"), weights, sum_w):
        if s == 0.0:
            raise ValidationError(
                f"naive-IV estimand {name} is undefined: {moment} = 0 in the oracle draws"
            )
    return (w * sums).sum(axis=1) / sum_w
