"""The observed data every estimator reads: groups, their (group, z, d) cells
and the grouped dataset.

``ingest_csv`` builds these from a file and ``dgp`` from the simulator; this
module holds no simulation code, so reading data loads none.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ValidationError


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

