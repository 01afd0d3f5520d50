"""Randomized saturation designs.

First stage: groups are assigned a saturation from a finite set, either a
fixed number of groups per saturation (completely at random) or i.i.d. from
the design weights.  Second stage: individuals receive Bernoulli(saturation)
treatment offers, which the simulator draws (``dgp``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, as_integer
from .model import BasisSpec

_WEIGHT_TOL = 1e-12
WEAK_DET_THRESHOLD = 1e-10  # validate_design's bound on the relative determinant


@dataclass(frozen=True)
class SaturationDesign:
    """Saturations with assignment weights; offers are per-individual Bernoulli(s).

    Exactly one of ``counts`` (fixed number of groups per saturation) or
    pure probability ``weights`` drives the first stage.  ``weights`` always
    holds the implied probabilities and sums to one.
    """

    saturations: tuple[float, ...]
    weights: tuple[float, ...]
    counts: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.saturations:
            raise ValidationError("design needs at least one saturation")
        if len(set(self.saturations)) != len(self.saturations):
            raise ValidationError("saturations must be pairwise distinct")
        for s in self.saturations:
            if not 0.0 <= s <= 1.0:
                raise ValidationError(f"saturation {s} outside [0, 1]")
        if len(self.weights) != len(self.saturations):
            raise ValidationError("weights and saturations must align")
        if not all(w >= 0 for w in self.weights):  # false for nan
            raise ValidationError("weights must be nonnegative")
        if not abs(sum(self.weights) - 1.0) <= _WEIGHT_TOL:
            raise ValidationError("weights must sum to 1 within 1e-12")
        if self.counts is not None and len(self.counts) != len(self.saturations):
            raise ValidationError("counts and saturations must align")

    @classmethod
    def from_probs(cls, saturations, probs) -> "SaturationDesign":
        return cls(tuple(float(s) for s in saturations), tuple(float(p) for p in probs))

    @classmethod
    def from_counts(cls, saturations, counts) -> "SaturationDesign":
        counts = tuple(as_integer(c, "design count", 0) for c in counts)
        total = sum(counts)
        if total <= 0:
            raise ValidationError("counts must sum to a positive number of groups")
        weights = tuple(c / total for c in counts)
        return cls(tuple(float(s) for s in saturations), weights, counts)

    def moment(self, k: int = 1, m: int = 0) -> float:
        """E[S^k (1-S)^m] over the design distribution."""
        return float(
            sum(w * s**k * (1.0 - s) ** m for s, w in zip(self.saturations, self.weights))
        )

    @property
    def has_pure_control(self) -> bool:
        return any(s == 0.0 and w > 0 for s, w in zip(self.saturations, self.weights))

    @property
    def interior_saturations(self) -> tuple[float, ...]:
        return tuple(s for s, w in zip(self.saturations, self.weights) if 0.0 < s < 1.0 and w > 0)

    def positive_part(self) -> "SaturationDesign":
        """The design conditional on S > 0, weights renormalized."""
        kept = [(s, w) for s, w in zip(self.saturations, self.weights) if s > 0.0 and w > 0]
        if not kept:
            raise ValidationError("design has no positive-saturation support")
        total = sum(w for _, w in kept)
        return SaturationDesign(
            tuple(s for s, _ in kept), tuple(w / total for _, w in kept)
        )


@dataclass(frozen=True)
class DesignDiagnostics:
    """Identification diagnostics for a (design, basis) pair over a (cbar, n) grid."""

    per_saturation_counts: tuple[int, ...] | None
    interior_count: int
    min_det_q0: float
    min_det_q1: float
    min_relative_det: float
    min_eigenvalue: float
    singular: bool
    weakly_identified: bool
    threshold: float


def sample_saturations(design: SaturationDesign, G: int, rng: np.random.Generator) -> np.ndarray:
    """Assign a saturation to each of G groups.

    With counts, exactly ``counts[j]`` groups get saturation j (a completely
    random permutation); with probabilities, groups draw i.i.d.
    """
    if G <= 0:
        raise ValidationError("G must be positive")
    if design.counts is not None:
        if sum(design.counts) != G:
            raise ValidationError(
                f"design counts sum to {sum(design.counts)}, not G={G}"
            )
        pool = np.repeat(np.asarray(design.saturations), np.asarray(design.counts))
        return rng.permutation(pool)
    return rng.choice(np.asarray(design.saturations), size=G, p=np.asarray(design.weights))


def validate_design(
    design: SaturationDesign,
    basis: BasisSpec,
    n_grid=(11, 101, 1001),
    cbar_grid=(0.1, 0.3, 0.5),
) -> DesignDiagnostics:
    """Scan Q0/Q1 over a (cbar, n) grid and flag identification problems.

    The scan includes the large-n limit matrices, so a design whose
    determinants merely vanish as n grows (e.g. a single saturation) is
    flagged as weakly identified: a relative determinant det(Q)/prod(diag Q)
    below ``WEAK_DET_THRESHOLD``.  The cluster randomized case (only corner
    saturations) is flagged as singular: minimum eigenvalue at or below
    1e-12 at every grid point.  ``n_grid`` holds integer group sizes of at
    least 2 and ``cbar_grid`` shares in [0, 1]; either one empty raises.
    """
    from . import moments  # deferred: moments consumes this module's types

    sizes, shares = np.asarray(n_grid), np.asarray(cbar_grid)
    if sizes.dtype.kind == "f" and np.all(sizes == np.round(sizes)):  # integral floats, e.g. 11.0
        sizes = sizes.astype(np.int64)
    if sizes.ndim != 1 or not sizes.size or sizes.dtype.kind not in "iu" or sizes.min() < 2:
        raise ValidationError(
            f"n_grid must be a nonempty list of integers of at least 2, got {n_grid!r}"
        )
    in_unit = shares.dtype.kind in "iuf" and np.all((shares >= 0.0) & (shares <= 1.0))  # not nan
    if shares.ndim != 1 or not shares.size or not in_unit:
        raise ValidationError(
            f"cbar_grid must be a nonempty list of values in [0, 1], got {cbar_grid!r}"
        )
    cbars, sizes = (a.ravel() for a in np.meshgrid(shares, sizes, indexing="ij"))
    q = np.concatenate([  # (2, grid + limits, K, K): Q0 and Q1 at every point
        moments.q_extended(basis, cbars, sizes, design),
        np.stack([moments.q_limit(basis, cbar, design) for cbar in cbar_grid], axis=1),
    ], axis=1)
    dets = np.linalg.det(q)
    diag_prods = np.prod(np.diagonal(q, axis1=-2, axis2=-1), axis=-1)
    rel_dets = np.divide(dets, diag_prods, out=np.zeros_like(dets), where=diag_prods > 0)
    min_eigs = np.linalg.eigvalsh(q)[..., 0]

    singular = bool(np.all(min_eigs <= 1e-12))
    weak = bool(rel_dets.min() < WEAK_DET_THRESHOLD)
    return DesignDiagnostics(
        per_saturation_counts=design.counts,
        interior_count=len(design.interior_saturations),
        min_det_q0=float(dets[0].min()),
        min_det_q1=float(dets[1].min()),
        min_relative_det=float(rel_dets.min()),
        min_eigenvalue=float(min_eigs.min()),
        singular=singular,
        weakly_identified=singular or weak,
        threshold=WEAK_DET_THRESHOLD,
    )
