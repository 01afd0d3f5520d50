"""Design-implied moment matrices.

Conditional on a neighbor complier share cbar and group size n, the count of
treated neighbors is Binomial((n-1)*cbar, s) under saturation s, which makes
the conditional second-moment matrices Q0, Q1 (and the stacked Q) exactly
computable by enumerating the binomial support.  This module provides that
enumeration, the closed forms for the linear basis, the linear-interpolation
extension to non-integer (n-1)*cbar, the large-n limit matrices, the 2x2
block inverse of the stacked Q, and a symmetric Moore-Penrose pseudo-inverse.

``q_z_at_count``, ``q_extended`` and ``q_limit`` return Q0 and Q1 together,
stacked on a leading axis indexed by z, from one enumeration.
``q_z_at_count`` and ``q_extended`` also take 1-D arrays of counts or cbar
values and of group sizes n, and return (2, m, K, K) stacks from one call;
``assemble_q`` and ``pseudo_inverse_stack`` work on (m, K, K) stacks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import SaturationDesign
from .errors import ValidationError
from .model import BasisSpec

INTEGER_TOL = 1e-9
PINV_RTOL = 1e-12
SHARED_PMF_MAX_N = 1024  # pairs up to this n share one pmf table per saturation (<= 8 MB)

# cephes lgam (Moshier): 0.5*log(2*pi) and the Stirling correction's coefficients below x = 1000
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


@dataclass(frozen=True)
class MomentMatrices:
    """Q0 and Q1 at one evaluation point, with the stacked Q assembled on demand."""

    q0: np.ndarray
    q1: np.ndarray
    cbar: float
    n: int

    @property
    def q(self) -> np.ndarray:
        """The stacked matrix [[Q0+Q1, Q1], [Q1, Q1]]."""
        return assemble_q(self.q0, self.q1)


def assemble_q(q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """The stacked [[Q0+Q1, Q1], [Q1, Q1]]; also for (m, K, K) stacks of blocks."""
    k = q0.shape[-1]
    out = np.empty(q0.shape[:-2] + (2 * k, 2 * k))
    out[..., :k, :k] = q0 + q1
    out[..., :k, k:] = q1
    out[..., k:, :k] = q1
    out[..., k:, k:] = q1
    return out


def _log_factorials(width: int) -> np.ndarray:
    """log(j!) for j = 0..width-1, equal bit for bit to ``scipy.special.gammaln(j + 1)``.

    This is cephes' ``lgam``, the algorithm ``gammaln`` runs, with its
    operations in its order: the log of the exact factorial for j <= 11, then
    Stirling's series at x = j + 1 with a polynomial correction below
    x = 1000, a three-term one up to x = 1e8 and none beyond.  The logs come
    from ``math.log`` (the C library's, as in cephes): ``np.log`` rounds some
    arguments differently.
    """
    out = np.empty(width)
    exact = min(width, 12)
    out[:exact] = [math.log(math.factorial(j)) for j in range(exact)]
    if width <= 12:
        return out
    x = np.arange(13.0, width + 1.0)
    log_x = np.fromiter(map(math.log, range(13, width + 1)), float, width - 12)
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    poly = slice(0, 1000 - 13)  # 13 <= x < 1000
    series = slice(1000 - 13, 10**8 - 12)  # 1000 <= x <= 1e8
    correction = _LGAM_A[0]
    for coef in _LGAM_A[1:]:
        correction = correction * p[poly] + coef
    q[poly] += correction / x[poly]
    ps = p[series]
    q[series] += (
        (7.9365079365079365079365e-4 * ps - 2.7777777777777777777778e-3) * ps
        + 0.0833333333333333333333
    ) / x[series]
    out[12:] = q
    return out


def _pmf_rows(counts: np.ndarray, p: float, log_fact: np.ndarray) -> np.ndarray:
    """Row j is the pmf of Binomial(counts[j], p) on 0..max(counts), zero past counts[j].

    ``log_fact`` holds ``_log_factorials`` of at least max(counts) + 1.  Each
    row is computed in log space with the same operations, in the same order,
    as a single pmf, so it equals that pmf bit for bit.
    """
    width = int(counts.max()) + 1
    out = np.zeros((len(counts), width))
    if p <= 0.0:
        out[:, 0] = 1.0
        return out
    if p >= 1.0:
        out[np.arange(len(counts)), counts] = 1.0
        return out
    m = np.arange(width)
    c = counts[:, None]
    logpmf = (
        log_fact[c]
        - log_fact[m]
        - log_fact[np.maximum(c - m, 0)]
        + m * math.log(p)
        + (c - m) * math.log1p(-p)
    )
    return np.exp(np.where(m <= c, logpmf, -np.inf))


def binomial_pmf(trials: int, p: float) -> np.ndarray:
    """Full pmf of Binomial(trials, p), computed in log space for stability."""
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    return _pmf_rows(np.array([trials]), p, _log_factorials(trials + 1))[0]


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def _sizes(n, shape: tuple) -> np.ndarray:
    sizes = np.asarray(n)
    if sizes.ndim and (sizes.shape != shape or sizes.dtype.kind not in "iu"):
        raise ValidationError("n must be an integer or a 1-D integer array aligned with count or cbar")
    if np.min(sizes, initial=2) < 2:
        raise ValidationError("group size must be at least 2")
    return np.broadcast_to(sizes, shape).astype(np.int64)


def q_z_at_count(basis: BasisSpec, count, n, design: SaturationDesign) -> np.ndarray:
    """Q0 and Q1 at an integer neighbor complier count, i.e. cbar = count/(n-1).

    Q_z = sum_j w_j s_j^z (1-s_j)^(1-z) * E[f(Dbar) f(Dbar)'] with
    (n-1)*Dbar ~ Binomial(count, s_j); the result is indexed by z on its
    leading axis, so ``q0, q1 = q_z_at_count(...)``.

    ``count`` is an integer, giving a (2, K, K) pair, or a 1-D integer array,
    giving the (2, len(count), K, K) stacks of Q0 and Q1 at each count, with
    ``n`` an integer or an aligned 1-D integer array.  Per saturation, one
    pmf table covers the distinct counts of all pairs with n up to
    ``SHARED_PMF_MAX_N``, and each pair at a larger n gets a one-row table.
    Each size takes the stacked product over its zero-padded pmf rows once and
    adds it to Q0 and Q1 with their weights, which equals the scalar form bit
    for bit.
    """
    counts = np.atleast_1d(np.asarray(count))
    if counts.ndim != 1 or counts.size == 0 or counts.dtype.kind not in "iu":
        raise ValidationError("complier count must be an integer or a 1-D integer array")
    sizes = _sizes(n, counts.shape)
    if counts.min() < 0 or np.any(counts > sizes - 1):
        raise ValidationError("complier count outside 0..n-1")
    out = np.zeros((2, len(counts), basis.k, basis.k))
    shared = sizes <= SHARED_PMF_MAX_N  # counts < n: at most SHARED_PMF_MAX_N**2 table entries
    for block in filter(len, [np.flatnonzero(shared), *np.flatnonzero(~shared)[:, None]]):
        distinct, pmf_row = np.unique(counts[block], return_inverse=True)
        parts, grids = [], []  # per size: its pairs and their pmf rows; its grid of Dbar
        for size in sorted(set(sizes[block].tolist())):  # np.unique would import numpy.ma
            at = sizes[block] == size
            parts.append((block[at], pmf_row[at]))
            grids.append(np.arange(counts[block[at]].max() + 1) / (size - 1))
        fvals = np.split(basis.values(np.concatenate(grids)), np.cumsum([len(g) for g in grids])[:-1])
        log_fact = _log_factorials(int(distinct[-1]) + 1)
        for s, w in zip(design.saturations, design.weights):
            zweights = [(q, zw) for q, zw in zip(out, (w * (1.0 - s), w * s)) if zw != 0.0]
            if not zweights:
                continue
            pmf = _pmf_rows(distinct, s, log_fact)
            for (rows, pmf_at), f in zip(parts, fvals):
                product = f.T @ (pmf[pmf_at, : len(f)][:, :, None] * f)
                for q, zweight in zweights:
                    q[rows] += zweight * product
    out = _symmetrize(out)
    return out if np.ndim(count) or np.ndim(n) else out[:, 0]


def q_exact(basis: BasisSpec, cbar: float, n: int, design: SaturationDesign) -> MomentMatrices:
    """Exact Q0/Q1 at (cbar, n); requires (n-1)*cbar to be an integer.

    Both come from ``q_extended``, which is exact at an integer count.  The
    moments conditioned on S > 0 (the pure-control-excluded variant) are
    those of ``design.positive_part()``.
    """
    if not 0.0 <= cbar <= 1.0:
        raise ValidationError("cbar must lie in [0, 1]")
    count = (n - 1) * cbar
    if abs(count - round(count)) > INTEGER_TOL:
        raise ValidationError(
            f"(n-1)*cbar = {count} is not an integer; use q_extended instead"
        )
    q0, q1 = q_extended(basis, cbar, n, design)
    return MomentMatrices(q0=q0, q1=q1, cbar=cbar, n=n)


def q_linear_closed_form(
    cbar: float, n: int, design: SaturationDesign, z: int
) -> np.ndarray:
    """Closed-form Q_z for the linear basis f(x) = (1, x).

    Valid for any real cbar in [0, 1]; agrees with the enumeration whenever
    (n-1)*cbar is an integer.
    """
    if not 0.0 <= cbar <= 1.0:
        raise ValidationError("cbar must lie in [0, 1]")
    if n < 2:
        raise ValidationError("group size must be at least 2")
    if z == 0:
        a = design.moment(0, 1)  # E(1-S)
        b = cbar * design.moment(1, 1)  # cbar E(S(1-S))
        c = cbar**2 * design.moment(2, 1) + cbar * design.moment(1, 2) / (n - 1)
    elif z == 1:
        a = design.moment(1, 0)  # E(S)
        b = cbar * design.moment(2, 0)  # cbar E(S^2)
        c = cbar**2 * design.moment(3, 0) + cbar * design.moment(2, 1) / (n - 1)
    else:
        raise ValidationError("z must be 0 or 1")
    return np.array([[a, b], [b, c]])


def q_extended(basis: BasisSpec, cbar, n, design: SaturationDesign) -> np.ndarray:
    """Q0 and Q1 extended to non-integer (n-1)*cbar by linear interpolation.

    Interpolates between the exact matrices at the two neighboring integer
    complier counts; returns the exact value when (n-1)*cbar is an integer.
    ``cbar`` is a float, giving a (2, K, K) pair, or a 1-D array, giving the
    (2, len(cbar), K, K) stacks from a single ``q_z_at_count`` call over the
    integer (count, n) pairs the values need.  ``n`` is an integer or an
    aligned 1-D integer array.  The leading axis is z.
    """
    cbars = np.atleast_1d(np.asarray(cbar, dtype=float))
    if not np.all((cbars >= 0.0) & (cbars <= 1.0)):  # false for nan
        raise ValidationError("cbar must lie in [0, 1]")
    sizes = _sizes(n, cbars.shape)
    count = (sizes - 1) * cbars
    nearest = np.round(count)
    exact = np.abs(count - nearest) <= INTEGER_TOL
    lower = np.where(exact, nearest, np.floor(count))
    upper = np.where(exact, nearest, lower + 1)
    omega = np.where(exact, 0.0, count - lower)[:, None, None]
    span = int(sizes.max(initial=2))  # count < n <= span: count + span * n keys the pair
    keys = np.concatenate([lower, upper]).astype(np.int64) + span * np.tile(sizes, 2)
    keys, index = np.unique(keys, return_inverse=True)
    pairs = q_z_at_count(basis, keys % span, keys // span, design)[:, index]
    q_lower, q_upper = np.split(pairs, 2, axis=1)
    out = (1.0 - omega) * q_lower + omega * q_upper
    return out if np.ndim(cbar) or np.ndim(n) else out[:, 0]


def q_limit(basis: BasisSpec, cbar: float, design: SaturationDesign) -> np.ndarray:
    """Large-n limits of Q0 and Q1, indexed by z: E[S^z (1-S)^(1-z) f(cbar*S) f(cbar*S)']."""
    if not 0.0 <= cbar <= 1.0:
        raise ValidationError("cbar must lie in [0, 1]")
    out = np.zeros((2, basis.k, basis.k))
    for s, w in zip(design.saturations, design.weights):
        fvec = basis.values(cbar * s)
        product = np.outer(fvec, fvec)
        for q, zweight in zip(out, (w * (1.0 - s), w * s)):
            if zweight != 0.0:
                q += zweight * product
    return _symmetrize(out)


def block_inverse(q0_inv: np.ndarray, q1_inv: np.ndarray) -> np.ndarray:
    """Inverse of the stacked Q from the inverses of its blocks.

    Q^{-1} = [[Q0^{-1}, -Q0^{-1}], [-Q0^{-1}, Q0^{-1} + Q1^{-1}]].
    """
    if q0_inv.shape != q1_inv.shape or q0_inv.shape[0] != q0_inv.shape[1]:
        raise ValidationError("block inverses must be square matrices of equal size")
    k = q0_inv.shape[0]
    out = np.empty((2 * k, 2 * k))
    out[:k, :k] = q0_inv
    out[:k, k:] = -q0_inv
    out[k:, :k] = -q0_inv
    out[k:, k:] = q0_inv + q1_inv
    return out


def pseudo_inverse_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moore-Penrose inverses of a (m, p, p) stack of symmetric matrices.

    Eigenvalues below ``PINV_RTOL * max(|eigenvalue|, 1)`` of each matrix are
    treated as exact zeros, which separates the structural zeros of
    degenerate designs from roundoff.  Returns the inverses and a boolean per
    matrix that is True where an eigenvalue was cut (the matrix is rank
    deficient), using one stacked eigendecomposition.
    """
    m = np.asarray(m, dtype=float)
    scale = np.maximum(np.abs(m).max(axis=(1, 2), initial=0.0), 1.0)
    if np.any(np.abs(m - np.swapaxes(m, 1, 2)).max(axis=(1, 2), initial=0.0) > 1e-10 * scale):
        raise ValidationError("pseudo_inverse requires a symmetric matrix")
    vals, vecs = np.linalg.eigh(_symmetrize(m))
    cutoff = PINV_RTOL * np.maximum(np.abs(vals).max(axis=1, initial=0.0), 1.0)
    keep = np.abs(vals) > cutoff[:, None]
    inv_vals = np.zeros_like(vals)
    inv_vals[keep] = 1.0 / vals[keep]
    pinv = (vecs * inv_vals[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    return _symmetrize(pinv), ~keep.all(axis=1)


def pseudo_inverse(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of one symmetric matrix; see ``pseudo_inverse_stack``.

    Coincides with the ordinary inverse when well-conditioned.
    """
    return pseudo_inverse_stack(np.asarray(m)[None])[0][0]
