"""Brute-force per-row reference for the transformed instruments and RS-IV fits.

Every row gets its own explicit ``pseudo_inverse(R(cbar, n))``, interpolated
between scalar ``q_z_at_count`` matrices, with no grouping of rows by key,
and the estimates are solved from those instruments in data order.  The data
mix group sizes, include groups with no offered neighbour (Chat falls back
to 0) and, for the pure-control policies, 0% saturation groups.
"""
import numpy as np
import pytest

from sativ import moments
from sativ.design import SaturationDesign
from sativ.dgp import ExperimentData, GroupData
from sativ.estimator import (
    RS_TARGETS,
    TARGET_JOINT,
    TARGET_POPULATION,
    build_instruments,
    estimate_all,
    rsiv_estimate,
    rsiv_pure_control,
)
from sativ.model import linear_basis, quadratic_basis
from sativ.streams import substream

WITH_ZERO = SaturationDesign.from_probs((0.0, 0.25, 0.5, 0.75), (0.25,) * 4)
INTERIOR = SaturationDesign.from_probs((0.25, 0.5, 0.75, 1.0), (0.25,) * 4)
TOL = 1e-10


def random_data(design: SaturationDesign, seed: int, G: int = 40) -> ExperimentData:
    """Groups of 2..12 members with latent complier flags, plus corner groups."""
    rng = substream(seed)
    positive = [s for s in design.saturations if s > 0.0]
    groups = []
    for gid in range(G):
        n = int(rng.integers(2, 13))
        s = float(design.saturations[gid % len(design.saturations)])
        z = (rng.random(n) < s).astype(np.int8)
        c = (rng.random(n) < 0.6).astype(np.int8)
        groups.append(GroupData(gid, s, z, (c * z).astype(np.int8), rng.standard_normal(n),
                                complier=c))
    # no offered member: every Chat falls back to 0
    groups.append(GroupData(G, positive[0], np.zeros(5, dtype=np.int8),
                            np.zeros(5, dtype=np.int8), rng.standard_normal(5),
                            complier=np.ones(5, dtype=np.int8)))
    # one offered member: its Chat falls back to 0, the others see its take-up
    groups.append(GroupData(G + 1, positive[-1], np.array([1, 0, 0, 0], dtype=np.int8),
                            np.array([1, 0, 0, 0], dtype=np.int8), rng.standard_normal(4),
                            complier=np.array([1, 0, 1, 0], dtype=np.int8)))
    return ExperimentData(groups)


def reference_q(basis, cbar, n, design, z):
    """Q_z at (cbar, n): exact at integer (n-1)*cbar, else interpolated between counts."""
    count = (n - 1) * cbar
    if abs(count - round(count)) <= moments.INTEGER_TOL:
        return moments.q_z_at_count(basis, round(count), n, design, z)
    lower = int(np.floor(count))
    omega = count - lower
    return ((1.0 - omega) * moments.q_z_at_count(basis, lower, n, design, z)
            + omega * moments.q_z_at_count(basis, lower + 1, n, design, z))


def reference_instruments(data, basis, design, target, chat_policy):
    """Per-row (X, W, Zhat, used-row mask, rank-deficient count) in data order."""
    condition = design.has_pure_control
    dsn = design.positive_part() if condition else design
    x_rows, w_rows, zhat_rows, used, n_deficient = [], [], [], [], 0
    for g in data.groups:
        z, d = g.z.astype(float), g.d.astype(float)
        n = g.n
        dbar = (d.sum() - d) / (n - 1)
        offered = z.sum() - z
        chat = np.divide(d.sum() - d, offered, out=np.zeros(n), where=offered > 0)
        if chat_policy == "oracle":
            comp = g.complier.astype(float)
            chat = (comp.sum() - comp) / (n - 1)
        for i in range(n):
            f = basis.values(np.array([dbar[i]]))[0]
            if target == TARGET_JOINT:
                x, w = np.concatenate([f, d[i] * f]), np.concatenate([f, z[i] * f])
            elif target == TARGET_POPULATION:
                x, w = f, (1.0 - z[i]) * f
            elif target == "complier_psi":
                x, w = f, d[i] * f
            else:
                x, w = f, z[i] * (1.0 - d[i]) * f
            keep = not (condition and g.saturation == 0.0)
            if keep:
                q0 = reference_q(basis, float(chat[i]), n, dsn, 0)
                q1 = reference_q(basis, float(chat[i]), n, dsn, 1)
                r = {TARGET_JOINT: moments.assemble_q(q0, q1), TARGET_POPULATION: q0}.get(
                    target, q1
                )
                vals = np.linalg.eigvalsh(r)
                cutoff = moments.PINV_RTOL * max(np.abs(vals).max(), 1.0)
                n_deficient += int((np.abs(vals) <= cutoff).any())
                zhat = moments.pseudo_inverse(r) @ w
            else:
                zhat = np.zeros_like(w)
            x_rows.append(x)
            w_rows.append(w)
            zhat_rows.append(zhat)
            used.append(keep)
    return (np.array(x_rows), np.array(w_rows), np.array(zhat_rows), np.array(used),
            n_deficient)


def _sandwich(a, contribs, gidx):
    scores = np.zeros((gidx.max() + 1, contribs.shape[1]))
    np.add.at(scores, gidx, contribs)
    ainv = np.linalg.inv(a)
    return ainv @ (scores.T @ scores) @ ainv.T


def reference_fit(data, basis, design, target, chat_policy, gmm):
    """Coefficients and clustered vcov solved from the per-row instruments."""
    x, _, zhat, used, n_def = reference_instruments(data, basis, design, target, chat_policy)
    y = data.y
    gidx = data.group_index
    if gmm:
        pc = ~used
        zmat = np.column_stack([zhat, pc.astype(float)])
        if target == TARGET_POPULATION:
            x = (1.0 - data.z)[:, None] * x
            y = (1.0 - data.z) * y
        xhat = zmat @ np.linalg.solve(zmat.T @ zmat, zmat.T @ x)
        a = xhat.T @ x
        coef = np.linalg.solve(a, xhat.T @ y)
        vcov = _sandwich(a, xhat * (y - x @ coef)[:, None], gidx)
    else:
        x, zhat, y, gidx = x[used], zhat[used], y[used], gidx[used]
        gidx = np.unique(gidx, return_inverse=True)[1].ravel()
        a = zhat.T @ x
        coef = np.linalg.solve(a, zhat.T @ y)
        vcov = _sandwich(a, zhat * (y - x @ coef)[:, None], gidx)
    return coef, vcov, n_def


def assert_close(got, expect):
    scale = max(1.0, float(np.abs(expect).max()))
    assert np.abs(np.asarray(got) - expect).max() <= TOL * scale


CASES = [
    pytest.param(INTERIOR, "drop", id="interior"),
    pytest.param(WITH_ZERO, "drop", id="zero-drop"),
    pytest.param(WITH_ZERO, "gmm", id="zero-gmm"),
]


@pytest.mark.parametrize("chat_policy", ["estimate", "oracle"])
@pytest.mark.parametrize("design,pure_control", CASES)
def test_estimate_all_matches_per_row_reference(design, pure_control, chat_policy):
    data = random_data(design, seed=314)
    res = estimate_all(data, linear_basis(), design, pure_control=pure_control,
                       chat_policy=chat_policy, include_naive=False)
    for target in RS_TARGETS:
        gmm = pure_control == "gmm" and target in (TARGET_JOINT, TARGET_POPULATION)
        coef, vcov, n_def = reference_fit(data, linear_basis(), design, target,
                                          chat_policy, gmm)
        assert_close(res[target].coefficients, coef)
        assert_close(res[target].vcov, vcov)
        assert res[target].diagnostics.n_pseudo_inverted == n_def
        single = rsiv_estimate(data, linear_basis(), design, target,
                               pure_control=pure_control, chat_policy=chat_policy)
        assert np.array_equal(single.coefficients, res[target].coefficients)
        assert np.array_equal(single.vcov, res[target].vcov)


@pytest.mark.parametrize("chat_policy", ["estimate", "oracle"])
@pytest.mark.parametrize("target", [TARGET_JOINT, TARGET_POPULATION])
def test_rsiv_pure_control_matches_per_row_reference(target, chat_policy):
    data = random_data(WITH_ZERO, seed=2718)
    res = rsiv_pure_control(data, linear_basis(), WITH_ZERO, target, chat_policy=chat_policy)
    coef, vcov, n_def = reference_fit(data, linear_basis(), WITH_ZERO, target,
                                      chat_policy, gmm=True)
    assert_close(res.coefficients, coef)
    assert_close(res.vcov, vcov)
    assert res.diagnostics.n_pseudo_inverted == n_def


@pytest.mark.parametrize("basis", [linear_basis(), quadratic_basis()], ids=["lin", "quad"])
@pytest.mark.parametrize("chat_policy", ["estimate", "oracle"])
@pytest.mark.parametrize("design", [INTERIOR, WITH_ZERO], ids=["interior", "zero"])
def test_build_instruments_matches_per_row_reference(design, chat_policy, basis):
    data = random_data(design, seed=1618, G=30)
    for target in RS_TARGETS:
        inst = build_instruments(data, basis, design, target, chat_policy=chat_policy)
        x, w, zhat, _, n_def = reference_instruments(data, basis, design, target, chat_policy)
        assert np.array_equal(inst.x, x)
        assert np.array_equal(inst.w, w)
        assert_close(inst.zhat, zhat)
        assert inst.n_pseudo_inverted == n_def


@pytest.mark.parametrize("design,pure_control", CASES)
def test_diagnostics_count_fallback_rows_and_keys(design, pure_control):
    data = random_data(design, seed=314)
    fallback, keys, oracle_keys = 0, set(), set()
    for g in data.groups:
        if g.saturation == 0.0:
            continue
        offered = g.z.sum() - g.z
        chat = np.divide(g.d.sum() - g.d, offered, out=np.zeros(g.n), where=offered > 0)
        cbar = (g.complier.sum() - g.complier) / (g.n - 1)
        fallback += int((offered == 0).sum())
        keys.update((float(c), g.n) for c in chat)
        oracle_keys.update((float(c), g.n) for c in cbar)
    assert fallback >= 6  # the two corner groups
    for chat_policy, n_fallback, n_keys in (
        ("estimate", fallback, len(keys)), ("oracle", 0, len(oracle_keys))
    ):
        res = estimate_all(data, linear_basis(), design, pure_control=pure_control,
                           chat_policy=chat_policy, include_naive=False)
        for r in res.values():
            assert r.diagnostics.n_chat_fallback == n_fallback
            assert r.diagnostics.n_instrument_keys == n_keys
