"""Brute-force per-row reference for the instruments and every fit.

Every row gets its own explicit ``pseudo_inverse(R(cbar, n))``, interpolated
between scalar ``q_z_at_count`` matrices, with no grouping of rows by key,
and the estimates are solved from those instruments in data order.  Naive IV
and the IOR test are solved row by row the same way.  The estimators pool
rows into (group, z, d) cells, so these references check the pooling.  The
data mix group sizes, include groups with no offered neighbour (Chat falls
back to 0) and, for the pure-control policies, 0% saturation groups.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import f as f_dist

from sativ import estimator, moments
from sativ.design import SaturationDesign
from sativ.dgp import ExperimentData, GroupData
from sativ.estimator import (
    RS_TARGETS,
    TARGET_JOINT,
    TARGET_POPULATION,
    TARGET_COMPLIER_THETA,
    build_instruments,
    estimate_all,
    ior_test,
    naive_iv,
    rsiv_estimate,
    rsiv_pure_control,
)
from sativ.errors import SingularSystemError
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
        return moments.q_z_at_count(basis, round(count), n, design)[z]
    lower = int(np.floor(count))
    omega = count - lower
    return ((1.0 - omega) * moments.q_z_at_count(basis, lower, n, design)[z]
            + omega * moments.q_z_at_count(basis, lower + 1, n, design)[z])


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


def _influence(a, contribs, gidx, n_groups):
    """Per-group influence A^{-1} s_g, zero for groups without rows."""
    scores = np.zeros((n_groups, contribs.shape[1]))
    np.add.at(scores, gidx, contribs)
    return scores @ np.linalg.inv(a).T


def _sandwich(a, contribs, gidx):
    infl = _influence(a, contribs, gidx, gidx.max() + 1)
    return infl.T @ infl


def reference_fit(data, basis, design, target, chat_policy, gmm):
    """Coefficients, clustered vcov, rows pseudo-inverted and per-group influence."""
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
        infl = _influence(a, xhat * (y - x @ coef)[:, None], gidx, data.n_groups)
    else:
        x, zhat, y, gidx = x[used], zhat[used], y[used], gidx[used]
        a = zhat.T @ x
        coef = np.linalg.solve(a, zhat.T @ y)
        infl = _influence(a, zhat * (y - x @ coef)[:, None], gidx, data.n_groups)
    return coef, infl.T @ infl, n_def, infl


def reference_complier_theta(data, design, chat_policy, pure_control):
    """theta_c = theta_n + (theta - theta_n) / E[C] with its joint delta-method vcov."""
    basis = linear_basis()
    gmm = pure_control == "gmm" and design.has_pure_control
    pop, _, _, pop_infl = reference_fit(data, basis, design, TARGET_POPULATION, chat_policy, gmm)
    nt, _, _, nt_infl = reference_fit(data, basis, design, "never_taker", chat_policy, False)
    total_z = data.z.sum()
    rate = data.d.sum() / total_z
    rate_infl = [float((g.z * (g.d - rate)).sum()) / total_z for g in data.groups]
    h = np.column_stack([nt_infl, pop_infl, rate_infl])
    k = len(pop)
    jac = np.hstack([(1.0 - 1.0 / rate) * np.eye(k), np.eye(k) / rate,
                     -((pop - nt) / rate**2)[:, None]])
    return nt + (pop - nt) / rate, jac @ (h.T @ h) @ jac.T


def per_row_dbar(data):
    return np.concatenate(
        [(g.d.sum() - g.d.astype(float)) / (g.n - 1) for g in data.groups]
    )


def reference_naive(data):
    """Naive IV of y on (1, D, Dbar, D*Dbar) with instruments (1, Z, S, ZS), row by row."""
    d, z, s, y = data.d, data.z, data.saturation, data.y
    dbar = per_row_dbar(data)
    one = np.ones_like(y)
    x = np.column_stack([one, d, dbar, d * dbar])
    zmat = np.column_stack([one, z, s, z * s])
    a = zmat.T @ x
    coef = np.linalg.solve(a, zmat.T @ y)
    return coef, _sandwich(a, zmat * (y - x @ coef)[:, None], data.group_index)


def reference_ior(data):
    """Cluster-robust Wald test of saturation dummies for D on the offered rows."""
    offered = data.z == 1.0
    d, sat = data.d[offered], data.saturation[offered]
    gidx = np.unique(data.group_index[offered], return_inverse=True)[1].ravel()
    sats = np.unique(sat)
    x = np.column_stack([np.ones_like(d)] + [(sat == s).astype(float) for s in sats[1:]])
    coef = np.linalg.solve(x.T @ x, x.T @ d)
    n_clusters, (n_obs, n_par) = gidx.max() + 1, x.shape
    vcov = _sandwich(x.T @ x, x * (d - x @ coef)[:, None], gidx)
    vcov *= (n_clusters / (n_clusters - 1)) * ((n_obs - 1) / (n_obs - n_par))
    b = coef[1:]
    wald = b @ np.linalg.solve(vcov[1:, 1:], b)
    df = len(sats) - 1
    rates = [d[sat == s].mean() for s in sats]
    counts = [int((sat == s).sum()) for s in sats]
    return wald, f_dist.sf(wald / df, df, n_clusters - 1), rates, counts, n_clusters


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
        coef, vcov, n_def, _ = reference_fit(data, linear_basis(), design, target,
                                             chat_policy, gmm)
        assert_close(res[target].coefficients, coef)
        assert_close(res[target].vcov, vcov)
        assert res[target].diagnostics.n_pseudo_inverted == n_def
        single = rsiv_estimate(data, linear_basis(), design, target,
                               pure_control=pure_control, chat_policy=chat_policy)
        assert np.array_equal(single.coefficients, res[target].coefficients)
        assert np.array_equal(single.vcov, res[target].vcov)
    coef, vcov = reference_complier_theta(data, design, chat_policy, pure_control)
    assert_close(res[TARGET_COMPLIER_THETA].coefficients, coef)
    assert_close(res[TARGET_COMPLIER_THETA].vcov, vcov)


@pytest.mark.parametrize("chat_policy", ["estimate", "oracle"])
@pytest.mark.parametrize("target", [TARGET_JOINT, TARGET_POPULATION])
def test_rsiv_pure_control_matches_per_row_reference(target, chat_policy):
    data = random_data(WITH_ZERO, seed=2718)
    res = rsiv_pure_control(data, linear_basis(), WITH_ZERO, target, chat_policy=chat_policy)
    coef, vcov, n_def, _ = reference_fit(data, linear_basis(), WITH_ZERO, target,
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


@pytest.mark.parametrize("design", [INTERIOR, WITH_ZERO], ids=["interior", "zero"])
def test_naive_iv_matches_per_row_reference(design):
    data = random_data(design, seed=577)
    res = naive_iv(data)
    coef, vcov = reference_naive(data)
    assert_close(res.coefficients, coef)
    assert_close(res.vcov, vcov)
    assert (res.G_used, res.N_used) == (data.n_groups, data.n_individuals)


@pytest.mark.parametrize("design", [INTERIOR, WITH_ZERO], ids=["interior", "zero"])
def test_ior_test_matches_per_row_reference(design):
    data = random_data(design, seed=1414)
    res = ior_test(data)
    wald, p, rates, counts, n_clusters = reference_ior(data)
    assert_close(res.wald, wald)
    assert_close(res.p_value, p)
    assert res.take_up_rates == tuple(rates)
    assert res.offered_counts == tuple(counts)
    assert res.n_clusters == n_clusters


def corner_sample(seed: int, n_groups: int, first_offer: int, design) -> ExperimentData:
    """Mixed-n groups (2..9 members) plus a Chat=0 and a full take-up group."""
    rng = np.random.default_rng(seed)
    sats = list(design.saturations)
    positive = [s for s in sats if s > 0.0]
    groups = []
    for gid in range(n_groups):
        n = int(rng.integers(2, 10))
        s = float(sats[gid % len(sats)])
        z = (rng.random(n) < s).astype(np.int8)
        c = (rng.random(n) < 0.6).astype(np.int8)
        groups.append(GroupData(gid, s, z, c * z, rng.standard_normal(n), complier=c))
    n = int(rng.integers(2, 10))
    # at most one offered member: its Chat, or every Chat if none, falls back to 0
    z = np.zeros(n, dtype=np.int8)
    z[0] = first_offer
    c = (rng.random(n) < 0.5).astype(np.int8)
    groups.append(GroupData(len(groups), positive[0], z, c * z, rng.standard_normal(n),
                            complier=c))
    # everyone offered takes up: Chat = 1
    n = int(rng.integers(2, 10))
    ones = np.ones(n, dtype=np.int8)
    groups.append(GroupData(len(groups), positive[-1], ones, ones, rng.standard_normal(n),
                            complier=ones))
    return ExperimentData(groups)


@st.composite
def corner_data(draw, design):
    """``corner_sample`` on a drawn seed, group count and offer flag."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_groups = draw(st.integers(10, 16))
    return corner_sample(seed, n_groups, draw(st.integers(0, 1)), design)


def _fits(data, design, pure_control, chat_policy):
    try:
        res = estimate_all(data, linear_basis(), design, pure_control=pure_control,
                           chat_policy=chat_policy)
    except SingularSystemError:
        assume(False)
    # the per-row reference carries rounding that grows with the condition number
    assume(all(r.diagnostics.cond_a < 1e5 for r in res.values()))
    return res


@pytest.mark.parametrize("chat_policy", ["estimate", "oracle"])
@pytest.mark.parametrize("design,pure_control", CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cells_match_per_row_reference_property(design, pure_control, chat_policy, data):
    sample = data.draw(corner_data(design))
    res = _fits(sample, design, pure_control, chat_policy)
    for target in RS_TARGETS:
        gmm = pure_control == "gmm" and target in (TARGET_JOINT, TARGET_POPULATION)
        coef, vcov, n_def, _ = reference_fit(sample, linear_basis(), design, target,
                                             chat_policy, gmm)
        assert_close(res[target].coefficients, coef)
        assert_close(res[target].vcov, vcov)
        assert res[target].diagnostics.n_pseudo_inverted == n_def
    coef, vcov = reference_naive(sample)
    assert_close(res["naive_iv"].coefficients, coef)
    assert_close(res["naive_iv"].vcov, vcov)
    coef, vcov = reference_complier_theta(sample, design, chat_policy, pure_control)
    assert_close(res[TARGET_COMPLIER_THETA].coefficients, coef)
    assert_close(res[TARGET_COMPLIER_THETA].vcov, vcov)

    perm = data.draw(st.permutations(range(sample.n_groups)))
    reordered = ExperimentData([sample.groups[i] for i in perm])
    relabelled = ExperimentData(
        [replace(g, group_id=1000 - 7 * k) for k, g in enumerate(sample.groups)]
    )
    for other in (relabelled, reordered):
        got = estimate_all(other, linear_basis(), design, pure_control=pure_control,
                           chat_policy=chat_policy)
        for target in RS_TARGETS + (TARGET_COMPLIER_THETA, "naive_iv"):
            assert_close(got[target].coefficients, res[target].coefficients)
            assert_close(got[target].vcov, res[target].vcov)
            assert got[target].diagnostics.n_pseudo_inverted == (
                res[target].diagnostics.n_pseudo_inverted
            )


def _row_fit_iv(cells, x, inst, y):
    """The just-identified fit with every operand a per-row array (x, inst and y
    in the order of ``cells.y``): the byte reference for the per-cell products."""
    a = inst.T @ x
    coef = np.linalg.solve(a, inst.T @ y)
    u = y - x @ coef
    scores = np.add.reduceat(inst * u[:, None], cells.row_starts, axis=0)
    ainv = np.linalg.inv(a)
    vcov = ainv @ (scores.T @ scores) @ ainv.T
    return coef, (vcov + vcov.T) / 2.0


def _row_solve_2sls(cells, x, zmat, y):
    """2SLS with per-row operands: Xhat is a row array."""
    xhat = zmat @ np.linalg.solve(zmat.T @ zmat, zmat.T @ x)
    return _row_fit_iv(cells, x, xhat, y)


def row_product_fits(data, design, pure_control, chat_policy):
    """Coefficients and vcov of every RS target and naive IV from per-row products."""
    basis = linear_basis()
    cells = estimator._cells(data, chat_policy)
    plan = estimator._InstrumentPlan(cells, basis, design, chat_policy)
    gmm = design.has_pure_control and pure_control == "gmm" and data.has_pure_control_groups
    kept = cells.take(plan.mask) if design.has_pure_control else cells
    fits = {}
    for target in RS_TARGETS:
        if gmm and target in (TARGET_JOINT, TARGET_POPULATION):
            x, w = estimator._target_arrays(cells, basis, target)
            zmat = np.zeros((len(cells.count), x.shape[1] + 1))
            zmat[plan.mask, :-1] = plan.zhat(target, w[plan.mask])
            zmat[~plan.mask, -1] = 1.0
            y = cells.y
            if target == TARGET_POPULATION:
                x = (1.0 - cells.z)[:, None] * x
                y = cells.rows(1.0 - cells.z) * y
            fits[target] = _row_solve_2sls(cells, cells.rows(x), cells.rows(zmat), y)
        else:
            x, w = estimator._target_arrays(kept, basis, target)
            zhat = plan.zhat(target, w)
            fits[target] = _row_fit_iv(kept, kept.rows(x), kept.rows(zhat), kept.y)
    cells = data.cells
    one = np.ones_like(cells.z)
    x = np.column_stack([one, cells.d, cells.dbar, cells.d * cells.dbar])
    zmat = np.column_stack([one, cells.z, cells.saturation, cells.z * cells.saturation])
    fits["naive_iv"] = _row_fit_iv(cells, cells.rows(x), cells.rows(zmat), cells.y)
    return fits


@pytest.mark.parametrize("chat_policy", ["estimate", "oracle"])
@pytest.mark.parametrize("design,pure_control", CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cell_products_match_row_products_bytes(design, pure_control, chat_policy, data):
    # Xbeta and the 2SLS Xhat are constant within a cell, so taking them per
    # cell must give the bytes of the per-row products
    sample = data.draw(corner_data(design))
    try:
        res = estimate_all(sample, linear_basis(), design, pure_control=pure_control,
                           chat_policy=chat_policy)
    except SingularSystemError:
        assume(False)
    for target, (coef, vcov) in row_product_fits(sample, design, pure_control,
                                                 chat_policy).items():
        assert np.array_equal(res[target].coefficients, coef), target
        assert np.array_equal(res[target].vcov, vcov), target
