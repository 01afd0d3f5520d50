import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import f as f_dist

import sativ
from sativ.design import SaturationDesign
from sativ.data import _canonical_order
from sativ.dgp import (
    ExperimentData,
    GroupData,
    SimConfig,
    oracle_subpopulation_means,
    simulate_experiment,
)
from sativ.errors import SingularSystemError, ValidationError
from sativ.estimator import (
    TARGET_COMPLIER_PSI,
    TARGET_COMPLIER_THETA,
    TARGET_JOINT,
    TARGET_NEVER_TAKER,
    TARGET_POPULATION,
    EstimateResult,
    _f_sf,
    build_instruments,
    compliance_rate,
    estimate_all,
    estimate_chat,
    ior_test,
    naive_iv,
    rsiv_estimate,
    rsiv_pure_control,
)
from sativ.io import ingest_csv
from sativ.model import linear_basis
from sativ.streams import replication_seed, substream
from test_instrument_reference import corner_sample

LIN = linear_basis()
INTERIOR = SaturationDesign.from_probs((0.25, 0.5, 0.75), (1 / 3, 1 / 3, 1 / 3))
WITH_ZERO = SaturationDesign.from_probs((0.0, 0.25, 0.5, 0.75), (0.25,) * 4)
TRUTH = (0.5, 0.2, -0.7, 0.8)


def noiseless_config(design=INTERIOR, G=50, n=20, seed=7) -> SimConfig:
    return SimConfig(G=G, n=n, design=design, means=TRUTH, seed=seed)


def noisy_sec6_config(G=235, n=116, seed=42, design=None) -> SimConfig:
    if design is None:
        counts = (G // 5,) * 5
        design = SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), counts)
    return SimConfig(
        G=G,
        n=n,
        design=design,
        means=TRUTH,
        kappa=(0.0, 0.0, 1.2, 1.5),
        sigma=(0.3, 0.3, 0.2, 0.4),
        seed=seed,
    )


class TestEstimateChat:
    def test_basic_ratio(self):
        # neighbors: 4 offered of whom 2 took up
        z = np.array([0, 1, 1, 1, 1, 0])
        d = np.array([0, 1, 1, 0, 0, 0])
        chat = estimate_chat(z, d)
        assert chat[0] == pytest.approx(0.5)

    def test_no_offered_neighbors(self):
        z = np.zeros(5)
        d = np.zeros(5)
        assert np.all(estimate_chat(z, d) == 0.0)

    def test_full_take_up(self):
        z = np.ones(6)
        d = np.ones(6)
        assert np.all(estimate_chat(z, d) == 1.0)

    def test_leave_one_out(self):
        z = np.array([1, 1])
        d = np.array([1, 0])
        chat = estimate_chat(z, d)
        assert chat[0] == pytest.approx(0.0)  # the other member did not take up
        assert chat[1] == pytest.approx(1.0)


class TestBuildInstruments:
    def setup_method(self):
        self.data = simulate_experiment(noiseless_config(seed=3))

    def test_unoffered_rows_inert_for_complier_psi(self):
        inst = build_instruments(self.data, LIN, INTERIOR, TARGET_COMPLIER_PSI)
        unoffered = self.data.z == 0
        assert np.all(inst.w[unoffered] == 0.0)
        assert np.all(inst.zhat[unoffered] == 0.0)

    def test_takers_inert_for_never_taker(self):
        inst = build_instruments(self.data, LIN, INTERIOR, TARGET_NEVER_TAKER)
        takers = self.data.d == 1
        assert np.all(inst.w[takers] == 0.0)

    def test_chat_zero_triggers_pseudo_inverse(self):
        # one group where no neighbor took up: R(0, n) is rank deficient
        groups = [
            GroupData(0, 0.5, np.array([1, 1, 0, 0]), np.zeros(4, dtype=np.int8), np.ones(4)),
            GroupData(1, 0.5, np.array([1, 0, 1, 1]), np.array([1, 0, 1, 0]), np.ones(4)),
        ]
        data = ExperimentData(groups)
        dsn = SaturationDesign.from_probs((0.5,), (1.0,))
        inst = build_instruments(data, LIN, dsn, TARGET_POPULATION)
        assert inst.n_pseudo_inverted >= 4  # the whole chat=0 group
        assert inst.min_abs_det_r < 1e-12

    def test_rejects_no_interior_design(self):
        dsn = SaturationDesign.from_probs((0.0, 1.0), (0.5, 0.5))
        cfg = noiseless_config()
        with pytest.raises(ValidationError):
            build_instruments(self.data, LIN, dsn, TARGET_JOINT)


@pytest.fixture(scope="module")
def noiseless_data():
    return simulate_experiment(noiseless_config())


class TestExactRecovery:
    """Zero-residual data solves every target exactly."""

    @pytest.fixture
    def data(self, noiseless_data):
        return noiseless_data

    def test_all_targets(self, data):
        res = estimate_all(data, LIN, INTERIOR)
        a, b, g, dl = TRUTH
        assert np.allclose(res[TARGET_JOINT].coefficients, [a, g, b, dl], atol=1e-8)
        assert np.allclose(res[TARGET_COMPLIER_PSI].coefficients, [a + b, g + dl], atol=1e-8)
        assert np.allclose(res[TARGET_NEVER_TAKER].coefficients, [a, g], atol=1e-8)
        assert np.allclose(res[TARGET_POPULATION].coefficients, [a, g], atol=1e-8)
        assert np.allclose(res[TARGET_COMPLIER_THETA].coefficients, [a, g], atol=1e-8)
        assert np.allclose(res["naive_iv"].coefficients, [a, b, g, dl], atol=1e-8)

    def test_vcov_properties(self, data):
        res = estimate_all(data, LIN, INTERIOR)
        for r in res.values():
            assert np.abs(r.vcov - r.vcov.T).max() < 1e-10
            assert np.linalg.eigvalsh(r.vcov)[0] > -1e-10

    def test_coefficient_lengths(self, data):
        res = estimate_all(data, LIN, INTERIOR)
        assert len(res[TARGET_JOINT].coefficients) == 4
        assert len(res[TARGET_COMPLIER_PSI].coefficients) == 2
        assert len(res[TARGET_NEVER_TAKER].coefficients) == 2
        assert len(res[TARGET_POPULATION].coefficients) == 2
        assert len(res[TARGET_COMPLIER_THETA].coefficients) == 2
        assert len(res["naive_iv"].coefficients) == 4

    def test_full_compliance(self):
        cfg = noiseless_config(seed=11)
        cfg = SimConfig(
            G=cfg.G, n=cfg.n, design=cfg.design, means=TRUTH,
            complier_shares=(1.0,), seed=11,
        )
        data = simulate_experiment(cfg)
        a, b, g, dl = TRUTH
        psi = rsiv_estimate(data, LIN, INTERIOR, TARGET_COMPLIER_PSI)
        pop = rsiv_estimate(data, LIN, INTERIOR, TARGET_POPULATION)
        assert np.allclose(psi.coefficients, [a + b, g + dl], atol=1e-8)
        assert np.allclose(pop.coefficients, [a, g], atol=1e-8)
        with pytest.raises(ValidationError):
            rsiv_estimate(data, LIN, INTERIOR, TARGET_COMPLIER_THETA)  # full compliance degenerate

    def test_quadratic_basis_recovers_linear_truth(self):
        # a linear outcome is expressible in the quadratic basis with zero
        # curvature; all targets recover it exactly on noiseless data
        from sativ.model import quadratic_basis

        dsn = SaturationDesign.from_probs((0.2, 0.4, 0.6, 0.8), (0.25,) * 4)
        cfg = SimConfig(
            G=80, n=25, design=dsn, means=TRUTH, complier_shares=(0.2, 0.4), seed=123
        )
        data = simulate_experiment(cfg)
        res = estimate_all(data, quadratic_basis(), dsn, include_naive=False)
        a, b, g, dl = TRUTH
        assert np.allclose(res[TARGET_JOINT].coefficients, [a, g, 0, b, dl, 0], atol=1e-7)
        assert np.allclose(res[TARGET_POPULATION].coefficients, [a, g, 0], atol=1e-7)
        assert np.allclose(res[TARGET_COMPLIER_PSI].coefficients, [a + b, g + dl, 0], atol=1e-7)

    def test_pure_control_variants(self):
        data = simulate_experiment(noiseless_config(design=WITH_ZERO, seed=5))
        a, b, g, dl = TRUTH
        gmm = rsiv_pure_control(data, LIN, WITH_ZERO, TARGET_JOINT)
        drop = rsiv_estimate(data, LIN, WITH_ZERO, TARGET_JOINT, pure_control="drop")
        assert np.allclose(gmm.coefficients, [a, g, b, dl], atol=1e-8)
        assert np.allclose(drop.coefficients, [a, g, b, dl], atol=1e-8)
        pop = rsiv_pure_control(data, LIN, WITH_ZERO, TARGET_POPULATION)
        assert np.allclose(pop.coefficients, [a, g], atol=1e-8)


class TestPureControlDiagnostics:
    def test_gmm_without_pure_control_groups_reports_drop(self):
        # the design has a 0% saturation but the data hold no such group
        data = simulate_experiment(noiseless_config(seed=3))
        res = estimate_all(data, LIN, WITH_ZERO, pure_control="gmm")
        for target in (TARGET_JOINT, TARGET_POPULATION, TARGET_COMPLIER_PSI,
                       TARGET_NEVER_TAKER, TARGET_COMPLIER_THETA):
            assert res[target].diagnostics.pure_control == "drop"
        assert res["naive_iv"].diagnostics.pure_control is None

    def test_policy_per_target(self):
        data = simulate_experiment(noiseless_config(design=WITH_ZERO, seed=5))
        res = estimate_all(data, LIN, WITH_ZERO, pure_control="gmm", include_naive=False)
        policies = {t: r.diagnostics.pure_control for t, r in res.items()}
        assert policies == {
            TARGET_JOINT: "gmm", TARGET_POPULATION: "gmm", TARGET_COMPLIER_PSI: "drop",
            TARGET_NEVER_TAKER: "drop", TARGET_COMPLIER_THETA: "gmm",
        }
        drop = estimate_all(data, LIN, WITH_ZERO, pure_control="drop", include_naive=False)
        assert {r.diagnostics.pure_control for r in drop.values()} == {"drop"}
        interior = estimate_all(simulate_experiment(noiseless_config(seed=3)), LIN, INTERIOR)
        assert {r.diagnostics.pure_control for r in interior.values()} == {None}


class TestIdentifyingGroups:
    def test_groups_with_nonzero_instruments_on_sec6_data(self):
        cfg = noisy_sec6_config(seed=3)
        data = simulate_experiment(cfg)
        res = estimate_all(data, LIN, cfg.design, pure_control="drop")
        positive = data.group_saturation > 0.0
        unoffered = np.array([np.any(g.z == 0) for g in data.groups])
        offered_never_taker = np.array([np.any((g.z == 1) & (g.d == 0)) for g in data.groups])
        diag = {t: r.diagnostics.n_groups_identifying for t, r in res.items()}
        assert diag[TARGET_JOINT] == positive.sum()
        assert diag[TARGET_POPULATION] == (positive & unoffered).sum()
        assert diag[TARGET_NEVER_TAKER] == (positive & offered_never_taker).sum()
        assert diag[TARGET_COMPLIER_THETA] == min(diag[TARGET_POPULATION], diag[TARGET_NEVER_TAKER])
        assert diag["naive_iv"] == data.n_groups

    def test_fit_on_too_few_groups_is_flagged(self):
        # offered never-takers in two groups: the two-coefficient fit leaves
        # every group score at zero, and the clustered vcov is rounding noise
        sample = corner_sample(24, 10, 0, WITH_ZERO)
        res = estimate_all(sample, LIN, WITH_ZERO, pure_control="drop")
        never_taker = res[TARGET_NEVER_TAKER]
        assert never_taker.diagnostics.n_groups_identifying == 2
        assert np.abs(never_taker.vcov).max() < 1e-24
        assert res[TARGET_JOINT].diagnostics.n_groups_identifying > 4


class TestComplierTheta:
    def test_identity_on_estimates(self):
        # theta_c = theta_n + (theta - theta_n) / E[C], bit for bit
        cfg = noisy_sec6_config(seed=13)
        data = simulate_experiment(cfg)
        res = estimate_all(data, LIN, cfg.design, include_naive=False)
        pop = res[TARGET_POPULATION].coefficients
        nt = res[TARGET_NEVER_TAKER].coefficients
        expect = nt + (pop - nt) / compliance_rate(data)
        assert np.array_equal(res[TARGET_COMPLIER_THETA].coefficients, expect)

    def test_zero_take_up_rejected(self):
        # E[C] = 0: no complier, so no complier mean (full take-up: test_full_compliance)
        groups = [
            GroupData(g.group_id, g.saturation, g.z, np.zeros_like(g.d), g.y)
            for g in simulate_experiment(noiseless_config(seed=11)).groups
        ]
        with pytest.raises(ValidationError, match="degenerate"):
            rsiv_estimate(ExperimentData(groups), LIN, INTERIOR, TARGET_COMPLIER_THETA)


class TestLargeSampleAgreement:
    def test_joint_slopes_near_oracle_truth(self):
        cfg = noisy_sec6_config(G=2000, seed=100)
        data = simulate_experiment(cfg)
        res = rsiv_estimate(data, LIN, cfg.design, TARGET_JOINT)
        means = oracle_subpopulation_means(replace(cfg, seed=1000), n_draws=10**6)
        truth = [
            means["population"].theta_mean[0],
            means["population"].theta_mean[1],
            means["complier"].contrast_mean[0],
            means["complier"].contrast_mean[1],
        ]
        for est, se, tr in zip(res.coefficients, res.se, truth):
            assert abs(est - tr) < 3 * se

    def test_moment_normalization_with_known_cbar(self):
        # with the true Cbar, the average Zhat X' equals its population value:
        # the identity for the population target, and a block-diagonal with
        # E[C] scaling the contrast block for the joint target.  Rows within a
        # group share neighbor sums, so sampling error is assessed at the
        # cluster level (near-singular Q amplifies it far beyond 1/sqrt(N)).
        cfg = noisy_sec6_config(G=500, n=200, seed=55, design=INTERIOR)
        data = simulate_experiment(cfg)
        ec = 0.3
        cases = [
            (TARGET_POPULATION, np.eye(2)),
            (TARGET_JOINT, np.block(
                [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), ec * np.eye(2)]]
            )),
        ]
        for target, expected in cases:
            inst = build_instruments(data, LIN, INTERIOR, target, chat_policy="oracle")
            prods = np.einsum("ni,nj->nij", inst.zhat, inst.x)
            gmeans = np.zeros((data.n_groups,) + prods.shape[1:])
            np.add.at(gmeans, data.group_index, prods)
            gmeans /= data.sizes[:, None, None]
            mean = gmeans.mean(axis=0)
            se = gmeans.std(axis=0, ddof=1) / np.sqrt(data.n_groups)
            z = np.abs(mean - expected) / np.maximum(se, 1e-10)
            assert z.max() < 5.0

    def test_feasible_tracks_infeasible(self):
        # substituting the true Cbar changes estimates by O(sqrt(log G / n))
        dsn = SaturationDesign.from_counts((0.25, 0.5, 0.75, 1.0), (59, 59, 59, 58))
        close = 0
        reps = 10
        for r in range(reps):
            cfg = SimConfig(
                G=235, n=1000, design=dsn, means=TRUTH,
                kappa=(0.0, 0.0, 1.2, 1.5), sigma=(0.3, 0.3, 0.2, 0.4),
                seed=replication_seed(17, r),
            )
            data = simulate_experiment(cfg)
            feas = rsiv_estimate(data, LIN, dsn, TARGET_JOINT)
            infeas = rsiv_estimate(data, LIN, dsn, TARGET_JOINT, chat_policy="oracle")
            if np.abs(feas.coefficients - infeas.coefficients).max() < 0.05:
                close += 1
        assert close >= 0.9 * reps


class TestNaiveIV:
    def test_recovers_homogeneous_truth(self):
        data = simulate_experiment(noiseless_config(seed=21))
        res = naive_iv(data)
        assert np.allclose(res.coefficients, TRUTH, atol=1e-8)

    def test_spillover_bias_direction(self):
        # positive kappa_gamma drags the naive gamma toward zero
        cfg = noisy_sec6_config(G=1000, seed=31)
        data = simulate_experiment(cfg)
        res = naive_iv(data)
        assert res.coefficients[2] > -0.68


def mixed_size_data(G: int = 2350, seed: int = 8) -> tuple[ExperimentData, SaturationDesign]:
    """The Sec. 6 design at G groups with sizes spread over 20..212, as in the
    pipeline benchmark."""
    from sativ.dgp import simulate_group

    base = noisy_sec6_config(G=G, seed=seed)
    rng = np.random.default_rng(seed)
    sizes = rng.integers(20, 213, base.G)
    sats = rng.permutation(np.repeat(base.design.saturations, base.design.counts))
    configs = {n: replace(base, n=n) for n in set(sizes.tolist())}
    groups = [
        simulate_group(configs[n], g, s) for g, (n, s) in enumerate(zip(sizes.tolist(), sats))
    ]
    return ExperimentData(groups, check=False), base.design


def _cell_weighted_ior_reference(data: ExperimentData) -> tuple[float, float]:
    """The IOR Wald statistic and p value as ``ior_test`` once formed them itself:
    a count-weighted OLS of D on the bin dummies over the offered cells, group
    scores summed from cells, and the CR0 sandwich scaled by G/(G-1)·(N-1)/(N-K)."""
    cells = data.cells.take(data.cells.z == 1.0)
    sat, d, count = cells.saturation, cells.d, cells.count
    sats = np.unique(sat)
    x = np.column_stack([np.ones_like(d)] + [(sat == s).astype(float) for s in sats[1:]])
    weighted = count[:, None] * x
    xtx = x.T @ weighted
    coef = np.linalg.solve(xtx, weighted.T @ d)
    scores = np.add.reduceat(weighted * (d - x @ coef)[:, None], cells.starts, axis=0)
    G, N, K = cells.n_groups, int(count.sum()), x.shape[1]
    ainv = np.linalg.inv(xtx)
    vcov = ainv @ (scores.T @ scores) @ ainv.T
    vcov = (G / (G - 1)) * ((N - 1) / (N - K)) * ((vcov + vcov.T) / 2.0)
    b = coef[1:]
    wald = float(b @ np.linalg.solve(vcov[1:, 1:], b))
    df = len(sats) - 1
    return wald, _f_sf(wald / df, df, G - 1)


class TestIORTest:
    def test_null_distribution_basic(self):
        data = simulate_experiment(noisy_sec6_config(seed=61))
        res = ior_test(data)
        assert res.df == 3  # offers occur at 0.25, 0.5, 0.75, 1.0
        assert 0.0 <= res.p_value <= 1.0
        assert all(0.0 <= r <= 1.0 for r in res.take_up_rates)

    def test_single_bin_rejected(self):
        dsn = SaturationDesign.from_probs((0.5,), (1.0,))
        data = simulate_experiment(noiseless_config(design=dsn, seed=71))
        with pytest.raises(ValidationError):
            ior_test(data)

    def test_matches_reference_cluster_ols(self):
        sm = pytest.importorskip("statsmodels.api")

        dsn = SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (10,) * 5)
        cfg = noisy_sec6_config(G=50, n=30, seed=31, design=dsn)
        data = simulate_experiment(cfg)
        res = ior_test(data)

        offered = data.z == 1.0
        sats = np.unique(data.saturation[offered])
        d = data.d[offered]
        sat = data.saturation[offered]
        x = np.column_stack(
            [np.ones_like(d)] + [(sat == s).astype(float) for s in sats[1:]]
        )
        fit = sm.OLS(d, x).fit(
            cov_type="cluster", cov_kwds={"groups": data.group_index[offered]}
        )
        restriction = np.hstack([np.zeros((len(sats) - 1, 1)), np.eye(len(sats) - 1)])
        ftest = fit.f_test(restriction)
        assert res.wald == pytest.approx(float(ftest.fvalue) * res.df, rel=1e-8)
        assert res.p_value == pytest.approx(float(ftest.pvalue), rel=1e-6)

    def test_matches_numpy_reference(self):
        # unweighted OLS of d on the bin dummies over the offered rows, with a
        # CR1-style clustered covariance: G/(G-1) * (N-1)/(N-K)
        dsn = SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (10,) * 5)
        data = simulate_experiment(noisy_sec6_config(G=50, n=30, seed=31, design=dsn))
        res = ior_test(data)

        offered = data.z == 1.0
        d = data.d[offered]
        sat = data.saturation[offered]
        group = data.group_index[offered]
        sats = np.unique(sat)
        x = np.column_stack([np.ones_like(d)] + [(sat == s).astype(float) for s in sats[1:]])
        coef = np.linalg.lstsq(x, d, rcond=None)[0]
        u = d - x @ coef
        clusters = np.unique(group)
        scores = np.array([(x[group == g] * u[group == g, None]).sum(axis=0) for g in clusters])
        G, (N, K) = len(clusters), x.shape
        bread = np.linalg.inv(x.T @ x)
        vcov = G / (G - 1) * (N - 1) / (N - K) * bread @ scores.T @ scores @ bread
        b = coef[1:]
        wald = float(b @ np.linalg.inv(vcov[1:, 1:]) @ b)
        df = len(sats) - 1

        assert (res.df, res.n_clusters) == (df, G)
        assert res.wald == pytest.approx(wald, rel=1e-12, abs=0)
        assert res.p_value == _f_sf(res.wald / df, df, G - 1)
        assert res.p_value == pytest.approx(_f_sf(wald / df, df, G - 1), rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["sec6-0", "sec6-1", "sec6-2", "sec6-3", "sec6-4", "mixed-n"])
    def test_matches_cell_weighted_reference(self, case):
        # the fit through _fit_iv's row sums agrees with the cell-weighted
        # OLS it replaced to rounding
        if case == "mixed-n":
            data = mixed_size_data(G=470, seed=9)[0]
        else:
            data = simulate_experiment(noisy_sec6_config(seed=int(case[-1])))
        res = ior_test(data)
        wald, p = _cell_weighted_ior_reference(data)
        assert res.wald == pytest.approx(wald, rel=1e-12, abs=0)
        assert res.p_value == pytest.approx(p, rel=1e-12, abs=0)

    @pytest.mark.parametrize("take_up", [0, 1])
    def test_degenerate_take_up_is_singular(self, take_up):
        # take-up 0 or 1 in every offered cell: every residual is (nearly)
        # zero, and so is the dummies' covariance
        rng = substream(91)
        groups = []
        for gid in range(12):
            s = (0.25, 0.5, 0.75)[gid % 3]
            z = (np.arange(8) < 8 * s).astype(np.int8)
            groups.append(GroupData(gid, s, z, take_up * z, rng.standard_normal(8)))
        with pytest.raises(SingularSystemError, match="IOR covariance"):
            ior_test(ExperimentData(groups))

    def test_checks_in_order(self):
        zero, offers = np.zeros(4, np.int8), np.array([1, 0, 1, 0], np.int8)
        groups = [GroupData(0, 0.0, zero, zero, np.zeros(4))]
        with pytest.raises(ValidationError, match="^no offered individuals"):
            ior_test(ExperimentData(groups))
        groups.append(GroupData(1, 0.5, offers, zero, np.zeros(4)))
        with pytest.raises(ValidationError, match="^IOR test needs at least two saturation bins"):
            ior_test(ExperimentData(groups))

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_p_value_is_f_survival(self, seed):
        res = ior_test(simulate_experiment(noisy_sec6_config(seed=seed)))
        expect = f_dist.sf(res.wald / res.df, res.df, res.n_clusters - 1)
        assert res.p_value == pytest.approx(expect, rel=1e-13)

    def test_negative_wald_gives_p_one(self):
        # vb is PSD in exact arithmetic, but a numerically indefinite one can
        # make the Wald statistic negative
        assert _f_sf(-0.3, 4, 49) == 1.0
        assert _f_sf(-0.0, 4, 49) == 1.0
        for x in (0.0, 0.7, 3.5, np.inf):
            assert _f_sf(x, 4, 49) == pytest.approx(f_dist.sf(x, 4, 49), rel=1e-13)

    def test_f_survival_edge_values(self):
        assert _f_sf(0.0, 3, 234) == 1.0
        assert _f_sf(5e-324, 3, 234) == 1.0
        assert _f_sf(np.inf, 3, 234) == 0.0
        assert _f_sf(1e308, 3, 234) == 0.0
        assert np.isnan(_f_sf(np.nan, 3, 234))

    def test_f_survival_matches_scipy_on_a_grid(self):
        xs = np.geomspace(1e-6, 1e4, 201)
        worst = 0.0
        for df1 in range(1, 12):
            for df2 in (1, 2, 3, 5, 10, 49, 187, 1879, 23499, 10**5):
                expect = f_dist.sf(xs, df1, df2)
                for x, e in zip(xs[expect > 1e-300], expect[expect > 1e-300]):
                    worst = max(worst, abs(_f_sf(float(x), df1, df2) - e) / e)
        assert worst <= 1e-11

    def test_f_survival_closed_forms(self):
        # df1 = 2: (1 + 2x/df2)^(-df2/2); df2 = 2: 1 - (df1 x/(2 + df1 x))^(df1/2).
        # Both are taken through log1p and expm1, and checked where the survival
        # probability is above 1e-12: deeper in the tail, evaluating exp(L) of a
        # large |L| loses |L| ulps in any implementation, the reference's too.
        xs = np.geomspace(1e-6, 1e4, 201)
        pairs = [((2, df2), np.exp(-df2 / 2 * np.log1p(2 * xs / df2)))
                 for df2 in (1, 2, 3, 5, 10, 49, 187, 1879, 23499, 10**5)]
        pairs += [((df1, 2), -np.expm1(-df1 / 2 * np.log1p(2 / (df1 * xs))))
                  for df1 in range(1, 12)]
        for (df1, df2), expect in pairs:
            for x, e in zip(xs[expect > 1e-12], expect[expect > 1e-12]):
                assert _f_sf(float(x), df1, df2) == pytest.approx(e, rel=1e-14, abs=0)

    def test_import_leaves_scipy_stats_out(self):
        code = (
            "import sys, sativ, sativ.cli; "
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
        )
        src = str(Path(sativ.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"

    def test_power_against_saturation_dependent_take_up(self):
        # violation fixture: take-up probability c * (0.5 + 0.5 s)
        rng = substream(81)
        groups = []
        n = 60
        for gid in range(200):
            s = [0.25, 0.5, 0.75, 1.0][gid % 4]
            z = (rng.random(n) < s).astype(np.int8)
            take_prob = 0.3 * (0.5 + 0.5 * s)
            d = (z * (rng.random(n) < take_prob)).astype(np.int8)
            groups.append(GroupData(gid, s, z, d, rng.standard_normal(n)))
        res = ior_test(ExperimentData(groups))
        assert res.p_value < 0.01


class TestBitStability:
    def test_within_group_permutation_leaves_estimates_unchanged(self):
        data = simulate_experiment(noisy_sec6_config(G=40, n=30, seed=91,
                                                     design=INTERIOR))
        rng = substream(92)
        shuffled = []
        for g in data.groups:
            perm = rng.permutation(g.n)
            shuffled.append(
                GroupData(g.group_id, g.saturation, g.z[perm], g.d[perm], g.y[perm])
            )
        data2 = ExperimentData(shuffled)
        for target in (TARGET_JOINT, TARGET_POPULATION):
            r1 = rsiv_estimate(data, LIN, INTERIOR, target)
            r2 = rsiv_estimate(data2, LIN, INTERIOR, target)
            assert np.array_equal(r1.coefficients, r2.coefficients)
            assert np.array_equal(r1.vcov, r2.vcov)
        n1 = naive_iv(data)
        n2 = naive_iv(data2)
        assert np.array_equal(n1.coefficients, n2.coefficients)
        assert ior_test(data) == ior_test(data2)


# Tie-heavy y: few distinct values, both signed zeros.
_TIED_Y = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


@st.composite
def _tied_groups(draw) -> list[GroupData]:
    """Groups of mixed size whose rows tie often on (z, d, y) but not on C."""
    groups = []
    for gid in range(draw(st.integers(2, 6))):
        n = draw(st.integers(2, 8))
        z = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
        c = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
        y = np.array(draw(st.lists(_TIED_Y, min_size=n, max_size=n)))
        sat = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        groups.append(GroupData(10 * gid, sat, z, c * z, y, complier=c))
    return groups


def _estimate_bytes(res: EstimateResult) -> tuple:
    return (res.coefficients.tobytes(), res.vcov.tobytes(), repr(res.diagnostics))


def _assert_sorts_like(order: np.ndarray, ref: np.ndarray, key: np.ndarray, y: np.ndarray):
    """``order`` is a permutation that sorts the rows as the lexsort ``ref``
    does: the same keys, and by value the same y.  Rows of equal y, -0.0
    beside 0.0 among them, may take any order within a key."""
    assert np.array_equal(np.sort(order), np.arange(len(y)))
    assert np.array_equal(key[order], key[ref])
    assert np.array_equal(y[order], y[ref], equal_nan=True)


class TestCanonicalOrder:
    """Every estimator sums rows sorted by (group, z, d, y), equal y in any order."""

    @settings(max_examples=60, deadline=None)
    @given(groups=_tied_groups())
    def test_rows_follow_lexsort(self, groups):
        data = ExperimentData(groups)
        order = _canonical_order(data.cell_key, data.y)
        ref = np.lexsort((data.y, data.d, data.z, data.group_index))
        _assert_sorts_like(order, ref, data.cell_key, data.y)
        n_per_row = np.repeat(data.sizes, data.sizes).astype(float)
        for cells in (data.cells, data.latent_cells):
            row = cells.row_cell[order]
            for name, per_row in (("z", data.z), ("d", data.d),
                                  ("saturation", data.saturation), ("n", n_per_row)):
                # bytes, so that a swap of -0.0 and 0.0 shows
                assert getattr(cells, name)[row].tobytes() == per_row[order].tobytes(), name
            assert np.array_equal(cells.group[row], data.group_index[order])
            assert np.array_equal(cells.count, np.bincount(cells.row_cell))
            # the rows cell by cell, each cell's sorted by y
            by_cell = order[np.argsort(row, kind="stable")]
            assert np.array_equal(cells.y, data.y[by_cell])
            assert np.array_equal(cells.rows(cells.group), data.group_index[by_cell])
        # (group, z, d) cells hold their rows in exactly the order returned
        assert data.cells.y.tobytes() == data.y[order].tobytes()
        # tied rows differ in their true neighbor share
        cbar = np.concatenate(
            [(g.complier.sum() - g.complier) / (g.n - 1) for g in data.groups]
        )
        latent = data.latent_cells
        assert latent.cbar_true[latent.row_cell].tobytes() == cbar.tobytes()

    def test_order_within_groups_keeps_bytes(self):
        # binary y, as the paper's employment outcome, and a cell with -0.0 and 0.0
        cfg = noisy_sec6_config(seed=11)
        data = simulate_experiment(cfg)
        y = [(g.y > 0.6).astype(float) for g in data.groups]
        zeros = np.flatnonzero((y[0] == 0.0) & (data.groups[0].z == 0))  # one (0, 0) cell
        assert len(zeros) >= 2
        y[0][zeros[0]] = -0.0
        rng = np.random.default_rng(0)

        def dataset(permute: bool) -> ExperimentData:
            groups = []
            for g, gy in zip(data.groups, y):
                p = rng.permutation(g.n) if permute else np.arange(g.n)
                groups.append(GroupData(g.group_id, g.saturation, g.z[p], g.d[p], gy[p],
                                        complier=g.complier[p]))
            return ExperimentData(groups)

        def outputs(d: ExperimentData) -> list:
            out = [_estimate_bytes(naive_iv(d)), repr(ior_test(d))]
            for pure_control in ("gmm", "drop"):
                for chat_policy in ("estimate", "oracle"):
                    res = estimate_all(d, LIN, cfg.design, pure_control=pure_control,
                                       chat_policy=chat_policy, include_naive=False)
                    out += [(k, _estimate_bytes(v)) for k, v in res.items()]
            return out

        assert outputs(dataset(True)) == outputs(dataset(False))

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        noisy=st.booleans(),
        calls=st.permutations(["estimate_all", "naive_iv", "ior_test"]),
    )
    def test_results_independent_of_call_history(self, seed, noisy, calls):
        if noisy:
            cfg = noisy_sec6_config(G=40, n=12, seed=seed)
        else:
            cfg = noiseless_config(design=WITH_ZERO, G=40, n=12, seed=seed)
        design = cfg.design

        def run(data, call):
            if call == "estimate_all":
                out = estimate_all(data, LIN, design)
                out.update(
                    ("oracle_" + k, v)
                    for k, v in estimate_all(
                        data, LIN, design, chat_policy="oracle", pure_control="drop",
                        include_naive=False,
                    ).items()
                )
                return {k: _estimate_bytes(v) for k, v in out.items()}
            if call == "naive_iv":
                return _estimate_bytes(naive_iv(data))
            return repr(ior_test(data))

        data = simulate_experiment(cfg)
        # each call on a dataset the earlier calls have already used ...
        used = {call: run(data, call) for call in calls}
        # ... equals the same call on a fresh dataset, run first
        for call in calls:
            assert run(ExperimentData(data.groups, check=False), call) == used[call]


class TestRowOrderKeyWidth:
    """``_canonical_order``, which sorts the rows into their cells, sorts the cell
    key in its narrowest unsigned type: 16 bits up to 16,384 groups and 32 bits
    from there on."""

    @pytest.mark.parametrize("G, width", [(16_384, np.uint16), (16_385, np.uint32)])
    def test_matches_four_key_lexsort(self, G, width):
        rng = np.random.default_rng(G)
        z = rng.integers(0, 2, (G, 2), dtype=np.int8)
        d = z * rng.integers(0, 2, (G, 2), dtype=np.int8)
        y = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], (G, 2))  # ties, and -0.0 beside 0.0
        data = ExperimentData(
            [GroupData(g, 0.5, z[g], d[g], y[g]) for g in range(G)], check=False
        )
        assert np.min_scalar_type(data.cell_key.max()) == width
        ref = np.lexsort((data.y, data.d, data.z, data.group_index))
        _assert_sorts_like(_canonical_order(data.cell_key, data.y), ref, data.cell_key, data.y)


class TestRowOrderYTies:
    """``_canonical_order`` sorts as the four-key lexsort does when y has ties,
    -0.0 beside 0.0 or nan, and the cells hold y in the order it returns."""

    @staticmethod
    def _data(y: np.ndarray) -> ExperimentData:
        rng = np.random.default_rng(len(y))
        G = len(y) // 4
        z = rng.integers(0, 2, (G, 4), dtype=np.int8)
        d = z * rng.integers(0, 2, (G, 4), dtype=np.int8)
        z[0], d[0] = 1, 0  # group 0's rows share one (z, d) cell
        groups = [GroupData(g, 0.5, z[g], d[g], y[4 * g: 4 * g + 4]) for g in range(G)]
        return ExperimentData(groups, check=False)  # validation rejects a nan y

    @pytest.mark.parametrize("case", ["ties", "signed-zeros", "nan"])
    def test_ties_sort_like_lexsort(self, case):
        y = np.random.default_rng(3).normal(size=4000)
        if case == "ties":
            y = np.round(y, 1)
        elif case == "signed-zeros":
            y[:4] = (0.0, -0.0, 0.0, -0.0)  # equal y in one cell
        else:
            y[[5, 17, 2000]] = np.nan
        data = self._data(y)
        order = _canonical_order(data.cell_key, data.y)
        ref = np.lexsort((data.y, data.d, data.z, data.group_index))
        _assert_sorts_like(order, ref, data.cell_key, data.y)
        assert data.cells.y.tobytes() == data.y[order].tobytes()


class TestRowOrderDirect:
    """``_canonical_order`` sorts as ``np.lexsort((y, key))`` does on the
    outcomes that tie most: binary y, y rounded to 0.1 (which holds -0.0 and
    0.0) and y with nans."""

    @pytest.mark.parametrize("case", ["binary", "rounded", "nan"])
    @pytest.mark.parametrize("N", [2, 37, 5000])
    def test_equals_lexsort(self, case, N):
        rng = np.random.default_rng(N)
        key = rng.integers(0, 40, N)
        y = rng.normal(size=N)
        if case == "binary":
            y = (y > 0.3).astype(float)
        elif case == "rounded":
            y = np.round(y, 1)  # rounds some y to -0.0, some to 0.0
            y[:2] = (-0.0, 0.0)
        else:
            y[rng.random(N) < 0.2] = np.nan
            y[:2] = np.nan  # adjacent nans
        _assert_sorts_like(_canonical_order(key, y), np.lexsort((y, key)), key, y)


class TestValidationErrors:
    def test_two_cluster_minimum(self):
        g = GroupData(0, 0.5, np.array([1, 0, 1]), np.array([1, 0, 0]), np.ones(3))
        data = ExperimentData([g])
        dsn = SaturationDesign.from_probs((0.5, 0.25), (0.5, 0.5))
        with pytest.raises(ValidationError):
            rsiv_estimate(data, LIN, dsn, TARGET_POPULATION)

    def test_saturation_not_in_design(self):
        data = simulate_experiment(noiseless_config(seed=3))
        other = SaturationDesign.from_probs((0.1, 0.9), (0.5, 0.5))
        with pytest.raises(ValidationError):
            rsiv_estimate(data, LIN, other, TARGET_JOINT)

    def test_zero_weight_saturation_refused(self):
        data = simulate_experiment(noisy_sec6_config())  # 47 groups at each saturation
        design = SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (0, 47, 47, 47, 47))
        gid = next(g.group_id for g in data.groups if g.saturation == 0.0)
        match = rf"^group {gid}: saturation 0.0 has weight 0 in the design$"
        with pytest.raises(ValidationError, match=match):
            estimate_all(data, LIN, design)

    def test_first_off_design_group_named(self):
        groups = simulate_experiment(noiseless_config(seed=3)).groups[::-1]
        for i, sat in ((4, 0.3), (7, 0.9)):
            g = groups[i]
            groups[i] = GroupData(g.group_id, sat, g.z, g.d, g.y)
        data = ExperimentData(groups)
        gid = groups[4].group_id
        with pytest.raises(ValidationError, match=rf"^group {gid}: saturation 0.3 not in the design$"):
            rsiv_estimate(data, LIN, INTERIOR, TARGET_JOINT)

    def test_pure_control_requires_zero_groups(self):
        data = simulate_experiment(noiseless_config(seed=3))
        with pytest.raises(ValidationError):
            rsiv_pure_control(data, LIN, WITH_ZERO, TARGET_JOINT)

    def test_all_pure_control_unidentified(self):
        dsn = SaturationDesign.from_probs((0.0, 0.5), (0.5, 0.5))
        rng = substream(7)
        groups = [
            GroupData(i, 0.0, np.zeros(4, dtype=np.int8), np.zeros(4, dtype=np.int8),
                      rng.standard_normal(4))
            for i in range(5)
        ]
        data = ExperimentData(groups)
        with pytest.raises(ValidationError):
            rsiv_estimate(data, LIN, dsn, TARGET_JOINT)

    def test_compliance_rate_requires_offers(self):
        groups = [
            GroupData(i, 0.0, np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int8),
                      np.ones(n))
            for i, n in enumerate((3, 2, 5))
        ]
        with pytest.raises(ValidationError):
            compliance_rate(ExperimentData(groups))


_VALID_CSV = (
    b"group_id,saturation,z,d,y\n0,0.5,1,1,0.25\n0,0.5,0,0,-1.5\n"
    b"1,0.25,1,0,0.0\n1,0.25,0,0,2\n1,0.25,1,1,1e-3\n"
)
# bytes a damaged or hand-edited file tends to hold: separators, quotes,
# blank lines, CR, NUL, bytes that are not UTF-8 and odd numerals
_FUZZ_BYTES = st.one_of(
    st.binary(min_size=1, max_size=4),
    st.sampled_from([b"\n", b"\n\n", b'"', b",", b"\r", b"\x00", b"\xff", b"\xc3", b"\xe2\x82",
                     b" ", b"-", b".", b"1e309", b"nan", b"inf", b"0x1", b"2", b"\xef\xbb\xbf"]),
)


@st.composite
def _mutated_csv(draw) -> bytes:
    """A small valid data file after 1-4 byte-level inserts, deletes or replacements."""
    body = bytearray(_VALID_CSV)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        at = draw(st.integers(0, len(body)))
        if op == "delete":
            del body[at:at + draw(st.integers(1, 3))]
        else:
            chunk = draw(_FUZZ_BYTES)
            body[at:at + (len(chunk) if op == "replace" else 0)] = chunk
    return bytes(body)


class TestIngestCsv(object):
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_well_formed(self, tmp_path):
        text = "group_id,saturation,z,d,y\n"
        for gid in range(3):
            for z, d, y in ((1, 1, 0.5), (0, 0, 0.1), (1, 0, -0.2)):
                text += f"{gid},0.5,{z},{d},{y}\n"
        data = ingest_csv(self._write(tmp_path, text))
        assert data.n_groups == 3
        assert data.n_individuals == 9

    def test_one_sided_violation_names_row(self, tmp_path):
        text = (
            "group_id,saturation,z,d,y\n"
            "0,0.5,1,0,0.1\n"
            "0,0.5,0,1,0.2\n"
        )
        with pytest.raises(ValidationError, match="row 3"):
            ingest_csv(self._write(tmp_path, text))

    def test_single_member_group(self, tmp_path):
        text = (
            "group_id,saturation,z,d,y\n"
            "0,0.5,1,0,0.1\n"
            "0,0.5,0,0,0.3\n"
            "1,0.25,1,1,0.2\n"
        )
        with pytest.raises(ValidationError, match="group 1"):
            ingest_csv(self._write(tmp_path, text))

    def test_saturation_varies_within_group(self, tmp_path):
        text = (
            "group_id,saturation,z,d,y\n"
            "0,0.5,1,0,0.1\n"
            "0,0.25,0,0,0.3\n"
        )
        with pytest.raises(ValidationError, match="row 3"):
            ingest_csv(self._write(tmp_path, text))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ValidationError, match="header"):
            ingest_csv(self._write(tmp_path, "a,b,c,d,e\n1,0.5,1,1,0.0\n"))

    def test_non_binary_flag(self, tmp_path):
        text = "group_id,saturation,z,d,y\n0,0.5,2,0,0.1\n0,0.5,0,0,0.1\n"
        with pytest.raises(ValidationError, match="row 2"):
            ingest_csv(self._write(tmp_path, text))

    GOOD = "0,0.5,1,0,0.1\n0,0.5,0,0,0.3\n"

    def _rejects(self, tmp_path, body, match):
        with pytest.raises(ValidationError, match=match):
            ingest_csv(self._write(tmp_path, "group_id,saturation,z,d,y\n" + body))

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("0,abc,0,0,0.3", "could not convert string to float: 'abc'"),
            ("0,0.5,0,0,x", "could not convert string to float: 'x'"),
            ("0,0.5,1.0,0,0.3", r"invalid literal for int\(\) with base 10: '1.0'"),
            ("0,0.5,1.5,0,0.3", r"invalid literal for int\(\) with base 10: '1.5'"),
            ("0,0.5,1,1.5,0.3", r"invalid literal for int\(\) with base 10: '1.5'"),
            ("1.5,0.5,0,0,0.3", r"invalid literal for int\(\) with base 10: '1.5'"),
            ("zero,0.5,0,0,0.3", r"invalid literal for int\(\) with base 10: 'zero'"),
            ("0,0.5,0,0,", "could not convert string to float: ''"),
            ("0,0.5,0,0", "expected 5 fields, got 4"),
            ("0,0.5,0,0,0.3,1", "expected 5 fields, got 6"),
            ("", "expected 5 fields, got 0"),
            ("0,0.5,0,0,nan", "outcome must be finite"),
            ("0,0.5,0,0,inf", "outcome must be finite"),
            ("0,0.5,0,0,-Infinity", "outcome must be finite"),
            ("1,1.5,0,0,0.3", r"saturation 1.5 outside \[0, 1\]"),
            ("1,nan,0,0,0.3", r"saturation nan outside \[0, 1\]"),
            ("0,0.5,0,-1,0.3", "z and d must be 0 or 1"),
        ],
    )
    @pytest.mark.parametrize("line", [2, 3, 5])
    def test_bad_line_named(self, tmp_path, bad, reason, line):
        # the fault on the first data line, mid-file and on the last line
        before = (self.GOOD * 2).splitlines(keepends=True)[: line - 2]
        after = "" if line == 5 else "0,0.5,0,0,0.4\n"
        self._rejects(tmp_path, "".join(before) + bad + "\n" + after, f"^row {line}: {reason}$")

    def test_blank_line_mid_file(self, tmp_path):
        self._rejects(tmp_path, "0,0.5,1,0,0.1\n\n0,0.5,0,0,0.3\n", "^row 3: expected 5 fields, got 0$")

    def test_only_blank_line(self, tmp_path):
        self._rejects(tmp_path, "\n", "^row 2: expected 5 fields, got 0$")

    @pytest.mark.parametrize(
        "body, match",
        [
            # a non-finite outcome before an unparsable line
            ("0,0.5,1,0,inf\n0,0.5,x,0,0.3\n", "^row 2: outcome must be finite$"),
            # an unparsable line before a compliance violation
            ("0,0.5,1,0,0.1\n0,0.5,x,0,0.3\n0,0.5,0,1,0.3\n", "^row 3: invalid literal"),
            # a saturation change within a group before a short line
            ("0,0.5,1,0,0.1\n0,0.25,0,0,0.3\n0,0.5\n", "^row 3: saturation differs within group 0$"),
            # a compliance violation before a blank line
            ("0,0.5,1,0,0.1\n0,0.5,0,1,0.3\n\n", r"^row 3: one-sided compliance violated \(d=1 with z=0\)$"),
            # a blank line before a non-finite outcome
            ("0,0.5,1,0,0.1\n\n0,0.5,0,0,nan\n", "^row 3: expected 5 fields, got 0$"),
            # two faults on one line: the check made first names it
            ("0,0.5,1,0,0.1\n0,2.0,0,1,nan\n", r"^row 3: one-sided compliance violated"),
        ],
    )
    def test_earliest_of_two_faults_named(self, tmp_path, body, match):
        self._rejects(tmp_path, body, match)

    HEADER = b"group_id,saturation,z,d,y\n"

    @pytest.mark.parametrize(
        "raw, match",
        [
            (HEADER.replace(b"y", b"\xff") + b"0,0.5,1,0,0.1\n", "^row 1: not UTF-8 text$"),
            # a compliance violation before a line that is not UTF-8, and after one
            (HEADER + b"0,0.5,1,0,0.1\n0,0.5,0,1,0.3\n0,0.5,0,0,\xe9\n", r"^row 3: one-sided"),
            (HEADER + b"0,0.5,1,0,0.1\n0,0.5,0,0,\xe9\n0,0.5,0,1,0.3\n", "^row 3: not UTF-8 text$"),
        ],
    )
    def test_line_not_utf8_named_in_order(self, tmp_path, raw, match):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match=match):
            ingest_csv(path)

    def test_row_faults_come_before_group_faults(self, tmp_path):
        self._rejects(tmp_path, "0,0.5,1,0,0.1\n1,0.5,1,0,0.1\n0,0.5,0,0,x\n", "^row 4: ")
        self._rejects(
            tmp_path,
            "0,0.5,1,0,0.1\n1,0.25,1,0,0.1\n0,0.5,0,0,0.3\n",
            r"^group 1 has a single member \(first row 3\); need at least two$",
        )

    @pytest.mark.parametrize("text", ["", "group_id,saturation,z,d\n0,0.5,1,0\n"])
    def test_missing_or_short_header(self, tmp_path, text):
        with pytest.raises(ValidationError, match="^bad header"):
            ingest_csv(self._write(tmp_path, text))

    def test_header_only(self, tmp_path):
        self._rejects(tmp_path, "", "^data file contains no rows$")

    def test_interleaved_groups(self, tmp_path):
        text = (
            "group_id,saturation,z,d,y\n"
            "7,0.25,1,1,0.5\n"
            "-3,0.75,0,0,1.25\n"
            "7,0.25,0,0,-2.0\n"
            "12,0.0,0,0,3e-300\n"
            "-3,0.75,1,0,0.1\n"
            "7,0.25,1,0,0.30000000000000004\n"
            "12,0.0,0,0,-0.0\n"
        )
        data = ingest_csv(self._write(tmp_path, text))
        assert [g.group_id for g in data.groups] == [7, -3, 12]
        assert all(type(g.group_id) is int for g in data.groups)
        assert [g.saturation for g in data.groups] == [0.25, 0.75, 0.0]
        assert all(type(g.saturation) is float for g in data.groups)
        expect = {
            7: ([1, 0, 1], [1, 0, 0], [0.5, -2.0, 0.30000000000000004]),
            -3: ([0, 1], [0, 0], [1.25, 0.1]),
            12: ([0, 0], [0, 0], [3e-300, -0.0]),
        }
        for g in data.groups:
            z, d, y = expect[g.group_id]
            assert g.z.dtype == np.int8 and g.d.dtype == np.int8 and g.y.dtype == np.float64
            assert g.z.tolist() == z and g.d.tolist() == d
            assert np.array_equal(g.y.view(np.int64), np.array(y).view(np.int64))

    @pytest.mark.parametrize(
        "text, row",
        [
            ("group_id,saturation,z,d," + "y" * 200_000 + "\n" + GOOD, 1),
            # a 200,000-digit outcome on the third data row
            ("group_id,saturation,z,d,y\n" + GOOD + "0,0.5,0,0," + "1" * 200_000 + "\n", 4),
            # an unclosed quote that runs over the 20,000 rows after it
            ('group_id,saturation,z,d,y\n0,0.5,1,0,"0.1\n' + "1,0.5,0,0,0.0\n" * 20_000, 2),
        ],
        ids=["long-header", "long-y", "unclosed-quote"],
    )
    def test_field_over_csv_limit_named(self, tmp_path, text, row):
        with pytest.raises(ValidationError, match=rf"^row {row}: field larger than field limit"):
            ingest_csv(self._write(tmp_path, text))

    def test_crlf_and_padding_accepted(self, tmp_path):
        text = "group_id,saturation,z,d,y\r\n0, 0.5,1 ,0,0.1\r\n+0,0.5,0,0, 0.3\r\n"
        data = ingest_csv(self._write(tmp_path, text))
        assert data.groups[0].y.tolist() == [0.1, 0.3]
        assert data.groups[0].z.tolist() == [1, 0]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("last", [True, False], ids=["final-newline", "no-final-newline"])
    def test_every_row_read_whatever_the_line_ends(self, tmp_path, end, last):
        # the parser is told the newline count as its row bound: it must never cut a row
        rows = [f"{g},0.5,{z},0,{0.1 * g + z}" for g in range(40) for z in (0, 1)]
        text = end.join(["group_id,saturation,z,d,y"] + rows) + (end if last else "")
        data = ingest_csv(self._write(tmp_path, text))
        assert data.n_individuals == 80 and data.n_groups == 40
        assert data.groups[-1].y.tolist() == [3.9000000000000004, 4.9]

    @settings(max_examples=200, deadline=None)
    @given(body=_mutated_csv())
    def test_mutated_file_reads_or_is_refused(self, body):
        # one directory per example: a function-scoped tmp_path would be shared by all of them
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(body)
            try:
                data = ingest_csv(path)
            except ValidationError:
                return
        assert isinstance(data, ExperimentData)


class TestMixedSizeRoundTrip:
    """10x the Sec. 6 groups with sizes spread over 20..212, as in the pipeline
    benchmark: ~190 distinct n and ~4,700 instrument keys."""

    @pytest.fixture(scope="class")
    def mixed(self):
        return mixed_size_data()

    def test_csv_round_trip_estimates_bit_identical(self, mixed, tmp_path):
        from sativ.io import write_data_csv

        data, design = mixed
        path = tmp_path / "mixed.csv"
        write_data_csv(data, path)
        ingested = ingest_csv(path)
        assert ingested.n_individuals == data.n_individuals
        got, want = (
            {k: _estimate_bytes(v) for k, v in
             estimate_all(d, LIN, design, pure_control="gmm", include_naive=True).items()}
            for d in (ingested, data)
        )
        assert got == want
        assert repr(ior_test(ingested)) == repr(ior_test(data))

    def test_compliance_rate_equals_row_ratio(self, mixed):
        data, _ = mixed
        assert (data.group_saturation == 0.0).any()
        z, d = (np.concatenate([getattr(g, f) for g in data.groups]).astype(float) for f in "zd")
        assert compliance_rate(data).hex() == float(d.sum() / z.sum()).hex()

    def test_plan_q_tables_equal_per_size_scalar_calls(self, mixed):
        from sativ import estimator, moments

        data, design = mixed
        cells = estimator._cells(data, "estimate")
        plan = estimator._InstrumentPlan(cells, LIN, design, "estimate")
        keys = np.unique(np.column_stack([cells.chat, cells.n])[plan.mask], axis=0)
        assert len(keys) == plan.n_keys > 4000
        assert len(np.unique(keys[:, 1])) > 150
        positive = design.positive_part()  # the plan covers the groups with S > 0
        cols = plan.table.cols
        for size in np.unique(keys[:, 1]):
            at = keys[:, 1] == size
            rows = plan.rows[at]
            q0, q1 = moments.q_extended(LIN, keys[at, 0], int(size), positive)
            for name, r in (("q", moments.assemble_q(q0, q1)), ("q0", q0), ("q1", q1)):
                pinv, cut = moments.pseudo_inverse_stack(r)
                assert cols[f"{name}_pinv"][rows].tobytes() == pinv.tobytes()
                assert np.array_equal(cols[f"{name}_cut"][rows], cut)
                assert cols[f"{name}_det"][rows].tobytes() == np.abs(np.linalg.det(r)).tobytes()


class TestPeakMemory:
    """Traced peaks at 10x the Sec. 6 groups (G=2350, n=116, N=272,600).

    ``ingest_csv`` peaks at 22 MB: 31 MB if it keeps the file text while
    numpy parses, 64 MB with a second copy of the text and a ``StringIO``
    beside it.  ``estimate_all`` peaks at 25 MB: 34 MB if the 2SLS keeps
    its row copy of Z past the sums, 38 MB if the data caches per-row
    copies of z, d, y, the cell keys and the row order.  What it leaves
    attached to the data, the cells, is 5 MB: 18 MB with those copies.
    """

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        from sativ.io import write_data_csv

        data = simulate_experiment(noisy_sec6_config(G=2350))
        assert data.n_individuals >= 250_000
        path = tmp_path_factory.mktemp("peak") / "data.csv"
        write_data_csv(data, path)
        return path

    @staticmethod
    def _traced(fn, *args, **kwargs) -> tuple[int, int]:
        """Traced (current, peak) bytes once fn returns and its result is dropped."""
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def test_ingest_csv_releases_the_text_before_parsing(self, csv_path):
        assert self._traced(ingest_csv, csv_path)[1] < 28 * 10**6

    def test_estimate_all_expands_only_sum_operands_to_rows(self, csv_path):
        data = ingest_csv(csv_path)
        design = noisy_sec6_config(G=2350).design
        assert self._traced(estimate_all, data, LIN, design, pure_control="gmm")[1] < 32 * 10**6

    def test_estimate_all_leaves_only_cells_attached(self, csv_path):
        data = ingest_csv(csv_path)
        design = noisy_sec6_config(G=2350).design
        assert self._traced(estimate_all, data, LIN, design, pure_control="gmm")[0] < 8 * 10**6
