import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import f as f_dist

import sativ
from sativ.design import SaturationDesign
from sativ.dgp import ExperimentData, GroupData, SimConfig, oracle_subpopulation_means, simulate_experiment
from sativ.errors import ValidationError
from sativ.estimator import (
    TARGET_COMPLIER_PSI,
    TARGET_COMPLIER_THETA,
    TARGET_JOINT,
    TARGET_NEVER_TAKER,
    TARGET_POPULATION,
    EstimateResult,
    _f_sf,
    build_instruments,
    complier_theta,
    compliance_rate,
    estimate_all,
    estimate_chat,
    ingest_csv,
    ior_test,
    naive_iv,
    rsiv_complier_theta,
    rsiv_estimate,
    rsiv_pure_control,
)
from sativ.model import linear_basis
from sativ.streams import replication_seed, substream

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
            rsiv_complier_theta(data, LIN, INTERIOR)  # full compliance degenerate

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


class TestComplierTheta:
    def _result(self, coefs):
        k = len(coefs)
        return EstimateResult("x", np.asarray(coefs, dtype=float), np.zeros((k, k)), 10, 100)

    def test_identity_arithmetic(self):
        pop = self._result([0.5, -0.7])
        nt = self._result([0.53, -0.64])
        out = complier_theta(pop, nt, 0.3)
        assert out.theta_mean == pytest.approx((0.43, -0.84))
        assert out.label == "complier"

    def test_no_selection(self):
        pop = self._result([0.5, -0.7])
        nt = self._result([0.5, -0.7])
        out = complier_theta(pop, nt, 0.42)
        assert out.theta_mean == pytest.approx((0.5, -0.7))

    def test_degenerate_rates(self):
        pop, nt = self._result([0.5]), self._result([0.4])
        with pytest.raises(ValidationError):
            complier_theta(pop, nt, 1.0)
        with pytest.raises(ValidationError):
            complier_theta(pop, nt, 0.0)


class TestLargeSampleAgreement:
    def test_joint_slopes_near_oracle_truth(self):
        cfg = noisy_sec6_config(G=2000, seed=100)
        data = simulate_experiment(cfg)
        res = rsiv_estimate(data, LIN, cfg.design, TARGET_JOINT)
        means = oracle_subpopulation_means(cfg, n_draws=10**6, seed=1000)
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

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_p_value_is_f_survival(self, seed):
        res = ior_test(simulate_experiment(noisy_sec6_config(seed=seed)))
        expect = f_dist.sf(res.wald / res.df, res.df, res.n_clusters - 1)
        assert res.p_value == expect

    def test_negative_wald_gives_p_one(self):
        # vb is PSD in exact arithmetic, but a numerically indefinite one can
        # make the Wald statistic negative
        assert _f_sf(-0.3, 4, 49) == 1.0
        assert _f_sf(-0.0, 4, 49) == 1.0
        for x in (0.0, 0.7, 3.5, np.inf):
            assert _f_sf(x, 4, 49) == f_dist.sf(x, 4, 49)

    def test_import_leaves_scipy_stats_out(self):
        code = "import sys, sativ, sativ.cli; print('scipy.stats' in sys.modules)"
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


class TestCanonicalOrder:
    """Every estimator sums rows sorted by (group, z, d, y), ties in data order."""

    @settings(max_examples=60, deadline=None)
    @given(groups=_tied_groups())
    def test_rows_follow_lexsort(self, groups):
        data = ExperimentData(groups)
        ref = np.lexsort((data.y, data.d, data.z, data.group_index))
        assert np.array_equal(data.row_order, ref)
        n_per_row = np.repeat(data.sizes, data.sizes).astype(float)
        for cells in (data.cells, data.latent_cells):
            row = cells.row_cell[ref]
            for name, per_row in (("z", data.z), ("d", data.d),
                                  ("saturation", data.saturation), ("n", n_per_row)):
                # bytes, so that a swap of -0.0 and 0.0 shows
                assert getattr(cells, name)[row].tobytes() == per_row[ref].tobytes(), name
            assert np.array_equal(cells.group[row], data.group_index[ref])
            assert np.array_equal(cells.count, np.bincount(cells.row_cell))
            # the rows cell by cell, each cell's in the canonical order
            by_cell = ref[np.argsort(row, kind="stable")]
            assert cells.y.tobytes() == data.y[by_cell].tobytes()
            assert np.array_equal(cells.rows(cells.group), data.group_index[by_cell])
        # (group, z, d) cells hold their rows in exactly the canonical order
        assert data.cells.y.tobytes() == data.y[ref].tobytes()
        # tied rows differ in their true neighbor share
        cbar = np.concatenate(
            [(g.complier.sum() - g.complier) / (g.n - 1) for g in data.groups]
        )
        latent = data.latent_cells
        assert latent.cbar_true[latent.row_cell[ref]].tobytes() == cbar[ref].tobytes()
        assert data.cbar_true.tobytes() == cbar.tobytes()

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
    """``row_order`` sorts the cell key in its narrowest unsigned type: 16 bits
    up to 16,384 groups and 32 bits from there on."""

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
        assert np.array_equal(data.row_order, ref)


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
            GroupData(i, 0.0, np.zeros(3, dtype=np.int8), np.zeros(3, dtype=np.int8),
                      np.ones(3))
            for i in range(3)
        ]
        with pytest.raises(ValidationError):
            compliance_rate(ExperimentData(groups))


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

    def test_crlf_and_padding_accepted(self, tmp_path):
        text = "group_id,saturation,z,d,y\r\n0, 0.5,1 ,0,0.1\r\n+0,0.5,0,0, 0.3\r\n"
        data = ingest_csv(self._write(tmp_path, text))
        assert data.groups[0].y.tolist() == [0.1, 0.3]
        assert data.groups[0].z.tolist() == [1, 0]
