import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from sativ import design as design_mod
from sativ.design import SaturationDesign
from sativ.dgp import (
    ExperimentData,
    GroupData,
    SimConfig,
    _oracle_draws,
    draw_coefficient,
    oracle_naive_iv_estimands,
    oracle_subpopulation_means,
    share_moments,
    simulate_experiment,
    simulate_group,
)
from sativ.errors import ValidationError
from sativ.moments import binomial_pmf
from sativ.streams import TAG_GROUP, TAG_ORACLE, substream

SEC6_DESIGN = SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (47,) * 5)
SEC6 = SimConfig(
    G=235,
    n=116,
    design=SEC6_DESIGN,
    means=(0.5, 0.2, -0.7, 0.8),
    kappa=(0.0, 0.0, 1.2, 1.5),
    sigma=(0.3, 0.3, 0.2, 0.4),
    seed=42,
)

INTERIOR = SaturationDesign.from_probs((0.25, 0.5, 0.75), (1 / 3, 1 / 3, 1 / 3))


def homogeneous_config(**overrides) -> SimConfig:
    kwargs = dict(
        G=50,
        n=20,
        design=INTERIOR,
        means=(0.5, 0.2, -0.7, 0.8),
        sigma=(0.0, 0.0, 0.0, 0.0),
        seed=7,
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


class TestSimConfig:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            homogeneous_config(sigma=(0.1, -0.1, 0.0, 0.0))

    def test_share_range(self):
        with pytest.raises(ValidationError):
            homogeneous_config(complier_shares=(0.2, 1.3))

    def test_counts_round_to_integers(self):
        # 116 * 0.1 = 11.6 is not realizable; counts snap to nearest integer
        assert SEC6.complier_counts == (12, 23, 35, 46, 58)
        assert SEC6.realized_shares == tuple(k / 116 for k in (12, 23, 35, 46, 58))
        mu, sd = share_moments(SEC6)
        assert mu == pytest.approx(0.3, abs=1e-12)
        assert sd == pytest.approx(math.sqrt(7378 / (5 * 116**2) - 0.09), abs=1e-12)


class TestDrawCoefficient:
    def test_zero_sigma_is_exact(self):
        rng = substream(1)
        out = draw_coefficient(0.5, 1.2, 0.0, np.linspace(0, 1, 11), (0.3, 0.14), rng)
        assert np.all(out == 0.5)

    def test_zero_kappa_is_iid_normal(self):
        rng = substream(2)
        cbar = substream(3).random(10**5)
        out = draw_coefficient(0.5, 0.0, 0.3, cbar, (0.5, 0.2), rng)
        assert out.mean() == pytest.approx(0.5, abs=0.005)
        assert out.var() == pytest.approx(0.09, rel=0.03)
        assert abs(np.corrcoef(out, cbar)[0, 1]) < 0.01

    def test_implied_correlation(self):
        # corr(coef, standardized share) = kappa / sqrt(kappa^2 + 1) ~ 0.768
        rng = substream(4)
        n_draws = 10**6
        counts = np.asarray(SEC6.complier_counts)
        idx = rng.choice(5, size=n_draws)
        k = counts[idx]
        c = (rng.random(n_draws) * SEC6.n < k).astype(float)
        cbar = (k - c) / (SEC6.n - 1)
        out = draw_coefficient(-0.7, 1.2, 0.2, cbar, share_moments(SEC6), rng)
        target = 1.2 / math.sqrt(1.2**2 + 1)
        assert np.corrcoef(out, cbar)[0, 1] == pytest.approx(target, abs=0.005)

    def test_degenerate_share_distribution_rejected(self):
        rng = substream(5)
        with pytest.raises(ValidationError):
            draw_coefficient(0.5, 1.2, 0.3, np.array([0.5]), (0.5, 0.0), rng)


class TestSimulateExperiment:
    def test_homogeneous_noiseless_outcomes(self):
        data = simulate_experiment(homogeneous_config())
        a, b, g, dl = 0.5, 0.2, -0.7, 0.8
        for grp in data.groups:
            dbar = (grp.d.sum() - grp.d) / (grp.n - 1)
            expected = a + b * grp.d + g * dbar + dl * grp.d * dbar
            assert np.abs(grp.y - expected).max() < 1e-12

    def test_no_compliers(self):
        data = simulate_experiment(homogeneous_config(complier_shares=(0.0,)))
        assert data.d.sum() == 0
        assert np.all(data.y == 0.5)  # f(0)' theta

    def test_take_up_rate_matches_mean_share(self):
        data = simulate_experiment(SEC6)
        rate = data.d.sum() / data.z.sum()
        # E[share] = 0.3; MC error at ~13.6k offered is well under 0.02
        assert rate == pytest.approx(0.3, abs=0.02)

    def test_one_sided_compliance_and_ior(self):
        data = simulate_experiment(SEC6)
        assert np.all(data.d <= data.z)
        assert np.all(data.d == data.complier * data.z)

    def test_leave_one_out_share_two_values(self):
        data = simulate_experiment(SEC6)
        for grp in data.groups[:10]:
            k = int(grp.complier.sum())
            cbar = (k - grp.complier) / (grp.n - 1)
            assert set(np.round(cbar, 12)) <= {
                round((k - 1) / (grp.n - 1), 12),
                round(k / (grp.n - 1), 12),
            }

    def test_groups_reproducible_in_isolation(self):
        # any group's draw depends only on (seed, group index) and its saturation
        data = simulate_experiment(SEC6)
        grp = data.groups[17]
        alone = simulate_group(SEC6, 17, grp.saturation)
        for name in ("z", "d", "y", "complier", "coefs"):
            assert np.array_equal(getattr(alone, name), getattr(grp, name)), name

    def test_same_seed_same_data(self):
        d1 = simulate_experiment(SEC6)
        d2 = simulate_experiment(SEC6)
        assert np.array_equal(d1.y, d2.y)
        assert np.array_equal(d1.z, d2.z)

    def test_take_up_invariant_to_saturation(self):
        cfg = SimConfig(
            G=1000,
            n=116,
            design=SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (200,) * 5),
            means=(0.5, 0.2, -0.7, 0.8),
            kappa=(0.0, 0.0, 1.2, 1.5),
            sigma=(0.3, 0.3, 0.2, 0.4),
            seed=13,
        )
        data = simulate_experiment(cfg)
        sats = np.unique(data.saturation[data.z == 1])
        for s in sats:
            mask = (data.saturation == s) & (data.z == 1)
            # each bin rate estimates E[share]=0.3; cluster se ~ 0.14/sqrt(200)
            assert data.d[mask].mean() == pytest.approx(0.3, abs=0.05)


CORNERS = SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (3,) * 5)
NOISE = (0.3, 0.3, 0.2, 0.4)


def _reference_group(cfg: SimConfig, group_id: int, saturation: float) -> GroupData:
    """One group simulated on its own, one numpy call per coefficient: the
    simulator as it was before its per-group work was batched."""
    rng = substream(cfg.seed, TAG_GROUP, group_id)
    n = cfg.n
    idx = int(np.searchsorted(np.cumsum(cfg.probs), rng.random(), side="right"))
    k = cfg.complier_counts[min(idx, len(cfg.complier_shares) - 1)]
    c = np.zeros(n, dtype=np.int8)
    c[rng.permutation(n)[:k]] = 1
    z = design_mod.assign_offers(n, saturation, rng)
    d = (c * z).astype(np.int8)
    cbar = (k - c.astype(float)) / (n - 1)
    coefs = np.empty((n, 4))
    for j in range(4):
        coefs[:, j] = draw_coefficient(
            cfg.means[j], cfg.kappa[j], cfg.sigma[j], cbar, share_moments(cfg), rng
        )
    dbar = (d.sum() - d) / (n - 1)
    y = coefs[:, 0] + coefs[:, 1] * d + coefs[:, 2] * dbar + coefs[:, 3] * d * dbar
    return GroupData(group_id, float(saturation), z, d, y, complier=c, coefs=coefs)


def _reference_oracle_draws(cfg: SimConfig, n_draws: int, seed: int):
    """The oracle's draws as one materialized (4, N) block, each coefficient
    written out as one expression: the oracle as it was before its rows
    were streamed."""
    rng = substream(seed, TAG_ORACLE)
    counts = np.asarray(cfg.complier_counts)
    k = counts[rng.choice(len(counts), size=n_draws, p=np.asarray(cfg.probs))]
    c = (rng.random(n_draws) * cfg.n < k).astype(float)
    cbar = (k - c) / (cfg.n - 1)
    mu, sd = share_moments(cfg)
    coefs = np.empty((4, n_draws))
    for j, (mean, kappa, sigma) in enumerate(zip(cfg.means, cfg.kappa, cfg.sigma)):
        if sigma == 0.0:
            coefs[j] = mean
            continue
        u = rng.standard_normal(n_draws)
        scale = math.sqrt(kappa**2 + 1.0)
        if kappa == 0.0:
            coefs[j] = mean + sigma * u / scale
        else:
            coefs[j] = mean + sigma * ((cbar - mu) / sd * kappa / scale + u / scale)
    return c, cbar, coefs


class TestSimulationDigest:
    """The simulated bytes are fixed: a faster simulator must draw the same
    numbers in the same order and combine them with the same arithmetic.

    The pinned digests also fix numpy's Generator streams, which numpy does
    not promise to keep across releases; ``test_matches_per_group_reference``
    makes the same comparison against a reference run in the same process.
    """

    CASES = {
        "sigma0": (
            dict(n=9),
            "4115423d0212146d7b08b50dddbe55b7d8c7331e7cb8960b7a1a54490b1edd0c",
        ),
        "kappa0": (
            dict(n=9, sigma=NOISE),
            "a8fb598c119a688c55aab34d239addf9254a2ec2b1d1a4cb781839243155cfa1",
        ),
        "kappa": (
            dict(n=9, kappa=(0.0, 0.0, 1.2, 1.5), sigma=NOISE),
            "6332f2c393a094a4f91e9d6aed4ce9618475630a11d14e9bc777841243b154b3",
        ),
        "pair": (
            dict(n=2, kappa=(0.0, 0.0, 1.2, 1.5), sigma=NOISE),
            "b09252b339a1b5b7916421483fe3b8f50f0aa5bb4ea4e9c5345314aa9e53d9f3",
        ),
        "share_probs": (
            dict(
                n=9,
                kappa=(0.0, 0.0, 1.2, 0.0),
                sigma=(0.3, 0.0, 0.2, 0.0),
                complier_shares=(0.0, 0.5, 1.0),
                share_probs=(0.2, 0.5, 0.3),
            ),
            "6a03416d3c4049b513017e593384aa38ab7991ec420da2a36741883ca679e63f",
        ),
    }

    @staticmethod
    def digest(data: ExperimentData) -> str:
        h = hashlib.sha256()
        for g in data.groups:
            h.update(np.float64(g.saturation).tobytes())
            for a in (g.z, g.d, g.y, g.complier, g.coefs):
                h.update(a.dtype.str.encode())
                h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    @staticmethod
    def config(case: str, means=(0.5, 0.2, -0.7, 0.8)) -> SimConfig:
        overrides, _ = TestSimulationDigest.CASES[case]
        return SimConfig(G=15, design=CORNERS, means=means, seed=11, **overrides)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bytes_unchanged(self, case):
        data = simulate_experiment(self.config(case))
        # every case has groups at saturation 0 and 1
        assert {0.0, 1.0} <= {g.saturation for g in data.groups}
        assert self.digest(data) == self.CASES[case][1]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_group_reference(self, case):
        cfg = self.config(case)
        data = simulate_experiment(cfg)
        ref = [_reference_group(cfg, g.group_id, g.saturation) for g in data.groups]
        assert self.digest(data) == self.digest(ExperimentData(ref))
        alone = [simulate_group(cfg, g.group_id, g.saturation) for g in data.groups]
        assert self.digest(ExperimentData(alone)) == self.digest(data)

    @pytest.mark.parametrize("case", ["sigma0", "share_probs"])
    def test_integer_means(self, case):
        # a JSON config may give whole-number means as integers
        as_float = simulate_experiment(self.config(case, means=(0.0, 1.0, -1.0, 2.0)))
        as_int = simulate_experiment(self.config(case, means=(0, 1, -1, 2)))
        assert all(g.coefs.dtype == np.float64 for g in as_int.groups)
        assert self.digest(as_int) == self.digest(as_float)


class TestConditionalBinomial:
    def test_neighbor_take_up_count_is_binomial(self):
        # never-taker focal with 2 complier neighbors out of 4: count ~ Binomial(2, 0.5)
        cfg = SimConfig(
            G=20_000,
            n=5,
            design=SaturationDesign.from_probs((0.5,), (1.0,)),
            means=(0.0, 0.0, 0.0, 0.0),
            complier_shares=(0.4,),
            seed=99,
        )
        data = simulate_experiment(cfg)
        counts = []
        for grp in data.groups:
            nt = np.where(grp.complier == 0)[0][0]  # one focal per group: independence
            counts.append(int(grp.d.sum() - grp.d[nt]))
        observed = np.bincount(counts, minlength=3)
        expected = binomial_pmf(2, 0.5) * len(counts)
        assert chisquare(observed, expected).pvalue > 0.001


class TestOracle:
    def test_independent_case_returns_unconditional_means(self):
        cfg = homogeneous_config(sigma=(0.3, 0.3, 0.2, 0.4), kappa=(0.0, 0.0, 0.0, 0.0))
        means = oracle_subpopulation_means(cfg, n_draws=4 * 10**5, seed=1)
        for lab in ("population", "complier", "never_taker"):
            assert means[lab].theta_mean[0] == pytest.approx(0.5, abs=0.005)
            assert means[lab].theta_mean[1] == pytest.approx(-0.7, abs=0.005)

    def test_sec6_complier_selection_analytic(self):
        # E[share | C=1] = E[share^2] / E[share], so gamma_c > gamma for kappa > 0
        means = oracle_subpopulation_means(SEC6, n_draws=10**6, seed=2)
        shares = np.asarray(SEC6.realized_shares)
        e1, e2 = shares.mean(), (shares**2).mean()
        mu, sd = share_moments(SEC6)
        cbar_c = (SEC6.n * (e2 / e1) - 1) / (SEC6.n - 1)
        gamma_c = -0.7 + 0.2 * (1.2 / math.sqrt(1.2**2 + 1)) * (cbar_c - mu) / sd
        assert means["complier"].theta_mean[1] == pytest.approx(gamma_c, abs=0.002)
        assert means["complier"].theta_mean[1] > -0.7

    def test_single_support_no_selection(self):
        # with one support point selection can only act through the O(1/n)
        # leave-one-out shift, which vanishes when kappa = 0
        cfg = homogeneous_config(
            n=20, complier_shares=(0.5,), sigma=(0.3, 0.3, 0.2, 0.4), kappa=(0, 0, 0, 0)
        )
        means = oracle_subpopulation_means(cfg, n_draws=4 * 10**5, seed=3)
        assert means["complier"].theta_mean[1] == pytest.approx(
            means["never_taker"].theta_mean[1], abs=0.005
        )

    def test_single_support_nonzero_kappa_degenerate(self):
        cfg = homogeneous_config(
            n=20, complier_shares=(0.5,), sigma=(0.3, 0.3, 0.2, 0.4), kappa=(0, 0, 1.2, 0)
        )
        with pytest.raises(ValidationError):
            oracle_subpopulation_means(cfg, n_draws=10**5, seed=4)

    def test_min_draws_enforced(self):
        with pytest.raises(ValidationError):
            oracle_subpopulation_means(SEC6, n_draws=10**4)

    def test_means_match_masked_reference(self):
        # the subpopulation means are per-coefficient sums; a boolean-masked
        # mean of each subpopulation is the reference, to float64 rounding
        means = oracle_subpopulation_means(SEC6, n_draws=2 * 10**5, seed=6)
        c, _, rows = _oracle_draws(SEC6, 2 * 10**5, 6)
        coefs = np.stack(list(rows))
        assert coefs.shape == (4, 2 * 10**5)
        ref = {
            "population": coefs.mean(axis=1),
            "complier": coefs[:, c == 1.0].mean(axis=1),
            "never_taker": coefs[:, c == 0.0].mean(axis=1),
        }
        for label, m in ref.items():
            assert means[label].theta_mean == pytest.approx((m[0], m[2]), rel=1e-12, abs=1e-14)
            if means[label].contrast_mean is not None:
                assert means[label].contrast_mean == pytest.approx(
                    (m[1], m[3]), rel=1e-12, abs=1e-14
                )

    # with n = 2 no complier has a complier neighbour, so delta's naive
    # estimand is 0/0 in both the oracle and the reference
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("case", ["sigma0", "kappa0", "kappa", "share_probs", "pair"])
    def test_streamed_rows_match_block_reference(self, case):
        cfg = TestSimulationDigest.config(case)
        c, cbar, coefs = _reference_oracle_draws(cfg, 10**5, 8)
        means = oracle_subpopulation_means(cfg, 10**5, seed=8)
        total, complier = coefs.sum(axis=1), coefs @ c
        ref = {
            "population": total / 10**5,
            "complier": complier / c.sum(),
            "never_taker": (total - complier) / (10**5 - c.sum()),
        }
        for label, m in ref.items():
            np.testing.assert_allclose(means[label].theta_mean, m[[0, 2]], rtol=1e-13, atol=0)
            if means[label].contrast_mean is not None:
                np.testing.assert_allclose(
                    means[label].contrast_mean, m[[1, 3]], rtol=1e-13, atol=0
                )
        naive = [
            coefs[0].mean(),
            (c * coefs[1]).mean() / c.mean(),
            (cbar * coefs[2]).mean() / cbar.mean(),
            (c * cbar * coefs[3]).mean() / (c * cbar).mean(),
        ]
        got = oracle_naive_iv_estimands(cfg, 10**5, seed=8)
        np.testing.assert_allclose(got, naive, rtol=1e-13, atol=0)

    def test_peak_memory_is_a_few_rows(self):
        # c, cbar, the row being drawn and its normal draws: 8 MB each at
        # 1e6 draws; a materialized (4, N) block and its temporaries peak at 96 MB
        tracemalloc.start()
        try:
            oracle_subpopulation_means(SEC6, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 10**6

    def test_naive_estimands_match_covariance_formula(self):
        # gamma_IV = gamma + Cov(Cbar, gamma) / E[Cbar]
        est = oracle_naive_iv_estimands(SEC6, n_draws=10**6, seed=5)
        _, sd = share_moments(SEC6)
        counts = np.asarray(SEC6.complier_counts)
        p = np.asarray(SEC6.probs)
        n = SEC6.n
        # exact moments of the leave-one-out share by enumeration over (share, own C)
        cbar_vals, weights = [], []
        for k, pk in zip(counts, p):
            for own, pw in ((1, k / n), (0, 1 - k / n)):
                cbar_vals.append((k - own) / (n - 1))
                weights.append(pk * pw)
        cbar_vals = np.asarray(cbar_vals)
        weights = np.asarray(weights)
        e_cbar = weights @ cbar_vals
        cov = weights @ (cbar_vals - e_cbar) ** 2  # Cov(Cbar, std(Cbar)) * sd
        slope = 0.2 * (1.2 / math.sqrt(1.2**2 + 1)) / sd  # d gamma / d cbar
        gamma_iv = -0.7 + slope * cov / e_cbar
        assert est[0] == pytest.approx(0.5, abs=0.002)
        assert est[1] == pytest.approx(0.2, abs=0.002)
        assert est[2] == pytest.approx(gamma_iv, abs=0.002)
        assert est[2] > -0.7  # biased toward zero


class TestExperimentDataValidation:
    def test_one_sided_violation(self):
        with pytest.raises(ValidationError):
            GroupData(
                0, 0.5, z=np.array([0, 1]), d=np.array([1, 0]), y=np.zeros(2)
            ).validate()

    def test_single_member_group(self):
        with pytest.raises(ValidationError):
            ExperimentData([GroupData(0, 0.5, np.array([1]), np.array([1]), np.zeros(1))])

    def test_non_binary(self):
        with pytest.raises(ValidationError):
            GroupData(
                0, 0.5, z=np.array([0, 2]), d=np.array([0, 0]), y=np.zeros(2)
            ).validate()
