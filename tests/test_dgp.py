import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from sativ.design import SaturationDesign
from sativ.dgp import (
    ORACLE_BLOCK,
    ExperimentData,
    GroupData,
    SimConfig,
    _coefficient,
    _oracle_sums,
    oracle_naive_iv_estimands,
    oracle_subpopulation_means,
    simulate_experiment,
    simulate_group,
)
from sativ.errors import ValidationError
from sativ.moments import binomial_pmf
from sativ.streams import TAG_GROUP, TAG_ORACLE, replication_seed, substream

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

    @pytest.mark.parametrize("name", ["means", "kappa", "sigma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_coefficient_parameters_rejected(self, name, bad):
        with pytest.raises(ValidationError, match=f"^{name} entries must be finite$"):
            homogeneous_config(**{name: (0.5, bad, 0.0, 0.0)})

    def test_nan_share_probs_rejected(self):
        # nan probabilities would send every group to the first support point
        with pytest.raises(ValidationError, match="^share_probs must be a probability vector$"):
            homogeneous_config(complier_shares=(0.2, 0.4), share_probs=(math.nan, math.nan))

    @pytest.mark.parametrize(
        "name,value", [("G", 50.5), ("n", 20.5), ("G", 1), ("n", 1), ("n", "20")]
    )
    def test_group_count_and_size_are_integers_of_at_least_2(self, name, value):
        with pytest.raises(
            ValidationError, match=rf"^{name} must be an integer of at least 2, got {value!r}$"
        ):
            homogeneous_config(**{name: value})

    def test_integral_group_count_and_size_stored_as_int(self):
        cfg = homogeneous_config(G=50.0, n=np.int64(20))
        assert (type(cfg.G), type(cfg.n)) == (int, int)
        assert cfg == homogeneous_config()

    @pytest.mark.parametrize(
        "seed, source, bad",
        [(True, "seed", True), (-1, "seed", -1), (1.5, "seed", 1.5), ("7", "seed", "7"),
         ((1, -2), "seed entry", -2), ([3, False], "seed entry", False)],
        ids=["bool", "negative", "fraction", "string", "tuple-negative", "list-bool"],
    )
    def test_seed_checked_at_construction(self, seed, source, bad):
        # before, numpy refused these only at the first draw, or (True) drew as seed 1
        with pytest.raises(
            ValidationError, match=rf"^{source} must be an integer of at least 0, got {bad!r}$"
        ):
            homogeneous_config(seed=seed)

    def test_seed_stored_as_int_or_tuple(self):
        # a list seed is stored as a tuple and an integral float as the int;
        # both draw what the stored form draws
        assert homogeneous_config(seed=[11, 3.0]).seed == (11, 3)
        assert homogeneous_config(seed=7.0) == homogeneous_config(seed=7)
        listed = simulate_experiment(homogeneous_config(seed=[11, 3]))
        tupled = simulate_experiment(homogeneous_config(seed=(11, 3)))
        assert np.array_equal(listed.y, tupled.y)

    def test_counts_round_to_integers(self):
        # 116 * 0.1 = 11.6 is not realizable; counts snap to nearest integer
        assert SEC6.complier_counts == (12, 23, 35, 46, 58)
        assert SEC6.realized_shares == tuple(k / 116 for k in (12, 23, 35, 46, 58))
        mu, sd = SEC6.share_moments
        assert mu == pytest.approx(0.3, abs=1e-12)
        assert sd == pytest.approx(math.sqrt(7378 / (5 * 116**2) - 0.09), abs=1e-12)

    def test_key_cbar(self):
        # key 2j + c holds (k_j - c) / (n - 1), and the cached array is read-only
        expect = [(k - c) / 115 for k in (12, 23, 35, 46, 58) for c in (0, 1)]
        assert SEC6.key_cbar.tolist() == expect
        with pytest.raises(ValueError):
            SEC6.key_cbar[0] = 0.0


class TestDrawCoefficient:
    def test_zero_sigma_is_exact(self):
        u = substream(1).standard_normal(11)
        out = _coefficient(0.5, 1.2, 0.0, np.linspace(0, 1, 11), (0.3, 0.14), u)
        assert np.all(out == 0.5)

    def test_zero_kappa_is_iid_normal(self):
        rng = substream(2)
        cbar = substream(3).random(10**5)
        out = _coefficient(0.5, 0.0, 0.3, cbar, (0.5, 0.2), rng.standard_normal(10**5))
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
        u = rng.standard_normal(n_draws)
        out = _coefficient(-0.7, 1.2, 0.2, cbar, SEC6.share_moments, u)
        target = 1.2 / math.sqrt(1.2**2 + 1)
        assert np.corrcoef(out, cbar)[0, 1] == pytest.approx(target, abs=0.005)

    def test_degenerate_share_distribution_rejected(self):
        with pytest.raises(ValidationError):
            u = substream(5).standard_normal(1)
            _coefficient(0.5, 1.2, 0.3, np.array([0.5]), (0.5, 0.0), u)


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
    simulator as it was before its per-group work was batched, with its own
    support law (a clamped search of the unnormalized cdf, which equals the
    normalized one whenever the probabilities sum to exactly 1)."""
    rng = substream(cfg.seed, TAG_GROUP, group_id)
    n = cfg.n
    idx = int(np.searchsorted(np.cumsum(cfg.probs), rng.random(), side="right"))
    k = cfg.complier_counts[min(idx, len(cfg.complier_shares) - 1)]
    c = np.zeros(n, dtype=np.int8)
    c[rng.permutation(n)[:k]] = 1
    z = np.full(n, saturation == 1.0, dtype=np.int8)
    if 0.0 < saturation < 1.0:  # s = 0 and s = 1 draw no offers
        z = (rng.random(n) < saturation).astype(np.int8)
    d = (c * z).astype(np.int8)
    cbar = (k - c.astype(float)) / (n - 1)
    coefs = np.empty((n, 4))
    for j in range(4):
        if cfg.sigma[j] == 0.0:  # a noiseless coefficient draws nothing
            coefs[:, j] = cfg.means[j]
            continue
        coefs[:, j] = _coefficient(
            cfg.means[j], cfg.kappa[j], cfg.sigma[j], cbar, cfg.share_moments,
            rng.standard_normal(n),
        )
    dbar = (d.sum() - d) / (n - 1)
    y = coefs[:, 0] + coefs[:, 1] * d + coefs[:, 2] * dbar + coefs[:, 3] * d * dbar
    return GroupData(group_id, float(saturation), z, d, y, complier=c, coefs=coefs)


def _reference_oracle_draws(cfg: SimConfig, n_draws: int, seed: int):
    """The oracle's draws as one materialized (4, N) block, each coefficient
    written out as one expression: the oracle as it was before its rows
    were streamed.  Also each draw's key 2j + c (support point j, flag c)."""
    rng = substream(seed, TAG_ORACLE)
    counts = np.asarray(cfg.complier_counts)
    point = rng.choice(len(counts), size=n_draws, p=np.asarray(cfg.probs))
    k = counts[point]
    c = (rng.random(n_draws) * cfg.n < k).astype(float)
    cbar = (k - c) / (cfg.n - 1)
    mu, sd = cfg.share_moments
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
    return 2 * point + c.astype(np.intp), c, cbar, coefs


def _assert_key_sums_match_reference(cfg: SimConfig, n_draws: int, seed: int):
    """``_oracle_sums``' per-key statistics against the reference's draws: each
    key's draw count N_k exactly, its cbar_k each of its draws' cbar bit for
    bit, and each coefficient's per-key sum S_jk, summed in another order, to
    float64 rounding."""
    n_k, cbar, sums = _oracle_sums(replace(cfg, seed=seed), n_draws)
    key, _, ref_cbar, coefs = _reference_oracle_draws(cfg, n_draws, seed)
    n_keys = 2 * len(cfg.complier_shares)
    assert n_k.dtype == np.int64 and cbar.shape == (n_keys,) and sums.shape == (4, n_keys)
    assert np.array_equal(n_k, np.bincount(key, minlength=n_keys))
    assert np.array_equal(cbar[key], ref_cbar)
    ref_sums = [np.bincount(key, weights=row, minlength=n_keys) for row in coefs]
    np.testing.assert_allclose(sums, ref_sums, rtol=1e-12, atol=0)


class TestOffers:
    def test_offer_count_is_binomial(self):
        # at an interior saturation a group's offer count follows Binomial(n, s)
        n, s, G = 10, 0.3, 10**4
        design = SaturationDesign.from_probs((s,), (1.0,))
        cfg = homogeneous_config(G=G, n=n, design=design, seed=21)
        counts = [int(g.z.sum()) for g in simulate_experiment(cfg).groups]
        observed = np.bincount(counts, minlength=n + 1)
        expected = binomial_pmf(n, s) * G
        keep = expected >= 5
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        assert chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 0.001

    def test_corner_saturations_offer_no_one_or_everyone(self):
        data = simulate_experiment(homogeneous_config(G=15, design=CORNERS))
        for g in data.groups:
            if g.saturation in (0.0, 1.0):
                assert np.all(g.z == g.saturation), g.group_id
        assert {g.saturation for g in data.groups} == set(CORNERS.saturations)


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


class TestBatchedStreams:
    """``simulate_experiment`` seeds its groups' streams in one batch, and
    ``simulate_group`` seeds its one stream with ``substream``: both must
    give each group the same draws."""

    @pytest.mark.parametrize(
        "seed", [0, 11, 2**40 + 3, replication_seed(11, 4), (1, 2, 3, 4, 5, 6)]
    )
    def test_simulate_group_equals_experiment_group(self, seed):
        cfg = SimConfig(
            G=15, n=9, design=CORNERS, means=(0.5, 0.2, -0.7, 0.8),
            kappa=(0.0, 0.0, 1.2, 1.5), sigma=NOISE, seed=seed,
        )
        data = simulate_experiment(cfg)
        alone = [simulate_group(cfg, g.group_id, g.saturation) for g in data.groups]
        ref = [_reference_group(cfg, g.group_id, g.saturation) for g in data.groups]
        digest = TestSimulationDigest.digest
        assert digest(ExperimentData(alone)) == digest(data) == digest(ExperimentData(ref))


def support_config(probs) -> SimConfig:
    """A config whose support law has the probabilities ``probs``."""
    return homogeneous_config(
        complier_shares=tuple(np.linspace(0.0, 1.0, len(probs))), share_probs=probs
    )


class TestSupportIndices:
    @pytest.mark.parametrize(
        "probs",
        [
            (0.2,) * 5,
            (0.05, 0.15, 0.3, 0.25, 0.25),
            (0.1, 0.0, 0.5, 0.4),  # a zero-probability point inside
            (0.0, 0.3, 0.7, 0.0),  # and at both ends
            (1.0,),
        ],
    )
    def test_equals_generator_choice(self, probs):
        cfg = support_config(probs)
        rng, ref = substream(5, TAG_ORACLE), substream(5, TAG_ORACLE)
        got = cfg.support_index(rng.random(10**5), out=np.empty(10**5, dtype=np.int64))
        expect = ref.choice(len(probs), size=10**5, p=np.asarray(probs))
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)
        assert rng.random() == ref.random()  # the same draws were consumed
        assert not np.isin(np.flatnonzero(np.asarray(probs) == 0.0), got).any()

    @pytest.mark.parametrize("size", [1, 235, 1024, 1025])
    def test_few_uniforms_equal_many(self, size):
        # a uniform's support point does not depend on how many are drawn with it
        for probs in ((0.2,) * 5, (0.1, 0.0, 0.5, 0.4), (0.0, 0.3, 0.7, 0.0), (1.0,)):
            cfg = support_config(probs)
            u = substream(6).random(size)
            cdf = np.cumsum(probs)
            edges = cdf[:-1] / cdf[-1]
            u[: len(edges)] = edges[:size]  # a uniform on an edge counts it
            got = cfg.support_index(u, out=np.empty(size, dtype=np.intp))
            copies = 2048
            many = cfg.support_index(np.tile(u, copies), np.empty(copies * size, dtype=np.intp))
            assert np.array_equal(np.tile(got, copies), many)

    def test_short_probabilities_never_reach_a_zero_point(self):
        # the config accepts probabilities that sum to 1 - 5e-13; the mass
        # above their sum goes to the last point of positive probability, as
        # Generator.choice's normalized cdf gives it, not to the empty point 2
        cfg = support_config((0.5, 0.5 - 5e-13, 0.0))
        u = np.array([0.0, 0.25, 0.5, 0.75, 1 - 5e-13, 1 - 2.5e-13, np.nextafter(1.0, 0.0)])
        got = cfg.support_index(u, out=np.empty(len(u), dtype=np.intp))
        assert got.tolist() == [0, 0, 0, 1, 1, 1, 1]

    @pytest.mark.parametrize("share_probs", [(0.2, 0.5, 0.3), (0.6, 0.0, 0.4)])
    def test_oracle_draws_equal_choice_reference(self, share_probs):
        cfg = SimConfig(
            G=15, n=9, design=CORNERS, means=(0.5, 0.2, -0.7, 0.8),
            kappa=(0.0, 0.0, 1.2, 0.0), sigma=(0.3, 0.0, 0.2, 0.0),
            complier_shares=(0.0, 0.5, 1.0), share_probs=share_probs, seed=11,
        )
        _assert_key_sums_match_reference(cfg, 10**5, 8)


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
        means = oracle_subpopulation_means(replace(cfg, seed=1), n_draws=4 * 10**5)
        for lab in ("population", "complier", "never_taker"):
            assert means[lab].theta_mean[0] == pytest.approx(0.5, abs=0.005)
            assert means[lab].theta_mean[1] == pytest.approx(-0.7, abs=0.005)

    def test_sec6_complier_selection_analytic(self):
        # E[share | C=1] = E[share^2] / E[share], so gamma_c > gamma for kappa > 0
        means = oracle_subpopulation_means(replace(SEC6, seed=2), n_draws=10**6)
        shares = np.asarray(SEC6.realized_shares)
        e1, e2 = shares.mean(), (shares**2).mean()
        mu, sd = SEC6.share_moments
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
        means = oracle_subpopulation_means(replace(cfg, seed=3), n_draws=4 * 10**5)
        assert means["complier"].theta_mean[1] == pytest.approx(
            means["never_taker"].theta_mean[1], abs=0.005
        )

    def test_single_support_nonzero_kappa_degenerate(self):
        cfg = homogeneous_config(
            n=20, complier_shares=(0.5,), sigma=(0.3, 0.3, 0.2, 0.4), kappa=(0, 0, 1.2, 0)
        )
        with pytest.raises(ValidationError):
            oracle_subpopulation_means(replace(cfg, seed=4), n_draws=10**5)

    def test_min_draws_enforced(self):
        with pytest.raises(ValidationError):
            oracle_subpopulation_means(SEC6, n_draws=10**4)

    def test_means_match_masked_reference(self):
        # the subpopulation means are sums of per-key sums; a boolean-masked
        # mean of each subpopulation of the reference draws is the reference,
        # to float64 rounding
        means = oracle_subpopulation_means(replace(SEC6, seed=6), n_draws=2 * 10**5)
        _, c, _, coefs = _reference_oracle_draws(SEC6, 2 * 10**5, 6)
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

    @pytest.mark.parametrize("case", ["sigma0", "kappa0", "kappa", "share_probs", "pair"])
    def test_streamed_rows_match_block_reference(self, case):
        cfg = TestSimulationDigest.config(case)
        _, c, cbar, coefs = _reference_oracle_draws(cfg, 10**5, 8)
        means = oracle_subpopulation_means(replace(cfg, seed=8), 10**5)
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
        if case == "pair":
            # with n = 2 no complier has a complier neighbour: E[C Cbar] = 0
            assert (c * cbar).sum() == 0.0
            with pytest.raises(ValidationError, match=r"delta_IV .*E\[C Cbar\] = 0"):
                oracle_naive_iv_estimands(replace(cfg, seed=8), 10**5)
            return
        naive = [
            coefs[0].mean(),
            (c * coefs[1]).mean() / c.mean(),
            (cbar * coefs[2]).mean() / cbar.mean(),
            (c * cbar * coefs[3]).mean() / (c * cbar).mean(),
        ]
        got = oracle_naive_iv_estimands(replace(cfg, seed=8), 10**5)
        np.testing.assert_allclose(got, naive, rtol=1e-13, atol=0)

    def test_naive_estimands_need_compliers(self):
        cfg = homogeneous_config(complier_shares=(0.0,), sigma=(0.3, 0.3, 0.2, 0.4))
        with pytest.raises(ValidationError, match=r"beta_IV .*E\[C\] = 0"):
            oracle_naive_iv_estimands(replace(cfg, seed=9), 10**5)

    @pytest.mark.parametrize("shares, label", [((0.0,), "complier"), ((1.0,), "never_taker")])
    def test_empty_subpopulation_raises(self, shares, label):
        cfg = homogeneous_config(complier_shares=shares, sigma=(0.3, 0.3, 0.2, 0.4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no nan means, and no divide warning on the way
            with pytest.raises(ValidationError, match=f"^{label} means are undefined: no {label} "):
                oracle_subpopulation_means(replace(cfg, seed=9), 10**5)

    @pytest.mark.parametrize(
        "n_draws", [10**5, 4 * ORACLE_BLOCK - 1, 4 * ORACLE_BLOCK, 4 * ORACLE_BLOCK + 1]
    )
    def test_blocks_at_boundaries_equal_reference(self, n_draws):
        # short last blocks, none, and one of a single draw; the share_probs
        # case has a noiseless, a kappa = 0 and a kappa != 0 coefficient
        _assert_key_sums_match_reference(TestSimulationDigest.config("share_probs"), n_draws, 8)

    @staticmethod
    def peak_bytes(oracle, n_draws: int) -> int:
        tracemalloc.start()
        try:
            oracle(SEC6, n_draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_is_a_few_rows(self):
        # 1 byte per draw (its key) and a few blocks: ~2 MB at 1e6 draws;
        # full-length rows of all draws peak at 32 MB
        assert self.peak_bytes(oracle_subpopulation_means, 10**6) < 8 * 10**6

    def test_naive_estimands_peak_memory_is_a_few_rows(self):
        # ~2 MB at 1e6 draws; full-length rows and weights peak at 40 MB
        assert self.peak_bytes(oracle_naive_iv_estimands, 10**6) < 8 * 10**6

    def test_peak_memory_grows_by_two_bytes_per_draw(self):
        # ~11 MB at 1e7 draws, against 320 MB with full-length rows
        assert self.peak_bytes(oracle_subpopulation_means, 10**7) < 2 * 10**7 + 6 * 10**6

    def test_peak_memory_grows_by_one_byte_per_draw(self):
        # the key of each draw (1e7 bytes) and a few blocks; a support index
        # and a flag per draw peak at ~22 MB
        assert self.peak_bytes(oracle_naive_iv_estimands, 10**7) < 10**7 + 6 * 10**6

    def test_naive_estimands_match_covariance_formula(self):
        # gamma_IV = gamma + Cov(Cbar, gamma) / E[Cbar]
        est = oracle_naive_iv_estimands(replace(SEC6, seed=5), n_draws=10**6)
        _, sd = SEC6.share_moments
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
    def test_repeated_group_id_refused(self):
        # a CSV round trip would pool the two groups into one cluster
        g = GroupData(3, 0.5, np.array([1, 0]), np.array([1, 0]), np.zeros(2))
        other = GroupData(4, 0.5, np.array([0, 1]), np.array([0, 0]), np.ones(2))
        with pytest.raises(ValidationError, match="^group 3: id repeated; ids must be unique$"):
            ExperimentData([g, other, g])

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_outcome(self, bad):
        # ingest_csv rejects the same value; in-memory data must not reach the
        # estimators and come back as nan coefficients
        groups = [
            GroupData(0, 0.5, np.array([1, 0, 1]), np.array([1, 0, 0]), np.array([0.3, bad, 1.0])),
            GroupData(1, 0.5, np.array([0, 1]), np.array([0, 1]), np.zeros(2)),
        ]
        with pytest.raises(ValidationError, match="group 0: outcome must be finite"):
            ExperimentData(groups)
