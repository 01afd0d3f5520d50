import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from sativ import moments
from sativ.design import SaturationDesign, validate_design
from sativ.dgp import SimConfig, simulate_experiment
from sativ.errors import ValidationError
from sativ.estimator import build_instruments, estimate_all
from sativ.model import linear_basis, quadratic_basis
from sativ.moments import (
    MomentMatrices,
    assemble_q,
    binomial_pmf,
    block_inverse,
    pseudo_inverse,
    pseudo_inverse_stack,
    q_exact,
    q_extended,
    q_limit,
    q_linear_closed_form,
    q_z_at_count,
)
from sativ.streams import substream

LIN = linear_basis()
SEC6_DESIGN = SaturationDesign.from_probs((0.0, 0.25, 0.5, 0.75, 1.0), (0.2,) * 5)
TWO_SAT = SaturationDesign.from_probs((0.25, 0.75), (0.5, 0.5))


def det_q0_single(cbar, s, n):
    return cbar * s * (1 - s) ** 3 / (n - 1)


def det_q1_single(cbar, s, n):
    return cbar * s**3 * (1 - s) / (n - 1)


def det_q0_two_sat(cbar, sl, sh, n):
    return (cbar**2 / 4) * (1 - sl) * (1 - sh) * (sh - sl) ** 2 + cbar * (
        (1 - sl) + (1 - sh)
    ) * (sl * (1 - sl) ** 2 + sh * (1 - sh) ** 2) / (4 * (n - 1))


def det_q1_two_sat(cbar, sl, sh, n):
    return (cbar**2 / 4) * sl * sh * (sh - sl) ** 2 + cbar * (sl + sh) * (
        sl**2 * (1 - sl) + sh**2 * (1 - sh)
    ) / (4 * (n - 1))


class TestBinomialPmf:
    def test_sums_to_one(self):
        for trials, p in ((5, 0.3), (100, 0.01), (10_000, 0.4)):
            pmf = binomial_pmf(trials, p)
            assert np.all(np.isfinite(pmf))
            assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_degenerate(self):
        assert np.allclose(binomial_pmf(4, 0.0), [1, 0, 0, 0, 0])
        assert np.allclose(binomial_pmf(4, 1.0), [0, 0, 0, 0, 1])

    def test_matches_direct_computation(self):
        from math import comb

        pmf = binomial_pmf(12, 0.35)
        direct = [comb(12, m) * 0.35**m * 0.65 ** (12 - m) for m in range(13)]
        assert np.allclose(pmf, direct, rtol=1e-12)


def scalar_q_z(basis, count, n, design, z):
    """Reference enumeration: one log-space pmf and one K x K product per saturation."""
    out = np.zeros((basis.k, basis.k))
    fvals = basis.values(np.arange(count + 1) / (n - 1))
    m = np.arange(count + 1)
    for s, w in zip(design.saturations, design.weights):
        zweight = w * (s if z == 1 else 1.0 - s)
        if zweight == 0.0:
            continue
        if count == 0:
            pmf = np.ones(1)
        elif s in (0.0, 1.0):
            pmf = (m == (0 if s == 0.0 else count)).astype(float)
        else:
            pmf = np.exp(
                gammaln(count + 1) - gammaln(m + 1) - gammaln(count - m + 1)
                + m * np.log(s) + (count - m) * np.log1p(-s)
            )
        out += zweight * (fvals.T @ (pmf[:, None] * fvals))
    return (out + out.T) / 2.0


class TestArrayForm:
    @pytest.mark.parametrize("n", [2, 5, 20, 116, 212])
    @pytest.mark.parametrize("basis", [LIN, quadratic_basis()], ids=["lin", "quad"])
    @pytest.mark.parametrize("design", [SEC6_DESIGN, TWO_SAT], ids=["zero-atom", "no-zero"])
    def test_q_z_at_count_array_equals_scalar_loop(self, design, basis, n):
        for z in (0, 1):
            loop = np.stack([scalar_q_z(basis, c, n, design, z) for c in range(n)])
            assert np.array_equal(q_z_at_count(basis, np.arange(n), n, design)[z], loop)
            some = np.array([n - 1, 0, n // 2])
            assert np.array_equal(q_z_at_count(basis, some, n, design)[z], loop[some])
            assert np.array_equal(q_z_at_count(basis, n // 2, n, design)[z], loop[n // 2])

    def test_q_z_at_count_rejects_bad_counts(self):
        for bad in (np.array([0, 11]), np.array([-1]), np.array([1.5]), np.array([], int)):
            with pytest.raises(ValidationError):
                q_z_at_count(LIN, bad, 11, TWO_SAT)[0]

    def test_q_extended_array_equals_scalar_calls(self):
        cbars = np.array([0.0, 0.4, 0.45, 1.0, 0.3 + 1e-12, 0.777])
        for z in (0, 1):
            stack = q_extended(quadratic_basis(), cbars, 11, SEC6_DESIGN)[z]
            for c, q in zip(cbars, stack):
                one = q_extended(quadratic_basis(), float(c), 11, SEC6_DESIGN)[z]
                assert np.array_equal(q, one)

    def test_q_z_at_count_mixed_sizes_equal_scalar(self):
        # shuffled (count, n) pairs over five sizes, with counts 0 and n-1 at each
        rng = np.random.default_rng(8)
        sizes = [2, 5, 20, 116, 212]
        pairs = [(c, n) for n in sizes for c in {0, n - 1, *rng.integers(0, n, 4).tolist()}]
        counts, ns = rng.permutation(pairs).T
        for basis in (LIN, quadratic_basis()):
            for design in (SEC6_DESIGN, TWO_SAT):
                for z in (0, 1):
                    stack = q_z_at_count(basis, counts, ns, design)[z]
                    for c, n, q in zip(counts, ns, stack):
                        assert np.array_equal(q, scalar_q_z(basis, c, n, design, z))

    def test_q_z_at_count_sizes_beyond_the_shared_table_equal_scalar(self):
        # n above SHARED_PMF_MAX_N gets one pmf row per pair; mixed with shared-table sizes
        rng = np.random.default_rng(10)
        pairs = [(c, n) for n in (20, 1024, 1025, 3000) for c in {0, n - 1, *rng.integers(0, n, 3).tolist()}]
        counts, ns = rng.permutation(pairs).T
        for z in (0, 1):
            stack = q_z_at_count(quadratic_basis(), counts, ns, SEC6_DESIGN)[z]
            for c, n, q in zip(counts, ns, stack):
                assert np.array_equal(q, scalar_q_z(quadratic_basis(), c, n, SEC6_DESIGN, z))

    def test_q_extended_mixed_sizes_equal_scalar_calls(self):
        rng = np.random.default_rng(9)
        ns = rng.permutation(np.repeat([2, 5, 20, 116, 212], 5))
        cbars = rng.random(len(ns))
        cbars[:4] = (0.0, 1.0, 3 / 19, 0.5)
        for basis in (LIN, quadratic_basis()):
            for design in (SEC6_DESIGN, TWO_SAT):
                for z in (0, 1):
                    stack = q_extended(basis, cbars, ns, design)[z]
                    for c, n, q in zip(cbars, ns, stack):
                        assert np.array_equal(q, q_extended(basis, float(c), int(n), design)[z])

    def test_array_n_rejections(self):
        counts = np.array([0, 3, 4])
        for bad_n in (
            np.array([5, 5]),  # misaligned with the counts
            np.array([[5, 5, 5]]),
            np.array([5, 1, 5]),  # a size below 2
            np.array([5.0, 5.0, 5.0]),  # float sizes
            np.array([5, 5, 4]),  # count 4 above its own n-1 = 3
        ):
            with pytest.raises(ValidationError):
                q_z_at_count(LIN, counts, bad_n, TWO_SAT)[0]
        assert q_z_at_count(LIN, counts, np.array([5, 5, 5]), TWO_SAT)[0].shape == (3, 2, 2)
        for bad_n in (np.array([5, 5]), np.array([5, 1, 5]), np.array([5.0, 5.0, 5.0])):
            with pytest.raises(ValidationError):
                q_extended(LIN, np.array([0.1, 0.5, 0.9]), bad_n, TWO_SAT)[1]

    def test_pseudo_inverse_stack_flags_rank_deficient(self):
        stack = np.stack([np.diag([2.0, 4.0]), np.diag([2.0, 0.0]), np.zeros((2, 2))])
        pinv, deficient = pseudo_inverse_stack(stack)
        assert deficient.tolist() == [False, True, True]
        for m, p in zip(stack, pinv):
            assert np.array_equal(p, pseudo_inverse(m))
        assert np.allclose(pinv[1], np.diag([0.5, 0.0]))


class TestQExact:
    def test_single_saturation_determinants(self):
        mm = q_exact(LIN, 0.5, 11, SaturationDesign.from_probs((0.5,), (1.0,)))
        assert np.linalg.det(mm.q0) == pytest.approx(0.003125, abs=1e-12)
        assert np.linalg.det(mm.q1) == pytest.approx(det_q1_single(0.5, 0.5, 11), abs=1e-12)

    def test_cluster_design_matrices(self):
        # s in {0,1}: Q0 = [[1-p,0],[0,0]], Q1 = [[p, cp],[cp, c^2 p]]
        p, cbar, n = 0.4, 0.5, 11
        dsn = SaturationDesign.from_probs((0.0, 1.0), (1 - p, p))
        mm = q_exact(LIN, cbar, n, dsn)
        assert np.allclose(mm.q0, [[1 - p, 0], [0, 0]], atol=1e-14)
        assert np.allclose(mm.q1, [[p, cbar * p], [cbar * p, cbar**2 * p]], atol=1e-14)

    def test_zero_compliers_rank_one(self):
        mm = q_exact(LIN, 0.0, 21, TWO_SAT)
        es = TWO_SAT.moment(1, 0)
        f0 = LIN.values(0.0)
        assert np.allclose(mm.q1, es * np.outer(f0, f0), atol=1e-14)
        assert np.linalg.matrix_rank(mm.q1) == 1

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValidationError):
            q_exact(LIN, 0.37, 11, TWO_SAT)

    def test_symmetry_and_psd(self):
        for cbar in (0.1, 0.5, 1.0):
            mm = q_exact(quadratic_basis(), cbar, 11, SEC6_DESIGN)
            for q in (mm.q0, mm.q1):
                assert np.abs(q - q.T).max() < 1e-14
                assert np.linalg.eigvalsh(q)[0] > -1e-12
        assert np.allclose(mm.q, assemble_q(mm.q0, mm.q1))


class TestClosedFormAgreement:
    @pytest.mark.parametrize("design", [SEC6_DESIGN, TWO_SAT], ids=["sec6", "two-sat"])
    def test_entrywise_agreement(self, design):
        for n in (11, 21, 101):
            for cbar in np.round(np.arange(0, 1.01, 0.1), 10):
                mm = q_exact(LIN, float(cbar), n, design)
                for z, q in ((0, mm.q0), (1, mm.q1)):
                    cf = q_linear_closed_form(float(cbar), n, design, z)
                    assert np.abs(q - cf).max() < 1e-12

    def test_two_saturation_determinant_formula(self):
        for n in (11, 101):
            for cbar in (0.2, 0.5, 1.0):
                cf0 = q_linear_closed_form(cbar, n, TWO_SAT, 0)
                cf1 = q_linear_closed_form(cbar, n, TWO_SAT, 1)
                assert np.linalg.det(cf0) == pytest.approx(
                    det_q0_two_sat(cbar, 0.25, 0.75, n), abs=1e-12
                )
                assert np.linalg.det(cf1) == pytest.approx(
                    det_q1_two_sat(cbar, 0.25, 0.75, n), abs=1e-12
                )

    def test_closed_form_zero_compliers(self):
        cf = q_linear_closed_form(0.0, 11, TWO_SAT, 0)
        assert np.allclose(cf, [[TWO_SAT.moment(0, 1), 0], [0, 0]])


class TestQExtended:
    def test_integer_point_equals_exact(self):
        q = q_extended(LIN, 0.4, 11, TWO_SAT)[1]
        assert np.allclose(q, q_exact(LIN, 0.4, 11, TWO_SAT).q1, atol=1e-15)

    def test_midpoint_is_average(self):
        n = 11
        cbar_mid = 4.5 / (n - 1)
        qa = q_z_at_count(LIN, 4, n, TWO_SAT)[0]
        qb = q_z_at_count(LIN, 5, n, TWO_SAT)[0]
        q = q_extended(LIN, cbar_mid, n, TWO_SAT)[0]
        assert np.allclose(q, (qa + qb) / 2, atol=1e-15)

    def test_interpolation_weights(self):
        n = 11
        qa = q_z_at_count(LIN, 4, n, TWO_SAT)[1]
        qb = q_z_at_count(LIN, 5, n, TWO_SAT)[1]
        q = q_extended(LIN, 4.25 / (n - 1), n, TWO_SAT)[1]
        assert np.allclose(q, 0.75 * qa + 0.25 * qb, atol=1e-15)

    @pytest.mark.parametrize("cbar", [float("nan"), np.array([0.3, float("nan")]), -0.1, 1.5])
    def test_cbar_outside_unit_interval(self, cbar):
        # nan is refused by the range check, not by a later size check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^cbar must lie in \[0, 1\]$"):
                q_extended(LIN, cbar, 11, TWO_SAT)

    def test_psd_everywhere(self):
        rng = substream(9)
        for cbar in rng.random(25):
            for z in (0, 1):
                q = q_extended(quadratic_basis(), float(cbar), 17, SEC6_DESIGN)[z]
                assert np.abs(q - q.T).max() < 1e-14
                assert np.linalg.eigvalsh(q)[0] > -1e-12

    def test_lipschitz_stable_in_n(self):
        # max ||dQ||/|dc| over adjacent grid pairs is bounded and stable in n
        grid = np.linspace(0.0, 1.0, 41)
        ratios = []
        for n in (51, 201, 801):
            qs = [q_extended(LIN, float(c), n, TWO_SAT)[1] for c in grid]
            diffs = [
                np.linalg.norm(qa - qb, 2) / (grid[i + 1] - grid[i])
                for i, (qa, qb) in enumerate(zip(qs, qs[1:]))
            ]
            ratios.append(max(diffs))
        assert max(ratios) < 10.0
        assert max(ratios) / min(ratios) < 3.0


class TestMonteCarloAgreement:
    def test_matches_simulated_experiment(self):
        # empirical average of 1(Z=z) f(Dbar) f(Dbar)' over simulated individuals
        cbar, n, draws = 0.4, 6, 10**6
        count = round((n - 1) * cbar)
        rng = substream(17)
        s = rng.choice(TWO_SAT.saturations, size=draws, p=TWO_SAT.weights)
        z = rng.random(draws) < s
        m = rng.binomial(count, s)
        f = LIN.values(m / (n - 1))
        mm = q_exact(LIN, cbar, n, TWO_SAT)
        for zval, q in ((0, mm.q0), (1, mm.q1)):
            ind = (z == zval).astype(float)
            prods = ind[:, None, None] * np.einsum("ni,nj->nij", f, f)
            emp = prods.mean(axis=0)
            mc_se = prods.std(axis=0) / np.sqrt(draws)
            assert np.all(np.abs(emp - q) <= 3 * mc_se + 1e-12)


class TestBlockInverse:
    def test_identity_blocks(self):
        eye = np.eye(3)
        out = block_inverse(eye, eye)
        expected = np.block([[eye, -eye], [-eye, 2 * eye]])
        assert np.allclose(out, expected)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_spd_blocks(self, seed):
        rng = substream(seed)
        k = int(rng.integers(2, 4))
        a = rng.standard_normal((k, k))
        b = rng.standard_normal((k, k))
        q0 = a @ a.T + 0.1 * np.eye(k)
        q1 = b @ b.T + 0.1 * np.eye(k)
        q = assemble_q(q0, q1)
        inv = block_inverse(np.linalg.inv(q0), np.linalg.inv(q1))
        assert np.abs(inv @ q - np.eye(2 * k)).max() < 1e-10
        assert np.abs(inv - np.linalg.inv(q)).max() < 1e-8

    def test_from_exact_evaluation(self):
        dsn = SaturationDesign.from_probs((0.25, 0.75), (0.5, 0.5))
        mm = q_exact(LIN, 0.4, 6, dsn)
        inv = block_inverse(np.linalg.inv(mm.q0), np.linalg.inv(mm.q1))
        assert np.abs(inv @ mm.q - np.eye(4)).max() < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            block_inverse(np.eye(2), np.eye(3))


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_equals_inverse_when_well_conditioned(self):
        rng = substream(2)
        a = rng.standard_normal((4, 4))
        spd = a @ a.T + 0.5 * np.eye(4)
        assert np.allclose(pseudo_inverse(spd), np.linalg.inv(spd), atol=1e-10)

    def test_penrose_conditions_on_degenerate_q1(self):
        # rank-1 Q1 at cbar=0 from the cluster design
        dsn = SaturationDesign.from_probs((0.0, 1.0), (0.6, 0.4))
        q1 = q_exact(LIN, 0.0, 11, dsn).q1
        p = pseudo_inverse(q1)
        assert np.abs(q1 @ p @ q1 - q1).max() < 1e-9
        assert np.abs(p @ q1 @ p - p).max() < 1e-9
        assert np.abs((q1 @ p) - (q1 @ p).T).max() < 1e-9
        assert np.abs((p @ q1) - (p @ q1).T).max() < 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            pseudo_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestQLimit:
    def test_single_saturation_limit_singular(self):
        dsn = SaturationDesign.from_probs((0.5,), (1.0,))
        q = q_limit(LIN, 0.3, dsn)[0]
        assert abs(np.linalg.det(q)) < 1e-15

    def test_enumeration_approaches_limit(self):
        q_inf = q_limit(LIN, 0.5, TWO_SAT)[1]
        gaps = []
        for n in (11, 101, 1001):
            q_n = q_exact(LIN, 0.5, n, TWO_SAT).q1
            gaps.append(np.linalg.norm(q_n - q_inf))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


class TestOneEnumerationPerCaller:
    """Every caller takes Q0 and Q1 from a single ``q_z_at_count`` call."""

    DESIGN = SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (6,) * 5)

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        enumerate_q = moments.q_z_at_count

        def counted(*args, **kwargs):
            seen.append(args)
            return enumerate_q(*args, **kwargs)

        monkeypatch.setattr(moments, "q_z_at_count", counted)
        return seen

    @pytest.fixture(scope="class")
    def data(self):
        cfg = SimConfig(G=30, n=20, design=self.DESIGN, means=(0.5, 0.2, -0.7, 0.8),
                        kappa=(0.0, 0.0, 1.2, 1.5), sigma=(0.3, 0.3, 0.2, 0.4), seed=4)
        return simulate_experiment(cfg)

    @pytest.mark.parametrize("pure_control", ["gmm", "drop"])
    def test_estimate_all(self, calls, data, pure_control):
        estimate_all(data, LIN, self.DESIGN, pure_control=pure_control)
        assert len(calls) == 1

    @pytest.mark.parametrize("target", ["joint", "complier_psi", "never_taker", "population"])
    def test_build_instruments(self, calls, data, target):
        build_instruments(data, LIN, self.DESIGN, target)
        assert len(calls) == 1

    def test_validate_design(self, calls):
        validate_design(SEC6_DESIGN, quadratic_basis(), n_grid=(11, 101, 1001, 2000))
        assert len(calls) == 1
