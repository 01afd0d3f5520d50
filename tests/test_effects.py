import numpy as np
import pytest

from sativ.effects import (
    KIND_DE_TREATED,
    KIND_IE0_NEVER_TAKER,
    KIND_IE0_POPULATION,
    KIND_IE0_TREATED,
    KIND_IE1_TREATED,
    KIND_PO_LINE,
    effect_curve,
)
from sativ.errors import UnidentifiedEffectError, ValidationError
from sativ.estimator import (
    TARGET_COMPLIER_PSI,
    TARGET_COMPLIER_THETA,
    TARGET_JOINT,
    TARGET_NEVER_TAKER,
    TARGET_POPULATION,
    EstimateResult,
)
from sativ.model import quadratic_basis


def make_result(target, coefs, vcov=None):
    coefs = np.asarray(coefs, dtype=float)
    if vcov is None:
        vcov = np.zeros((len(coefs), len(coefs)))
    return EstimateResult(target, coefs, np.asarray(vcov, dtype=float), 50, 1000)


JOINT = make_result(
    TARGET_JOINT,
    [0.5, -0.7, 0.2, 0.8],
    np.diag([0.001, 0.002, 0.01, 0.04]),
)


class TestDeltaMethod:
    def test_de_treated_point_and_se(self):
        curve = effect_curve(JOINT, KIND_DE_TREATED, grid=np.array([0.25]))
        assert curve.point[0] == pytest.approx(0.4)
        assert curve.se[0] == pytest.approx(np.sqrt(0.01 + 0.0625 * 0.04))
        assert curve.ci_low[0] == pytest.approx(0.4 - 1.959963984540054 * curve.se[0])

    def test_bands_bracket_point(self):
        curve = effect_curve(JOINT, KIND_DE_TREATED)
        assert np.all(curve.ci_low <= curve.point)
        assert np.all(curve.point <= curve.ci_high)

    def test_gradient_matches_finite_differences(self):
        # the se is ||J' g|| for the gradient g of the effect in the coefficients
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        vcov = a @ a.T
        est = make_result(TARGET_JOINT, [0.4, -0.6, 0.3, 0.7], vcov)
        grid = np.array([0.0, 0.3, 0.9])
        curve = effect_curve(est, KIND_DE_TREATED, grid=grid)

        def functional(coefs, dbar):
            return coefs[2] + coefs[3] * dbar

        h = 1e-6
        for j, dbar in enumerate(grid):
            grad = np.zeros(4)
            for i in range(4):
                up = est.coefficients.copy()
                dn = est.coefficients.copy()
                up[i] += h
                dn[i] -= h
                grad[i] = (functional(up, dbar) - functional(dn, dbar)) / (2 * h)
            se_fd = np.sqrt(grad @ vcov @ grad)
            assert curve.se[j] == pytest.approx(se_fd, rel=1e-6)


class TestLinearShapes:
    def test_ie0_population_constant(self):
        pop = make_result(TARGET_POPULATION, [0.5, -0.7], np.diag([0.01, 0.02]))
        curve = effect_curve(pop, KIND_IE0_POPULATION, grid=np.linspace(0, 0.9, 10), delta=0.1)
        assert np.allclose(curve.point, -0.07)
        # constant up to float error in the grid arithmetic (dbar+delta)-dbar
        assert np.ptp(curve.point) < 1e-14
        assert np.ptp(curve.se) < 1e-14

    def test_de_affine_in_dbar(self):
        curve = effect_curve(JOINT, KIND_DE_TREATED, grid=np.linspace(0, 1, 21))
        second_diff = np.diff(curve.point, 2)
        assert np.abs(second_diff).max() < 1e-14

    def test_po_line_treated_complier(self):
        psi = make_result(TARGET_COMPLIER_PSI, [0.7, 0.1], np.diag([0.01, 0.02]))
        curve = effect_curve(psi, KIND_PO_LINE, grid=np.array([0.0, 0.5, 1.0]))
        assert curve.label == "treated_complier"
        assert np.allclose(curve.point, [0.7, 0.75, 0.8])

    def test_additivity_of_linear_functionals(self):
        # DE(d) - DE(0) equals accumulated IE1 minus accumulated IE0 when all
        # curves come from one consistent coefficient set
        theta_c = np.array([0.45, -0.85])
        psi_c = np.array([0.72, 0.12])
        joint = make_result(TARGET_JOINT, [0.5, -0.7, *(psi_c - theta_c)])
        th = make_result(TARGET_COMPLIER_THETA, theta_c)
        ps = make_result(TARGET_COMPLIER_PSI, psi_c)
        dbar = 0.6
        de = effect_curve(joint, KIND_DE_TREATED, grid=np.array([0.0, dbar]))
        ie0 = effect_curve(th, KIND_IE0_TREATED, grid=np.array([0.0]), delta=dbar)
        ie1 = effect_curve(ps, KIND_IE1_TREATED, grid=np.array([0.0]), delta=dbar)
        lhs = de.point[1] - de.point[0]
        rhs = ie1.point[0] - ie0.point[0]
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(UnidentifiedEffectError):
            effect_curve(JOINT, "IE1_never_taker")

    def test_de_requires_joint(self):
        nt = make_result(TARGET_NEVER_TAKER, [0.5, -0.7])
        with pytest.raises(ValidationError):
            effect_curve(nt, KIND_DE_TREATED)

    def test_ie_source_mismatch(self):
        psi = make_result(TARGET_COMPLIER_PSI, [0.7, 0.1])
        with pytest.raises(ValidationError):
            effect_curve(psi, KIND_IE0_NEVER_TAKER)

    def test_grid_plus_delta_bounded(self):
        pop = make_result(TARGET_POPULATION, [0.5, -0.7])
        with pytest.raises(ValidationError):
            effect_curve(pop, KIND_IE0_POPULATION, grid=np.array([0.95]), delta=0.1)

    def test_positive_delta(self):
        pop = make_result(TARGET_POPULATION, [0.5, -0.7])
        with pytest.raises(ValidationError):
            effect_curve(pop, KIND_IE0_POPULATION, delta=0.0)

    @pytest.mark.parametrize("delta", [-0.1, float("nan"), float("inf")])
    def test_finite_positive_delta(self, delta):
        pop = make_result(TARGET_POPULATION, [0.5, -0.7])
        with pytest.raises(ValidationError, match="finite positive increment"):
            effect_curve(pop, KIND_IE0_POPULATION, grid=np.array([0.0]), delta=delta)

    def test_grid_range(self):
        with pytest.raises(ValidationError):
            effect_curve(JOINT, KIND_DE_TREATED, grid=np.array([-0.1]))

    def test_nan_grid_point_rejected(self):
        # a range check of the form (grid < 0) | (grid > 1) is false for nan
        with pytest.raises(ValidationError, match="grid values must lie in"):
            effect_curve(JOINT, KIND_DE_TREATED, grid=np.array([0.2, np.nan]))

    @pytest.mark.parametrize(
        "kind, target, expect",
        [
            # theta = (1, 2, 3): f(x + 0.1) - f(x) and f(x) with f(x) = (1, x, x^2)
            (KIND_IE0_POPULATION, TARGET_POPULATION, [0.35, 0.53]),
            (KIND_PO_LINE, TARGET_POPULATION, [1.52, 2.75]),
            (KIND_DE_TREATED, TARGET_JOINT, [1.52, 2.75]),
        ],
    )
    def test_basis_must_match_coefficients(self, kind, target, expect):
        # a quadratic-basis estimate read with the default linear basis
        coefs = [1.0, 2.0, 3.0] if target != TARGET_JOINT else [0.0, 0.0, 0.0, 1.0, 2.0, 3.0]
        est = make_result(target, coefs)
        grid = np.array([0.2, 0.5])
        linear = 4 if target == TARGET_JOINT else 2
        with pytest.raises(
            ValidationError,
            match=f"has {len(coefs)} coefficients, but the linear basis gives {linear}",
        ):
            effect_curve(est, kind, grid=grid)
        curve = effect_curve(est, kind, grid=grid, basis=quadratic_basis())
        np.testing.assert_allclose(curve.point, expect, rtol=1e-12)
