"""The basis, the mean coefficients and the model's effect functionals.

Potential-outcome lines and direct and indirect effects are linear
functionals of mean coefficients, and ``effects.effect_curve`` is their one
definition, so the functional tests here evaluate it on set coefficients.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sativ.effects import (
    KIND_DE_TREATED,
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
    TARGET_NAIVE,
    TARGET_NEVER_TAKER,
    TARGET_POPULATION,
    EstimateResult,
)
from sativ.model import (
    BasisSpec,
    MeanCoefficients,
    basis_by_name,
    linear_basis,
    quadratic_basis,
)

LIN = linear_basis()
THETA, CONTRAST, PSI = (0.5, -0.7), (0.2, 0.8), (0.7, 0.1)  # PSI = THETA + CONTRAST


def estimate(target: str, coefs) -> EstimateResult:
    coefs = np.asarray(coefs, dtype=float)
    return EstimateResult(target, coefs, np.zeros((len(coefs), len(coefs))), 50, 1000)


def value(est: EstimateResult, kind: str, dbar: float, delta: float = 0.1) -> float:
    """The effect ``kind`` of ``est`` at one neighbor share."""
    return float(effect_curve(est, kind, grid=np.array([dbar]), delta=delta).point[0])


class TestBasisSpec:
    def test_linear_is_one_x(self):
        assert np.allclose(LIN.values(0.37), [1.0, 0.37])
        assert LIN.k == 2

    def test_quadratic(self):
        assert np.allclose(quadratic_basis().values(0.5), [1.0, 0.5, 0.25])

    def test_by_name(self):
        assert basis_by_name("linear").name == "linear"
        with pytest.raises(ValidationError):
            basis_by_name("cubic-splines")

    def test_unbounded_function_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ValidationError):
            BasisSpec("bad", (lambda x: 1.0 / x,))

    def test_argument_range(self):
        with pytest.raises(ValidationError):
            LIN.values(1.5)

    @pytest.mark.parametrize("x", [np.nan, np.array([0.2, np.nan])])
    def test_nan_argument_rejected(self, x):
        with pytest.raises(ValidationError, match="outside"):
            LIN.values(x)


class TestPotentialOutcome:
    def test_untreated_intercept(self):
        untreated = estimate(TARGET_COMPLIER_THETA, THETA)
        assert value(untreated, KIND_PO_LINE, 0.0) == pytest.approx(0.5)

    def test_treated_at_half(self):
        # (0.5+0.2) + (-0.7+0.8)*0.5
        assert value(estimate(TARGET_COMPLIER_PSI, PSI), KIND_PO_LINE, 0.5) == pytest.approx(0.75)

    def test_equal_arms_coincide(self):
        untreated = estimate(TARGET_COMPLIER_THETA, (0.3, 1.2))
        treated = estimate(TARGET_COMPLIER_PSI, (0.3, 1.2))
        for dbar in (0.0, 0.4, 1.0):
            assert value(untreated, KIND_PO_LINE, dbar) == value(treated, KIND_PO_LINE, dbar)

    def test_dbar_range(self):
        with pytest.raises(ValidationError):
            value(estimate(TARGET_COMPLIER_THETA, THETA), KIND_PO_LINE, 1.2)

    @pytest.mark.parametrize("target", [TARGET_JOINT, TARGET_NAIVE])
    def test_unidentified_line(self, target):
        # the joint and naive coefficients are no single arm's mean
        with pytest.raises(UnidentifiedEffectError):
            value(estimate(target, (0.5, -0.7, 0.2, 0.8)), KIND_PO_LINE, 0.5)

    @given(
        theta=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
        psi=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
        d=st.sampled_from([0, 1]),
        dbar=st.floats(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_l1_norms(self, theta, psi, d, dbar):
        est = estimate(TARGET_COMPLIER_PSI, psi) if d else estimate(TARGET_COMPLIER_THETA, theta)
        contrast = tuple(p - t for t, p in zip(theta, psi))
        bound = max(LIN.sup_bounds) * (
            sum(abs(v) for v in theta) + sum(abs(v) for v in contrast)
        )
        assert abs(value(est, KIND_PO_LINE, dbar)) <= bound + 1e-9


class TestDirectEffect:
    def test_linear_value(self):
        joint = estimate(TARGET_JOINT, THETA + CONTRAST)
        assert value(joint, KIND_DE_TREATED, 0.5) == pytest.approx(0.6)

    def test_zero_contrast(self):
        joint = estimate(TARGET_JOINT, (1.0, 1.0, 0.0, 0.0))
        for dbar in np.linspace(0, 1, 7):
            assert value(joint, KIND_DE_TREATED, dbar) == 0.0

    def test_never_taker_unidentified(self):
        # only the joint fit has a contrast block; never-takers have no contrast
        for target in (TARGET_NEVER_TAKER, TARGET_POPULATION, TARGET_COMPLIER_THETA,
                       TARGET_COMPLIER_PSI):
            with pytest.raises(ValidationError):
                value(estimate(target, THETA), KIND_DE_TREATED, 0.3)

    def test_never_taker_contrast_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            MeanCoefficients("never_taker", theta_mean=(0.5,), contrast_mean=(0.1,))

    @given(
        shift=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        dbar=st.floats(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_depends_only_on_contrast(self, shift, dbar):
        # adding v to both arms moves only the theta block of the joint fit
        base = estimate(TARGET_JOINT, THETA + CONTRAST)
        shifted = estimate(TARGET_JOINT, (0.5 + shift[0], -0.7 + shift[1]) + CONTRAST)
        assert value(base, KIND_DE_TREATED, dbar) == value(shifted, KIND_DE_TREATED, dbar)


class TestIndirectEffect:
    UNTREATED = estimate(TARGET_COMPLIER_THETA, THETA)
    TREATED = estimate(TARGET_COMPLIER_PSI, PSI)

    def test_untreated_linear(self):
        # IE_0 = delta-increment times the slope mean
        for dbar in (0.0, 0.3, 0.9):
            assert value(self.UNTREATED, KIND_IE0_TREATED, dbar, 0.1) == pytest.approx(-0.07)

    def test_zero_delta_rejected(self):
        with pytest.raises(ValidationError):
            value(self.UNTREATED, KIND_IE0_TREATED, 0.5, 0.0)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            value(self.UNTREATED, KIND_IE0_TREATED, 0.95, 0.1)

    def test_treated_never_taker_unidentified(self):
        # the treated arm's IE needs the complier psi fit; a never-taker fit has none
        with pytest.raises(ValidationError):
            value(estimate(TARGET_NEVER_TAKER, THETA), KIND_IE1_TREATED, 0.2, 0.1)

    def test_treated_uses_psi(self):
        # psi = (0.7, 0.1): IE_1 = 0.1 * 0.1
        assert value(self.TREATED, KIND_IE1_TREATED, 0.4, 0.1) == pytest.approx(0.01)

    def test_linear_ie_constant_in_dbar(self):
        vals = [value(self.TREATED, KIND_IE1_TREATED, db, 0.05) for db in (0.0, 0.25, 0.5)]
        assert np.ptp(vals) < 1e-15
