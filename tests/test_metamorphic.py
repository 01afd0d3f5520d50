"""Relations every estimate must satisfy on any data.

Each estimator is linear in y, and the CR0 sandwich is a sum over clusters, so
- y -> a + b*y maps a target's coefficients to b*beta plus a on its intercept
  (the first coefficient of every target), and its vcov to b^2 * vcov;
- every group duplicated under a new id keeps the coefficients and halves the
  vcov, and the IOR Wald statistic doubles, up to the ratio of its
  small-sample factors G/(G-1) * (N-1)/(N-K);
- the groups in reverse order give the same estimates, up to rounding.

They are checked on Sec. 6 data for all six targets, the linear and
quadratic bases and both pure-control policies, and through hypothesis on
small designs with mixed group sizes, pure-control groups and Chat = 0
fallbacks (the strategy of ``test_instrument_reference``).
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sativ.design import SaturationDesign
from sativ.dgp import ExperimentData, SimConfig, simulate_experiment
from sativ.estimator import estimate_all, ior_test
from sativ.model import linear_basis, quadratic_basis
from test_instrument_reference import CASES, _fits, corner_data

TOL = 1e-9
SHIFT, SCALE = 1.75, -2.5

SEC6_DESIGN = SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (47,) * 5)
SEC6_DATA = simulate_experiment(
    SimConfig(
        G=235, n=116, design=SEC6_DESIGN, means=(0.5, 0.2, -0.7, 0.8),
        kappa=(0.0, 0.0, 1.2, 1.5), sigma=(0.3, 0.3, 0.2, 0.4), seed=3,
    )
)


def affine_outcomes(data: ExperimentData) -> ExperimentData:
    return ExperimentData([replace(g, y=SHIFT + SCALE * g.y) for g in data.groups])


def duplicated(data: ExperimentData) -> ExperimentData:
    """Every group, then a copy of every group under a new id."""
    offset = 1 + max(g.group_id for g in data.groups)
    copies = [replace(g, group_id=g.group_id + offset) for g in data.groups]
    return ExperimentData(data.groups + copies)


def reversed_groups(data: ExperimentData) -> ExperimentData:
    return ExperimentData(data.groups[::-1])


def assert_close(got, expect):
    expect = np.asarray(expect)
    assert np.abs(np.asarray(got) - expect).max() <= TOL * np.abs(expect).max()


def assert_relations(data, fit):
    """Each relation for every target that ``fit`` (data -> estimate_all) returns."""
    base = fit(data)
    for target, got in fit(affine_outcomes(data)).items():
        expect = SCALE * base[target].coefficients
        expect[0] += SHIFT
        assert_close(got.coefficients, expect)
        assert_close(got.vcov, SCALE**2 * base[target].vcov)
    for target, got in fit(duplicated(data)).items():
        assert_close(got.coefficients, base[target].coefficients)
        assert_close(got.vcov, base[target].vcov / 2.0)
        assert got.G_used == 2 * base[target].G_used
    for target, got in fit(reversed_groups(data)).items():
        assert_close(got.coefficients, base[target].coefficients)
        assert_close(got.vcov, base[target].vcov)
    assert len(base) == 6


@pytest.mark.parametrize("pure_control", ["gmm", "drop"])
@pytest.mark.parametrize("basis", [linear_basis(), quadratic_basis()], ids=["linear", "quadratic"])
def test_sec6_relations(basis, pure_control):
    assert_relations(
        SEC6_DATA, lambda data: estimate_all(data, basis, SEC6_DESIGN, pure_control=pure_control)
    )


def test_sec6_ior_wald_doubles_with_duplicated_groups():
    def factor(res):  # the small-sample factor G/(G-1) * (N-1)/(N-K)
        g, n, k = res.n_clusters, sum(res.offered_counts), res.df + 1
        return g / (g - 1) * (n - 1) / (n - k)

    base, dup = ior_test(SEC6_DATA), ior_test(duplicated(SEC6_DATA))
    assert dup.n_clusters == 2 * base.n_clusters
    assert_close(dup.wald, 2.0 * base.wald * factor(base) / factor(dup))
    assert dup.take_up_rates == base.take_up_rates


@pytest.mark.parametrize("chat_policy", ["estimate", "oracle"])
@pytest.mark.parametrize("design,pure_control", CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_relations_property(design, pure_control, chat_policy, data):
    sample = data.draw(corner_data(design))
    res = _fits(sample, design, pure_control, chat_policy)  # no singular or ill-conditioned fit
    # a fit with no residual has a vcov of rounding noise, for which no relation holds
    assume(min(np.abs(r.vcov).max() for r in res.values()) > 1e-12)
    assert_relations(
        sample,
        lambda d: estimate_all(
            d, linear_basis(), design, pure_control=pure_control, chat_policy=chat_policy
        ),
    )
