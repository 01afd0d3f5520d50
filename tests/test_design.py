import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from sativ.design import SaturationDesign, sample_saturations, validate_design
from sativ.errors import ValidationError
from sativ.model import linear_basis
from sativ.streams import substream


class TestSaturationDesign:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            SaturationDesign.from_probs((0.2, 0.8), (0.5, 0.6))

    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (math.nan, math.nan), (1.0, math.nan)])
    def test_nan_weights_rejected(self, weights):
        # nan fails every comparison, so the checks must hold, not merely not fail
        with pytest.raises(ValidationError, match="^weights must"):
            SaturationDesign.from_probs((0.25, 0.75), weights)

    def test_saturations_must_be_distinct(self):
        with pytest.raises(ValidationError):
            SaturationDesign.from_probs((0.5, 0.5), (0.5, 0.5))

    def test_saturation_range(self):
        with pytest.raises(ValidationError):
            SaturationDesign.from_probs((1.2,), (1.0,))

    def test_moments(self):
        dsn = SaturationDesign.from_probs((0.25, 0.75), (0.5, 0.5))
        assert dsn.moment(1, 0) == pytest.approx(0.5)
        assert dsn.moment(1, 1) == pytest.approx(0.5 * (0.25 * 0.75 + 0.75 * 0.25))

    def test_positive_part_renormalizes(self):
        dsn = SaturationDesign.from_probs((0.0, 0.5, 1.0), (0.2, 0.4, 0.4))
        pos = dsn.positive_part()
        assert pos.saturations == (0.5, 1.0)
        assert pos.weights == pytest.approx((0.5, 0.5))

    def test_positive_part_empty_support(self):
        with pytest.raises(ValidationError):
            SaturationDesign.from_probs((0.0,), (1.0,)).positive_part()

    @pytest.mark.parametrize(
        "count", [47.5, True, "47", -1], ids=["fraction", "bool", "string", "negative"]
    )
    def test_counts_must_be_integers(self, count):
        with pytest.raises(
            ValidationError, match=rf"design count must be an integer of at least 0, got {count!r}"
        ):
            SaturationDesign.from_counts((0.25, 0.75), (count, 47))

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((1, 9), r"^weights \(0.5, 0.5\) are not the shares of counts \(1, 9\)$"),
            ((True, False), r"^design count must be an integer of at least 0, got True$"),
            ((-3, 13), r"^design count must be an integer of at least 0, got -3$"),
            ((2.5, 7.5), r"^design count must be an integer of at least 0, got 2.5$"),
            ((0, 0), r"^counts must sum to a positive number of groups$"),
        ],
        ids=["disagree", "bools", "negative", "fractions", "zero-total"],
    )
    def test_direct_counts_must_match_weights(self, counts, message):
        # sample_saturations assigns the counts while every Q table weighs the
        # weights, so counts that are not the weights' groups are refused
        with pytest.raises(ValidationError, match=message):
            SaturationDesign((0.25, 0.5), (0.5, 0.5), counts)

    def test_direct_counts_that_match_weights_accepted(self):
        dsn = SaturationDesign((0.25, 0.5), (0.1, 0.9), (1.0, np.int64(9)))
        assert dsn.counts == (1, 9) and dsn == SaturationDesign.from_counts((0.25, 0.5), (1, 9))

    def test_integral_counts_accepted(self):
        # a JSON count may be written 47.0, and numpy integers are integers
        dsn = SaturationDesign.from_counts((0.25, 0.75), (47.0, np.int64(3)))
        assert dsn == SaturationDesign.from_counts((0.25, 0.75), (47, 3))
        assert all(type(c) is int for c in dsn.counts)


class TestSampleSaturations:
    def test_equal_counts_give_exact_split(self):
        # fifty groups divided equally between five saturations
        dsn = SaturationDesign.from_counts((0, 0.25, 0.5, 0.75, 1), (10,) * 5)
        sats = sample_saturations(dsn, 50, substream(3))
        values, counts = np.unique(sats, return_counts=True)
        assert list(values) == [0, 0.25, 0.5, 0.75, 1]
        assert list(counts) == [10] * 5

    def test_single_saturation(self):
        dsn = SaturationDesign.from_probs((0.5,), (1.0,))
        sats = sample_saturations(dsn, 7, substream(0))
        assert np.all(sats == 0.5)

    def test_counts_must_sum_to_G(self):
        dsn = SaturationDesign.from_counts((0.3, 0.7), (2, 3))
        with pytest.raises(ValidationError):
            sample_saturations(dsn, 4, substream(0))

    def test_iid_frequencies_match_weights(self):
        # completely-at-random frequencies converge to the design weights
        dsn = SaturationDesign.from_probs((0.2, 0.5, 0.9), (0.2, 0.3, 0.5))
        sats = sample_saturations(dsn, 10**5, substream(11))
        counts = [np.sum(sats == s) for s in dsn.saturations]
        expected = [w * 10**5 for w in dsn.weights]
        assert chisquare(counts, expected).pvalue > 0.001


class TestValidateDesign:
    def test_cluster_randomized_is_singular(self):
        dsn = SaturationDesign.from_probs((0.0, 1.0), (0.5, 0.5))
        diag = validate_design(dsn, linear_basis())
        assert diag.singular
        assert diag.weakly_identified
        assert diag.min_eigenvalue <= 1e-12

    def test_two_interior_saturations_identified(self):
        dsn = SaturationDesign.from_probs((0.25, 0.75), (0.5, 0.5))
        diag = validate_design(dsn, linear_basis(), n_grid=(100,), cbar_grid=(0.3,))
        assert not diag.singular
        assert not diag.weakly_identified
        assert diag.interior_count == 2

    def test_single_saturation_weakly_identified(self):
        # dets vanish as n grows: flagged through the large-n limit matrices
        dsn = SaturationDesign.from_probs((0.5,), (1.0,))
        diag = validate_design(dsn, linear_basis(), n_grid=(10**6,), cbar_grid=(0.3,))
        assert not diag.singular
        assert diag.weakly_identified

    def test_integral_float_sizes(self):
        dsn = SaturationDesign.from_probs((0.25, 0.75), (0.5, 0.5))
        ints = validate_design(dsn, linear_basis(), n_grid=(11, 101))
        assert validate_design(dsn, linear_basis(), n_grid=(11.0, 101.0)) == ints
        assert validate_design(dsn, linear_basis(), n_grid=np.array([11.0, 101.0])) == ints
        with pytest.raises(ValidationError):
            validate_design(dsn, linear_basis(), n_grid=(11.5, 101.0))

    @pytest.mark.parametrize(
        "grids",
        [
            dict(n_grid=()),
            dict(cbar_grid=()),
            dict(n_grid=(11.5,)),
            dict(n_grid=("11",)),
            dict(cbar_grid=(float("nan"),)),
        ],
        ids=["empty-n", "empty-cbar", "fractional-n", "string-n", "nan-cbar"],
    )
    def test_bad_grid_is_named(self, grids):
        # the message names the grid the caller passed, and no numpy warning
        # comes first
        dsn = SaturationDesign.from_probs((0.25, 0.75), (0.5, 0.5))
        (name, value), = grids.items()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{name} must be a nonempty list of "):
                validate_design(dsn, linear_basis(), **grids)

    def test_large_n_grid_peak(self):
        """Sizes above 1024 take one pmf row per (count, n) pair.  This grid
        peaked at 60 MB with one ``q_extended`` call per (cbar, n) and z, at
        48 MB with one call per z, and at 428 MB with one pmf table over all
        its pairs (40 MB now, with one call for both z)."""
        dsn = SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (1, 1, 1, 1, 1))
        tracemalloc.start()
        try:
            validate_design(dsn, linear_basis(), n_grid=(11, 101, 1001, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 10**6
