from dataclasses import replace

import pytest

from sativ.design import SaturationDesign
from sativ.dgp import SimConfig
from sativ.errors import ValidationError
from sativ.estimator import COND_LIMIT
from sativ.montecarlo import (
    NAIVE_ROWS,
    RS_ROWS,
    per_replication_csv_lines,
    replicate_once,
    report_to_json,
    run_mc,
)

SMALL_DESIGN = SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (6,) * 5)


def small_config(sigma=(0.3, 0.3, 0.2, 0.4), kappa=(0.0, 0.0, 1.2, 1.5), seed=5):
    return SimConfig(
        G=30, n=20, design=SMALL_DESIGN, means=(0.5, 0.2, -0.7, 0.8),
        kappa=kappa, sigma=sigma, seed=seed,
    )


class TestRunMC:
    def test_empty_oracle_subpopulation_refused(self):
        # every draw a complier: the never-taker truths are undefined, not nan
        cfg = replace(small_config(kappa=(0.0, 0.0, 0.0, 0.0)), complier_shares=(1.0,))
        with pytest.raises(ValidationError, match="^never_taker means are undefined"):
            run_mc(cfg, reps=2, oracle_draws=10**5)

    def test_row_inventory(self):
        report = run_mc(small_config(), reps=3, oracle_draws=10**5)
        names = [r.name for r in report.rows]
        assert names == list(RS_ROWS) + list(NAIVE_ROWS)
        assert report.reps == 3
        assert report.reps_used == 3

    def test_noiseless_rows_degenerate(self):
        report = run_mc(
            small_config(sigma=(0, 0, 0, 0), kappa=(0, 0, 0, 0)),
            reps=10,
            oracle_draws=10**5,
        )
        truth = dict(alpha=0.5, gamma=-0.7, alpha_n=0.5, gamma_n=-0.7,
                     alpha_c=0.5, gamma_c=-0.7, beta_c=0.2, delta_c=0.8)
        for row in report.rows:
            if row.name.startswith("naive_"):
                continue
            assert row.mean == pytest.approx(truth[row.name], abs=1e-8)
            assert row.sd < 1e-10
            assert row.coverage is None

    def test_naive_only(self):
        report = run_mc(small_config(), reps=3, estimators=("naive",), oracle_draws=10**5)
        assert [r.name for r in report.rows] == list(NAIVE_ROWS)

    def test_reps_floor(self):
        with pytest.raises(ValidationError):
            run_mc(small_config(), reps=1)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_floor(self, jobs):
        with pytest.raises(ValidationError, match="jobs must be at least 1"):
            run_mc(small_config(), reps=3, jobs=jobs)

    def test_unknown_estimator(self):
        with pytest.raises(ValidationError):
            run_mc(small_config(), reps=3, estimators=("ols",))

    @pytest.mark.parametrize("estimators", [(), []])
    def test_empty_estimators_refused(self, estimators):
        with pytest.raises(ValidationError, match="^need at least one estimator: 'rs_iv' or 'naive'$"):
            run_mc(small_config(), reps=2, estimators=estimators, oracle_draws=10**5)

    def test_unknown_pure_control(self):
        # rejected even when no estimator that reads the policy runs
        with pytest.raises(ValidationError, match="must be 'gmm' or 'drop', got 'bogus'"):
            run_mc(small_config(), reps=3, estimators=("naive",), pure_control="bogus")

    def test_singular_replications_excluded_and_counted(self):
        # tiny groups with few compliers: some replications cannot identify
        # the complier arm and are dropped rather than failing the run
        dsn = SaturationDesign.from_probs((0.25, 0.75), (0.5, 0.5))
        cfg = SimConfig(
            G=6, n=6, design=dsn, means=(0.5, 0.2, -0.7, 0.8),
            complier_shares=(1 / 3,), sigma=(0.1, 0.1, 0.1, 0.1), seed=90,
        )
        report = run_mc(cfg, reps=40, estimators=("rs_iv",), oracle_draws=10**5)
        assert 0 < report.n_singular_excluded < 40
        assert report.reps_used + report.n_singular_excluded == 40
        # each exclusion keeps its replication, message and condition number
        excluded = [r for r, rec in enumerate(report.per_replication) if rec is None]
        assert [s.rep for s in report.singular] == excluded
        for s in report.singular:
            assert "singular" in s.message
            assert not s.condition_number < COND_LIMIT
            assert replicate_once(cfg, s.rep, ("rs_iv",)) == s
        parallel = run_mc(cfg, reps=40, estimators=("rs_iv",), jobs=2, oracle_draws=10**5)
        assert parallel.singular == report.singular
        assert report_to_json(parallel) == report_to_json(report)


class TestDeterminism:
    def test_parallelism_invariance(self):
        cfg = small_config(seed=17)
        r1 = run_mc(cfg, reps=6, jobs=1, oracle_draws=10**5)
        r2 = run_mc(cfg, reps=6, jobs=3, oracle_draws=10**5)
        assert report_to_json(r1) == report_to_json(r2)
        assert list(per_replication_csv_lines(r1)) == list(per_replication_csv_lines(r2))

    def test_replication_depends_only_on_index(self):
        cfg = small_config(seed=17)
        a = replicate_once(cfg, 4)
        b = replicate_once(cfg, 4)
        assert a == b
        c = replicate_once(cfg, 5)
        assert c != a

    def test_json_excludes_runtime(self):
        report = run_mc(small_config(), reps=2, estimators=("naive",), oracle_draws=10**5)
        assert "runtime" not in report_to_json(report)
        assert report.runtime_seconds > 0.0


class TestNaiveCoverageDegradation:
    def test_coverage_falls_as_G_grows(self):
        # the naive spillover estimands are biased, so their CIs cover the
        # causal truths less often as standard errors shrink with G
        coverages = {"naive_gamma": [], "naive_delta": []}
        for G in (150, 235, 500):
            dsn = SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (G // 5,) * 5)
            cfg = SimConfig(
                G=G, n=116, design=dsn, means=(0.5, 0.2, -0.7, 0.8),
                kappa=(0.0, 0.0, 1.2, 1.5), sigma=(0.3, 0.3, 0.2, 0.4), seed=4242,
            )
            rep = run_mc(cfg, reps=100, estimators=("naive",), jobs=2)
            rows = {r.name: r for r in rep.rows}
            for name in coverages:
                coverages[name].append(rows[name].coverage)
        mc_slack = 0.05  # ~1 se of a coverage estimate at R=100
        for name, (c150, c235, c500) in coverages.items():
            assert c235 <= c150 + mc_slack, name
            assert c500 <= c235 + mc_slack, name
            assert c500 < c150, name


class TestCsvLines:
    def test_per_replication_lines(self):
        report = run_mc(small_config(), reps=2, estimators=("naive",), oracle_draws=10**5)
        lines = list(per_replication_csv_lines(report))
        assert lines[0] == "rep,name,estimate,se"
        assert len(lines) == 1 + 2 * len(NAIVE_ROWS)
        rep, name, est, se = lines[1].split(",")
        assert rep == "0" and name == "naive_alpha"
        float(est), float(se)
