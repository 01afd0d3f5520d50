import contextlib
from dataclasses import replace

import numpy as np
import pytest

from sativ import estimator, moments, montecarlo
from sativ.design import SaturationDesign
from sativ.dgp import SimConfig, simulate_experiment
from sativ.errors import ValidationError
from sativ.estimator import COND_LIMIT, estimate_all
from sativ.model import BasisSpec, linear_basis, quadratic_basis
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

    def test_at_most_one_worker_per_replication(self, monkeypatch):
        # a fork pool starts every worker at the first task, so 500 jobs for 2
        # replications would fork 500 processes; this pool starts none
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        cfg = small_config(seed=17)
        report = run_mc(cfg, reps=2, jobs=500, oracle_draws=10**5)
        assert sizes == [2]
        assert report_to_json(report) == report_to_json(run_mc(cfg, reps=2, oracle_draws=10**5))

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


SEC6 = SimConfig(
    G=235, n=116, design=SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (47,) * 5),
    means=(0.5, 0.2, -0.7, 0.8), kappa=(0.0, 0.0, 1.2, 1.5), sigma=(0.3, 0.3, 0.2, 0.4), seed=7,
)


def _estimate_bytes(results) -> dict:
    return {
        k: (v.coefficients.tobytes(), v.vcov.tobytes(), repr(v.diagnostics))
        for k, v in results.items()
    }


class TestStudyTable:
    """A study's replications share one table of per-key R^+
    (``estimator._KeyTable``); every number must be what each replication
    gives with a table of its own."""

    @pytest.mark.parametrize("pure_control", ["gmm", "drop"])
    def test_run_mc_equals_replications_without_a_table(self, monkeypatch, pure_control):
        report = run_mc(SEC6, reps=16, pure_control=pure_control, oracle_draws=10**5)
        alone = [replicate_once(SEC6, r, pure_control=pure_control) for r in range(16)]
        assert repr(report.per_replication) == repr(alone)
        with monkeypatch.context() as m:  # the same study with every plan starting empty
            m.setattr(estimator, "_study_tables", contextlib.nullcontext)
            untabled = run_mc(SEC6, reps=16, pure_control=pure_control, oracle_draws=10**5)
        assert repr(untabled.per_replication) == repr(report.per_replication)
        assert report_to_json(untabled) == report_to_json(report)

    @pytest.mark.parametrize("pure_control", ["gmm", "drop"])
    def test_quadratic_study_equals_fits_without_a_table(self, pure_control):
        design = SaturationDesign.from_counts(SMALL_DESIGN.saturations, (12,) * 5)
        cfg = replace(SEC6, G=60, n=40, design=design)
        datasets = [simulate_experiment(replace(cfg, seed=s)) for s in range(16)]
        basis = quadratic_basis()
        with estimator._study_tables():
            shared = [
                _estimate_bytes(estimate_all(d, basis, cfg.design, pure_control=pure_control))
                for d in datasets
            ]
            (table,) = estimator._STUDY_TABLES.get().values()
        alone = [
            _estimate_bytes(estimate_all(d, basis, cfg.design, pure_control=pure_control))
            for d in datasets
        ]
        assert shared == alone
        # the datasets share keys, so the table holds fewer than their sum
        keys = sum(
            estimator._InstrumentPlan(d.cells, basis, cfg.design, "estimate").n_keys
            for d in datasets
        )
        assert len(table.row) < keys

    def test_targets_in_mixed_order_equal_fits_without_a_table(self):
        # one target's instruments first, then every target, over datasets sharing keys
        datasets = [simulate_experiment(small_config(seed=s)) for s in range(4)]

        def fits():
            out = []
            for target, data in zip(("population", "joint", "never_taker", "population"), datasets):
                zhat = estimator.build_instruments(data, linear_basis(), SMALL_DESIGN, target).zhat
                results = estimate_all(data, linear_basis(), SMALL_DESIGN)
                out += [zhat.tobytes(), _estimate_bytes(results)]
            return out

        alone = fits()
        with estimator._study_tables():
            assert fits() == alone

    def test_user_basis_with_a_builtin_name_gets_its_own_table(self):
        data = simulate_experiment(small_config())
        look_alike = BasisSpec("linear", (lambda x: np.ones_like(x), lambda x: x * x))
        alone = _estimate_bytes(estimate_all(data, look_alike, SMALL_DESIGN))
        with estimator._study_tables():
            linear = _estimate_bytes(estimate_all(data, linear_basis(), SMALL_DESIGN))
            shared = _estimate_bytes(estimate_all(data, look_alike, SMALL_DESIGN))
            tables = estimator._STUDY_TABLES.get()
            assert [t.basis for t in tables.values()] == [linear_basis(), look_alike]
        assert shared == alone != linear

    def test_no_table_survives_run_mc(self, monkeypatch):
        cfg = small_config()
        run_mc(cfg, reps=3, oracle_draws=10**5)
        assert estimator._STUDY_TABLES.get() is None
        built = []  # the keys of each q_extended call
        q_extended = moments.q_extended

        def counted(basis, cbar, n, design):
            built.append(len(cbar))
            return q_extended(basis, cbar, n, design)

        monkeypatch.setattr(moments, "q_extended", counted)
        data = simulate_experiment(cfg)
        plan = estimator._InstrumentPlan(data.cells, linear_basis(), cfg.design, "estimate")
        assert built == [plan.n_keys]  # every key built anew

    def test_builtin_bases_are_shared_instances(self):
        assert linear_basis() is linear_basis()
        assert quadratic_basis() is quadratic_basis()


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
