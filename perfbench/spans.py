"""In-memory span recording around sativ's public functions.

A span is ``[name, start, end, parent]`` with times from ``perf_counter`` and
``parent`` the index of the enclosing span (-1 at top level).  Wrappers are
installed on the module attribute each caller looks the function up by, so
no file of the package changes.  Spans stay in memory until the worker
writes them out with its result.
"""
from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  ``cli`` imports ``validate_design`` by
# name, so that boundary is wrapped where the CLI looks it up.
BOUNDARIES = (
    ("sativ.montecarlo", "run_mc", "montecarlo.run_mc"),
    ("sativ.montecarlo", "replicate_once", "montecarlo.replicate_once"),
    ("sativ.montecarlo", "oracle_truths", "montecarlo.oracle_truths"),
    ("sativ.dgp", "simulate_experiment", "dgp.simulate_experiment"),
    ("sativ.dgp", "simulate_group", "dgp.simulate_group"),
    ("sativ.dgp", "oracle_subpopulation_means", "dgp.oracle_subpopulation_means"),
    ("sativ.estimator", "ingest_csv", "estimator.ingest_csv"),
    ("sativ.estimator", "estimate_all", "estimator.estimate_all"),
    ("sativ.estimator", "rsiv_estimate", "estimator.rsiv_estimate"),
    ("sativ.estimator", "build_instruments", "estimator.build_instruments"),
    ("sativ.estimator", "naive_iv", "estimator.naive_iv"),
    ("sativ.estimator", "ior_test", "estimator.ior_test"),
    ("sativ.moments", "q_z_at_count", "moments.q_z_at_count"),
    ("sativ.effects", "effect_curve", "effects.effect_curve"),
    ("sativ.cli", "write_data_csv", "cli.write_data_csv"),
    ("sativ.cli", "validate_design", "design.validate_design"),
)


class Tracer:
    """Records spans for wrapped functions and for regions the benchmark marks."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name))


class NullTracer:
    """Stand-in for untraced units: marks nothing and costs one call."""

    spans: list = []

    @contextmanager
    def span(self, name: str):
        yield
