"""Randomized saturation experiments: simulation, exact design moments, and
spillover-robust IV estimation under one-sided non-compliance."""

import importlib

__version__ = "0.1.0"

# The public names by the submodule that defines them.  Each is imported on
# first access (PEP 562), so ``import sativ`` loads no submodule and each
# ``sativ`` command loads only the modules it runs.
_EXPORTS = {
    "data": ("ExperimentData", "GroupData"),
    "design": ("DesignDiagnostics", "SaturationDesign", "sample_saturations", "validate_design"),
    "dgp": ("SimConfig", "oracle_subpopulation_means", "simulate_experiment"),
    "effects": ("EffectCurve", "effect_curve"),
    "errors": ("SingularSystemError", "UnidentifiedEffectError", "ValidationError"),
    "estimator": (
        "EstimateResult", "IORTestResult", "estimate_all", "estimate_chat", "ior_test",
        "naive_iv", "rsiv_estimate", "rsiv_pure_control",
    ),
    "io": ("ingest_csv",),
    "model": ("BasisSpec", "MeanCoefficients", "basis_by_name", "linear_basis", "quadratic_basis"),
    "moments": (
        "MomentMatrices", "block_inverse", "pseudo_inverse", "q_exact", "q_extended",
        "q_linear_closed_form",
    ),
    "montecarlo": ("MCReport", "MCRow", "SingularReplication", "run_mc"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
