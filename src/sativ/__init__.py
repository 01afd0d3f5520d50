"""Randomized saturation experiments: simulation, exact design moments, and
spillover-robust IV estimation under one-sided non-compliance."""

# numpy imports these two on first use: ``streams`` needs numpy.random, and
# np.unique reaches numpy.ma through is_masked.  Importing them with the
# package keeps that cost out of the first simulation and the first estimate.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .design import DesignDiagnostics, SaturationDesign, sample_saturations, validate_design
from .dgp import ExperimentData, GroupData, SimConfig, oracle_subpopulation_means, simulate_experiment
from .effects import EffectCurve, effect_curve
from .errors import SingularSystemError, UnidentifiedEffectError, ValidationError
from .estimator import (
    EstimateResult,
    IORTestResult,
    estimate_all,
    estimate_chat,
    ior_test,
    naive_iv,
    rsiv_estimate,
    rsiv_pure_control,
)
from .io import ingest_csv
from .model import (
    BasisSpec,
    MeanCoefficients,
    basis_by_name,
    linear_basis,
    quadratic_basis,
)
from .moments import (
    MomentMatrices,
    block_inverse,
    pseudo_inverse,
    q_exact,
    q_extended,
    q_linear_closed_form,
)
from .montecarlo import MCReport, MCRow, SingularReplication, run_mc

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "DesignDiagnostics",
    "EffectCurve",
    "EstimateResult",
    "ExperimentData",
    "GroupData",
    "IORTestResult",
    "MCReport",
    "MCRow",
    "MeanCoefficients",
    "MomentMatrices",
    "SaturationDesign",
    "SimConfig",
    "SingularReplication",
    "SingularSystemError",
    "UnidentifiedEffectError",
    "ValidationError",
    "basis_by_name",
    "block_inverse",
    "effect_curve",
    "estimate_all",
    "estimate_chat",
    "ingest_csv",
    "ior_test",
    "linear_basis",
    "naive_iv",
    "oracle_subpopulation_means",
    "pseudo_inverse",
    "q_exact",
    "q_extended",
    "q_linear_closed_form",
    "quadratic_basis",
    "rsiv_estimate",
    "rsiv_pure_control",
    "run_mc",
    "sample_saturations",
    "simulate_experiment",
    "validate_design",
]
