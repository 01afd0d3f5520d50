"""Random-coefficients potential-outcome model: the basis and the mean coefficients.

An individual's outcome is f(neighbor take-up share)' times a coefficient
vector that depends on their own treatment status: theta when untreated, psi
when treated.  Direct and indirect effects are linear functionals of the
mean coefficients; ``effects.effect_curve`` evaluates them, with their
delta-method bands, from estimated coefficients.  This module holds the
basis f on [0, 1], the sub-population mean coefficients the oracle
returns and the names of the estimation targets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError

_BOUNDEDNESS_GRID = np.linspace(0.0, 1.0, 1001)

# Sub-population labels for mean coefficients.
LABEL_POPULATION = "population"
LABEL_COMPLIER = "complier"
LABEL_NEVER_TAKER = "never_taker"
_LABELS = (LABEL_POPULATION, LABEL_COMPLIER, LABEL_NEVER_TAKER)

# Estimation targets, which ``estimator`` fits and re-exports; defined here so
# the CLI can name them without loading the estimator.
TARGET_JOINT = "joint"
TARGET_COMPLIER_PSI = "complier_psi"
TARGET_NEVER_TAKER = "never_taker"
TARGET_POPULATION = "population"
TARGET_COMPLIER_THETA = "complier_theta"
TARGET_NAIVE = "naive_iv"


@dataclass(frozen=True)
class BasisSpec:
    """A K-vector of bounded basis functions on [0, 1].

    Parameters
    ----------
    name : str
        Tag used in configs and messages ("linear", "quadratic", ...).  It is
        no cache key: a user basis may reuse a built-in name with other
        functions, so caches key on the basis object itself.
    funcs : tuple of callables
        Each maps a float array in [0, 1] to a float array.
    """

    name: str
    funcs: tuple[Callable[[np.ndarray], np.ndarray], ...]
    sup_bounds: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if not self.funcs:
            raise ValidationError("basis needs at least one function")
        bounds = []
        for i, f in enumerate(self.funcs):
            vals = np.asarray(f(_BOUNDEDNESS_GRID), dtype=float)
            if vals.shape != _BOUNDEDNESS_GRID.shape:
                raise ValidationError(f"basis function {i} is not vectorized over [0,1]")
            if not np.all(np.isfinite(vals)):
                raise ValidationError(f"basis function {i} is unbounded on [0,1]")
            bounds.append(float(np.max(np.abs(vals))))
        object.__setattr__(self, "sup_bounds", tuple(bounds))

    @property
    def k(self) -> int:
        return len(self.funcs)

    def values(self, x) -> np.ndarray:
        """Evaluate f at x: returns shape (K,) for scalar x, (len(x), K) for arrays."""
        arr = np.asarray(x, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):  # false for nan
            raise ValidationError("basis argument outside [0, 1]")
        out = np.stack([np.broadcast_to(f(arr), arr.shape) for f in self.funcs], axis=-1)
        return out


_LINEAR = BasisSpec("linear", (lambda x: np.ones_like(x), lambda x: x))
_QUADRATIC = BasisSpec("quadratic", (lambda x: np.ones_like(x), lambda x: x, lambda x: x * x))


def linear_basis() -> BasisSpec:
    """f(x) = (1, x); every call returns the same frozen instance."""
    return _LINEAR


def quadratic_basis() -> BasisSpec:
    """f(x) = (1, x, x^2); every call returns the same frozen instance."""
    return _QUADRATIC


_BUILTIN_BASES = {"linear": linear_basis, "quadratic": quadratic_basis}


def basis_by_name(name: str) -> BasisSpec:
    try:
        return _BUILTIN_BASES[name]()
    except KeyError:
        raise ValidationError(
            f"unknown basis {name!r}; available: {sorted(_BUILTIN_BASES)}"
        ) from None


@dataclass(frozen=True)
class MeanCoefficients:
    """Mean coefficients for a sub-population.

    ``theta_mean`` is E[theta | label] and ``contrast_mean`` is
    E[psi - theta | label]; each is present only where identified
    (never-takers have no identified contrast).
    """

    label: str
    theta_mean: tuple[float, ...] | None = None
    contrast_mean: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.label not in _LABELS:
            raise ValidationError(f"unknown label {self.label!r}; expected one of {_LABELS}")
        if self.label == LABEL_NEVER_TAKER and self.contrast_mean is not None:
            raise ValidationError("treated-arm contrast is not identified for never-takers")
        if self.theta_mean is None and self.contrast_mean is None:
            raise ValidationError("at least one of theta_mean/contrast_mean required")
