"""Grassmann-algebra arithmetic, Berezin integration, and supersymmetric
sigma-model verification on flat tori."""

from .grassmann import (
    DimensionMismatchError,
    GrassmannNumber,
    Parity,
    ParityError,
    generator,
    monomial_sign,
    unit,
)
from .gridfield import GrassmannField, Grid, spectral_derivative
from .superdomain import SuperFunction, apply_D, apply_Q
from .berezin import berezin_integrate
from .spin_surface import (
    CLIFFORD,
    CliffordConvention,
    GravitinoField,
    SpinorField,
    SurfaceGeometry,
)
from .sigma2d import (
    ActionCoefficients,
    CalibrationError,
    ComponentFields,
    UnsupportedRegimeError,
)
from .config import SuiteConfig
from .report import CheckReport, SuiteReport

__version__ = "0.1.0"

__all__ = [
    "ActionCoefficients",
    "CLIFFORD",
    "CalibrationError",
    "CheckReport",
    "CliffordConvention",
    "ComponentFields",
    "DimensionMismatchError",
    "GrassmannNumber",
    "GrassmannField",
    "GravitinoField",
    "Grid",
    "Parity",
    "ParityError",
    "SpinorField",
    "SuiteConfig",
    "SuiteReport",
    "SuperFunction",
    "SurfaceGeometry",
    "UnsupportedRegimeError",
    "apply_D",
    "apply_Q",
    "berezin_integrate",
    "generator",
    "monomial_sign",
    "spectral_derivative",
    "unit",
    "__version__",
]
