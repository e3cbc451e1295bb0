"""Orthogonal polynomials on the unit circle from reflection coefficients.

Evaluation of the polynomial systems (szego), closed forms for the
constant-coefficient comparison case (geronimus), transfer-matrix
perturbation diagnostics (perturbation), truncated multiplication-operator
spectra (spectral), exact generators for two worked measure families
(special), and measure-side ground truth through moments and quadrature
(oracle). Everything is pure and immutable; grid sweeps are the intended
parallelism. Submodules load on first access: `import opuc` loads no numpy.
"""

import importlib

from .core import (
    ArcSpec,
    Constant,
    Explicit,
    JacobiArc,
    Perturbed,
    ReflectionSequence,
    Rotated,
    Zhedanov,
    arc_from_a,
    parse_sequence,
    rotate_sequence,
)
from .errors import (
    DomainError,
    EigenSolverError,
    InvalidCoefficientError,
    InvalidRotationError,
    QuadratureAccuracyError,
    RankDeficiencyError,
    SequenceSpecError,
)

__version__ = "0.1.0"


def __getattr__(name):  # PEP 562
    if name in ("geronimus", "oracle", "perturbation", "special", "spectral", "szego"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArcSpec",
    "Constant",
    "DomainError",
    "EigenSolverError",
    "Explicit",
    "InvalidCoefficientError",
    "InvalidRotationError",
    "JacobiArc",
    "Perturbed",
    "QuadratureAccuracyError",
    "RankDeficiencyError",
    "ReflectionSequence",
    "Rotated",
    "SequenceSpecError",
    "Zhedanov",
    "arc_from_a",
    "geronimus",
    "oracle",
    "parse_sequence",
    "perturbation",
    "rotate_sequence",
    "special",
    "spectral",
    "szego",
]
