"""Exception types shared across the package.

Validation problems (bad parameters, malformed spec strings, out-of-domain
arguments) derive from ValueError; numerical failures that a caller may want
to handle separately (quadrature accuracy, rank loss, eigensolver trouble)
derive from RuntimeError. The CLI maps the two families to distinct exit
codes.
"""

from __future__ import annotations


class InvalidCoefficientError(ValueError):
    """A reflection coefficient left the open unit disk."""

    def __init__(self, index: int, value: complex, detail: str = ""):
        self.index = index
        self.value = value
        msg = f"reflection coefficient at index {index} has |value| = {abs(value):.6g}, not < 1"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InvalidRotationError(ValueError):
    """Rotation parameter is not on the unit circle."""

    def __init__(self, tau: complex):
        self.tau = tau
        super().__init__(f"rotation must have |tau| = 1, got |tau| = {abs(tau):.6g}")


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class SequenceSpecError(ValueError):
    """Malformed coefficient-spec string."""


class QuadratureAccuracyError(RuntimeError):
    """Quadrature could not reach the requested accuracy."""

    def __init__(self, estimate: float, target: float, context: str = ""):
        self.estimate = estimate
        self.target = target
        msg = f"quadrature error estimate {estimate:.3g} exceeds target {target:.3g}"
        if context:
            msg += f" while computing {context}"
        super().__init__(msg)


class RankDeficiencyError(RuntimeError):
    """Moment matrix lost positive definiteness during coefficient recovery.

    pivot is what failed at order m: E_m = prod_{k <= m} (1 - |b_k|^2) on
    moments (Levinson), the step ratio 1 - |b_m|^2 on a discrete measure.
    """

    def __init__(self, order: int, pivot: float):
        self.order = order
        self.pivot = pivot
        super().__init__(
            f"recovery pivot {pivot:.3g} below threshold at order {order}; "
            "moment matrix is numerically rank deficient"
        )


class EigenSolverError(RuntimeError):
    """Dense eigensolver failed on a truncated Hessenberg matrix."""

    def __init__(self, size: int, condition_estimate: float, detail: str):
        self.size = size
        self.condition_estimate = condition_estimate
        super().__init__(
            f"eigensolver failed on {size} x {size} truncation "
            f"(condition estimate {condition_estimate:.3g}): {detail}"
        )
