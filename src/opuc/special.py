"""Exact generators for two families of reflection-coefficient sequences.

Two measure families admit closed machinery:

* The arc measure with weight ``C |cos t - cos alpha|^gamma |cos(t/2)|^delta
  |sin(t/2)|`` on ``(alpha, 2*pi - alpha)``.  Mapping it to the real line
  turns its orthogonal polynomials into Jacobi polynomials, so the reflection
  coefficients come out of ratios of consecutive Jacobi polynomial values at
  a fixed point ``x0 > 1``.  A four-term asymptotic expansion of those
  coefficients is implemented alongside for residual studies.

* The discrete q-Hermite (Al-Salam-Carlitz) polynomials, whose ratio at 1 is
  exactly ``q**n``.  They generate the sieved point measure behind the
  ``2*q**n - 1`` coefficient sequence.

Everything here is scalar, pure, and cheap; Jacobi polynomials enter only
through ratios of consecutive values, since the raw values overflow.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, islice

from .errors import DomainError


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi exponents, both > -1."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= -1.0 or self.b <= -1.0:
            raise DomainError(f"Jacobi exponents must exceed -1, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class ArcMeasureParams:
    """Arc weight C |cos t - cos alpha|^gamma |cos(t/2)|^delta |sin(t/2)|.

    alpha = 0 is admitted (full circle minus the point 1); the asymptotic
    expansion additionally needs alpha > 0.
    """

    alpha: float
    gamma: float
    delta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < math.pi:
            raise DomainError(f"alpha must lie in [0, pi), got {self.alpha}")
        if not (-1.0 < self.gamma < math.inf and -1.0 < self.delta < math.inf):  # NaN fails too
            raise DomainError("gamma and delta must be finite and exceed -1")

    @property
    def jacobi(self) -> JacobiParams:
        return JacobiParams(self.gamma, (self.delta - 1.0) / 2.0)

    def weight(self, theta: float) -> float:
        """Unnormalized density at theta; zero outside the open arc."""
        if not self.alpha < theta < 2.0 * math.pi - self.alpha:
            return 0.0
        return (
            abs(math.cos(theta) - math.cos(self.alpha)) ** self.gamma
            * abs(math.cos(theta / 2.0)) ** self.delta
            * abs(math.sin(theta / 2.0))
        )


def _jacobi_recurrence(a: float, b: float, m: int, x: float) -> tuple[float, float, float]:
    """(c0, c1, c2) of c0 P_{m+1} = c1 P_m - c2 P_{m-1}; c0 > 0 for m >= 1, a, b > -1."""
    s = a + b
    c0 = 2.0 * (m + 1.0) * (m + s + 1.0) * (2.0 * m + s)
    c1 = (2.0 * m + s + 1.0) * ((2.0 * m + s) * (2.0 * m + s + 2.0) * x + a * a - b * b)
    c2 = 2.0 * (m + a) * (m + b) * (2.0 * m + s + 2.0)
    return c0, c1, c2


def _jacobi_ratios(p: JacobiParams, x: float) -> Iterator[float]:
    """P_{m+1}/P_m at x for m = 0, 1, 2, ... in one forward pass of the ratio recurrence.

    P_m is the Jacobi polynomial in the standard normalization P_m(1) = binom(m + a, m).
    """
    a, b = p.a, p.b
    rho = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x  # P_1 / P_0
    for m in count(1):
        yield rho
        c0, c1, c2 = _jacobi_recurrence(a, b, m, x)
        rho = (c1 - c2 / rho) / c0


def _combine_parity(r_plus: float, r_minus: float, n: int) -> float:
    """Combine the ratio values at +1 and -1 into the reflection coefficient.

    Even indices use r_plus - r_minus - 1; odd indices use the quotient
    (r_plus + r_minus)/(r_plus - r_minus), which vanishes exactly when
    r_minus = -r_plus (the sieved pattern).
    """
    if n % 2 == 0:
        return r_plus - r_minus - 1.0
    denom = r_plus - r_minus
    if denom == 0.0:
        raise DomainError("degenerate arc parameters: ratio values at +1 and -1 coincide")
    return (r_plus + r_minus) / denom


def _monic_ratios(p: ArcMeasureParams) -> Iterator[tuple[float, float]]:
    """Ratios of consecutive monic polynomials of the mapped arc measure at +1
    and -1, for m = 0, 1, 2, ..."""
    one_plus_c = 2.0 * math.cos(p.alpha / 2.0) ** 2  # stable 1 + cos(alpha)
    x0 = (3.0 - math.cos(p.alpha)) / one_plus_c  # >= 1 on [0, pi)
    e = p.gamma + p.delta / 2.0
    for m, rho in enumerate(_jacobi_ratios(p.jacobi, x0)):
        num = m + e + 0.5
        denom = (2.0 * m + e + 0.5) * (2.0 * m + e + 1.5)
        if denom == 0.0:
            # m = 0 with e = -1/2: the factor (e + 1/2) / denom is 0/0 there,
            # and its limit in the parameters is 1/(e + 3/2)
            num, denom = 1.0, e + 1.5
        r_plus = one_plus_c * (m + 1.0) * num / denom * rho
        r_minus = -one_plus_c * (m + p.delta / 2.0 + 0.5) * num / denom
        yield r_plus, r_minus


def arc_reflections(p: ArcMeasureParams) -> Iterator[float]:
    """Exact reflection coefficients of the arc measure at n = 1, 2, 3, ...;
    index n combines the ratios at m = n // 2, so each costs O(1)."""
    for m, (r_plus, r_minus) in enumerate(_monic_ratios(p)):
        if m:
            yield _combine_parity(r_plus, r_minus, 2 * m)
        yield _combine_parity(r_plus, r_minus, 2 * m + 1)


def arc_reflection_exact(p: ArcMeasureParams, n: int) -> float:
    """Exact reflection coefficient of the arc measure at index n >= 1."""
    if n < 1:
        raise DomainError("reflection coefficients are indexed from 1")
    r_plus, r_minus = next(islice(_monic_ratios(p), n // 2, None))
    return _combine_parity(r_plus, r_minus, n)


def reflection_expansion(p: ArcMeasureParams, n: int) -> float:
    """Four-term large-n expansion of the arc-measure reflection coefficient.

    Error is O(1/n^3). Requires alpha > 0 (the 1/n^2 term carries
    cot(alpha/2)).
    """
    if n < 1:
        raise DomainError("expansion is indexed from 1")
    if p.alpha <= 0.0:
        raise DomainError("expansion requires alpha > 0")
    s = math.sin(p.alpha / 2.0)
    ch = math.cos(p.alpha / 2.0)
    c2 = ch * ch
    sign = -1.0 if n % 2 else 1.0
    g, d = p.gamma, p.delta
    term1 = sign * d * c2 / (2.0 * n)
    term2 = (ch * (ch / s) / (16.0 * n * n)) * (-2.0 - d * d + 8.0 * g * g + d * d * math.cos(p.alpha))
    term3 = -sign * (d * c2 / (4.0 * n * n)) * (1.0 + d + 2.0 * g - s)
    return s + term1 + term2 + term3


def elliott_A(x: float, a: float, b: float) -> float:
    """Second-order coefficient of the Jacobi ratio asymptotics at x > 1."""
    if x <= 1.0:
        raise DomainError(f"requires x > 1, got {x}")
    w = math.sqrt(x * x - 1.0)
    return (
        b * b / (x + 1.0 + w)
        - a * a / (x - 1.0 + w)
        + 0.25 / (w * (x + w))
    )


def elliott_A_integral_route(x: float, a: float, b: float) -> float:
    """Same coefficient from the closed antiderivatives of its defining integral.

    With x = cosh(2y), the integral of
    2a^2/(cosh 2t - 1) - 2b^2/(cosh 2t + 1) - 1/sinh^2(2t) over (y, inf)
    evaluates through 1/(e^{2y} +- 1) and 1/(e^{4y} - 1); the coefficient is
    -1/2 times that value. Kept deliberately in exponential form as an
    independent evaluation path.
    """
    if x <= 1.0:
        raise DomainError(f"requires x > 1, got {x}")
    e2y = x + math.sqrt(x * x - 1.0)  # e^{2y} for y > 0
    int_minus = 1.0 / (e2y - 1.0)     # integral of dt/(cosh 2t - 1)
    int_plus = 1.0 / (e2y + 1.0)      # integral of dt/(cosh 2t + 1)
    int_sinh = 1.0 / (e2y * e2y - 1.0)  # integral of dt/sinh^2(2t)
    return -0.5 * (2.0 * a * a * int_minus - 2.0 * b * b * int_plus - int_sinh)


def elliott_ratio_check(p: JacobiParams, x: float, n: int) -> tuple[float, float]:
    """Normalized Jacobi ratio at x > 1 against its second-order expansion.

    Returns (exact, expansion); the difference is O(1/n^3).
    """
    if n < 1:
        raise DomainError("degree must be at least 1")
    return next(islice(elliott_ratio_checks(p, x), n - 1, None))


def elliott_ratio_checks(p: JacobiParams, x: float) -> Iterator[tuple[float, float]]:
    """elliott_ratio_check at n = 1, 2, 3, ... from one pass of the ratio recurrence."""
    if x <= 1.0:
        raise DomainError(f"requires x > 1, got {x}")
    s = p.a + p.b
    lead = (x + math.sqrt(x * x - 1.0)) / 4.0
    a2 = elliott_A(x, p.a, p.b)
    for n, rho in islice(enumerate(_jacobi_ratios(p, x)), 1, None):
        prefactor = (n + 1.0) * (n + s + 1.0) / ((2.0 * n + s + 2.0) * (2.0 * n + s + 1.0))
        yield prefactor * rho, lead * (1.0 - a2 / (2.0 * n * n))


def trig_identity(alpha: float) -> tuple[float, float]:
    """Both sides of x + sqrt(x^2-1) = 2 (1 + sin(alpha/2))^2 / (1 + cos alpha).

    Here x = (3 - cos alpha)/(1 + cos alpha). Half-angle forms keep both
    sides accurate to a few ulp over the whole of (0, pi).
    """
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"alpha must lie in (0, pi), got {alpha}")
    ch = math.cos(alpha / 2.0)
    sh = math.sin(alpha / 2.0)
    one_plus_c = 2.0 * ch * ch
    x = (3.0 - math.cos(alpha)) / one_plus_c
    x_minus_1 = 2.0 * (sh / ch) ** 2          # (2 - 2 cos alpha)/(1 + cos alpha)
    lhs = x + math.sqrt(x_minus_1 * (x + 1.0))
    rhs = 2.0 * (1.0 + sh) ** 2 / one_plus_c
    return lhs, rhs


def qhermite_value(n: int, x: float, q: float) -> float:
    """Monic discrete q-Hermite polynomial by its three-term recurrence."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if n == 0:
        return 1.0
    prev, cur = 1.0, x
    for m in range(1, n):
        nxt = x * cur - q ** (m - 1) * (1.0 - q**m) * prev
        prev, cur = cur, nxt
    return cur


def qhermite_ratio_check(q: float, n: int) -> tuple[float, float]:
    """Ratio of consecutive q-Hermite values at 1 against the exact q**n."""
    if n < 1:
        raise DomainError("index must be at least 1")
    h_n = qhermite_value(n, 1.0, q)
    h_next = qhermite_value(n + 1, 1.0, q)
    return h_next / h_n, q**n
