"""Transfer-matrix comparison against the constant-coefficient system.

Normalize the state matrix so its leading coefficient matches the
constant-coefficient comparison system; one degree then advances by
(Omega(a, z) + E_n) where Omega is the constant one-step transfer matrix and

    E_n = (1 - |a|^2)^(-1/2) (0, c_n - a; z conj(c_n - a), 0)

collects the coefficient deviation c_n - a. Unrolling the recursion gives an
additive comparison identity (partial sums of Omega-conjugated corrections)
and a multiplicative one (an ordered product of near-identity factors applied
to the degree-0 state). Both are computed here with Omega powers taken from
the closed forms of the constant system rather than repeated matrix
multiplication.

Summability diagnostics for the coefficient deviations come in four
strengths (plain, log-weighted, linearly weighted with log normalization,
linearly weighted). Partial sums cannot prove convergence, so verdicts are
trend based with an explicit inconclusive state. The empirical constants in
the envelope and Gronwall-type caps are calibrated per run and reported,
never assumed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import geronimus, szego
from .core import ArcSpec, ReflectionSequence, arc_from_a, mat_norm, unit_point
from .errors import DomainError, InvalidRotationError

# degree-0 value of the combined state matrix (phi, psi; phi*, -psi*)
STATE0 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)

_WEIGHTS = ("1", "1/n", "sqrt_gap")


def omega(a: complex, z: complex) -> np.ndarray:
    """One-step transfer matrix of the constant-coefficient system."""
    aa = complex(a)
    sq = math.sqrt(1.0 - abs(aa) ** 2)
    zz = complex(z)
    return np.array([[zz, aa], [zz * aa.conjugate(), 1.0]], dtype=complex) / sq


def omega_power(a: complex, n: int, z: complex) -> np.ndarray:
    """Omega^n from the constant-system closed forms (n >= 0)."""
    if n == 0:
        return np.eye(2, dtype=complex)
    st = geronimus.closed_eval(a, n, z)
    return 0.5 * (st.as_matrix() @ STATE0)


def omega_inverse_power(a: complex, n: int, z: complex) -> np.ndarray:
    """Omega^(-n) from the closed forms; avoids accumulating inversion error."""
    if n == 0:
        return np.eye(2, dtype=complex)
    zz = complex(z)
    if zz == 0:
        raise DomainError("inverse transfer powers need z != 0")
    st = geronimus.closed_eval(a, n, zz)
    adj = np.array([[st.psi_star, st.psi], [st.phi_star, -st.phi]], dtype=complex)
    return (STATE0 @ adj) / (2.0 * geronimus.polar_pow(zz, n))


def e_matrix(phi_n_zero: complex, a: complex, z: complex) -> np.ndarray:
    """Perturbation increment carrying the coefficient deviation."""
    aa = complex(a)
    if not 0.0 < abs(aa) < 1.0:
        raise DomainError(f"comparison coefficient needs 0 < |a| < 1, got |a| = {abs(aa):.6g}")
    d = complex(phi_n_zero) - aa
    sq = math.sqrt(1.0 - abs(aa) ** 2)
    zz = complex(z)
    return np.array([[0.0, d], [zz * d.conjugate(), 0.0]], dtype=complex) / sq


def normalized_matrices(seq: ReflectionSequence, a: complex, n: int, z: complex) -> list[np.ndarray]:
    """Normalized state matrices at degrees 0..n via the one-step recursion."""
    om = omega(a, z)
    out = [STATE0.copy()]
    for b in seq.coeffs(n):
        out.append((om + e_matrix(b, a, z)) @ out[-1])
    return out


def _on_arc(a: complex, z: complex) -> tuple[ArcSpec, float]:
    """The arc of a and the angle of z in [0, 2 pi); DomainError if z is in the gap."""
    arc = arc_from_a(a)  # also the 0 < |a| < 1 check of e_matrix
    theta = cmath.phase(z) % (2.0 * math.pi)
    if not arc.contains(theta, tol=1e-9):
        raise DomainError(f"z must lie on the closed arc, got angle {theta:.6g}")
    return arc, theta


def _branch_degenerate(a: complex, z: complex) -> bool:
    return not geronimus.eigen_pair(z, _on_arc(a, z)[0].alpha).branch_ok


@dataclass(frozen=True)
class ComparisonIdentity:
    """Both sides of the additive comparison identity at degree n."""

    n: int
    z: complex
    lhs: np.ndarray
    rhs: np.ndarray
    degenerate: bool

    @property
    def residual(self) -> float:
        """Max entrywise difference normalized by the largest entry."""
        scale = max(1.0, float(np.max(np.abs(self.lhs))), float(np.max(np.abs(self.rhs))))
        return float(np.max(np.abs(self.lhs - self.rhs))) / scale


def comparison_identity(seq: ReflectionSequence, a: complex, n: int, z: complex) -> ComparisonIdentity:
    """Additive identity: Omega^(-n) (normalized state) against the summed corrections."""
    zz = complex(z)
    if _branch_degenerate(a, zz):
        return ComparisonIdentity(n=n, z=zz, lhs=np.full((2, 2), np.nan, complex),
                                  rhs=np.full((2, 2), np.nan, complex), degenerate=True)
    states = normalized_matrices(seq, a, n, zz)
    lhs = omega_inverse_power(a, n, zz) @ states[n]
    rhs = STATE0.copy()
    for k, b in enumerate(seq.coeffs(n)):
        e_k = e_matrix(b, a, zz)
        rhs = rhs + omega_inverse_power(a, k + 1, zz) @ e_k @ states[k]
    return ComparisonIdentity(n=n, z=zz, lhs=lhs, rhs=rhs, degenerate=False)


@dataclass(frozen=True)
class BState:
    """The normalized comparison state by its two defining routes."""

    n: int
    z: complex
    by_definition: np.ndarray
    by_product: np.ndarray
    degenerate: bool

    @property
    def residual(self) -> float:
        scale = max(1.0, float(np.max(np.abs(self.by_definition))))
        return float(np.max(np.abs(self.by_definition - self.by_product))) / scale


def b_state(seq: ReflectionSequence, a: complex, n: int, z: complex) -> BState:
    """Comparison state by definition and as the right-to-left ordered product."""
    zz = complex(z)
    if _branch_degenerate(a, zz):
        return BState(n=n, z=zz, by_definition=np.full((2, 2), np.nan, complex),
                      by_product=np.full((2, 2), np.nan, complex), degenerate=True)
    by_def = omega_inverse_power(a, n, zz) @ normalized_matrices(seq, a, n, zz)[n]
    prod = STATE0.copy()
    for k, b in enumerate(seq.coeffs(n), 1):
        factor = np.eye(2, dtype=complex) + (
            omega_inverse_power(a, k, zz)
            @ e_matrix(b, a, zz)
            @ omega_power(a, k - 1, zz)
        )
        prod = factor @ prod
    return BState(n=n, z=zz, by_definition=by_def, by_product=prod, degenerate=False)


@dataclass(frozen=True)
class OmegaReport:
    """Residuals between numeric transfer powers and their closed forms.

    The roundtrip residual is scaled by the norm product of the two closed
    powers: off the arc that product grows exponentially in n, and only the
    condition-scaled defect is attainable in floating point.
    """

    n: int
    z: complex
    power_residual: float
    inverse_residual: float
    roundtrip_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.power_residual, self.inverse_residual, self.roundtrip_residual)


def omega_identities(a: complex, z: complex, n: int) -> OmegaReport:
    """Check Omega^n and Omega^(-n) closed forms against repeated multiplication."""
    zz = complex(z)
    if zz == 0:
        raise DomainError("transfer powers need z != 0")
    om = omega(a, zz)
    numeric = np.linalg.matrix_power(om, n)
    closed = omega_power(a, n, zz)
    closed_inv = omega_inverse_power(a, n, zz)
    scale = max(1.0, float(np.max(np.abs(numeric))))
    power_res = float(np.max(np.abs(numeric - closed))) / scale
    numeric_inv = np.linalg.matrix_power(np.linalg.inv(om), n)
    scale_inv = max(1.0, float(np.max(np.abs(numeric_inv))))
    inv_res = float(np.max(np.abs(numeric_inv - closed_inv))) / scale_inv
    rt_scale = max(1.0, mat_norm(closed) * mat_norm(closed_inv))
    roundtrip = float(np.max(np.abs(closed_inv @ closed - np.eye(2)))) / rt_scale
    return OmegaReport(n=n, z=zz, power_residual=power_res,
                       inverse_residual=inv_res, roundtrip_residual=roundtrip)


@dataclass(frozen=True)
class ConditionCheck:
    """One summability check: partial sums, trend data, verdict."""

    name: str
    partial_sums: np.ndarray
    verdict: str
    tail_slope: float
    window_ratio: float

    def to_json(self) -> dict:
        return {
            "condition": self.name,
            "partial_sum": [float(v) for v in self.partial_sums],
            "verdict": self.verdict,
            "tail_slope": float(self.tail_slope),
        }


@dataclass(frozen=True)
class ConditionReport:
    """Summability diagnostics for the deviation |tau^k c_k - a|."""

    n_terms: int
    a: complex
    tau: complex
    checks: tuple[ConditionCheck, ...]

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "n_terms": self.n_terms,
            "a": [self.a.real, self.a.imag],
            "tau": [self.tau.real, self.tau.imag],
            "checks": [c.to_json() for c in self.checks],
        }


def _tail_slope(terms: np.ndarray) -> float:
    """Log-log slope of the terms over the last index decade (zeros skipped)."""
    n = len(terms)
    lo = max(2, n // 10)
    ks = np.arange(lo, n + 1)
    vals = terms[lo - 1:]
    mask = vals > 0.0
    if mask.sum() < 4:
        return -math.inf  # effectively zero tail
    x = np.log(ks[mask].astype(float))
    y = np.log(vals[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def _window_ratio(terms: np.ndarray) -> float:
    """Ratio of the last half-window term sum to the preceding half-window."""
    n = len(terms)
    last = terms[n // 2:].sum()
    prev = terms[n // 4: n // 2].sum()
    if prev <= 0.0:
        return 0.0 if last <= 0.0 else math.inf
    return float(last / prev)


def _sum_verdict(terms: np.ndarray) -> tuple[str, float, float]:
    slope = _tail_slope(terms)
    ratio = _window_ratio(terms)
    if slope == -math.inf and ratio == 0.0:
        return "holds", slope, ratio
    if slope <= -1.1 and ratio <= 0.93:
        return "holds", slope, ratio
    if slope >= -1.01 or ratio >= 0.98:
        return "fails", slope, ratio
    return "inconclusive", slope, ratio


def classify_conditions(seq: ReflectionSequence, a: complex, tau: complex, n_terms: int) -> ConditionReport:
    """Partial sums and trend verdicts for the four deviation conditions."""
    if n_terms < 10:
        raise DomainError(f"need at least 10 terms, got {n_terms}")
    tt = complex(tau)
    if not abs(abs(tt) - 1.0) <= 1e-12:  # also rejects non-finite tau
        raise InvalidRotationError(tt)
    aa = complex(a)
    arc_from_a(aa)  # the 0 < |a| < 1 check, which also rejects NaN
    phase = cmath.phase(tt)
    ks = np.arange(1, n_terms + 1)
    dev = np.empty(n_terms)
    for k, c in enumerate(seq.coeffs(n_terms), 1):
        rot = cmath.exp(1j * (k * phase))
        dev[k - 1] = abs(rot * c - aa)
    plain = dev
    logw = np.log(ks) * dev
    linw = ks * dev

    checks = []
    for name, terms in (("absolute", plain), ("log_weighted", logw), ("linear_weighted", linw)):
        verdict, slope, ratio = _sum_verdict(terms)
        checks.append(ConditionCheck(
            name=name, partial_sums=np.cumsum(terms),
            verdict=verdict, tail_slope=slope, window_ratio=ratio,
        ))
    # the log-normalized variant asks whether sum(k dev) / log(n+1) stays bounded
    lin_sums = np.cumsum(linw)
    q = lin_sums / np.log(ks + 1.0)
    q_ratio = float(q[-1] / q[len(q) // 2]) if q[len(q) // 2] > 0 else (math.inf if q[-1] > 0 else 0.0)
    if q_ratio <= 1.02:
        verdict = "holds"
    elif q_ratio >= 1.15:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    checks.insert(2, ConditionCheck(
        name="linear_weighted_lognorm", partial_sums=lin_sums,
        verdict=verdict, tail_slope=_tail_slope(linw), window_ratio=q_ratio,
    ))
    return ConditionReport(n_terms=n_terms, a=aa, tau=tt, checks=tuple(checks))


@dataclass(frozen=True)
class KappaLimit:
    """Rescaled leading coefficient kappa_n (1 - |a|^2)^(n/2) at the horizon.

    converged reports whether the value moved by less than tol over the
    trailing window of indices; a slowly divergent tail can fool a short
    window, so the window and the change are part of the report.
    """

    n_terms: int
    value: float
    rel_change: float
    window: int
    converged: bool


def kappa_limit(seq: ReflectionSequence, a: complex, n_terms: int, tol: float = 1e-6) -> KappaLimit:
    if n_terms < 10:
        raise DomainError(f"need at least 10 terms, got {n_terms}")
    la = math.log1p(-abs(complex(a)) ** 2)
    window = max(10, n_terms // 100)
    mark = n_terms - window
    acc = 0.0
    checkpoint = 0.0
    for k, b in enumerate(seq.coeffs(n_terms), 1):
        acc += 0.5 * (la - math.log1p(-abs(b) ** 2))
        if k == mark:
            checkpoint = acc
    value = math.exp(acc)
    rel_change = abs(math.expm1(acc - checkpoint))
    return KappaLimit(n_terms=n_terms, value=value, rel_change=rel_change,
                      window=window, converged=rel_change < tol)


@dataclass(frozen=True)
class GronwallBound:
    """Cumulative correction sum and its product-form cap at one arc point."""

    n: int
    s_n: float
    log_cap: float
    c1_star: float

    @property
    def cap(self) -> float:
        return math.exp(self.log_cap) if self.log_cap < 709.0 else math.inf


def s_n_bound(seq: ReflectionSequence, a: complex, n: int, z) -> GronwallBound:
    """Correction sum 1 + sum ||E_{k+1}|| ||state_k|| and its calibrated cap.

    The cap is log S_1 plus c1* sum_{k>=2} min(k, v_alpha) ||E_k|| with c1*
    the smallest constant making the one-step majorization valid on this
    run; S_n <= exp(cap) then holds by construction and is reported for the
    bound-chain consistency check.
    """
    zz = unit_point(z)
    arc, theta = _on_arc(a, zz)
    v = geronimus.v_alpha(theta, arc.alpha)
    # omega(a, z), e_matrix and the state matrix as local scalars, scaled by
    # the reciprocal of the square root as numpy's complex-by-real divide does
    aa = complex(a)
    inv_sq = 1.0 / math.sqrt(1.0 - abs(aa) ** 2)
    o11, o12, o21, o22 = zz * inv_sq, aa * inv_sq, zz * aa.conjugate() * inv_sq, inv_sq
    s11, s12, s21, s22 = 1.0 + 0j, 1.0 + 0j, 1.0 + 0j, -1.0 + 0j  # STATE0
    s, log_s1, c1, weighted_tail = 1.0, 0.0, 0.0, 0.0
    for k, c in enumerate(seq.coeffs(n), 1):
        d = c - aa
        e12 = d * inv_sq
        e21 = zz * d.conjugate() * inv_sq
        e_norm = max(abs(e21), abs(e12))  # column sums of (0, e12; e21, 0)
        state_norm = max(abs(s11) + abs(s21), abs(s12) + abs(s22))  # mat_norm(state)
        w = min(float(k), v)
        c1 = max(c1, state_norm / (s * w))
        s = s + e_norm * state_norm
        if k == 1:
            log_s1 = math.log(s)
        else:
            weighted_tail += w * e_norm
        t12, t21 = o12 + e12, o21 + e21
        s11, s12, s21, s22 = (o11 * s11 + t12 * s21, o11 * s12 + t12 * s22,
                              t21 * s11 + o22 * s21, t21 * s12 + o22 * s22)
    return GronwallBound(n=n, s_n=s, log_cap=log_s1 + c1 * weighted_tail, c1_star=c1)


@dataclass(frozen=True)
class SupEnvelopeReport:
    """Weighted sup of |phi_n| over a degree sweep on an arc grid.

    stable means the upper half of degrees did not push the sup more than
    5 percent above what the lower half had established.
    """

    n_max: int
    weight: str
    sup: float
    lower_half_sup: float
    upper_half_sup: float
    at_degree: int
    at_theta: float
    per_degree: np.ndarray
    stable: bool


def sup_envelope(seq: ReflectionSequence, a: complex, n_max: int, weight: str = "1",
                 epsilon: float = 0.0, grid=None, num_points: int = 65) -> SupEnvelopeReport:
    if weight not in _WEIGHTS:
        raise DomainError(f"weight must be one of {_WEIGHTS}, got {weight!r}")
    if n_max < 2:
        raise DomainError("degree sweep needs n_max >= 2")
    arc = arc_from_a(a)
    thetas = np.asarray(grid, dtype=float) if grid is not None else arc.grid(num_points, epsilon)
    gap_w = np.sqrt(np.abs(math.cos(arc.alpha) - np.cos(thetas)))
    weigh = {"1": lambda n, abs_phi: abs_phi, "1/n": lambda n, abs_phi: abs_phi / n,
             "sqrt_gap": lambda n, abs_phi: abs_phi * gap_w}[weight]
    [(per_degree, where)] = szego.degree_peaks(seq, thetas, n_max, weigh)
    k = int(np.argmax(per_degree))
    half = n_max // 2
    lower = float(per_degree[:half].max())
    upper = float(per_degree[half:].max())
    return SupEnvelopeReport(
        n_max=n_max, weight=weight, sup=max(lower, upper),
        lower_half_sup=lower, upper_half_sup=upper,
        at_degree=k + 1, at_theta=float(thetas[where[k]]), per_degree=per_degree,
        stable=upper <= 1.05 * lower,
    )
