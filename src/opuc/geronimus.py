"""Closed forms for the constant-coefficient comparison system.

For a constant reflection coefficient a with 0 < |a| < 1, the one-step
transfer matrix (z, a; z conj(a), 1) has eigenvalues

    z1, z2 = ((z + 1) +- sqrt((z - e^(i alpha))(z - e^(-i alpha)))) / 2

with cos(alpha/2) = sqrt(1 - |a|^2), and the four polynomials are divided
differences of eigenvalue powers. On the closed arc both eigenvalues share
the modulus sqrt(1 - |a|^2), which is the source of the boundedness
phenomenon quantified by envelope_check.

The orthogonality measure lives on the arc, plus at most one mass point at
e^(i beta) = (1 - a)/(1 - conj(a)) in the gap. The arc density used here is
the exact Caratheodory boundary value Re[(1 + z f)/(1 - z f)]/(2 pi), where
f is the Schur function with constant Schur parameter -conj(a) (the fixed
point of one Schur step); moment recovery of a, total mass 1, and the
arc-mass reconstruction limit all confirm it. Two published closed-form
variants attached to this measure disagree with that ground truth and are
kept on the measure object for comparison only:

* density_printed, a sine-quotient display: it matches the true density
  only at a = 1/2 (there it is exactly half of it) and does not integrate
  to the arc mass in general;
* j_beta_printed, which gives 1 at a = -1/2 where the reciprocal
  Christoffel sum (the defining limit) gives 2/3; squaring its denominator
  |1 - a| reproduces the computed mass, also for complex a.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import szego
from .core import Constant, arc_from_a
from .errors import DomainError, InvalidCoefficientError

# inside this band around the branch points the divided differences lose
# roughly six digits, so evaluation falls back to the recurrence
BRANCH_BAND = 1e-6


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues of the one-step transfer matrix at a point z.

    branch_ok is False within the branch band, where z1 and z2 nearly
    coincide and divided differences are unreliable.
    """

    z1: complex
    z2: complex
    branch_ok: bool


def eigen_pair(z: complex, alpha: float) -> EigenPair:
    """Eigenvalue pair with the square-root branch fixed by w/z -> 1 at infinity.

    The principal square root of the quadratic is sign-flipped whenever
    Re(conj(z) w) < 0, which enforces the normalization at infinity and
    continuity on the real axis. Divided differences downstream are
    symmetric in (z1, z2), so the flip only matters to direct consumers of
    the pair.
    """
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"arc angle must lie in (0, pi), got {alpha}")
    zz = complex(z)
    ea = cmath.exp(1j * alpha)
    w = cmath.sqrt((zz - ea) * (zz - ea.conjugate()))
    if (zz.conjugate() * w).real < 0.0:
        w = -w
    mid = (zz + 1.0) / 2.0
    ok = abs(w) >= BRANCH_BAND * (1.0 + abs(zz))
    return EigenPair(z1=mid + w / 2.0, z2=mid - w / 2.0, branch_ok=ok)


def polar_pow(w: complex, n: int) -> complex:
    """w**n through polar form; phase error stays O(n ulp)."""
    if n == 0:
        return 1.0 + 0.0j
    r = abs(w)
    if r == 0.0:
        return 0.0 + 0.0j
    return math.exp(n * math.log(r)) * cmath.exp(1j * (n * cmath.phase(w)))


def closed_eval(a: complex, n: int, z: complex) -> szego.SzegoState:
    """State of the constant-coefficient system from the eigenvalue closed form.

    The eigenvalue powers are kept pre-scaled by sqrt(1 - |a|^2) per degree,
    so arc points never overflow regardless of n. Inside the branch band the
    recurrence (which is the definition) is used instead.
    """
    aa = complex(a)
    if not 0.0 < abs(aa) < 1.0:
        raise DomainError(f"constant coefficient needs 0 < |a| < 1, got |a| = {abs(aa):.6g}")
    zz = complex(z)
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    if n == 0:
        return szego.initial_state(zz)
    alpha = arc_from_a(aa).alpha
    pair = eigen_pair(zz, alpha)
    if not pair.branch_ok:
        return szego.evaluate(Constant(aa), n, zz)
    r2 = 1.0 - abs(aa) ** 2
    sq = math.sqrt(r2)
    w1 = pair.z1 / sq
    w2 = pair.z2 / sq
    gap = pair.z1 - pair.z2
    t_n = (polar_pow(w1, n) - polar_pow(w2, n)) / gap
    t_nm1 = (polar_pow(w1, n - 1) - polar_pow(w2, n - 1)) / gap
    tail = zz * sq * t_nm1
    log_kappa = -0.5 * n * math.log(r2)
    kappa = math.exp(log_kappa) if log_kappa < 709.0 else math.inf
    return szego.SzegoState(
        n=n,
        z=zz,
        phi=(zz + aa) * t_n - tail,
        phi_star=(1.0 + aa.conjugate() * zz) * t_n - tail,
        psi=(zz - aa) * t_n - tail,
        psi_star=(1.0 - aa.conjugate() * zz) * t_n - tail,
        kappa=kappa,
    )


def v_alpha(theta: float, alpha: float) -> float:
    """Endpoint-singular envelope weight sin(t/2) |cos alpha - cos t|^(-1/2).

    Returns inf at the arc endpoints so min(n, v_alpha) stays well defined;
    angles off the closed arc are a domain error.
    """
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"arc angle must lie in (0, pi), got {alpha}")
    t = theta % (2.0 * math.pi)
    if not alpha <= t <= 2.0 * math.pi - alpha:
        raise DomainError(f"theta = {theta:.6g} lies off the closed arc")
    gap = abs(math.cos(alpha) - math.cos(t))
    if gap == 0.0:
        return math.inf
    return math.sin(t / 2.0) / math.sqrt(gap)


@dataclass(frozen=True)
class EnvelopeReport:
    """Empirical envelope constants for the constant-coefficient system.

    c_min_n_v is the smallest constant C with |phi_n| <= C min(n, v_alpha)
    on the grid through degree n_max; c_plain is the plain sup of |phi_n|
    (the subarc constant when the grid is inset). growth_ok records the
    doubling-stability verdict: the upper half of degrees did not push the
    sup more than 5 percent above the lower half.
    """

    n_max: int
    c_min_n_v: float
    at_degree: int
    at_theta: float
    c_plain: float
    lower_half_sup: float
    upper_half_sup: float
    growth_ok: bool


def envelope_check(a: complex, n_max: int, grid=None, epsilon: float = 0.0,
                   num_points: int = 64) -> EnvelopeReport:
    """Sweep degrees 1..n_max over an arc grid and report envelope constants."""
    if n_max < 1:
        raise DomainError(f"degree sweep needs n_max >= 1, got {n_max}")
    aa = complex(a)
    arc = arc_from_a(aa)
    thetas = np.asarray(grid, dtype=float) if grid is not None else arc.grid(num_points, epsilon)
    v = np.array([v_alpha(float(t), arc.alpha) for t in thetas], dtype=float)
    (plain, _), (ratio, where) = szego.degree_peaks(
        Constant(aa), thetas, n_max,
        lambda n, abs_phi: abs_phi, lambda n, abs_phi: abs_phi / np.minimum(float(n), v))
    k = int(np.argmax(ratio))
    half = n_max // 2
    sup_lower = float(plain[:half].max(initial=0.0))
    sup_upper = float(plain[half:].max(initial=0.0))
    return EnvelopeReport(
        n_max=n_max,
        c_min_n_v=float(ratio[k]),
        at_degree=k + 1,
        at_theta=float(thetas[where[k]]),
        c_plain=max(sup_lower, sup_upper),
        lower_half_sup=sup_lower,
        upper_half_sup=sup_upper,
        growth_ok=sup_upper <= 1.05 * sup_lower,
    )


@dataclass(frozen=True)
class GeronimusMeasure:
    """Orthogonality measure of the constant-coefficient system.

    j_beta is the computed mass (reciprocal Christoffel sum at the mass
    point); j_beta_printed and j_beta_squared_denom are the two closed-form
    candidates kept for comparison. mass_converged records whether the
    Christoffel sum stabilized.
    """

    a: complex
    alpha: float
    beta: float
    j_beta: float
    j_beta_printed: float
    j_beta_squared_denom: float
    mass_converged: bool

    @property
    def has_mass(self) -> bool:
        return abs(1.0 - 2.0 * self.a) > 1.0

    @property
    def support(self) -> tuple[float, float]:
        return (self.alpha, 2.0 * math.pi - self.alpha)

    def density(self, theta: float) -> float:
        """Arc density (Caratheodory boundary value); density plus mass totals 1."""
        t = theta % (2.0 * math.pi)
        if not self.alpha < t < 2.0 * math.pi - self.alpha:
            return 0.0
        # u = z f(z) for the Schur fixed point with |f| <= 1; on the arc the
        # two quadratic roots have reciprocal moduli and the inner one is
        # explicit: u = -i e^(i t/2) (2 sin(t/2) - s) / (2a) with
        # s = sqrt(2 (cos alpha - cos t)).
        s = math.sqrt(max(2.0 * (math.cos(self.alpha) - math.cos(t)), 0.0))
        u = -1j * cmath.exp(0.5j * t) * (2.0 * math.sin(t / 2.0) - s) / (2.0 * self.a)
        one_minus = 1.0 - u
        value = (1.0 - abs(u) ** 2) / (2.0 * math.pi * (one_minus * one_minus.conjugate()).real)
        return max(value, 0.0)

    def density_printed(self, theta: float) -> float:
        """The sine-quotient display kept for comparison; not used internally."""
        t = theta % (2.0 * math.pi)
        if not self.alpha < t < 2.0 * math.pi - self.alpha:
            return 0.0
        num = math.sin((t + self.alpha) / 2.0) * math.sin((t - self.alpha) / 2.0)
        if num <= 0.0:
            return 0.0
        return math.sqrt(num) / (2.0 * math.pi * math.sin((t - self.beta) / 2.0))


def christoffel_mass(a: complex, z: complex, max_terms: int = 500_000) -> tuple[float, bool]:
    """Reciprocal of the summed squared orthonormal values at z.

    Returns (mass, converged) by szego.christoffel_cutoff over at most
    max_terms terms. Away from mass points the sum keeps growing and the
    flag comes back False.
    """
    b = complex(a)
    if not abs(b) < 1.0:
        raise InvalidCoefficientError(1, b)
    return szego.christoffel_cutoff(szego.christoffel_terms(repeat(b, max_terms), z))


def mu_a_spec(a: complex) -> GeronimusMeasure:
    """Measure data for the constant-coefficient system."""
    aa = complex(a)
    if not 0.0 < abs(aa) < 1.0:
        raise DomainError(f"constant coefficient needs 0 < |a| < 1, got |a| = {abs(aa):.6g}")
    alpha = arc_from_a(aa).alpha
    beta = cmath.phase((1.0 - aa) / (1.0 - aa.conjugate()))
    if not -alpha < beta < alpha:
        raise DomainError(
            f"mass-point angle beta = {beta:.6g} fell on the arc; "
            "measure data unavailable for this coefficient"
        )
    has_mass = abs(1.0 - 2.0 * aa) > 1.0
    if has_mass:
        numerator = 2.0 * abs(aa) ** 2 - 2.0 * aa.real
        printed = numerator / abs(1.0 - aa)
        fixed = numerator / abs(1.0 - aa) ** 2
        mass, converged = christoffel_mass(aa, cmath.exp(1j * beta))
    else:
        printed = fixed = mass = 0.0
        converged = True
    return GeronimusMeasure(
        a=aa,
        alpha=alpha,
        beta=beta,
        j_beta=mass,
        j_beta_printed=printed,
        j_beta_squared_denom=fixed,
        mass_converged=converged,
    )
