"""Pointwise evaluation of orthonormal polynomials on the unit circle.

The state at degree n holds the orthonormal polynomial phi_n, its reversed
polynomial phi*_n, the second-kind pair psi_n / psi*_n (the system with
negated reflection coefficients), and the positive leading coefficient
kappa_n. One step consumes the next reflection coefficient b:

    phi_{n+1}  = (z phi_n + b phi*_n) / r        r = sqrt(1 - |b|^2)
    phi*_{n+1} = (z conj(b) phi_n + phi*_n) / r
    kappa_{n+1} = kappa_n / r

with the psi columns advanced by the same rule under b -> -b. Negating every
coefficient of a sequence therefore swaps the phi and psi columns exactly
(identical floating-point expression trees).

Two folds carry the recurrence: evaluate() and christoffel_terms() on Python
scalars, and sweep() in place over an angle grid for every grid consumer
(sweep_abs_phi, degree_peaks, the oracle's quadrature). Two independent code
paths cross-check them: pair_evaluate(), which keeps the kappa products
explicit and scales both by 2^-256 past 2^256, and schur_sum_eval(), its own
scalar fold that rebuilds kappa_n phi*_n from all lower-degree values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import ReflectionSequence
from .errors import DomainError, InvalidCoefficientError


@dataclass(frozen=True)
class SzegoState:
    """Value of the four polynomials and kappa at one point and degree."""

    n: int
    z: complex
    phi: complex
    phi_star: complex
    psi: complex
    psi_star: complex
    kappa: float

    def as_matrix(self) -> np.ndarray:
        """The 2 x 2 state (phi, psi; phi*, -psi*)."""
        import numpy as np
        return np.array(
            [[self.phi, self.psi], [self.phi_star, -self.psi_star]], dtype=complex
        )


def initial_state(z: complex) -> SzegoState:
    return SzegoState(n=0, z=complex(z), phi=1.0, phi_star=1.0, psi=1.0, psi_star=1.0, kappa=1.0)


def step(state: SzegoState, phi_next_at_zero: complex, z: complex | None = None) -> SzegoState:
    """Advance one degree with the given next reflection coefficient."""
    b = complex(phi_next_at_zero)
    if not abs(b) < 1.0:  # also rejects NaN
        raise InvalidCoefficientError(state.n + 1, b)
    zz = state.z if z is None else complex(z)
    r = math.sqrt(1.0 - abs(b) ** 2)
    bc = b.conjugate()
    return SzegoState(
        n=state.n + 1,
        z=zz,
        phi=(zz * state.phi + b * state.phi_star) / r,
        phi_star=(zz * bc * state.phi + state.phi_star) / r,
        psi=(zz * state.psi + (-b) * state.psi_star) / r,
        psi_star=(zz * (-b).conjugate() * state.psi + state.psi_star) / r,
        kappa=state.kappa / r,
    )


def evaluate(seq: ReflectionSequence, n: int, z: complex) -> SzegoState:
    """Fold the matrix recurrence n times from the degree-0 state.

    The fold runs on local scalars with the expression text of step(), so
    the result equals n chained step() calls bit for bit; numpy rounds
    complex products differently, so the array sweep() cannot stand in.
    """
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    zz = complex(z)
    phi = phi_star = psi = psi_star = kappa = 1.0
    for b in seq.coeffs(n):
        r = math.sqrt(1.0 - abs(b) ** 2)
        bc = b.conjugate()
        phi, phi_star = (zz * phi + b * phi_star) / r, (zz * bc * phi + phi_star) / r
        psi, psi_star = (
            (zz * psi + (-b) * psi_star) / r,
            (zz * (-b).conjugate() * psi + psi_star) / r,
        )
        kappa = kappa / r
    return SzegoState(n=n, z=zz, phi=phi, phi_star=phi_star, psi=psi, psi_star=psi_star,
                      kappa=kappa)


def pair_evaluate(seq: ReflectionSequence, n: int, z: complex) -> tuple[complex, complex]:
    """(phi_n, phi*_n) by the scalar recurrences with explicit kappa weights.

    Literal form: kappa_{n-1} phi_n = z kappa_n phi_{n-1} + phi_n(0) phi*_{n-1}
    and its reversed companion, with phi_n(0) = kappa_n b. The kappa product
    is accumulated separately, so this is an independent code path from
    evaluate(). Both kappa weights are scaled by 2^-256 whenever kappa passes
    2^256, which leaves every step's value unchanged and keeps it finite.
    """
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    zz = complex(z)
    phi, phi_star = 1.0 + 0.0j, 1.0 + 0.0j
    kappa_prev = 1.0
    for b in seq.coeffs(n):
        kappa_k = kappa_prev / math.sqrt(1.0 - abs(b) ** 2)
        if kappa_k > 2.0 ** 256:  # only the ratio enters; a power of two is exact
            kappa_k, kappa_prev = kappa_k * 2.0 ** -256, kappa_prev * 2.0 ** -256
        phi_at_zero = kappa_k * b
        phi_new = (zz * kappa_k * phi + phi_at_zero * phi_star) / kappa_prev
        phi_star_new = (kappa_k * phi_star + zz * phi_at_zero.conjugate() * phi) / kappa_prev
        phi, phi_star = phi_new, phi_star_new
        kappa_prev = kappa_k
    return phi, phi_star


def kappa(seq: ReflectionSequence, n: int) -> float:
    """Leading coefficient kappa_n, accumulated in log space; inf past double range."""
    log_k = log_kappa(seq, n)
    return math.exp(log_k) if log_k < 709.0 else math.inf


def log_kappa(seq: ReflectionSequence, n: int) -> float:
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    acc = 0.0
    for b in seq.coeffs(n):
        acc -= 0.5 * math.log1p(-abs(b) ** 2)
    return acc


def schur_sum_eval(seq: ReflectionSequence, n: int, z: complex) -> complex:
    """kappa_n phi*_n(z) as the sum of conj(coefficient_k) kappa_k phi_k(z).

    The k = 0 coefficient is 1. Equality with kappa_n * phi_star from
    evaluate() is the summation-route consistency check. The fold runs on
    local scalars with the phi, phi* and kappa expression text of step(), so
    the sum equals one built from chained step() calls bit for bit.
    """
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    zz = complex(z)
    phi = phi_star = kappa = 1.0
    total = 1.0 + 0.0j  # k = 0 term
    for b in seq.coeffs(n):
        r = math.sqrt(1.0 - abs(b) ** 2)
        bc = b.conjugate()
        phi, phi_star = (zz * phi + b * phi_star) / r, (zz * bc * phi + phi_star) / r
        kappa = kappa / r
        total += bc * kappa * phi
    return total


def wronskian(state: SzegoState) -> complex:
    """Determinant of the state matrix; identically -2 z^n."""
    return state.phi * (-state.psi_star) - state.psi * state.phi_star


def expected_z_moment(seq: ReflectionSequence, n: int) -> complex:
    """Integral of z |phi_n|^2 against the orthogonality measure.

    Equals minus the product of consecutive reflection coefficients (with the
    index-0 coefficient set to 1), read off the Fourier expansion of z phi_n.
    """
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    prev = 1.0 + 0.0j if n == 0 else seq.coeff_at(n)
    return -seq.coeff_at(n + 1) * prev.conjugate()


def monic_coefficients(seq: ReflectionSequence, n: int) -> np.ndarray:
    """Coefficient vector (ascending powers) of the monic polynomial of degree n.

    Runs the monic recurrence on coefficient arrays: new = z * old +
    b * reversed-conjugate(old). O(n^2); intended for modest degrees where an
    explicit coefficient route is wanted as an oracle.
    """
    import numpy as np
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    coeffs = np.array([1.0 + 0.0j])
    for b in seq.coeffs(n):
        shifted = np.concatenate(([0.0 + 0.0j], coeffs))        # z * Phi_{k-1}
        reversed_conj = np.conj(coeffs[::-1])                   # Phi*_{k-1}
        star = np.concatenate((reversed_conj, [0.0 + 0.0j]))    # degree k vector
        coeffs = shifted + b * star
    return coeffs


def christoffel_terms(coeffs: Iterable[complex], z: complex) -> Iterator[float]:
    """Yield |phi_k(z)|^2 for k = 1, 2, ..., one per validated coefficient, from the
    phi, phi* columns of step() on local scalars (equal to chained step() calls)."""
    zz = complex(z)
    phi = phi_star = 1.0
    for b in coeffs:
        r = math.sqrt(1.0 - abs(b) ** 2)
        phi, phi_star = (zz * phi + b * phi_star) / r, (zz * b.conjugate() * phi + phi_star) / r
        yield phi.real**2 + phi.imag**2


def christoffel_cutoff(terms: Iterable[float]) -> tuple[float, bool]:
    """(mass, converged): the reciprocal of 1 + the sum of the terms, cut off.

    At a mass point the true summand decays geometrically until rounding
    noise injects the growing mode, so the sum stops when the summand either
    stops mattering or turns back upward below a relative noise floor. A
    sum that overflows or passes 1e12 gives (0, False); one that runs out
    of terms first gives its reciprocal with converged False.
    """
    total, prev_term, rising = 1.0, 1.0, 0  # the sum starts at the degree-0 term
    for term in terms:
        if not math.isfinite(term) or total > 1e12:
            return 0.0, False
        total += term
        if term <= 1e-12 * total:
            return 1.0 / total, True
        if term > prev_term:
            rising += 1
            # sustained growth below the noise floor: truncation error is
            # already far below reporting precision
            if rising >= 4 and term < 1e-8 * total:
                return 1.0 / total, True
        else:
            rising = 0
        prev_term = term
    return 1.0 / total, False


# While every |phi|, |phi*| on the grid stays below this, no intermediate of a
# step can overflow (the largest is a few times the bound)
_SWEEP_SAFE_BOUND = 1e300


def sweep(seq: ReflectionSequence, thetas: np.ndarray,
          n_max: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (n, phi_n, phi*_n) over the angle grid for n = 1..n_max, vectorized.

    Grid sweeps are the intended parallelism: one recurrence pass advances
    the whole grid at once, in place in two preallocated buffers. The
    yielded arrays are views of those buffers, which later steps overwrite;
    copy what must outlive the iteration.

    The values equal the literal recurrence (z phi + b phi*) / r,
    (z conj(b) phi + phi*) / r evaluated on arrays, bit for bit. numpy
    divides a complex value by a real r as (re + im * 0) * (1 / r), which is
    re * (1 / r) whenever the numerator is finite, so while a running bound
    keeps every value far from overflow each step divides by one real
    multiply of the float64 view instead. Past that bound (off-arc growth,
    non-finite angles) the step takes the literal divide.
    """
    import numpy as np
    z = np.exp(1j * np.asarray(thetas, dtype=float))
    cur = np.ones((2,) + z.shape, dtype=complex)  # phi, phi*
    nxt = np.empty_like(cur)
    tmp = np.empty_like(z)
    # bound on |phi| and |phi*| over the grid; |z| = 1 makes the growth per
    # step at most (1 + |b|) / r. NaN keeps every step on the literal divide.
    bound = 1.0 if np.isfinite(z).all() else math.nan
    for k, b in enumerate(seq.coeffs(n_max), 1):
        r = math.sqrt(1.0 - abs(b) ** 2)
        growth = (1.0 + abs(b)) / r
        bound *= growth
        if bound > _SWEEP_SAFE_BOUND:
            bound = float(np.abs(cur).max(initial=0.0)) * growth
        phi, phi_star = cur[0], cur[1]
        new_phi, new_phi_star = nxt[0], nxt[1]
        if bound <= _SWEEP_SAFE_BOUND:
            np.multiply(z, phi, out=new_phi)
            np.multiply(b, phi_star, out=tmp)
            np.add(new_phi, tmp, out=new_phi)
            np.multiply(z, b.conjugate(), out=tmp)
            np.multiply(tmp, phi, out=new_phi_star)
            np.add(new_phi_star, phi_star, out=new_phi_star)
            flat = nxt.view(float)
            np.multiply(flat, 1.0 / r, out=flat)
        else:
            np.divide(z * phi + b * phi_star, r, out=new_phi)
            np.divide(z * b.conjugate() * phi + phi_star, r, out=new_phi_star)
        cur, nxt = nxt, cur
        yield k, cur[0], cur[1]


def sweep_abs_phi(seq: ReflectionSequence, thetas: np.ndarray, n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, |phi_n| over the angle grid) for n = 1..n_max; see sweep()."""
    import numpy as np
    for n, phi, _ in sweep(seq, thetas, n_max):
        yield n, np.abs(phi)


def degree_peaks(seq: ReflectionSequence, thetas: np.ndarray, n_max: int,
                 *weights) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per weight, (peaks, where) over degrees n = 1..n_max from one sweep.

    A weight maps (n, |phi_n| on the grid) to weighted values; peaks[n - 1]
    is their maximum over the grid and where[n - 1] the grid index of its
    first occurrence.
    """
    import numpy as np
    peaks = [np.empty(n_max) for _ in weights]
    where = [np.empty(n_max, dtype=int) for _ in weights]
    for n, phi, _ in sweep(seq, thetas, n_max):
        abs_phi = np.abs(phi)
        for weight, peak, at in zip(weights, peaks, where):
            w = weight(n, abs_phi)
            at[n - 1] = i = w.argmax()
            peak[n - 1] = w[i]
    return list(zip(peaks, where))
