"""Truncated multiplication operator: Hessenberg matrices and their spectra.

In the orthonormal-polynomial basis, multiplication by z is an upper
Hessenberg matrix whose entries are products of reflection coefficients and
the subdiagonal factors sqrt(1 - |c_k|^2) (index-0 coefficient fixed at 1).
The N x N leading principal truncation has the zeros of the degree-N monic
polynomial as its eigenvalues, which is the bridge between spectral language
and computable objects: zero clouds of truncations approximate the measure's
essential support, and persistent isolated zeros flag mass-point candidates.

Diagonal products are kept in log space; with coefficients accumulating
toward the unit circle the off-diagonal decay is super-geometric and the raw
products underflow long before the entries stop being meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import szego
from .core import ReflectionSequence, arc_from_a, unit_point
from .errors import DomainError, EigenSolverError

TWO_PI = 2.0 * math.pi

# dense truncations: fill above the diagonal is full, so banded storage buys
# nothing; dimensions beyond this are refused unless the caller raises the cap
DEFAULT_MAX_DIM = 2000


@dataclass(frozen=True)
class HessenbergTruncation:
    """Leading principal N x N block of the multiplication operator."""

    n: int
    entries: np.ndarray

    def column_unit_defect(self) -> float:
        """Max deviation of fully represented column norms from 1.

        Columns j <= N - 2 carry their whole infinite-matrix support inside
        the truncation, so unitarity makes them exactly unit vectors.
        """
        if self.n < 2:
            return 0.0
        sums = np.sum(np.abs(self.entries[:, : self.n - 1]) ** 2, axis=0)
        return float(np.max(np.abs(sums - 1.0)))


def _log_factors(seq: ReflectionSequence, n_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coefficients with c_0 = 1, log sqrt(1 - |c_k|^2) for k = 1..N, their prefix sums from 0)."""
    phis = np.array([1.0, *seq.coeffs(n_dim)], dtype=complex)
    log_r = 0.5 * np.log1p(-np.abs(phis[1:]) ** 2)
    return phis, log_r, np.concatenate(([0.0], np.cumsum(log_r)))


def hessenberg(seq: ReflectionSequence, n_dim: int, max_dim: int = DEFAULT_MAX_DIM) -> HessenbergTruncation:
    """Build the N x N truncation from the first N reflection coefficients."""
    if n_dim < 1:
        raise DomainError(f"dimension must be >= 1, got {n_dim}")
    if n_dim > max_dim:
        raise DomainError(f"dimension {n_dim} exceeds the cap {max_dim}; pass max_dim to override")
    phis, log_r, log_prefix = _log_factors(seq, n_dim)
    u = np.zeros((n_dim, n_dim), dtype=complex)
    # only the upper triangle: there log_prefix[j] - log_prefix[i] <= 0, so exp cannot overflow
    i, j = np.triu_indices(n_dim)
    u[i, j] = -phis[j + 1] * np.conj(phis[i]) * np.exp(log_prefix[j] - log_prefix[i])
    u[range(1, n_dim), range(n_dim - 1)] = [math.exp(v) for v in log_r[: n_dim - 1]]
    return HessenbergTruncation(n=n_dim, entries=u)


def diagonal_norms(seq: ReflectionSequence, n_dim: int, j_max: int) -> list[float]:
    """Sup norms of the diagonal bands j = -1, 0, .., j_max of the truncation.

    Entry 0 of the result is the subdiagonal band; entry j + 1 is band j.
    """
    if not 0 <= j_max < n_dim:
        raise DomainError(f"need 0 <= j_max < dimension, got j_max={j_max}, dim={n_dim}")
    phis, log_r, log_prefix = _log_factors(seq, n_dim)
    mods = np.abs(phis)
    norms = [float(np.max(np.exp(log_r[: n_dim - 1]))) if n_dim > 1 else float(np.exp(log_r[0]))]
    for j in range(j_max + 1):
        rows = np.arange(n_dim - j)
        vals = mods[rows + j + 1] * mods[rows] * np.exp(log_prefix[rows + j] - log_prefix[rows])
        norms.append(float(np.max(vals)))
    return norms


def truncation_zeros(seq: ReflectionSequence, n_dim: int, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """Eigenvalues of the truncation = zeros of the degree-N monic polynomial.

    LAPACK zgeev balances the matrix and computes its eigenvalues only; no
    Schur form or eigenvectors are kept.
    """
    h = hessenberg(seq, n_dim, max_dim=max_dim).entries
    try:
        return np.linalg.eigvals(h)
    except np.linalg.LinAlgError as exc:  # the QR iteration did not converge
        try:
            cond = float(np.linalg.cond(h))
        except np.linalg.LinAlgError:
            cond = math.inf
        raise EigenSolverError(n_dim, cond, str(exc)) from exc


def zeros_from_coefficients(seq: ReflectionSequence, n_dim: int) -> np.ndarray:
    """Independent zero route: companion matrix of the explicit monic coefficients."""
    coeffs = szego.monic_coefficients(seq, n_dim)
    return np.roots(coeffs[::-1])


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite point sets in the plane."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass(frozen=True)
class SupportReport:
    """Zero cloud of a truncation classified against the comparison arc."""

    n: int
    alpha: float
    tol: float
    zeros: np.ndarray
    coverage: float
    outliers: np.ndarray
    persistent_outliers: np.ndarray
    radial_min: float
    radial_max: float
    radial_mean: float

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "N": self.n,
            "alpha": self.alpha,
            "tol": self.tol,
            "zeros": [[z.real, z.imag] for z in self.zeros],
            "coverage": self.coverage,
            "outliers": [[z.real, z.imag] for z in self.outliers],
            "persistent_outliers": [[z.real, z.imag] for z in self.persistent_outliers],
            "radial": {"min": self.radial_min, "max": self.radial_max, "mean": self.radial_mean},
        }


def support_report(seq: ReflectionSequence, a: complex | None, n_dim: int, tol: float = 0.05,
                   num_bins: int = 20, max_dim: int = DEFAULT_MAX_DIM) -> SupportReport:
    """Classify truncation zeros by argument against the arc of the comparison a.

    Coverage is the fraction of equal arc bins hit by at least one zero
    argument. Outliers are zeros whose argument misses the arc by more than
    tol; an outlier is persistent when the half-size truncation has an
    outlier within 0.01 in argument (separating mass-point candidates from
    truncation artifacts, which wander near the arc endpoints). With a = None
    the comparison is the last coefficient of the truncation, c_{n_dim}.
    """
    if n_dim < 20:
        raise DomainError(f"support classification needs dimension >= 20, got {n_dim}")
    arc = arc_from_a(seq.coeff_at(n_dim) if a is None else a)
    zeros = truncation_zeros(seq, n_dim, max_dim=max_dim)
    zeros_half = truncation_zeros(seq, n_dim // 2, max_dim=max_dim)

    def args_of(zs: np.ndarray) -> np.ndarray:
        return np.angle(zs) % TWO_PI

    args = args_of(zeros)
    on_arc = np.array([arc.contains(t) for t in args])
    outliers = zeros[~np.array([arc.contains(t, tol) for t in args])]
    half_out_args = args_of(zeros_half[
        ~np.array([arc.contains(t, tol) for t in args_of(zeros_half)])
    ]) if len(zeros_half) else np.array([])
    persistent = []
    for z in outliers:
        t = np.angle(z) % TWO_PI
        if len(half_out_args) and np.min(np.abs(np.angle(np.exp(1j * (half_out_args - t))))) <= 1e-2:
            persistent.append(z)
    lo, hi = arc.alpha, TWO_PI - arc.alpha
    hits = np.zeros(num_bins, dtype=bool)
    for t in args[on_arc]:
        idx = min(int((t - lo) / (hi - lo) * num_bins), num_bins - 1)
        hits[idx] = True
    radii = 1.0 - np.abs(zeros)
    return SupportReport(
        n=n_dim, alpha=arc.alpha, tol=tol, zeros=zeros,
        coverage=float(hits.mean()),
        outliers=outliers,
        persistent_outliers=np.array(persistent, dtype=complex),
        radial_min=float(radii.min()), radial_max=float(radii.max()),
        radial_mean=float(radii.mean()),
    )


@dataclass(frozen=True)
class KreinReport:
    """Single-limit-point diagnostics from consecutive coefficient products."""

    n_terms: int
    products: np.ndarray
    tau_estimate: complex | None
    vi_holds: bool
    deviation: float
    phi_diameter: float
    phi_converged: bool
    singular_flag: bool
    geronimus_tail: float | None

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "n_terms": self.n_terms,
            "tau_estimate": None if self.tau_estimate is None
            else [self.tau_estimate.real, self.tau_estimate.imag],
            "vi_holds": self.vi_holds,
            "deviation": self.deviation,
            "phi_diameter": self.phi_diameter,
            "phi_converged": self.phi_converged,
            "singular_flag": self.singular_flag,
            "geronimus_tail": self.geronimus_tail,
        }


def krein_check(seq: ReflectionSequence, n_terms: int, stab_tol: float = 0.05) -> KreinReport:
    """Check whether c_{n+1} conj(c_n) stabilizes near the unit circle.

    A limit -tau of modulus 1 signals a single limit point tau in the
    measure's support; the coefficient sequence itself may keep oscillating
    (reported through its tail diameter). For real sequences the tail of
    (1 + c_n)(1 - c_{n+1}) is reported as the classical equivalent check,
    and a running-maximum flag marks coefficient moduli within 1e-3 of 1
    (a singular measure indicator).
    """
    if n_terms < 10:
        raise DomainError(f"need at least 10 coefficients, got {n_terms}")
    phis = np.array(seq.coeffs(n_terms), dtype=complex)
    products = phis[1:] * np.conj(phis[:-1])
    window = max(5, (n_terms - 1) // 10)
    tail = products[-window:]
    p_last = complex(products[-1])
    deviation = float(np.max(np.abs(tail - p_last)))
    vi_holds = deviation <= stab_tol and abs(abs(p_last) - 1.0) <= stab_tol
    # oscillation detector over the last half: wide enough that a slowly
    # wandering argument (which a short window would miss) shows up
    phi_tail = phis[n_terms // 2:]
    # |x - y| is symmetric, so blocks of rows against the columns from the
    # block's start cover every pair in bounded memory
    diam = max(float(np.max(np.abs(phi_tail[i:i + 128, None] - phi_tail[None, i:])))
               for i in range(0, len(phi_tail), 128))
    geronimus_tail = None
    if np.all(np.abs(phis.imag) == 0.0):
        vals = (1.0 + phis[:-1].real) * (1.0 - phis[1:].real)
        geronimus_tail = float(vals[-1])
    return KreinReport(
        n_terms=n_terms,
        products=products,
        tau_estimate=-p_last if vi_holds else None,
        vi_holds=vi_holds,
        deviation=deviation,
        phi_diameter=diam,
        phi_converged=diam < 0.1,
        singular_flag=bool(np.max(np.abs(phis)) > 1.0 - 1e-3),
        geronimus_tail=geronimus_tail,
    )


@dataclass(frozen=True)
class ChristoffelReport:
    """Running sums of |phi_k(z)|^2 and the implied mass at z."""

    z: complex
    partial_sums: np.ndarray
    mass_estimate: float
    converged: bool

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "z": [self.z.real, self.z.imag],
            "partial_sums": [float(v) for v in self.partial_sums],
            "mass_estimate": self.mass_estimate,
            "converged": self.converged,
        }


def christoffel_sum(seq: ReflectionSequence, z, n_terms: int) -> ChristoffelReport:
    """Partial sums of |phi_k(z)|^2 for k = 0..N and the reciprocal-limit mass.

    The sum converges exactly at mass points. Convergence and the mass come
    from szego.christoffel_cutoff over the N terms; a sum it does not stop
    reports mass 0.
    """
    zz = unit_point(z)
    if n_terms < 2:
        raise DomainError(f"need at least 2 terms, got {n_terms}")
    terms = list(szego.christoffel_terms(seq.coeffs(n_terms), zz))
    sums = np.fromiter(accumulate(terms, initial=1.0), dtype=float, count=n_terms + 1)
    mass, converged = szego.christoffel_cutoff(terms)
    return ChristoffelReport(z=zz, partial_sums=sums, mass_estimate=mass if converged else 0.0,
                             converged=converged)
