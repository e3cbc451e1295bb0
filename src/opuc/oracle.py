"""Measure-side ground truth, independent of every recurrence.

A measure is specified as an arc density (with endpoint-singularity hints)
plus a list of point masses. Trigonometric moments come from one
Gauss-Jacobi rule per support piece whose weight carries the piece's
endpoint exponents, built from the weight's Jacobi matrix (Golub & Welsch,
Math. Comp. 23, 1969): the density is evaluated once per node and all
moments are one matrix-vector product. The rule doubles from 32 nodes until
two successive rules agree, and their difference is the reported error; a
piece that does not settle by 256 nodes (a density peak by an arc end,
where |1 - 2a| is near 1 for the Geronimus measure) is cut into panels,
each halved until its 16- and 32-node rules agree. Point masses contribute
exactly. Reflection coefficients are recovered (coefficients in, measure
out, coefficients out again) by the Szego recursion on the discrete measure
the moments were summed from, the discretized Stieltjes procedure
(Gautschi, SIAM J. Sci. Stat. Comput. 3, 1982) in its unit-circle form
(Gragg, J. Comput. Appl. Math. 46, 1993); moments read from a file go
through Levinson-Durbin (Levinson 1947, Durbin 1960), which divides moment
errors by the pivots E_m = prod (1 - |b_k|^2). Over 300 random Geronimus
measures with |b| in [0.69, 0.71] and phase within 0.3 of 0, order 15 from
the measure was within 4.3e-15; from its moments it missed 1e-6 on 170, by
up to 6.9e-6. Neither route shares code with the recurrence routes it
checks. A pivot below 1e-12 (positive definiteness lost: the step ratio
1 - |b_m|^2 on the measure, E_m on moments) raises instead of giving noise.

Also here: the arc-mass reconstruction from the reciprocal squared
orthonormal polynomials (composite Gauss-Legendre over a grid sweep, panels
doubled until two rules agree), and grid-based lower bounds ("floors") for
the density. The floor approximates a limsup by a max over the top half of
the degree window, which is reported, not hidden.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from . import geronimus as geronimus_mod
from . import special, szego
from .core import ReflectionSequence, _parse_complex, _parse_kv, _read_indexed_csv, _require_fields
from .errors import (
    DomainError,
    QuadratureAccuracyError,
    RankDeficiencyError,
    SequenceSpecError,
)

TWO_PI = 2.0 * math.pi

MOMENT_ERROR_TARGET = 1e-10
GAUSS_START_NODES = 32
GAUSS_MAX_NODES = 256
PANEL_CAP = 1024

RECONSTRUCT_ERROR_TARGET = 1e-9


@dataclass(frozen=True)
class SupportPiece:
    """One smooth piece of the density support.

    exponent_lo / exponent_hi hint the algebraic behavior (theta - lo)^g at
    the endpoints; pieces are cut so that all interior singularities sit at
    piece boundaries.
    """

    lo: float
    hi: float
    exponent_lo: float = 0.0
    exponent_hi: float = 0.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"empty support piece [{self.lo}, {self.hi}]")
        if not (self.exponent_lo > -1.0 and self.exponent_hi > -1.0):  # NaN fails too
            raise DomainError("endpoint exponents must exceed -1 for integrability")


@dataclass(frozen=True)
class MeasureSpec:
    """Density plus point masses."""

    density: Callable[[float], float] | None
    pieces: tuple[SupportPiece, ...]
    point_masses: tuple[tuple[float, float], ...] = ()
    name: str = "custom"


def lebesgue() -> MeasureSpec:
    return MeasureSpec(
        density=lambda t: 1.0 / TWO_PI,
        pieces=(SupportPiece(0.0, TWO_PI),),
        name="lebesgue",
    )


def point_measure(theta: float, mass: float = 1.0) -> MeasureSpec:
    if not (math.isfinite(theta) and math.isfinite(mass)):
        raise DomainError(f"point mass needs finite theta and mass, got theta={theta}, mass={mass}")
    return MeasureSpec(density=None, pieces=(), point_masses=((theta % TWO_PI, mass),),
                       name="point")


def geronimus_measure(a: complex) -> MeasureSpec:
    """Arc measure of the constant-coefficient system, mass point included."""
    m = geronimus_mod.mu_a_spec(a)
    masses = ((m.beta % TWO_PI, m.j_beta),) if m.j_beta > 0.0 else ()
    return MeasureSpec(
        density=m.density,
        pieces=(SupportPiece(m.alpha, TWO_PI - m.alpha, 0.5, 0.5),),
        point_masses=masses,
        name="geronimus",
    )


def arc_jacobi_measure(alpha: float, gamma: float, delta: float) -> MeasureSpec:
    """Arc measure with the Jacobi-type weight, normalized to total mass 1.

    The weight's integral is a Beta integral (t -> cos t), 2^(gamma + 1)
    cos(alpha/2)^(2 gamma + delta + 1) B(gamma + 1, (delta + 1)/2).
    """
    params = special.ArcMeasureParams(alpha, gamma, delta)
    c = (2.0 ** (gamma + 1.0) * math.cos(0.5 * alpha) ** (2.0 * gamma + delta + 1.0)
         * _beta(gamma + 1.0, 0.5 * delta + 0.5))
    # the |cos(t/2)|^delta factor is singular at pi, so pi is a piece boundary;
    # at a degenerate arc endpoint (alpha = 0) the gap factor vanishes
    # quadratically, doubling the effective exponent
    g_end = gamma if alpha > 0.0 else 2.0 * gamma
    return MeasureSpec(
        density=lambda t: params.weight(t) / c,
        pieces=(SupportPiece(alpha, math.pi, g_end, delta),
                SupportPiece(math.pi, TWO_PI - alpha, delta, g_end)),
        name="arc-jacobi",
    )


def _beta(p: float, q: float) -> float:
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, exponent_lo: float, exponent_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Jacobi rule, n >= 2, for the weight (1 + x)^exponent_lo (1 - x)^exponent_hi.

    Golub & Welsch: the nodes are the eigenvalues of the weight's Jacobi matrix, the weights
    the squared first eigenvector components times the weight's integral 2^(a+b+1) B(a+1, b+1).
    """
    a, b = exponent_hi, exponent_lo
    k = np.arange(1.0, n)
    s = 2.0 * k + a + b
    diag = np.concatenate(([(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))))
    k, s = k[1:], s[1:]
    # k = 1 with its factor 1 + a + b cancelled: a + b = -1 would give 0/0
    off2 = np.concatenate(([4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))],
                           4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s * s - 1.0))))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(np.sqrt(off2), -1))
    return x, 2.0 ** (a + b + 1.0) * _beta(a + 1.0, b + 1.0) * v[0] ** 2


def _rule_moments(f: Callable[[float], float], piece: SupportPiece, n: int,
                  order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrals of f(t) e^(-i k t) over a piece, k = 0..order, by the n-node Gauss-Jacobi rule.

    The rule's weight (t - lo)^exponent_lo (hi - t)^exponent_hi takes the
    endpoint behavior of f, so f divided by it is smooth; also returns (t, f(t) w).
    """
    half = 0.5 * (piece.hi - piece.lo)
    ks = np.arange(order + 1)
    x, w = _jacobi_rule(n, piece.exponent_lo, piece.exponent_hi)
    t = piece.lo + half * (1.0 + x)
    fw = np.array([f(ti) for ti in t]) * (
        half * w / ((1.0 + x) ** piece.exponent_lo * (1.0 - x) ** piece.exponent_hi))
    # 128 moments at a time bounds the phase matrix at any order
    return np.concatenate([np.exp(-1j * np.outer(ks[i:i + 128], t)) @ fw
                           for i in range(0, order + 1, 128)]), t, fw


def _gauss_jacobi_moments(f: Callable[[float], float], piece: SupportPiece,
                          order: int) -> tuple[np.ndarray, np.ndarray, tuple] | None:
    """Moments of f over a piece, k = 0..order, by doubled Gauss-Jacobi rules.

    Doubles the rule from GAUSS_START_NODES until two successive rules agree
    within MOMENT_ERROR_TARGET on every moment and returns (values,
    differences, the last rule's nodes); None if GAUSS_MAX_NODES fails.
    """
    prev = None
    n = GAUSS_START_NODES
    while n <= GAUSS_MAX_NODES:
        vals, t, fw = _rule_moments(f, piece, n, order)
        if prev is not None:
            diff = np.abs(vals.real - prev.real) + np.abs(vals.imag - prev.imag)
            if diff.max() <= MOMENT_ERROR_TARGET:
                return vals, diff, (t, fw)
        prev = vals
        n *= 2
    return None


def _panel_moments(f: Callable[[float], float], piece: SupportPiece,
                   order: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Moments of f over a piece, k = 0..order, by composite Gauss-Jacobi panels.

    Each panel, the piece itself first, takes the 16- and 32-node rules with
    the piece's exponent only at an end it shares with the piece. It is kept
    when they agree within MOMENT_ERROR_TARGET times max(its share of the
    piece, 1e-3) on every moment, else halved. Returns (values, summed
    differences, kept nodes); past PANEL_CAP raises QuadratureAccuracyError.
    """
    vals = np.zeros(order + 1, dtype=complex)
    errs = np.zeros(order + 1)
    kept = []
    todo = [(piece.lo, piece.hi)]
    panels = 1
    while todo:
        lo, hi = todo.pop()
        panel = SupportPiece(lo, hi, piece.exponent_lo if lo == piece.lo else 0.0,
                             piece.exponent_hi if hi == piece.hi else 0.0)
        coarse = _rule_moments(f, panel, 16, order)[0]
        fine, t, fw = _rule_moments(f, panel, 32, order)
        diff = np.abs(fine.real - coarse.real) + np.abs(fine.imag - coarse.imag)
        if diff.max() <= MOMENT_ERROR_TARGET * max((hi - lo) / (piece.hi - piece.lo), 1e-3):
            vals += fine
            errs += diff
            kept.append((t, fw))
            continue
        panels += 1
        if panels > PANEL_CAP:
            raise QuadratureAccuracyError(float((errs + diff).max()), MOMENT_ERROR_TARGET,
                                          context=f"moments over [{piece.lo}, {piece.hi}]")
        mid = 0.5 * (lo + hi)
        todo += [(mid, hi), (lo, mid)]
    return vals, errs, tuple(map(np.concatenate, zip(*kept)))


def _piece_moments(f: Callable[[float], float], piece: SupportPiece,
                   order: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(values, error estimates, nodes) of f's moments over a piece: doubled rules, else panels."""
    return _gauss_jacobi_moments(f, piece, order) or _panel_moments(f, piece, order)


@dataclass(frozen=True)
class TrigMoments:
    """Moments c_k of e^(-i k t); Hermitian symmetry is implicit in c()."""

    order: int
    values: np.ndarray  # c_0..c_K with c_0 = 1 exactly
    discrete: tuple | None = field(default=None, repr=False)  # (angles, weights) behind values

    def c(self, k: int) -> complex:
        if abs(k) > self.order:
            raise DomainError(f"moment index {k} beyond order {self.order}")
        return complex(self.values[k]) if k >= 0 else complex(self.values[-k]).conjugate()


def trig_moments(measure: MeasureSpec, order: int) -> TrigMoments:
    """Moments by quadrature plus exact point-mass terms, normalized so c_0 = 1.

    Raises QuadratureAccuracyError at the first moment whose error estimate,
    summed over the pieces, exceeds MOMENT_ERROR_TARGET. The rule nodes and
    point masses, weights divided by c_0, go with them for recovery.
    """
    if order < 0:
        raise DomainError(f"moment order must be nonnegative, got {order}")
    raw = np.zeros(order + 1, dtype=complex)
    parts = [np.array(measure.point_masses, dtype=float).reshape(-1, 2).T]  # angles, masses
    if measure.density is not None:
        errs = np.zeros(order + 1)
        for piece in measure.pieces:
            vals, e, nodes = _piece_moments(measure.density, piece, order)
            raw += vals
            errs += e
            parts.append(nodes)
        over = np.flatnonzero(errs > MOMENT_ERROR_TARGET)
        if over.size:
            k = int(over[0])
            raise QuadratureAccuracyError(float(errs[k]), MOMENT_ERROR_TARGET,
                                          context=f"moment {k} of {measure.name}")
    for k in range(order + 1):
        for theta, mass in measure.point_masses:
            raw[k] += mass * cmath.exp(-1j * k * theta)
    c0 = raw[0].real
    if abs(c0 - 1.0) > 1e-6:
        raise DomainError(
            f"measure {measure.name} has total mass {c0:.8f}; expected a probability measure"
        )
    values = raw / c0
    values[0] = 1.0
    angles, weights = map(np.concatenate, zip(*parts))
    return TrigMoments(order=order, values=values, discrete=(angles, weights / c0))


def read_moments_csv(path: str | Path) -> TrigMoments:
    """Finite moments from CSV with header k,re,im, k = 0..K, c_0 exactly 1 + 0i."""
    values = np.array(_read_indexed_csv(path, "k", 0))
    if values[0] != 1.0:
        raise SequenceSpecError(
            f"{path} has c_0 = {values[0]}; moments must be normalized to c_0 = 1")
    if not np.isfinite(values).all():
        raise SequenceSpecError(f"{path} has a non-finite moment")
    return TrigMoments(order=len(values) - 1, values=values)


@dataclass(frozen=True)
class VerblunskyRecovery:
    """Recovered reflection coefficients and leading coefficients."""

    coefficients: list[complex]   # indices 1..n
    kappas: list[float]           # kappa_1..kappa_n


def verblunsky_from_moments(moments: TrigMoments, n: int) -> VerblunskyRecovery:
    """Recover the first n reflection coefficients by the Szego recursion.

    Moments from trig_moments carry the discrete measure (t_j, w_j) they were
    summed from; the recursion runs on the orthonormal phi, phi* at
    z_j = e^(i t_j), O(nN): b_m = -sum_j w_j z_j phi_{m-1}(z_j)
    conj(phi*_{m-1}(z_j)), then phi_m = z phi_{m-1} + b_m phi*_{m-1} and
    phi*_m = conj(b_m) z phi_{m-1} + phi*_{m-1}, both divided by the discrete
    norm of phi_m, whose square is the step ratio 1 - |b_m|^2, and kappa_m is
    1 over the product of those norms. Other moments (read_moments_csv,
    hand-built) go through Levinson-Durbin, O(n^2): with Phi_0 = 1 and
    E_0 = c_0 = 1, step m takes

        b_m = -(sum_i Phi_{m-1}[i] conj(c_{i+1})) / E_{m-1}
        E_m = E_{m-1} (1 - |b_m|^2)
        Phi_m = z Phi_{m-1} + b_m Phi*_{m-1}

    so b_m = Phi_m(0) is the package's coefficient (the Levinson reflection
    coefficient is -conj(b_m)), E_m = ||Phi_m||^2 and kappa_m = E_m^(-1/2).
    A pivot (step ratio or E_m) below 1e-12 or NaN reports the failing order
    instead of producing noise. Above it only the moment route loses digits:
    at |b| ~ 0.7 order 15 misses 1e-6 on about half of the measures tried.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if n > moments.order:
        raise DomainError(f"need moments through order {n}, have {moments.order}")
    e, kappa, coeffs, kappas = 1.0, 1.0, [], []
    if moments.discrete is not None:
        t, w = moments.discrete
        z = np.exp(1j * t)
        phi = phi_star = np.ones_like(z)
        for m in range(1, n + 1):
            b = complex(-(w @ (z * phi * np.conj(phi_star))))
            phi, phi_star = z * phi + b * phi_star, b.conjugate() * z * phi + phi_star
            norm2 = float(w @ (phi.real ** 2 + phi.imag ** 2))
            if not norm2 >= 1e-12:
                raise RankDeficiencyError(order=m, pivot=norm2)
            r = math.sqrt(norm2)
            phi, phi_star, kappa = phi / r, phi_star / r, kappa / r
            coeffs.append(b)
            kappas.append(kappa)
        return VerblunskyRecovery(coefficients=coeffs, kappas=kappas)
    conj_c = np.conj(moments.values)
    phi = np.ones(1, dtype=complex)
    for m in range(1, n + 1):
        b = complex(-(phi @ conj_c[1:m + 1]) / e)
        e *= 1.0 - abs(b) ** 2
        if not e >= 1e-12:
            raise RankDeficiencyError(order=m, pivot=e)
        phi = np.append(0.0, phi) + b * np.append(np.conj(phi[::-1]), 0.0)
        coeffs.append(b)
        kappas.append(1.0 / math.sqrt(e))
    return VerblunskyRecovery(coefficients=coeffs, kappas=kappas)


def reconstruct_arc_mass(seq: ReflectionSequence, subarc: tuple[float, float], n: int) -> float:
    """Mass of a subarc from the reciprocal squared orthonormal polynomial.

    Integrates |phi_n(e^(i t))|^(-2) / (2 pi) over the subarc; as the degree
    grows this converges to the measure of the subarc. Gap regions, where
    the polynomial grows exponentially, integrate to 0 harmlessly; a mass
    point is a peak whose width shrinks geometrically with n.

    The integrand oscillates on the scale 1/n, and zeros of phi_n near the
    circle (by the arc ends, at mass points) make narrower peaks, so the
    rule is composite 8-point Gauss-Legendre from 2n equal panels, each
    panel halved until its halves agree with it within
    RECONSTRUCT_ERROR_TARGET times the larger of its share of the subarc
    and its own value. The summed disagreement, the error estimate, is then
    at most the target times (1 + the integral), as for adaptive quadrature
    with equal absolute and relative tolerances. All nodes of one halving
    level advance together through one grid sweep. Past 64 max(n, 8)
    panels the estimate is raised as QuadratureAccuracyError.
    """
    lo, hi = subarc
    if not lo < hi:
        raise DomainError(f"subarc must satisfy theta1 < theta2, got {subarc}")
    if hi - lo > TWO_PI:  # also an infinite end; NaN fails the check above
        raise DomainError(f"subarc must not exceed the circle, got length {hi - lo:.6g}")
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    max_panels = 64 * max(n, 8)
    panels = 2 * n
    width = np.full(panels, (hi - lo) / panels)
    left = lo + width * np.arange(panels)
    coarse = _gauss_legendre_panels(seq, left, width, n)
    total = err = 0.0
    while True:
        half = 0.5 * width
        halves = _gauss_legendre_panels(seq, np.concatenate((left, left + half)),
                                        np.concatenate((half, half)), n)
        fine = halves[: len(left)] + halves[len(left):]
        diff = np.abs(fine - coarse)
        done = diff <= RECONSTRUCT_ERROR_TARGET * np.maximum(width / (hi - lo), fine)
        total += float(np.sum(fine[done]))
        err += float(np.sum(diff[done]))
        if done.all():
            return total / TWO_PI
        split = ~done
        panels += int(np.count_nonzero(split))
        if panels > max_panels:
            raise QuadratureAccuracyError(err + float(np.sum(diff[split])),
                                          RECONSTRUCT_ERROR_TARGET,
                                          context=f"arc mass of {subarc} at degree {n}")
        left = np.concatenate((left[split], left[split] + half[split]))
        width = np.concatenate((half[split], half[split]))
        coarse = halves[np.concatenate((split, split))]


_SWEEP_CHUNK = 1 << 16  # nodes per grid sweep; bounds the sweep's buffers


def _gauss_legendre_panels(seq: ReflectionSequence, left: np.ndarray, width: np.ndarray,
                           n: int) -> np.ndarray:
    """8-point Gauss-Legendre integral of |phi_n|^(-2) over each panel [left, left + width]."""
    x, w = _jacobi_rule(8, 0.0, 0.0)
    t = (left[:, None] + 0.5 * width[:, None] * (x + 1.0)).ravel()
    inv = np.empty_like(t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(0, t.size, _SWEEP_CHUNK):
            for _, phi, _ in szego.sweep(seq, t[i:i + _SWEEP_CHUNK], n):
                pass
            abs_phi = np.abs(phi)
            mod2 = abs_phi * abs_phi
            # phi overflows in a gap, where the true integrand is below 1e-300
            inv[i:i + _SWEEP_CHUNK] = np.where(np.isfinite(mod2) & (mod2 > 0.0), 1.0 / mod2, 0.0)
    return 0.5 * width * (inv.reshape(-1, 8) @ w)


@dataclass(frozen=True)
class FloorReport:
    """Grid lower bounds for the density from a degree window.

    floor(theta) = 1 / (2 pi max |phi_n(theta)|^2) with the max over the top
    half of the degree window; this approximates the limsup entering the
    true bound and is reported with the window used.
    """

    grid: np.ndarray
    floors: np.ndarray
    window: tuple[int, int]


def mu_prime_floor(seq: ReflectionSequence, grid, n_max: int) -> FloorReport:
    thetas = np.asarray(grid, dtype=float)
    if n_max < 2:
        raise DomainError(f"need n_max >= 2, got {n_max}")
    lo = n_max // 2
    peak = np.zeros_like(thetas)
    for n, phi, _ in szego.sweep(seq, thetas, n_max):
        if n >= lo:
            np.maximum(peak, np.abs(phi), out=peak)
    return FloorReport(grid=thetas, floors=1.0 / (TWO_PI * peak**2), window=(lo, n_max))


def parse_measure(spec: str) -> MeasureSpec:
    """Parse the measure mini-language used by the CLI.

    Forms: lebesgue | point:theta=V[,mass=V] | geronimus:a=re[,im] |
    arc-jacobi:alpha=V,gamma=V,delta=V.
    """
    kind, _, body = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "lebesgue":
            if body:
                raise SequenceSpecError("lebesgue takes no parameters")
            return lebesgue()
        if kind == "point":
            fields = _parse_kv(body, spec)
            if "mass" not in fields:
                fields["mass"] = "1"
            _require_fields(fields, {"theta", "mass"}, spec)
            return point_measure(float(fields["theta"]), float(fields["mass"]))
        if kind == "geronimus":
            fields = _parse_kv(body, spec)
            _require_fields(fields, {"a"}, spec)
            return geronimus_measure(_parse_complex(fields["a"]))
        if kind == "arc-jacobi":
            fields = _parse_kv(body, spec)
            _require_fields(fields, {"alpha", "gamma", "delta"}, spec)
            return arc_jacobi_measure(float(fields["alpha"]), float(fields["gamma"]),
                                      float(fields["delta"]))
    except SequenceSpecError:
        raise
    except (ValueError, DomainError) as exc:
        raise SequenceSpecError(f"bad measure spec {spec!r}: {exc}") from exc
    raise SequenceSpecError(
        f"unknown measure kind {kind!r}; expected lebesgue, point, geronimus, or arc-jacobi"
    )
