import cmath
import math
import warnings
from typing import Callable

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from opuc import cli, geronimus, oracle, special
from opuc.core import Constant, Perturbed
from opuc.errors import (
    DomainError,
    QuadratureAccuracyError,
    RankDeficiencyError,
    SequenceSpecError,
)
from opuc.oracle import SupportPiece

# quadrature value of the consistent arc density of the a = 0.5 system over
# (pi/2, 3 pi/2); adaptive quadrature oracle, error estimate 1.1e-9
HALF_ARC_MASS_A_HALF = 0.8245203439


def test_lebesgue_moments_are_delta():
    mom = oracle.trig_moments(oracle.lebesgue(), 8)
    assert mom.c(0) == 1.0
    assert max(abs(mom.c(k)) for k in range(1, 9)) < 1e-12
    assert mom.c(-3) == mom.c(3).conjugate()


def test_point_mass_moments():
    mom = oracle.trig_moments(oracle.point_measure(math.pi), 6)
    for k in range(7):
        assert mom.c(k) == pytest.approx((-1.0) ** k, abs=1e-15)


def test_geronimus_measure_moments_feed_back_the_coefficient():
    mom = oracle.trig_moments(oracle.geronimus_measure(0.5), 16)
    rec = oracle.verblunsky_from_moments(mom, 15)
    assert max(abs(c - 0.5) for c in rec.coefficients) < 1e-6


def test_geronimus_measure_with_mass_point_recovers():
    mom = oracle.trig_moments(oracle.geronimus_measure(-0.5), 11)
    rec = oracle.verblunsky_from_moments(mom, 10)
    assert max(abs(c + 0.5) for c in rec.coefficients) < 1e-6


def _exact_moments(coefficients, order):
    """Moments c_0..c_order of the measure with these coefficients, 40 digits.

    Runs the Levinson-Szego recursion backwards: with Phi_{m-1} monic, the
    step b_m = -(sum_i Phi_{m-1}[i] conj(c_{i+1})) / E_{m-1} fixes c_m.
    """
    with mpmath.workdps(40):
        b = [mpmath.mpc(complex(v)) for v in coefficients]
        c = [mpmath.mpc(1)]
        phi = [mpmath.mpc(1)]
        e = mpmath.mpf(1)
        for m in range(1, order + 1):
            head = sum(phi[i] * mpmath.conj(c[i + 1]) for i in range(m - 1))
            c.append(mpmath.conj(-b[m - 1] * e - head))
            star = [mpmath.conj(v) for v in reversed(phi)] + [0]
            phi = [p + b[m - 1] * q for p, q in zip([0] + phi, star)]
            e *= 1 - abs(b[m - 1]) ** 2
        return [complex(v) for v in c]


_ORDER15_CASES = [0.7, 0.7 * cmath.exp(0.2j), -0.7, 0.5]


@pytest.mark.parametrize("a", _ORDER15_CASES)
def test_exact_moments_match_quadrature(a):
    mom = oracle.trig_moments(oracle.geronimus_measure(a), 16)
    exact = _exact_moments([a] * 16, 16)
    assert np.max(np.abs(mom.values - np.array(exact))) < 1e-13


@pytest.mark.parametrize("a", _ORDER15_CASES[:3])
def test_order15_recovery_from_exact_moments(a):
    # |a| ~ 0.7: prod (1 - |a|^2) over 15 steps is 4e-5, so a 1e-16 moment
    # error grows to about 1e-7 in the last coefficient
    exact = oracle.TrigMoments(order=16, values=np.array(_exact_moments([a] * 16, 16)))
    rec = oracle.verblunsky_from_moments(exact, 15)
    assert max(abs(c - a) for c in rec.coefficients) < 1e-6


def _stratum_draws(count, seed):
    # the |a| ~ 0.7 Geronimus measures whose order-15 recovery from moments
    # misses 1e-6 on about half the draws; the mass-point angle must lie in
    # the gap for mu_a_spec
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        a = rng.uniform(0.69, 0.71) * cmath.exp(1j * rng.uniform(-0.3, 0.3))
        if abs(cmath.phase((1.0 - a) / (1.0 - a.conjugate()))) < 2.0 * math.asin(abs(a)):
            draws.append(a)
    return draws


def test_order15_recovery_from_the_discrete_measure():
    for a in _stratum_draws(100, 28):
        rec = oracle.verblunsky_from_moments(oracle.trig_moments(oracle.geronimus_measure(a), 16), 15)
        assert max(abs(c - a) for c in rec.coefficients) < 1e-12, a


def test_arc_jacobi_recovery_to_order_120():
    # a narrow gap keeps |b_k| near sin(0.15), so E_120 stays far above 1e-12
    p = special.ArcMeasureParams(0.3, 0.3, 0.7)
    mom = oracle.trig_moments(oracle.arc_jacobi_measure(0.3, 0.3, 0.7), 120)
    rec = oracle.verblunsky_from_moments(mom, 120)
    for k, c in enumerate(rec.coefficients, start=1):
        assert abs(c - special.arc_reflection_exact(p, k)) < 1e-10, k


def test_arc_jacobi_recovery_to_order_200_with_a_wide_gap():
    # |b_k| -> 0.71, so E_200 is about 1e-60: only the step ratio
    # 1 - |b_m|^2 ~ 0.5 is tested against 1e-12
    p = special.ArcMeasureParams(math.pi / 2, 0.3, 0.7)
    mom = oracle.trig_moments(oracle.arc_jacobi_measure(math.pi / 2, 0.3, 0.7), 200)
    rec = oracle.verblunsky_from_moments(mom, 200)
    for k, c in enumerate(rec.coefficients, start=1):
        assert abs(c - special.arc_reflection_exact(p, k)) < 1e-12, k


def test_kappas_stay_finite_past_the_underflow_of_e():
    # a 4,000-point midpoint discretization of the a = 0.7 Geronimus arc:
    # |b_m| stays near 0.7, so E_m = prod (1 - |b_k|^2) is 0.0 in double
    # precision by m = 1,200 while kappa_m = E_m^(-1/2) is about 1e177
    m = geronimus.mu_a_spec(0.7)
    h = (2.0 * math.pi - 2.0 * m.alpha) / 4000
    t = m.alpha + h * (np.arange(4000) + 0.5)
    w = np.array([m.density(x) for x in t])
    mom = oracle.TrigMoments(order=1200, values=np.zeros(1201), discrete=(t, w / w.sum()))
    rec = oracle.verblunsky_from_moments(mom, 1200)
    assert math.prod(1.0 - abs(c) ** 2 for c in rec.coefficients) == 0.0
    assert all(math.isfinite(k) for k in rec.kappas)
    log_e = math.fsum(math.log1p(-abs(c) ** 2) for c in rec.coefficients)
    assert math.log(rec.kappas[-1]) == pytest.approx(-0.5 * log_e, rel=1e-12)


@pytest.mark.parametrize("a", [0.5, -0.5, 0.3 + 0.4j, 0.5 * cmath.exp(2.5j), 0.2])
def test_levinson_file_route_agrees_with_the_measure_route(a, tmp_path):
    a = complex(a)
    mom = oracle.trig_moments(oracle.geronimus_measure(a), 12)
    path = tmp_path / "moments.csv"
    assert cli.main(["oracle", "--mode", "moments", "--measure", f"geronimus:a={a.real},{a.imag}",
                     "--K", "12", "--output", str(path)]) == 0
    from_file = oracle.read_moments_csv(path)
    assert from_file.discrete is None
    by_levinson = oracle.verblunsky_from_moments(from_file, 12)
    by_measure = oracle.verblunsky_from_moments(mom, 12)
    for lev, meas in zip(by_levinson.coefficients, by_measure.coefficients):
        assert abs(lev - meas) < 1e-10
    for lev, meas in zip(by_levinson.kappas, by_measure.kappas):
        assert lev == pytest.approx(meas, rel=1e-10)


def test_recovered_kappas_match_product_formula():
    mom = oracle.trig_moments(oracle.geronimus_measure(0.5), 13)
    rec = oracle.verblunsky_from_moments(mom, 12)
    acc = 1.0
    for k, c in enumerate(rec.coefficients):
        acc *= 1.0 - abs(c) ** 2
        assert rec.kappas[k] == pytest.approx(acc ** -0.5, rel=1e-10)


def test_arc_jacobi_oracle_matches_exact_route():
    mom = oracle.trig_moments(oracle.arc_jacobi_measure(math.pi / 2, 0.3, 0.7), 9)
    rec = oracle.verblunsky_from_moments(mom, 8)
    p = special.ArcMeasureParams(math.pi / 2, 0.3, 0.7)
    for k, c in enumerate(rec.coefficients, start=1):
        assert abs(c - special.arc_reflection_exact(p, k)) < 1e-6


@pytest.mark.parametrize("alpha,gamma,delta", [
    (math.pi / 2, 0.3, 0.7), (1.0, -0.4, -0.3), (0.8, -0.5, -0.5), (0.0, 0.3, 0.7),
    (0.0, -0.4, 0.5), (2.5, -0.9, 2.0)])
def test_arc_jacobi_normalization_matches_quadrature(alpha, gamma, delta):
    # the closed-form Beta integral against the Gauss-Jacobi moment rules
    measure = oracle.arc_jacobi_measure(alpha, gamma, delta)
    params = special.ArcMeasureParams(alpha, gamma, delta)
    by_quadrature = sum(oracle._piece_moments(params.weight, piece, 0)[0][0].real
                        for piece in measure.pieces)
    t = 0.5 * (alpha + math.pi)
    closed_form = params.weight(t) / measure.density(t)
    assert by_quadrature == pytest.approx(closed_form, rel=1e-11)


def test_moments_hermitian_and_normalized_by_construction():
    mom = oracle.trig_moments(oracle.arc_jacobi_measure(1.0, -0.4, -0.3), 5)
    assert mom.c(0) == 1.0
    for k in range(1, 6):
        assert mom.c(-k) == mom.c(k).conjugate()


def test_verblunsky_requires_enough_moments():
    mom = oracle.trig_moments(oracle.lebesgue(), 4)
    with pytest.raises(DomainError):
        oracle.verblunsky_from_moments(mom, 5)


def test_rank_deficiency_reports_order():
    # a two-point measure supports only two orthogonal polynomials
    two = oracle.MeasureSpec(density=None, pieces=(),
                             point_masses=((0.0, 0.5), (math.pi, 0.5)), name="two-point")
    mom = oracle.trig_moments(two, 6)
    with pytest.raises(RankDeficiencyError) as exc:
        oracle.verblunsky_from_moments(mom, 5)
    assert exc.value.order == 2 and exc.value.pivot < 1e-12
    assert "Levinson" not in str(exc.value)


def test_moment_csv_roundtrip(tmp_path):
    mom = oracle.trig_moments(oracle.geronimus_measure(0.3 + 0.4j), 7)
    path = tmp_path / "moments.csv"
    assert cli.main(["oracle", "--mode", "moments", "--measure", "geronimus:a=0.3,0.4",
                     "--K", "7", "--output", str(path)]) == 0
    back = oracle.read_moments_csv(path)
    assert back.order == 7
    for k in range(8):
        assert back.c(k) == pytest.approx(mom.c(k), abs=1e-16)


def test_read_moments_rejects_bad_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b,c\n0,1,0\n")
    with pytest.raises(SequenceSpecError):
        oracle.read_moments_csv(p)


@pytest.mark.parametrize("body", [
    "0,1,0\n1,0.5,0\n1,0.25,0\n",   # repeated index
    "0,1,0\n1,0.5\n",                # two columns
    "0,2,0\n1,0.5,0\n",              # c_0 = 2
    "0,1,1e-300\n1,0.5,0\n",         # c_0 not real
    "",                                # no data rows
    "0,1,0\n2,0.5,0\n",              # gap
    "0,1,0\n1,nan,0\n",              # NaN moment
], ids=["duplicate", "two-columns", "c0-not-one", "c0-not-real", "empty", "gap", "nan"])
def test_read_moments_rejects_malformed(tmp_path, body):
    p = tmp_path / "m.csv"
    p.write_text("k,re,im\n" + body)
    with pytest.raises(SequenceSpecError):
        oracle.read_moments_csv(p)


def test_reconstruct_free_case_exact_fraction():
    for n in (1, 5, 40):
        val = oracle.reconstruct_arc_mass(Constant(0.0), (1.0, 2.5), n)
        assert val == pytest.approx(1.5 / (2.0 * math.pi), abs=1e-10)


def test_reconstruct_constant_subarc_matches_density_integral():
    val = oracle.reconstruct_arc_mass(Constant(0.5), (math.pi / 2, 3 * math.pi / 2), 500)
    assert abs(val - HALF_ARC_MASS_A_HALF) < 0.01
    # live quadrature of the density agrees with the frozen value
    m = geronimus.mu_a_spec(0.5)
    live, _ = quad(m.density, math.pi / 2, 3 * math.pi / 2, limit=400)
    assert live == pytest.approx(HALF_ARC_MASS_A_HALF, abs=1e-8)


def test_reconstruct_gap_vanishes():
    val = oracle.reconstruct_arc_mass(Constant(0.5), (-0.5, 0.5), 500)
    assert val <= 0.005


def test_reconstruct_is_cauchy_in_degree():
    subarc = (math.pi / 2, 3 * math.pi / 2)
    v = {n: oracle.reconstruct_arc_mass(Constant(0.5), subarc, n) for n in (50, 100, 200)}
    assert abs(v[200] - v[100]) < abs(v[100] - v[50]) + 1e-4


def test_floor_free_case_is_exact_density():
    grid = np.linspace(0.3, 5.9, 13)
    rep = oracle.mu_prime_floor(Constant(0.0), grid, 200)
    assert np.allclose(rep.floors, 1.0 / (2.0 * math.pi), atol=1e-12)
    assert rep.window == (100, 200)


def test_floor_constant_at_arc_midpoint():
    rep = oracle.mu_prime_floor(Constant(0.5), np.array([math.pi]), 1000)
    true_density = geronimus.mu_a_spec(0.5).density(math.pi)
    floor = float(rep.floors[0])
    assert floor <= true_density + 1e-12
    assert true_density / floor < 4.0


def test_floor_lower_bound_with_gap_weight():
    # cubic-decay regime: the density floor admits a positive multiple of
    # |cos(alpha) - cos(theta)| across the closed arc
    seq = Perturbed(a=0.5, amplitude=1.0, p=3.0)
    alpha = math.pi / 3
    grid = np.linspace(alpha + 1e-3, 2 * math.pi - alpha - 1e-3, 31)
    rep = oracle.mu_prime_floor(seq, grid, 800)
    gap = np.abs(math.cos(alpha) - np.cos(grid))
    fitted = float(np.min(rep.floors / gap))
    assert fitted > 0.005


def test_parse_measure_forms():
    assert oracle.parse_measure("lebesgue").name == "lebesgue"
    assert oracle.parse_measure("point:theta=3.14159").point_masses[0][1] == 1.0
    assert oracle.parse_measure("geronimus:a=-0.5").point_masses  # has the mass point
    assert oracle.parse_measure("arc-jacobi:alpha=1.0,gamma=0.3,delta=0.7").name == "arc-jacobi"
    with pytest.raises(SequenceSpecError):
        oracle.parse_measure("unknown:x=1")
    with pytest.raises(SequenceSpecError):
        oracle.parse_measure("geronimus:b=1")


@pytest.mark.parametrize("theta,mass", [
    (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
def test_point_measure_rejects_non_finite(theta, mass):
    with pytest.raises(DomainError):
        oracle.point_measure(theta, mass)


@pytest.mark.parametrize("spec", [
    "point:theta=nan", "point:theta=inf", "point:theta=1,mass=nan", "point:theta=1,mass=-inf"])
def test_parse_measure_rejects_non_finite_point(spec):
    with pytest.raises(SequenceSpecError):
        oracle.parse_measure(spec)


@pytest.mark.parametrize("spec", [
    "arc-jacobi:alpha=1,gamma=nan,delta=0.5", "arc-jacobi:alpha=1,gamma=0.3,delta=nan",
    "arc-jacobi:alpha=1,gamma=inf,delta=0.5", "arc-jacobi:alpha=1,gamma=0.3,delta=inf"])
def test_parse_measure_rejects_non_finite_arc_jacobi_exponent(spec):
    with pytest.raises(SequenceSpecError):
        oracle.parse_measure(spec)


@pytest.mark.parametrize("lo,hi", [(-1.0, 0.0), (0.0, -1.5), (math.nan, 0.0), (0.0, math.nan)])
def test_support_piece_rejects_bad_exponents(lo, hi):
    # _jacobi_rule would take a NaN exponent into its Jacobi matrix
    with pytest.raises(DomainError):
        SupportPiece(0.0, 1.0, lo, hi)


def test_quadrature_handles_negative_exponents():
    # gamma, delta in (-1, 0): endpoint and midpoint singularities regularized
    mom = oracle.trig_moments(oracle.arc_jacobi_measure(0.8, -0.5, -0.5), 6)
    rec = oracle.verblunsky_from_moments(mom, 5)
    p = special.ArcMeasureParams(0.8, -0.5, -0.5)
    for k, c in enumerate(rec.coefficients, start=1):
        assert abs(c - special.arc_reflection_exact(p, k)) < 1e-6


def _integrate_piece(f: Callable[[float], float], piece: SupportPiece,
                     node_budget: int) -> tuple[complex, float]:
    """Integrate f over a piece, regularizing both endpoints by substitution.

    Splits at the midpoint; on each half with endpoint exponent g the change
    of variable theta = endpoint +- u^(1/(1+g)) makes the integrand bounded.
    """
    mid = 0.5 * (piece.lo + piece.hi)
    total = 0.0 + 0.0j
    err = 0.0
    for (anchor, far, g, sign) in ((piece.lo, mid, piece.exponent_lo, 1.0),
                                   (piece.hi, mid, piece.exponent_hi, -1.0)):
        p = 1.0 + g
        width = abs(far - anchor)
        if g == 0.0:
            def reg(u, _anchor=anchor, _sign=sign):
                return f(_anchor + _sign * u)
            upper = width
        else:
            def reg(u, _anchor=anchor, _sign=sign, _p=p):
                if u <= 0.0:
                    return 0.0
                return f(_anchor + _sign * u ** (1.0 / _p)) * (u ** (1.0 / _p - 1.0)) / _p
            upper = width**p
        val, e = quad(reg, 0.0, upper, limit=node_budget,
                      epsabs=1e-12, epsrel=1e-12, complex_func=True)
        total += val
        ec = complex(e)  # complex_func=True reports per-part errors as a complex
        err += abs(ec.real) + abs(ec.imag)
    return total, err


def _adaptive_piece_moments(measure, piece, order):
    # the per-moment adaptive route that the Gauss-Jacobi rule replaced
    return np.array([
        _integrate_piece(lambda t, k=k: measure.density(t) * cmath.exp(-1j * k * t),
                         piece, 400)[0]
        for k in range(order + 1)])


@pytest.mark.parametrize("measure", [
    oracle.lebesgue(),
    oracle.geronimus_measure(0.5),
    oracle.geronimus_measure(-0.5),
    oracle.geronimus_measure(0.4 + 0.2j),
    oracle.geronimus_measure(-0.3 + 0.3j),   # complex, with a mass point
    oracle.arc_jacobi_measure(1.0, -0.4, -0.3),
    oracle.arc_jacobi_measure(0.8, -0.5, -0.5),
], ids=["lebesgue", "geronimus-0.5", "geronimus--0.5", "geronimus-complex",
        "geronimus-complex-mass", "arc-jacobi-negative", "arc-jacobi-half"])
def test_gauss_jacobi_rule_matches_adaptive_route(measure):
    order = 12
    for piece in measure.pieces:
        rule = oracle._gauss_jacobi_moments(measure.density, piece, order)
        assert rule is not None
        values, errors, _ = rule
        assert np.max(np.abs(values - _adaptive_piece_moments(measure, piece, order))) < 1e-12
        assert np.max(errors) <= oracle.MOMENT_ERROR_TARGET


# (a, K) of the cli-cold benchmark's Geronimus moment sets (seeds 1-200,
# decks 0-7) where per-moment adaptive quadrature, the earlier fallback,
# misses 1e-10
_PANEL_CASES = [
    (complex(0.09754051963384835, -0.29993784658019734), 7),
    (complex(0.13914390702826196, -0.34652709401759363), 10),
    (complex(0.1785674492042322, 0.3858424319636709), 6),
    (complex(0.11150415301324872, 0.31562630359694877), 8),
    (complex(0.10715797675907016, 0.3074976798686751), 6),
    (complex(0.14219352929398307, -0.3507466517438415), 6),
    (complex(0.13022764342593682, 0.3386855704267616), 9),
    (complex(0.0964647576033, 0.2956549465895922), 10),
    (complex(0.11592971730692403, -0.32036572849821804), 11),
]


@pytest.mark.parametrize("a,order", _PANEL_CASES, ids=[
    "seed50", "seed66", "seed77", "seed107", "seed113", "seed140", "seed155", "seed165",
    "seed197"])
def test_moments_fall_back_to_gauss_jacobi_panels(a, order):
    # the density peaks just inside an arc end: the doubled Gauss-Jacobi rules
    # still disagree at GAUSS_MAX_NODES, so the piece is cut into panels
    measure = oracle.geronimus_measure(a)
    (piece,) = measure.pieces
    assert oracle._gauss_jacobi_moments(measure.density, piece, order) is None
    values, errors, _ = oracle._piece_moments(measure.density, piece, order)
    m = geronimus.mu_a_spec(a)
    ks = np.arange(order + 1)
    density_part = (np.array(_exact_moments([a] * order, order))
                    - m.j_beta_squared_denom * np.exp(-1j * ks * m.beta))
    true_error = np.abs(values - density_part)
    assert np.max(true_error) < 1e-13
    assert np.all(errors >= true_error)
    rec = oracle.verblunsky_from_moments(oracle.trig_moments(measure, order), order - 1)
    assert max(abs(c - a) for c in rec.coefficients) < 1e-6


def _quad_arc_mass(a, subarc, n):
    # adaptive quadrature of the scalar recurrence: the route the composite
    # Gauss-Legendre rule replaced, at its settings
    r = math.sqrt(1.0 - abs(a) ** 2)

    def integrand(t):
        z = cmath.exp(1j * t)
        phi = phi_star = 1.0 + 0.0j
        for _ in range(n):
            phi, phi_star = (z * phi + a * phi_star) / r, (z * a.conjugate() * phi + phi_star) / r
        return 1.0 / abs(phi) ** 2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, *subarc, limit=max(300, 2 * n), epsabs=1e-9, epsrel=1e-9)
    return val / (2.0 * math.pi)


@pytest.mark.parametrize("a,subarc,n", [
    (0.526 * cmath.exp(-0.14j), (1.241, 4.879), 48),
    # straddles the arc end alpha = 1.108, where a zero of phi_48 lies 2e-4
    # inside the circle
    (0.526 * cmath.exp(-0.14j), (1.0, 4.0), 48),
    (0.5, (1.0, 4.0), 100),
])
def test_reconstruct_matches_adaptive_quadrature(a, subarc, n):
    val = oracle.reconstruct_arc_mass(Constant(a), subarc, n)
    ref = _quad_arc_mass(a, subarc, n)
    assert abs(val - ref) < 1e-9
    # the 2n equal panels alone are far off: the halving does the work
    lo, hi = subarc
    width = np.full(2 * n, (hi - lo) / (2 * n))
    coarse = oracle._gauss_legendre_panels(Constant(a), lo + width * np.arange(2 * n), width, n)
    assert abs(coarse.sum() / (2.0 * math.pi) - ref) > 1e-5


def _jacobi_monomial_integrals(lo, hi, top):
    """int_{-1}^{1} x^m (1 + x)^lo (1 - x)^hi dx for m = 0..top as exact Beta sums, 40 digits.

    x^m = sum_j C(m, j) (1 + x)^j (-1)^(m - j), and each term is
    2^(lo + hi + j + 1) B(hi + 1, lo + j + 1).
    """
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        return [float(sum(mpmath.binomial(m, j) * (-1) ** (m - j) * 2 ** (lo + hi + j + 1)
                          * mpmath.beta(hi + 1, lo + j + 1) for j in range(m + 1)))
                for m in range(top + 1)]


@pytest.mark.parametrize("lo,hi", [(0.0, 0.0), (0.5, 0.5), (-0.5, -0.5), (0.8, -0.3),
                                   (-0.6, 0.2), (-0.9, -0.9), (3.0, 0.0)])
def test_jacobi_rule_integrates_monomials(lo, hi):
    # exact through degree 2n - 1 >= 15; roots_jacobi missed these sums by up
    # to 9e-11 of the weight total
    exact = _jacobi_monomial_integrals(lo, hi, 13)
    for n in (8, 16, 32, 64, 128, 256):
        x, w = oracle._jacobi_rule(n, lo, hi)
        for m, value in enumerate(exact):
            assert abs(w @ x ** m - value) <= 1e-14 * exact[0], (n, m)


def test_panel_rule_is_the_gauss_legendre_rule():
    from scipy.special import roots_jacobi

    x, w = oracle._jacobi_rule(8, 0.0, 0.0)
    x_ref, w_ref = roots_jacobi(8, 0.0, 0.0)
    assert np.max(np.abs(x - x_ref)) <= 1e-15 and np.max(np.abs(w - w_ref)) <= 1e-15


def test_reconstruct_finds_mass_point_in_subarc():
    # a = -0.5 has a mass point of weight 2/3 at theta = 0, in the gap
    val = oracle.reconstruct_arc_mass(Constant(-0.5), (-0.5, 0.5), 20)
    assert val == pytest.approx(geronimus.mu_a_spec(-0.5).j_beta, abs=1e-6)


def test_reconstruct_raises_when_panels_run_out():
    # a mass point whose peak drowns in rounding noise of the recurrence
    # before the halving resolves it
    a = complex(-0.5247789713700677, -0.16901516318794788)
    with pytest.raises(QuadratureAccuracyError):
        oracle.reconstruct_arc_mass(Constant(a), (0.105, 1.864), 22)


@pytest.mark.parametrize("subarc", [
    (-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan), (0.0, 1e6),
    (-3.2, 3.2)])
def test_reconstruct_rejects_bad_subarc(subarc):
    with pytest.raises(DomainError):
        oracle.reconstruct_arc_mass(Constant(0.5), subarc, 10)


def test_reconstruct_accepts_whole_circle():
    assert oracle.reconstruct_arc_mass(Constant(0.0), (0.0, 2.0 * math.pi), 10) == (
        pytest.approx(1.0, abs=1e-12))
