import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from opuc import geronimus, szego
from opuc.core import Constant, arc_from_a
from opuc.errors import DomainError, InvalidCoefficientError
from conftest import state_scale

SQRT3 = math.sqrt(3.0)


def test_eigen_pair_real_axis():
    p = geronimus.eigen_pair(1.0, math.pi / 3)
    assert p.z1 == pytest.approx(1.5, abs=1e-14)
    assert p.z2 == pytest.approx(0.5, abs=1e-14)
    assert p.branch_ok


def test_eigen_pair_degenerate_at_branch_point():
    z = cmath.exp(1j * math.pi / 3)
    p = geronimus.eigen_pair(z, math.pi / 3)
    assert not p.branch_ok
    assert p.z1 == pytest.approx((z + 1.0) / 2.0, abs=1e-12)
    assert p.z2 == pytest.approx((z + 1.0) / 2.0, abs=1e-12)


def test_eigen_pair_arc_modulus():
    # on the arc both eigenvalues have modulus sqrt(1 - |a|^2)
    p = geronimus.eigen_pair(cmath.exp(1j * math.pi), math.pi / 3)
    assert abs(p.z1) == pytest.approx(math.sqrt(0.75), abs=1e-13)
    assert abs(p.z2) == pytest.approx(math.sqrt(0.75), abs=1e-13)


def test_eigen_trace_det_identities():
    rng = np.random.default_rng(31)
    alpha = 2.0 * math.asin(0.41)
    worst_t = worst_d = worst_m = 0.0
    for _ in range(10_000):
        z = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        p = geronimus.eigen_pair(z, alpha)
        worst_t = max(worst_t, abs(p.z1 + p.z2 - (z + 1.0)))
        worst_d = max(worst_d, abs(p.z1 * p.z2 - z * (1.0 - 0.41**2)))
    assert worst_t < 1e-13
    assert worst_d < 1e-13
    # on-arc modulus equality
    for t in np.linspace(alpha + 1e-3, 2 * math.pi - alpha - 1e-3, 200):
        p = geronimus.eigen_pair(cmath.exp(1j * t), alpha)
        worst_m = max(worst_m, abs(abs(p.z1 / p.z2) - 1.0))
    assert worst_m < 1e-12


def test_closed_eval_degree_zero_and_one():
    st = geronimus.closed_eval(0.5, 0, 2.0)
    assert (st.phi, st.phi_star, st.psi, st.psi_star) == (1, 1, 1, 1)
    z = 0.4 + 0.9j
    st1 = geronimus.closed_eval(0.5, 1, z)
    assert st1.phi == pytest.approx((z + 0.5) / math.sqrt(0.75), rel=1e-14)


@pytest.mark.parametrize("a", [0.5, 0.3 + 0.4j])
def test_closed_eval_matches_recurrence(a):
    rng = np.random.default_rng(32)
    alpha = 2.0 * math.asin(abs(a))
    count = 0
    while count < 40:
        if count % 2 == 0:
            z = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        else:
            z = rng.uniform(0.7, 1.3) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if not geronimus.eigen_pair(z, alpha).branch_ok:
            continue
        count += 1
        for n in (2, 25, 200):
            c = geronimus.closed_eval(a, n, z)
            r = szego.evaluate(Constant(a), n, z)
            scale = state_scale(r)
            for f in ("phi", "phi_star", "psi", "psi_star"):
                assert abs(getattr(c, f) - getattr(r, f)) / scale < 1e-8


def test_closed_eval_at_arc_midpoint_degree_50():
    c = geronimus.closed_eval(0.5, 50, -1.0)
    r = szego.evaluate(Constant(0.5), 50, -1.0)
    for f in ("phi", "phi_star", "psi", "psi_star"):
        assert getattr(c, f) == pytest.approx(getattr(r, f), rel=1e-10, abs=1e-10)


def test_closed_eval_branch_band_falls_back_to_recurrence():
    a = 0.5
    z = cmath.exp(1j * (math.pi / 3 + 1e-13))  # inside the fallback band
    c = geronimus.closed_eval(a, 30, z)
    r = szego.evaluate(Constant(a), 30, z)
    assert c.phi == r.phi and c.psi_star == r.psi_star


def test_v_alpha_values():
    assert geronimus.v_alpha(math.pi, math.pi / 3) == pytest.approx(1.0 / math.sqrt(1.5), abs=1e-14)
    assert geronimus.v_alpha(math.pi, math.pi / 2) == pytest.approx(1.0, abs=1e-14)
    assert geronimus.v_alpha(math.pi / 3, math.pi / 3) == math.inf
    with pytest.raises(DomainError):
        geronimus.v_alpha(0.1, math.pi / 3)


def test_envelope_check_subarc_no_growth():
    rep = geronimus.envelope_check(0.5, 500, epsilon=0.2, num_points=80)
    assert rep.growth_ok
    assert rep.upper_half_sup <= 1.05 * rep.lower_half_sup
    assert math.isfinite(rep.c_plain)


def test_envelope_check_full_arc_ratio_bounded():
    rep = geronimus.envelope_check(0.5, 500, epsilon=0.0, num_points=81)
    assert math.isfinite(rep.c_min_n_v)
    assert 1.0 <= rep.c_min_n_v < 10.0
    # degree-1 check: |phi_1| <= C * min(1, v) everywhere on the grid
    st_max = max(
        abs(geronimus.closed_eval(0.5, 1, cmath.exp(1j * float(t))).phi)
        / min(1.0, geronimus.v_alpha(float(t), math.pi / 3))
        for t in np.linspace(math.pi / 3, 5 * math.pi / 3, 81)
    )
    assert st_max <= rep.c_min_n_v + 1e-12


def _envelope_check_by_loop(a, n_max, thetas):
    """envelope_check's per-degree loop as first written, the reference for degree_peaks."""
    arc = arc_from_a(a)
    v = np.array([geronimus.v_alpha(float(t), arc.alpha) for t in thetas], dtype=float)
    best_ratio, best = 0.0, (0, float(thetas[0]))
    sup_lower = sup_upper = 0.0
    half = n_max // 2
    for n, abs_phi in szego.sweep_abs_phi(Constant(a), thetas, n_max):
        ratios = abs_phi / np.minimum(float(n), v)
        i = int(np.argmax(ratios))
        if ratios[i] > best_ratio:
            best_ratio = float(ratios[i])
            best = (n, float(thetas[i]))
        m = float(abs_phi.max())
        if n <= half:
            sup_lower = max(sup_lower, m)
        else:
            sup_upper = max(sup_upper, m)
    return (best_ratio, best[0], best[1], max(sup_lower, sup_upper), sup_lower, sup_upper,
            sup_upper <= 1.05 * sup_lower)


@pytest.mark.parametrize("a,n_max,epsilon,num_points", [
    (0.5, 500, 0.0, 81),
    (0.5, 1, 0.0, 16),
    (-0.3 + 0.4j, 301, 0.1, 33),
    (0.7j, 800, 1e-3, 200),
])
def test_envelope_check_equals_per_degree_loop(a, n_max, epsilon, num_points):
    rep = geronimus.envelope_check(a, n_max, epsilon=epsilon, num_points=num_points)
    thetas = arc_from_a(a).grid(num_points, epsilon)
    assert rep.n_max == n_max
    assert (rep.c_min_n_v, rep.at_degree, rep.at_theta, rep.c_plain, rep.lower_half_sup,
            rep.upper_half_sup, rep.growth_ok) == _envelope_check_by_loop(a, n_max, thetas)


@pytest.mark.parametrize("n_max", [0, -3])
def test_envelope_check_rejects_nonpositive_n_max(n_max):
    with pytest.raises(DomainError):
        geronimus.envelope_check(0.5, n_max)


def test_state_matrix_envelope_both_directions():
    # the state matrix and its inverse stay within C* min(n, v) on the arc,
    # with C* stable when the degree horizon doubles
    a = 0.5
    alpha = math.pi / 3
    thetas = np.linspace(alpha + 1e-3, 2 * math.pi - alpha - 1e-3, 25)

    def cstar(n_max: int) -> float:
        worst = 0.0
        for t in thetas:
            v = geronimus.v_alpha(float(t), alpha)
            z = cmath.exp(1j * float(t))
            for n in range(1, n_max + 1):
                st = geronimus.closed_eval(a, n, z)
                m = st.as_matrix()
                fwd = float(np.max(np.abs(m).sum(axis=0)))
                inv = float(np.max(np.abs(np.linalg.inv(m)).sum(axis=0)))
                worst = max(worst, max(fwd, inv) / min(n, v))
        return worst

    c200 = cstar(200)
    c400 = cstar(400)
    assert c400 <= 1.05 * c200


def test_mu_a_spec_no_mass_case():
    m = geronimus.mu_a_spec(0.5)
    assert m.beta == pytest.approx(0.0, abs=1e-15)
    assert not m.has_mass
    assert m.j_beta == 0.0
    # consistent density at the arc midpoint, and the as-printed display
    assert m.density(math.pi) == pytest.approx(SQRT3 / (2.0 * math.pi), rel=1e-12)
    assert m.density_printed(math.pi) == pytest.approx(SQRT3 / (4.0 * math.pi), rel=1e-12)
    assert m.density(0.1) == 0.0


def test_mu_a_density_total_mass_one():
    m = geronimus.mu_a_spec(0.5)
    total, err = quad(m.density, m.alpha, 2.0 * math.pi - m.alpha, limit=400)
    assert err < 1e-8
    assert total == pytest.approx(1.0, abs=1e-8)


def test_mu_a_printed_density_normalization_defect():
    # the as-printed display is not a probability density away from a = 1/2;
    # at a = 0.3 it integrates to 1.4, not 1 (kept as documented comparison)
    m = geronimus.mu_a_spec(0.3)
    total, _ = quad(m.density_printed, m.alpha, 2.0 * math.pi - m.alpha, limit=400)
    assert total == pytest.approx(0.7, abs=1e-6)
    total_true, _ = quad(m.density, m.alpha, 2.0 * math.pi - m.alpha, limit=400)
    assert total_true == pytest.approx(1.0, abs=1e-8)


def test_mu_a_mass_point_case():
    m = geronimus.mu_a_spec(-0.5)
    assert m.has_mass
    assert m.beta == pytest.approx(0.0, abs=1e-15)
    # geometric-series oracle: sum ((1+a)/(1-a))^k = 3/2, mass = 2/3
    assert m.mass_converged
    assert m.j_beta == pytest.approx(2.0 / 3.0, abs=1e-9)
    # printed formula value differs (documented discrepancy, not an error)
    assert m.j_beta_printed == pytest.approx(1.0, abs=1e-12)
    assert m.j_beta_squared_denom == pytest.approx(2.0 / 3.0, abs=1e-12)
    total, _ = quad(m.density, m.alpha, 2.0 * math.pi - m.alpha, limit=400)
    assert total + m.j_beta == pytest.approx(1.0, abs=1e-7)


def test_mu_a_mass_complex_coefficient():
    m = geronimus.mu_a_spec(-0.3 + 0.4j)
    assert m.has_mass
    assert m.j_beta == pytest.approx(m.j_beta_squared_denom, abs=1e-9)
    total, _ = quad(m.density, m.alpha, 2.0 * math.pi - m.alpha, limit=400)
    assert total + m.j_beta == pytest.approx(1.0, abs=1e-7)


def test_mu_a_rejects_bad_coefficient():
    for bad in (0.0, 1.0):
        with pytest.raises(DomainError):
            geronimus.mu_a_spec(bad)


def _christoffel_mass_by_steps(a, z, max_terms):
    """christoffel_mass driven by szego.step, the reference for the local fold."""
    state = szego.initial_state(z)
    total, prev_term, rising = 1.0, 1.0, 0
    for _ in range(max_terms):
        state = szego.step(state, a)
        term = state.phi.real**2 + state.phi.imag**2
        if not math.isfinite(term) or total > 1e12:
            return 0.0, False
        total += term
        if term <= 1e-12 * total:
            return 1.0 / total, True
        if term > prev_term:
            rising += 1
            if rising >= 4 and term < 1e-8 * total:
                return 1.0 / total, True
        else:
            rising = 0
        prev_term = term
    return 1.0 / total, False


@pytest.mark.parametrize("a,z", [
    (-0.5, 1.0),
    (-0.3 + 0.4j, cmath.exp(1j * geronimus.mu_a_spec(-0.3 + 0.4j).beta)),
    (0.5, cmath.exp(2.0j)),
    (-0.8, cmath.exp(0.05j)),
    # |1 - 2a| just above 1: the rule stops on the rising branch, at k = 430
    (0.9938252735223378 - 0.0795315777699139j,
     cmath.exp(1j * geronimus.mu_a_spec(0.9938252735223378 - 0.0795315777699139j).beta)),
])
def test_christoffel_mass_matches_step_fold(a, z):
    assert geronimus.christoffel_mass(a, z, 5000) == _christoffel_mass_by_steps(a, z, 5000)


@pytest.mark.parametrize("a", [math.nan, complex(0.2, math.nan), 1.0])
def test_christoffel_mass_rejects_invalid_coefficient(a):
    with pytest.raises(InvalidCoefficientError):
        geronimus.christoffel_mass(a, 1.0)
