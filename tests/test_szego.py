import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opuc import szego
from opuc.core import Constant, Explicit, Perturbed, Zhedanov, arc_from_a
from opuc.errors import InvalidCoefficientError
from conftest import circle_points, random_explicit


def test_free_case_three_steps():
    # all-zero coefficients: phi_n = z^n, phi*_n = 1, kappa = 1
    state = szego.initial_state(1j)
    for _ in range(3):
        state = szego.step(state, 0.0)
    assert state.phi == pytest.approx(1j**3)
    assert state.phi_star == 1.0
    assert state.kappa == 1.0


def test_step_kappa_update():
    state = szego.evaluate(Constant(0.6), 2, 1.0)
    assert state.kappa == pytest.approx(1.5625, abs=1e-14)


def test_step_degree_one_value():
    state = szego.step(szego.initial_state(1.0), 0.5)
    assert state.phi == pytest.approx(math.sqrt(3.0), abs=1e-14)


def test_step_rejects_boundary_coefficient():
    with pytest.raises(InvalidCoefficientError):
        szego.step(szego.initial_state(1.0), 1.0)


@pytest.mark.parametrize("b", [math.nan, complex(0.1, math.nan)])
def test_step_rejects_nan_coefficient(b):
    with pytest.raises(InvalidCoefficientError):
        szego.step(szego.initial_state(1.0), b)


def test_evaluate_degree_zero():
    st = szego.evaluate(Constant(0.5), 0, 0.3 + 0.1j)
    assert (st.phi, st.phi_star, st.psi, st.psi_star, st.kappa) == (1, 1, 1, 1, 1.0)


def test_evaluate_free_case_second_kind():
    z = cmath.exp(1j * math.pi / 4)
    st = szego.evaluate(Constant(0.0), 5, z)
    assert st.phi == pytest.approx(cmath.exp(5j * math.pi / 4), abs=1e-14)
    assert st.psi == pytest.approx(cmath.exp(5j * math.pi / 4), abs=1e-14)


def test_kappa_values():
    assert szego.kappa(Constant(0.5), 0) == 1.0
    assert szego.kappa(Constant(0.6), 2) == pytest.approx(1.5625, rel=1e-14)
    # product over {0, -0.5, -0.75}
    assert szego.kappa(Zhedanov(0.5), 3) == pytest.approx(0.328125 ** -0.5, rel=1e-14)


def test_kappa_matches_running_kappa():
    rng = np.random.default_rng(21)
    seq = random_explicit(rng, 30)
    st = szego.evaluate(seq, 30, 1.0)
    assert szego.kappa(seq, 30) == pytest.approx(st.kappa, rel=1e-12)


def test_schur_sum_trivial_cases():
    assert szego.schur_sum_eval(Constant(0.5), 0, 2.0 + 1j) == 1.0
    # zero coefficients: only the k = 0 term survives
    assert szego.schur_sum_eval(Constant(0.0), 4, cmath.exp(0.3j)) == pytest.approx(1.0)


def test_schur_sum_matches_reversed_polynomial():
    z = cmath.exp(2j)
    st = szego.evaluate(Constant(0.5), 20, z)
    total = szego.schur_sum_eval(Constant(0.5), 20, z)
    assert total == pytest.approx(st.kappa * st.phi_star, rel=1e-10)


def _schur_by_steps(seq, n, z):
    """The summation route as chained step() calls, the reference for schur_sum_eval."""
    total = 1.0 + 0.0j  # k = 0 term
    state = szego.initial_state(z)
    for k in range(1, n + 1):
        b = seq.coeff_at(k)
        state = szego.step(state, b)
        total += b.conjugate() * state.kappa * state.phi
    return total


def _pair_unscaled(seq, n, z):
    """pair_evaluate with kappa carried unscaled; NaN once kappa overflows."""
    zz = complex(z)
    phi, phi_star = 1.0 + 0.0j, 1.0 + 0.0j
    kappa_prev = 1.0
    for k in range(1, n + 1):
        b = seq.coeff_at(k)
        kappa_k = kappa_prev / math.sqrt(1.0 - abs(b) ** 2)
        phi_at_zero = kappa_k * b
        phi_new = (zz * kappa_k * phi + phi_at_zero * phi_star) / kappa_prev
        phi_star_new = (kappa_k * phi_star + zz * phi_at_zero.conjugate() * phi) / kappa_prev
        phi, phi_star = phi_new, phi_star_new
        kappa_prev = kappa_k
    return phi, phi_star


def _same_or_both_nan(got, ref):
    return got == ref or (cmath.isnan(got) and cmath.isnan(ref))


def _pair_residual(seq, n, z):
    ref = szego.evaluate(seq, n, z)
    phi, phi_star = szego.pair_evaluate(seq, n, z)
    scale = max(1.0, abs(ref.phi), abs(ref.phi_star))
    return max(abs(phi - ref.phi), abs(phi_star - ref.phi_star)) / scale


_KINDS = {
    "const": Constant(0.5),
    "plain": Perturbed(a=0.45 + 0.2j, amplitude=0.3, p=1.0, sign="plain"),
    "alt": Perturbed(a=0.6, amplitude=0.25, p=1.5, sign="alt"),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("theta,n", [
    (2.5, 0), (2.5, 1), (2.5, 1500), (math.pi, 3000),  # on the arc
    (0.2, 400),  # in the gap, where the values grow geometrically
    (4.0, 9000),  # on the arc past the degree where kappa_n overflows
])
def test_schur_sum_eval_is_bit_identical_to_step_chain(kind, theta, n):
    seq = _KINDS[kind]
    z = cmath.exp(1j * theta)
    assert _same_or_both_nan(szego.schur_sum_eval(seq, n, z), _schur_by_steps(seq, n, z))


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("theta,n", [(2.5, 2000), (math.pi, 3000), (0.2, 60)])
def test_pair_evaluate_is_bit_identical_to_unscaled_route_while_finite(kind, theta, n):
    # kappa passes 2^256, and is rescaled, on the arc cases, not on the gap case
    seq = _KINDS[kind]
    z = cmath.exp(1j * theta)
    ref = _pair_unscaled(seq, n, z)
    assert all(map(cmath.isfinite, ref))
    assert szego.pair_evaluate(seq, n, z) == ref


def test_pair_evaluate_stays_finite_past_kappa_overflow():
    assert all(map(cmath.isnan, _pair_unscaled(Constant(0.5), 6000, 1j)))
    assert _pair_residual(Constant(0.5), 6000, 1j) < 1e-13
    assert _pair_residual(_KINDS["alt"], 9000, cmath.exp(4.0j)) < 1e-10


def test_kappa_is_inf_past_double_range():
    assert szego.kappa(Constant(0.5), 6000) == math.inf
    assert szego.kappa(Constant(0.5), 4900) == math.exp(szego.log_kappa(Constant(0.5), 4900))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["const", "plain", "alt"]), mod=st.floats(0.3, 0.7),
       arg=st.floats(0.0, 2.0 * math.pi), amplitude=st.floats(0.2, 0.5),
       p=st.floats(1.0, 2.5), n=st.integers(0, 3000), u=st.floats(0.05, 0.95))
def test_summation_and_pair_routes_on_generated_sequences(kind, mod, arg, amplitude, p, n, u):
    a = cmath.rect(mod, arg)
    seq = Constant(a) if kind == "const" else Perturbed(a=a, amplitude=amplitude, p=p, sign=kind)
    alpha = arc_from_a(a).alpha
    z = cmath.exp(1j * (alpha + u * (2.0 * math.pi - 2.0 * alpha)))
    assert _same_or_both_nan(szego.schur_sum_eval(seq, n, z), _schur_by_steps(seq, n, z))
    assert _pair_residual(seq, n, z) < 1e-10


def test_route_equivalence_random_corpus():
    rng = np.random.default_rng(22)
    for _ in range(20):
        seq = random_explicit(rng, 40)
        for z in circle_points(rng, 50):
            st = szego.evaluate(seq, 40, z)
            phi, phi_star = szego.pair_evaluate(seq, 40, z)
            scale = max(1.0, abs(st.phi), abs(st.phi_star))
            assert abs(phi - st.phi) / scale < 1e-10
            assert abs(phi_star - st.phi_star) / scale < 1e-10
            total = szego.schur_sum_eval(seq, 40, z)
            assert abs(total - st.kappa * st.phi_star) / max(1.0, abs(total)) < 1e-10


def test_wronskian_trivial():
    st0 = szego.initial_state(0.7j)
    assert szego.wronskian(st0) == -2.0
    st2 = szego.evaluate(Constant(0.0), 2, 1j)
    assert szego.wronskian(st2) == pytest.approx(2.0)  # -2 (i)^2


def test_wronskian_random_corpus():
    rng = np.random.default_rng(23)
    for _ in range(10):
        seq = random_explicit(rng, 30)
        for z in circle_points(rng, 10):
            st = szego.evaluate(seq, 30, z)
            resid = abs(szego.wronskian(st) + 2.0 * z**30)
            assert resid / max(1.0, abs(st.phi) * abs(st.psi)) < 1e-9


def test_second_kind_involution_is_exact():
    rng = np.random.default_rng(24)
    seq = random_explicit(rng, 30)
    neg = Explicit([-v for v in seq.values])
    for z in circle_points(rng, 5):
        a = szego.evaluate(seq, 30, z)
        b = szego.evaluate(neg, 30, z)
        assert a.phi == b.psi and a.psi == b.phi
        assert a.phi_star == b.psi_star and a.psi_star == b.phi_star


def test_reversed_polynomial_identity_on_circle():
    rng = np.random.default_rng(25)
    for _ in range(10):
        seq = random_explicit(rng, 25)
        for z in circle_points(rng, 10):
            st = szego.evaluate(seq, 25, z)
            resid = abs(st.phi_star - z**25 * st.phi.conjugate())
            assert resid / max(1.0, abs(st.phi)) < 1e-10


def test_reversed_polynomial_zero_free_in_disk():
    rng = np.random.default_rng(26)
    radii = np.linspace(0.0, 0.99, 12)
    angles = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
    for _ in range(5):
        seq = random_explicit(rng, 15)
        smallest = min(
            abs(szego.evaluate(seq, 15, r * cmath.exp(1j * t)).phi_star)
            for r in radii for t in angles
        )
        assert smallest > 1e-6


def test_expected_z_moment():
    assert szego.expected_z_moment(Constant(0.5), 3) == pytest.approx(-0.25)
    assert szego.expected_z_moment(Zhedanov(0.5), 5) == pytest.approx(-0.908203125, abs=1e-15)
    assert szego.expected_z_moment(Constant(0.0), 3) == 0.0
    # n = 0 uses the index-0 coefficient 1
    assert szego.expected_z_moment(Constant(0.5), 0) == pytest.approx(-0.5)


def test_monic_coefficients_structure():
    # free case: z^n
    c = szego.monic_coefficients(Constant(0.0), 5)
    assert np.allclose(c, [0, 0, 0, 0, 0, 1])
    # degree 1: z + c_1
    c1 = szego.monic_coefficients(Explicit([0.3 - 0.2j]), 1)
    assert c1[0] == pytest.approx(0.3 - 0.2j)
    assert c1[1] == 1.0


def test_monic_coefficients_match_pointwise_evaluation():
    rng = np.random.default_rng(27)
    seq = random_explicit(rng, 12)
    coeffs = szego.monic_coefficients(seq, 12)
    z = 0.7 * cmath.exp(1.1j)
    direct = sum(c * z**k for k, c in enumerate(coeffs))
    st = szego.evaluate(seq, 12, z)
    assert direct == pytest.approx(st.phi / st.kappa, rel=1e-10)


def test_sweep_matches_scalar_evaluation():
    thetas = np.linspace(0.5, 5.5, 7)
    seq = Constant(0.3 + 0.1j)
    rows = dict(szego.sweep_abs_phi(seq, thetas, 9))
    for i, t in enumerate(thetas):
        st = szego.evaluate(seq, 9, cmath.exp(1j * t))
        assert rows[9][i] == pytest.approx(abs(st.phi), rel=1e-12)


def _literal_sweep(seq, thetas, n_max):
    """The recurrence on arrays as written, the reference for sweep_abs_phi."""
    z = np.exp(1j * np.asarray(thetas, dtype=float))
    phi = np.ones_like(z)
    phi_star = np.ones_like(z)
    for k in range(1, n_max + 1):
        b = seq.coeff_at(k)
        r = math.sqrt(1.0 - abs(b) ** 2)
        phi, phi_star = (z * phi + b * phi_star) / r, (z * b.conjugate() * phi + phi_star) / r
        yield k, np.abs(phi)


def _assert_same_sweep(seq, thetas, n_max):
    got = szego.sweep_abs_phi(seq, thetas, n_max)
    count = 0
    for (k, row), (k_ref, ref) in zip(got, _literal_sweep(seq, thetas, n_max), strict=True):
        assert k == k_ref
        assert np.array_equal(row, ref, equal_nan=True), k
        count += 1
    assert count == n_max


@pytest.mark.parametrize("seq", [
    Constant(0.55),
    Perturbed(a=0.45 + 0.2j, amplitude=0.3, p=1.0, sign="plain"),
    Perturbed(a=0.6, amplitude=0.25, p=1.5, sign="alt"),
], ids=["const", "plain", "alt"])
def test_sweep_is_bit_identical_to_literal_recurrence(seq):
    thetas = arc_from_a(seq.a).grid(4096)  # endpoints included
    _assert_same_sweep(seq, thetas, 1500)


def test_sweep_is_bit_identical_past_overflow():
    # gap points grow geometrically and overflow; non-finite angles give NaN
    thetas = np.concatenate((np.linspace(0.0, 2.0 * math.pi, 65), [math.nan, math.inf]))
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_sweep(Constant(0.9), thetas, 700)
        _assert_same_sweep(Constant(0.5), np.array([]), 3000)


@pytest.mark.parametrize("seq,thetas,n_max", [
    (Perturbed(a=0.45 + 0.2j, amplitude=0.3, p=1.0, sign="plain"),
     arc_from_a(0.45 + 0.2j).grid(1024), 1200),
    (Constant(0.9), np.concatenate((np.linspace(0.0, 2.0 * math.pi, 65), [math.nan])), 700),
], ids=["arc", "overflow"])
def test_sweep_phi_and_phi_star_are_bit_identical_to_literal_recurrence(seq, thetas, n_max):
    z = np.exp(1j * thetas)
    phi = np.ones_like(z)
    phi_star = np.ones_like(z)
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, got_phi, got_phi_star in szego.sweep(seq, thetas, n_max):
            b = seq.coeff_at(k)
            r = math.sqrt(1.0 - abs(b) ** 2)
            phi, phi_star = (z * phi + b * phi_star) / r, (z * b.conjugate() * phi + phi_star) / r
            assert np.array_equal(got_phi, phi, equal_nan=True), k
            assert np.array_equal(got_phi_star, phi_star, equal_nan=True), k
            count += 1
    assert count == n_max


def _fold_steps(seq, n, z):
    state = szego.initial_state(z)
    for k in range(1, n + 1):
        state = szego.step(state, seq.coeff_at(k))
    return state


@pytest.mark.parametrize("seq", [
    Constant(0.5),
    Perturbed(a=0.4 + 0.3j, amplitude=0.5, p=1.2, sign="alt"),
    Perturbed(a=0.7, amplitude=0.3, p=0.6, sign="plain"),
], ids=["const", "alt", "plain"])
def test_evaluate_is_bit_identical_to_step_fold(seq):
    for theta in (2.0, math.pi, 4.2):  # on the arc of every sequence here
        z = cmath.exp(1j * theta)
        got = szego.evaluate(seq, 2000, z)
        ref = _fold_steps(seq, 2000, z)
        assert cmath.isfinite(got.phi) and cmath.isfinite(got.psi)
        assert (got.n, got.z) == (ref.n, ref.z)
        assert got.phi == ref.phi and got.phi_star == ref.phi_star
        assert got.psi == ref.psi and got.psi_star == ref.psi_star
        assert got.kappa == ref.kappa


def test_second_kind_involution_is_exact_at_high_degree():
    seq = Perturbed(a=0.4 + 0.3j, amplitude=0.5, p=1.2, sign="alt")
    neg = Explicit([-v for v in seq.coeffs(2000)])
    z = cmath.exp(2.5j)
    a = szego.evaluate(seq, 2000, z)
    b = szego.evaluate(neg, 2000, z)
    assert a.phi == b.psi and a.psi == b.phi
    assert a.phi_star == b.psi_star and a.psi_star == b.phi_star
