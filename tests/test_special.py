import math
from itertools import islice

import numpy as np
import pytest

from opuc import special
from opuc.errors import DomainError


def _binomial(x, n):
    # binomial(x, n) for real x > n - 1
    return math.exp(math.lgamma(x + 1.0) - math.lgamma(n + 1.0) - math.lgamma(x - n + 1.0))


def _jacobi_value(p, n, x):
    # P_n(x) by the forward three-term recurrence: the reference for the ratio pass
    a, b = p.a, p.b
    if n == 0:
        return 1.0
    prev, cur = 1.0, 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for m in range(1, n):
        c0, c1, c2 = special._jacobi_recurrence(a, b, m, x)
        prev, cur = cur, (c1 * cur - c2 * prev) / c0
    return cur


def _jacobi_ratios(p, x, count):
    # P_{m+1}/P_m for m = 0..count-1 from the one ratio pass
    return list(islice(special._jacobi_ratios(p, x), count))


def test_jacobi_value_start():
    p = special.JacobiParams(0.0, 0.0)
    assert _jacobi_ratios(p, 0.37, 1) == [pytest.approx(0.37)]  # P_1 / P_0


def test_jacobi_value_at_plus_one():
    p = special.JacobiParams(0.3, 0.7)
    value = 1.0  # P_0
    for n, rho in enumerate(_jacobi_ratios(p, 1.0, 20), 1):
        value *= rho
        assert value == pytest.approx(_binomial(n + 0.3, n), rel=1e-12)


def test_jacobi_value_at_minus_one():
    p = special.JacobiParams(0.3, 0.7)
    value = 1.0
    for n, rho in enumerate(_jacobi_ratios(p, -1.0, 20), 1):
        value *= rho
        assert value == pytest.approx((-1.0) ** n * _binomial(n + 0.7, n), rel=1e-10)


def test_jacobi_ratio_matches_values():
    p = special.JacobiParams(0.3, 0.7)
    ratios = _jacobi_ratios(p, 1.8, 21)
    for n in (0, 1, 5, 20):
        direct = _jacobi_value(p, n + 1, 1.8) / _jacobi_value(p, n, 1.8)
        assert ratios[n] == pytest.approx(direct, rel=1e-12)


def test_jacobi_ratio_survives_large_degrees():
    # raw values overflow near degree 400 at x = 3; the ratio recursion does not
    p = special.JacobiParams(0.3, -0.15)
    assert not math.isfinite(_jacobi_value(p, 2000, 3.0))
    rho = _jacobi_ratios(p, 3.0, 2001)[2000]
    assert math.isfinite(rho) and rho > 1.0


def test_parity_combination_sieved_pattern():
    # whenever the ratio at -1 is minus the ratio at +1, odd coefficients vanish
    assert special._combine_parity(0.7, -0.7, 11) == 0.0
    assert special._combine_parity(0.7, -0.7, 12) == pytest.approx(0.4)


def test_arc_reflection_values_in_disk():
    rng = np.random.default_rng(61)
    for _ in range(8):
        p = special.ArcMeasureParams(rng.uniform(0.2, 2.8), rng.uniform(-0.6, 1.5),
                                     rng.uniform(-0.6, 1.5))
        vals = [special.arc_reflection_exact(p, n) for n in range(1, 120)]
        assert all(-1.0 < v < 1.0 for v in vals)


def test_arc_reflection_tends_to_center():
    # delta = 0: coefficients converge to sin(alpha/2) (no 1/n term)
    p = special.ArcMeasureParams(math.pi / 2, 0.3, 0.0)
    s = math.sin(math.pi / 4)
    assert abs(special.arc_reflection_exact(p, 400) - s) < 1e-4


def test_expansion_parity_alternation():
    p = special.ArcMeasureParams(math.pi / 2, 0.3, 0.7)
    s = math.sin(math.pi / 4)
    for n in (11, 25, 101):
        even_dev = special.reflection_expansion(p, n + 1) - s
        odd_dev = special.reflection_expansion(p, n) - s
        # the leading deviation alternates sign with the parity
        assert (even_dev > 0) != (odd_dev > 0)


def test_expansion_matches_exact_to_cubic_order():
    p = special.ArcMeasureParams(math.pi / 2, 0.3, 0.7)
    resid = [n**3 * abs(special.arc_reflection_exact(p, n) - special.reflection_expansion(p, n))
             for n in range(50, 401)]
    assert max(resid[150:]) <= 1.5 * max(resid[:151])
    assert max(resid) < 1.0


def test_expansion_exact_case_no_corrections():
    # delta = 0, gamma = 1/2: every correction term cancels
    val = special.reflection_expansion(special.ArcMeasureParams(1.0, 0.5, 0.0), 7)
    assert val == pytest.approx(math.sin(0.5), abs=1e-15)


def test_expansion_alpha_zero_rejected():
    with pytest.raises(DomainError):
        special.reflection_expansion(special.ArcMeasureParams(0.0, 0.3, 0.0), 5)


def test_arc_reflection_alpha_zero_still_works():
    p = special.ArcMeasureParams(0.0, 0.3, 0.7)
    vals = [special.arc_reflection_exact(p, n) for n in (1, 2, 9, 50)]
    assert all(-1.0 < v < 1.0 for v in vals)


def test_elliott_A_values():
    assert special.elliott_A(1.25, 0.0, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    # substitution into the closed form; the independent antiderivative route
    # agrees (a published variant of this arithmetic is off; the two-route
    # agreement below is the ground truth)
    assert special.elliott_A(1.25, 1.0, 1.0) == pytest.approx(-0.5, abs=1e-14)
    assert special.elliott_A_integral_route(1.25, 1.0, 1.0) == pytest.approx(-0.5, abs=1e-14)


def test_elliott_two_routes_agree():
    rng = np.random.default_rng(62)
    for _ in range(50):
        x = 1.0 + rng.uniform(0.01, 4.0)
        a = rng.uniform(-0.9, 3.0)
        b = rng.uniform(-0.9, 3.0)
        assert special.elliott_A(x, a, b) == pytest.approx(
            special.elliott_A_integral_route(x, a, b), abs=1e-12)


def test_elliott_domain():
    with pytest.raises(DomainError):
        special.elliott_A(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        special.elliott_ratio_check(special.JacobiParams(0.0, 0.0), 0.9, 5)


def test_ratio_check_leading_term():
    p = special.JacobiParams(0.0, 0.0)
    exact, expansion = special.elliott_ratio_check(p, 6.0, 400)
    assert exact / expansion == pytest.approx(1.0, abs=1e-6)


def test_ratio_check_cubic_decay():
    p = special.JacobiParams(0.3, 0.7)
    resid = {n: n**3 * abs(np.subtract(*special.elliott_ratio_check(p, 1.8, n)))
             for n in (50, 100, 200)}
    assert 0.5 <= resid[100] / resid[50] <= 2.0
    assert 0.5 <= resid[200] / resid[100] <= 2.0


def test_prefactor_expansions():
    # the normalized-ratio prefactor expands as 1/4 + 1/(8n) + O(1/n^2),
    # independent of the exponents; the delta-dependent expansion
    # 1/4 + delta/(8n) + (1 - 4 delta - delta^2 - 4 delta gamma - 4 gamma^2)/(64 n^2)
    # belongs to the endpoint-ratio prefactor with the shifted numerator
    g, d = 0.3, 0.7
    s = g + (d - 1.0) / 2.0
    for n in (50, 100, 200, 400):
        lemma_pref = (n + 1.0) * (n + s + 1.0) / ((2.0 * n + s + 2.0) * (2.0 * n + s + 1.0))
        assert abs(lemma_pref - (0.25 + 1.0 / (8.0 * n))) * n * n < 0.1
        endpoint_pref = ((n + d / 2.0 + 0.5) * (n + g + d / 2.0 + 0.5)
                         / ((2.0 * n + g + d / 2.0 + 0.5) * (2.0 * n + g + d / 2.0 + 1.5)))
        series = 0.25 + d / (8.0 * n) + (1.0 - 4.0 * d - d * d - 4.0 * d * g - 4.0 * g * g) / (64.0 * n * n)
        assert abs(endpoint_pref - series) * n**3 < 0.1


def test_trig_identity_exact_case():
    lhs, rhs = special.trig_identity(math.pi / 2)
    assert lhs == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-14)
    assert rhs == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-14)


def test_trig_identity_over_range():
    for i in range(100):
        alpha = 0.03 + i * (math.pi - 0.06) / 99.0
        lhs, rhs = special.trig_identity(alpha)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


def test_trig_identity_limit_toward_zero():
    lhs, rhs = special.trig_identity(1e-8)
    assert lhs == pytest.approx(1.0, abs=1e-7)
    assert rhs == pytest.approx(1.0, abs=1e-7)


def test_qhermite_first_ratio():
    ratio, expected = special.qhermite_ratio_check(0.5, 1)
    assert ratio == 0.5 and expected == 0.5


def test_qhermite_ratio_closure():
    for n in range(1, 31):
        ratio, expected = special.qhermite_ratio_check(0.5, n)
        assert abs(ratio - expected) <= 1e-12 * abs(expected)


def test_qhermite_parity():
    for n in range(0, 12):
        assert special.qhermite_value(n, -1.0, 0.5) == pytest.approx(
            (-1.0) ** n * special.qhermite_value(n, 1.0, 0.5), rel=1e-12)


def _per_index_ratio(a, b, n, x):
    # P_{n+1}/P_n rerun from m = 1 for each n: the reference for the one pass
    rho = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    s = a + b
    for m in range(1, n + 1):
        c0 = 2.0 * (m + 1.0) * (m + s + 1.0) * (2.0 * m + s)
        c1 = (2.0 * m + s + 1.0) * ((2.0 * m + s) * (2.0 * m + s + 2.0) * x + a * a - b * b)
        c2 = 2.0 * (m + a) * (m + b) * (2.0 * m + s + 2.0)
        rho = (c1 - c2 / rho) / c0
    return rho


def _per_index_reflection(alpha, gamma, delta, n):
    m = n // 2
    c = math.cos(alpha)
    one_plus_c = 2.0 * math.cos(alpha / 2.0) ** 2
    x0 = (3.0 - c) / one_plus_c
    e = gamma + delta / 2.0
    denom = (2.0 * m + e + 0.5) * (2.0 * m + e + 1.5)
    rho = _per_index_ratio(gamma, (delta - 1.0) / 2.0, m, x0)
    r_plus = one_plus_c * (m + 1.0) * (m + e + 0.5) / denom * rho
    r_minus = -one_plus_c * (m + delta / 2.0 + 0.5) * (m + e + 0.5) / denom
    if n % 2 == 0:
        return r_plus - r_minus - 1.0
    return (r_plus + r_minus) / (r_plus - r_minus)


@pytest.mark.parametrize("alpha,gamma,delta", [
    (math.pi / 2, 0.3, 0.7), (0.0, 0.2, 0.1), (2.4, -0.4, 0.5)])
def test_one_pass_is_bit_identical_to_per_index_formula(alpha, gamma, delta):
    p = special.ArcMeasureParams(alpha, gamma, delta)
    n_max = 2000
    expected = [_per_index_reflection(alpha, gamma, delta, n) for n in range(1, n_max + 1)]
    assert list(islice(special.arc_reflections(p), n_max)) == expected
    for n in (1, 2, 3, 1000, n_max - 1, n_max):
        assert special.arc_reflection_exact(p, n) == expected[n - 1]
    for n in (0, 1, 7, 999):
        assert _jacobi_ratios(p.jacobi, 1.7, n + 1)[n] == _per_index_ratio(
            p.jacobi.a, p.jacobi.b, n, 1.7)



def test_removable_singularity_at_e_minus_half():
    # gamma + delta/2 = -1/2: the m = 0 factor (e + 1/2)/((e + 1/2)(e + 3/2))
    # takes its limit 1/(e + 3/2)
    from opuc import oracle
    from opuc.core import JacobiArc

    exact = JacobiArc(1.0, -0.25, -0.5).coeffs(8)
    rec = oracle.verblunsky_from_moments(
        oracle.trig_moments(oracle.arc_jacobi_measure(1.0, -0.25, -0.5), 9), 8)
    assert max(abs(c - e) for c, e in zip(rec.coefficients, exact)) < 1e-6
    for gamma in (-0.25 - 1e-9, -0.25 + 1e-9):
        near = JacobiArc(1.0, gamma, -0.5).coeffs(8)
        assert max(abs(c - e) for c, e in zip(near, exact)) < 1e-8
    p = special.ArcMeasureParams(1.0, -0.25, -0.5)
    assert special.arc_reflection_exact(p, 1) == exact[0]


@pytest.mark.parametrize("a,b,x", [(0.3, 0.7, 1.8), (-0.5, 2.0, 3.9), (0.3, -0.6, 1.05)])
def test_ratio_checks_one_pass_is_bit_identical_to_per_degree(a, b, x):
    p = special.JacobiParams(a, b)

    def per_degree(n):
        # the ratio recurrence rerun from degree 1 for each n
        s = a + b
        prefactor = (n + 1.0) * (n + s + 1.0) / ((2.0 * n + s + 2.0) * (2.0 * n + s + 1.0))
        expansion = ((x + math.sqrt(x * x - 1.0)) / 4.0) * (
            1.0 - special.elliott_A(x, a, b) / (2.0 * n * n))
        return prefactor * _per_index_ratio(a, b, n, x), expansion

    expected = [per_degree(n) for n in range(1, 301)]
    assert list(islice(special.elliott_ratio_checks(p, x), 300)) == expected
    assert [special.elliott_ratio_check(p, x, n) for n in (1, 2, 300)] == [
        expected[0], expected[1], expected[299]]
    with pytest.raises(DomainError):
        next(special.elliott_ratio_checks(p, 1.0))
