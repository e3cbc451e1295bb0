import cmath
import math

import numpy as np
import pytest

from opuc import geronimus, perturbation, szego
from opuc.core import Constant, JacobiArc, Perturbed, arc_from_a, mat_norm
from opuc.errors import DomainError, InvalidRotationError


def test_e_matrix_vanishes_when_unperturbed():
    e = perturbation.e_matrix(0.5, 0.5, cmath.exp(1j))
    assert np.all(e == 0.0)


def test_e_matrix_real_perturbation():
    eps = 0.01
    e = perturbation.e_matrix(0.5 + eps, 0.5, 1.0)
    expected = np.array([[0.0, eps], [eps, 0.0]]) / math.sqrt(0.75)
    assert np.allclose(e, expected, atol=1e-15)


def test_e_matrix_norm_bound_on_circle():
    rng = np.random.default_rng(41)
    a = 0.4 + 0.2j
    c3 = 2.0 / math.sqrt(1.0 - abs(a) ** 2)  # (1 + |z|) / sqrt(1 - |a|^2)
    for _ in range(300):
        b = 0.95 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert mat_norm(perturbation.e_matrix(b, a, z)) <= c3 * abs(b - a) + 1e-12


def test_normalized_state_matches_direct_rescaling():
    seq = Perturbed(a=0.5, amplitude=1.0, p=2.0)
    z = cmath.exp(2.7j)
    n = 25
    ns = perturbation.normalized_matrices(seq, 0.5, n, z)[n]
    st = szego.evaluate(seq, n, z)
    scale = st.kappa * (1.0 - 0.25) ** (n / 2.0)
    direct = st.as_matrix() / scale
    assert np.max(np.abs(ns - direct)) / np.max(np.abs(direct)) < 1e-12


def test_comparison_identity_constant_is_degree_zero_state():
    for n in (0, 3, 17):
        ci = perturbation.comparison_identity(Constant(0.5), 0.5, n, cmath.exp(3j))
        assert not ci.degenerate
        assert np.max(np.abs(ci.lhs - perturbation.STATE0)) < 1e-12
        assert np.max(np.abs(ci.rhs - perturbation.STATE0)) < 1e-12


def test_comparison_identity_perturbed():
    seq = Perturbed(a=0.5, amplitude=1.0, p=2.0)
    worst = max(
        perturbation.comparison_identity(seq, 0.5, n, cmath.exp(3j)).residual
        for n in range(1, 31)
    )
    assert worst < 1e-9


def test_comparison_identity_flags_branch_band():
    z = cmath.exp(1j * (math.pi / 3 + 1e-13))
    ci = perturbation.comparison_identity(Constant(0.5), 0.5, 5, z)
    assert ci.degenerate


# theta = 0.26 is in the gap (alpha = 1.43), where the product route diverges
_GAP_SEQ = Perturbed(a=0.6483 - 0.0969j, amplitude=0.0389, p=1.70, sign="alt")


@pytest.mark.parametrize("routine", [perturbation.b_state, perturbation.comparison_identity],
                         ids=["b_state", "comparison_identity"])
def test_gap_point_raises(routine):
    with pytest.raises(DomainError, match="closed arc"):
        routine(_GAP_SEQ, _GAP_SEQ.a, 30, cmath.exp(0.26j))
    assert routine(_GAP_SEQ, _GAP_SEQ.a, 30, cmath.exp(3j)).residual < 1e-9


def test_b_state_constant_and_single_factor():
    bs = perturbation.b_state(Constant(0.5), 0.5, 7, cmath.exp(2j))
    assert np.max(np.abs(bs.by_definition - perturbation.STATE0)) < 1e-12
    assert np.max(np.abs(bs.by_product - perturbation.STATE0)) < 1e-12
    seq = Perturbed(a=0.5, amplitude=1.0, p=2.0)
    z = cmath.exp(2j)
    one = perturbation.b_state(seq, 0.5, 1, z)
    manual = (np.eye(2) + perturbation.omega_inverse_power(0.5, 1, z)
              @ perturbation.e_matrix(seq.coeff_at(1), 0.5, z)) @ perturbation.STATE0
    assert np.max(np.abs(one.by_product - manual)) < 1e-14
    assert one.residual < 1e-12


def test_b_state_product_matches_definition_to_100():
    seq = Perturbed(a=0.5, amplitude=1.0, p=2.0)
    for n in (10, 50, 100):
        assert perturbation.b_state(seq, 0.5, n, cmath.exp(2.2j)).residual < 1e-9


def test_b_state_cauchy_convergence():
    seq = Perturbed(a=0.5, amplitude=1.0, p=2.0)
    z = cmath.exp(2.5j)
    b = {n: perturbation.b_state(seq, 0.5, n, z).by_definition for n in (25, 50, 100, 200)}
    d1 = np.max(np.abs(b[50] - b[25]))
    d2 = np.max(np.abs(b[100] - b[50]))
    d3 = np.max(np.abs(b[200] - b[100]))
    assert d2 < d1 and d3 < d2
    assert d3 < 0.02


def test_omega_identities():
    rep0 = perturbation.omega_identities(0.5, cmath.exp(1.1j), 0)
    assert rep0.max_residual < 1e-14
    rng = np.random.default_rng(42)
    for n in (5, 40, 100):
        # roundtrip to 1e-10 on the arc, where the powers stay bounded
        z = cmath.exp(1j * rng.uniform(math.pi / 3 + 0.05, 5 * math.pi / 3 - 0.05))
        rep = perturbation.omega_identities(0.5, z, n)
        assert rep.roundtrip_residual < 1e-10
    rep = perturbation.omega_identities(0.5, cmath.exp(2.5j), 40)
    assert rep.max_residual < 1e-9


# summability diagnostics ---------------------------------------------------

def _verdicts(rep):
    return {c.name: c.verdict for c in rep.checks}


def test_conditions_quadratic_decay():
    rep = perturbation.classify_conditions(
        Perturbed(a=0.5, amplitude=1.0, p=2.0, sign="plain"), 0.5, 1.0, 4000)
    v = _verdicts(rep)
    assert v["absolute"] == "holds"
    assert v["log_weighted"] == "holds"
    assert v["linear_weighted_lognorm"] == "holds"
    assert v["linear_weighted"] == "fails"


def test_conditions_cubic_decay_all_hold():
    rep = perturbation.classify_conditions(
        Perturbed(a=0.5, amplitude=1.0, p=3.0, sign="plain"), 0.5, 1.0, 4000)
    assert set(_verdicts(rep).values()) == {"holds"}


def test_conditions_arc_jacobi_fails_absolute():
    alpha = math.pi / 2
    seq = JacobiArc(alpha, 0.3, 0.7)
    rep = perturbation.classify_conditions(seq, math.sin(alpha / 2.0), 1.0, 1500)
    assert _verdicts(rep)["absolute"] == "fails"


def test_conditions_constant_sequence_trivially_holds():
    rep = perturbation.classify_conditions(Constant(0.5), 0.5, 1.0, 100)
    assert set(_verdicts(rep).values()) == {"holds"}


def test_conditions_partial_sums_monotone():
    rep = perturbation.classify_conditions(
        Perturbed(a=0.5, amplitude=1.0, p=2.0), 0.5, 1.0, 500)
    for c in rep.checks:
        assert np.all(np.diff(c.partial_sums) >= -1e-15)


def test_conditions_rotation_recenters():
    tau = cmath.exp(0.8j)
    seq = Perturbed(a=0.5, amplitude=1.0, p=3.0)
    rotated = __import__("opuc").core.rotate_sequence(seq, tau.conjugate())
    rep = perturbation.classify_conditions(rotated, 0.5, tau, 2000)
    assert _verdicts(rep)["absolute"] == "holds"


def test_kappa_limit_constant_is_exactly_one():
    rep = perturbation.kappa_limit(Constant(0.5), 0.5, 800)
    assert rep.value == 1.0
    assert rep.converged


def test_kappa_limit_perturbed_converges():
    rep = perturbation.kappa_limit(Perturbed(a=0.5, amplitude=0.3, p=2.0), 0.5, 10_000)
    assert 0.0 < rep.value < math.inf
    assert rep.converged


def test_s_n_bound_trivial_cases():
    z = cmath.exp(1j * math.pi)
    s0 = perturbation.s_n_bound(Constant(0.5), 0.5, 0, z)
    assert s0.s_n == 1.0
    s = perturbation.s_n_bound(Constant(0.5), 0.5, 40, z)
    assert s.s_n == 1.0  # every increment vanishes


def test_s_n_bound_perturbed():
    seq = Perturbed(a=0.5, amplitude=1.0, p=2.0)
    z = cmath.exp(1j * math.pi)
    s100 = perturbation.s_n_bound(seq, 0.5, 100, z)
    s200 = perturbation.s_n_bound(seq, 0.5, 200, z)
    assert s200.s_n >= s100.s_n  # nondecreasing
    assert s200.s_n <= 1.01 * s100.s_n  # convergent majorant has stalled
    assert s200.s_n <= s200.cap


def test_s_n_bound_gronwall_chain_on_grid():
    seq = Perturbed(a=0.5, amplitude=1.0, p=2.0)
    for t in np.linspace(math.pi / 3 + 0.05, math.pi, 7):
        g = perturbation.s_n_bound(seq, 0.5, 120, cmath.exp(1j * float(t)))
        assert g.s_n <= g.cap
        assert g.c1_star > 0.0


def _s_n_bound_matrix_form(seq, a, n, z):
    # the correction sum with numpy 2 x 2 matrices: the reference for s_n_bound
    theta = cmath.phase(z) % (2.0 * math.pi)
    v = geronimus.v_alpha(theta, arc_from_a(a).alpha)
    om = perturbation.omega(a, z)
    state = perturbation.STATE0.copy()
    s, log_s1, c1, weighted_tail = 1.0, 0.0, 0.0, 0.0
    for k in range(1, n + 1):
        e_k = perturbation.e_matrix(seq.coeff_at(k), a, z)
        e_norm = mat_norm(e_k)
        c1 = max(c1, mat_norm(state) / (s * min(float(k), v)))
        s = s + e_norm * mat_norm(state)
        if k == 1:
            log_s1 = math.log(s)
        else:
            weighted_tail += min(float(k), v) * e_norm
        state = (om + e_k) @ state
    return s, log_s1 + c1 * weighted_tail, c1


@pytest.mark.parametrize("seq,a", [
    (Constant(0.5), 0.5),
    (Perturbed(a=0.5, amplitude=1.0, p=2.0), 0.5),
    (Perturbed(a=0.4 + 0.1j, amplitude=0.8, p=1.5, sign="alt"), 0.4 + 0.1j),
])
def test_s_n_bound_matches_matrix_form(seq, a):
    # numpy's complex 2 x 2 product rounds differently from scalar code, so
    # the two forms agree to rounding, not bit for bit
    alpha = arc_from_a(a).alpha
    for theta in (alpha + 1e-4, alpha + 0.05, math.pi, 2.0 * math.pi - alpha - 1e-4):
        z = cmath.exp(1j * theta)
        g = perturbation.s_n_bound(seq, a, 2000, z)
        ref = _s_n_bound_matrix_form(seq, a, 2000, z)
        for got, want in zip((g.s_n, g.log_cap, g.c1_star), ref):
            assert abs(got - want) <= 1e-12 * abs(want)
        if isinstance(seq, Constant):
            assert g.s_n == 1.0


def test_s_n_bound_rejects_off_arc_point():
    with pytest.raises(DomainError):
        perturbation.s_n_bound(Constant(0.5), 0.5, 10, cmath.exp(0.1j))


def test_sup_envelope_constant_subarc_bounded():
    rep = perturbation.sup_envelope(Constant(0.5), 0.5, 400, weight="1", epsilon=0.2)
    assert rep.stable
    assert rep.sup < 10.0


def test_sup_envelope_three_perturbed_regimes():
    r1 = perturbation.sup_envelope(Perturbed(a=0.5, amplitude=1.0, p=2.0), 0.5, 600,
                                   weight="1", epsilon=0.2, num_points=120)
    assert r1.stable
    r2 = perturbation.sup_envelope(Perturbed(a=0.5, amplitude=1.0, p=3.0), 0.5, 600,
                                   weight="1/n", num_points=120)
    assert r2.stable
    r3 = perturbation.sup_envelope(Perturbed(a=0.5, amplitude=1.0, p=3.0), 0.5, 600,
                                   weight="sqrt_gap", num_points=120)
    assert r3.stable


def _sup_envelope_by_loop(seq, a, n_max, weight, thetas):
    """sup_envelope's per-degree loop as first written, the reference for degree_peaks."""
    gap_w = np.sqrt(np.abs(math.cos(arc_from_a(a).alpha) - np.cos(thetas)))
    per_degree = np.empty(n_max)
    best = (0.0, 0, float(thetas[0]))
    for n, abs_phi in szego.sweep_abs_phi(seq, thetas, n_max):
        if weight == "1":
            w = abs_phi
        elif weight == "1/n":
            w = abs_phi / n
        else:
            w = abs_phi * gap_w
        i = int(np.argmax(w))
        per_degree[n - 1] = w[i]
        if w[i] > best[0]:
            best = (float(w[i]), n, float(thetas[i]))
    half = n_max // 2
    lower = float(per_degree[:half].max())
    upper = float(per_degree[half:].max())
    return per_degree, (max(lower, upper), lower, upper, best[1], best[2], upper <= 1.05 * lower)


@pytest.mark.parametrize("weight", ["1", "1/n", "sqrt_gap"])
@pytest.mark.parametrize("seq,a,n_max,epsilon", [
    (Perturbed(a=0.5, amplitude=1.0, p=2.0), 0.5, 600, 0.0),
    (Perturbed(a=0.4 + 0.3j, amplitude=0.5, p=1.2, sign="alt"), 0.4 + 0.3j, 401, 0.05),
    (Constant(0.5), 0.5, 2, 0.2),
], ids=["plain", "alt", "two"])
def test_sup_envelope_equals_per_degree_loop(seq, a, n_max, epsilon, weight):
    rep = perturbation.sup_envelope(seq, a, n_max, weight=weight, epsilon=epsilon)
    per_degree, fields = _sup_envelope_by_loop(seq, a, n_max, weight,
                                               arc_from_a(a).grid(65, epsilon))
    assert np.array_equal(rep.per_degree, per_degree)
    assert (rep.sup, rep.lower_half_sup, rep.upper_half_sup, rep.at_degree, rep.at_theta,
            rep.stable) == fields


def test_sup_envelope_rejects_unknown_weight():
    with pytest.raises(DomainError):
        perturbation.sup_envelope(Constant(0.5), 0.5, 10, weight="bogus")


def test_zero_perturbation_reduces_to_closed_forms():
    # every operation at seq = Constant(a) collapses to the comparison system
    z = cmath.exp(2.9j)
    ns = perturbation.normalized_matrices(Constant(0.5), 0.5, 30, z)[30]
    st = geronimus.closed_eval(0.5, 30, z)
    scale = max(1.0, float(np.max(np.abs(st.as_matrix()))))
    assert np.max(np.abs(ns - st.as_matrix())) / scale < 1e-8


def test_condition_report_json_shape():
    rep = perturbation.classify_conditions(Constant(0.5), 0.5, 1.0, 50)
    js = rep.to_json()
    assert js["schema_version"] == 1
    assert {c["condition"] for c in js["checks"]} == {
        "absolute", "log_weighted", "linear_weighted_lognorm", "linear_weighted"}
    for c in js["checks"]:
        assert {"condition", "partial_sum", "verdict", "tail_slope"} <= c.keys()
        assert len(c["partial_sum"]) == 50


@pytest.mark.parametrize("tau", [math.nan, complex(1.0, math.nan), math.inf])
def test_conditions_reject_non_finite_rotation(tau):
    with pytest.raises(InvalidRotationError):
        perturbation.classify_conditions(Constant(0.5), 0.5, tau, 100)


@pytest.mark.parametrize("a", [math.nan, complex(0.5, math.nan), 1.5, 0.0])
def test_conditions_reject_a_outside_the_disk(a):
    with pytest.raises(DomainError):
        perturbation.classify_conditions(Constant(0.5), a, 1.0, 100)
