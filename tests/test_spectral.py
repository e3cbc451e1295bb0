import cmath
import math

import mpmath
import numpy as np
import pytest

from opuc import geronimus, spectral, szego
from opuc.core import Constant, Explicit, Perturbed, Zhedanov
from opuc.errors import DomainError, EigenSolverError
from conftest import random_explicit


def test_hessenberg_free_case_is_shift():
    h = spectral.hessenberg(Constant(0.0), 5)
    shift = np.zeros((5, 5), dtype=complex)
    shift[np.arange(1, 5), np.arange(4)] = 1.0
    assert np.array_equal(h.entries, shift)


def test_hessenberg_one_by_one():
    c = 0.3 - 0.2j
    h = spectral.hessenberg(Explicit([c]), 1)
    assert h.entries[0, 0] == pytest.approx(-c)


def test_hessenberg_constant_entries():
    a = 0.5
    h = spectral.hessenberg(Constant(a), 8).entries
    r2 = 1.0 - a * a
    for j in range(8):
        assert h[0, j] == pytest.approx(-a * r2 ** (j / 2.0), rel=1e-13)
        for i in range(1, j + 1):
            assert h[i, j] == pytest.approx(-a * a * r2 ** ((j - i) / 2.0), rel=1e-13)
        if j + 1 < 8:
            assert h[j + 1, j] == pytest.approx(math.sqrt(r2), rel=1e-15)


def test_hessenberg_columns_are_unit_vectors():
    rng = np.random.default_rng(51)
    for seq in (Constant(0.5), Zhedanov(0.5), random_explicit(rng, 40)):
        assert spectral.hessenberg(seq, 40).column_unit_defect() < 1e-12


def _hessenberg_by_columns(seq, n_dim):
    """Reference build: one column of the upper triangle per loop pass."""
    phis, log_r, log_prefix = spectral._log_factors(seq, n_dim)
    u = np.zeros((n_dim, n_dim), dtype=complex)
    for j in range(n_dim):
        rows = np.arange(j + 1)
        u[rows, j] = -phis[j + 1] * np.conj(phis[rows]) * np.exp(log_prefix[j] - log_prefix[rows])
        if j + 1 < n_dim:
            u[j + 1, j] = math.exp(log_r[j])
    return u


@pytest.mark.parametrize("seq", [Constant(0.5 - 0.2j), Perturbed(a=0.5, amplitude=1.0, p=2.0),
                                 Perturbed(a=0.4 + 0.3j, amplitude=0.8, p=1.0, sign="alt")])
@pytest.mark.parametrize("n_dim", [1, 2, 150, 2000])
def test_hessenberg_is_bit_identical_to_column_loop(seq, n_dim):
    h = spectral.hessenberg(seq, n_dim).entries
    ref = _hessenberg_by_columns(seq, n_dim)
    assert h.tobytes() == ref.tobytes()


def test_hessenberg_dimension_cap():
    with pytest.raises(DomainError):
        spectral.hessenberg(Constant(0.5), 2001)
    # explicit override allows it
    h = spectral.hessenberg(Constant(0.5), 2001, max_dim=3000)
    assert h.n == 2001


def test_diagonal_norms_free_case():
    norms = spectral.diagonal_norms(Constant(0.0), 20, 5)
    assert norms[0] == 1.0
    assert all(v == 0.0 for v in norms[1:])


def test_diagonal_norms_constant_decay_and_bound():
    norms = spectral.diagonal_norms(Constant(0.5), 60, 10)
    for j in range(1, 11):
        assert norms[j + 1] <= 0.75 ** (j / 2.0) + 1e-15


def test_diagonal_norms_product_bound_random():
    rng = np.random.default_rng(52)
    seq = random_explicit(rng, 50)
    phis = [1.0 + 0.0j] + seq.coeffs(50)
    norms = spectral.diagonal_norms(seq, 50, 8)
    for j in range(1, 9):
        bound = max(
            np.prod([math.sqrt(1.0 - abs(phis[k]) ** 2) for k in range(i + 1, i + j + 1)])
            for i in range(50 - j)
        )
        assert norms[j + 1] <= bound + 1e-14


def test_diagonal_norms_zhedanov_supergeometric():
    norms = spectral.diagonal_norms(Zhedanov(0.5), 60, 12)
    tail = norms[4:]
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
    # ratios themselves shrink: faster than any fixed geometric rate
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert norms[-1] < 1e-8


def test_truncation_zeros_trivial_cases():
    z1 = spectral.truncation_zeros(Explicit([0.4 + 0.1j]), 1)
    assert z1[0] == pytest.approx(-(0.4 + 0.1j))
    z5 = spectral.truncation_zeros(Constant(0.0), 5)
    assert np.max(np.abs(z5)) < 1e-12


def test_truncation_zeros_inside_disk_and_match_companion():
    rng = np.random.default_rng(53)
    for seq in (Constant(0.5), random_explicit(rng, 12)):
        eig = spectral.truncation_zeros(seq, 12)
        comp = spectral.zeros_from_coefficients(seq, 12)
        assert np.max(np.abs(eig)) < 1.0
        assert spectral.hausdorff_distance(eig, comp) < 1e-7


def _mp_eigenvalues(h: np.ndarray) -> np.ndarray:
    """30-digit eigenvalues of the same double-precision matrix."""
    with mpmath.workdps(30):
        m = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in h])
        return np.array([complex(v) for v in mpmath.eig(m, left=False, right=False)])


@pytest.mark.parametrize("seq,n_dim", [
    (Zhedanov(0.5), 30),     # zeros cluster within 1e-9 of -1
    (Constant(0.5), 12),
    (Perturbed(a=0.5 + 0.2j, amplitude=0.8, p=1.0, sign="alt"), 12),
])
def test_truncation_zeros_match_extended_precision_eigenvalues(seq, n_dim):
    ref = _mp_eigenvalues(spectral.hessenberg(seq, n_dim).entries)
    assert spectral.hausdorff_distance(spectral.truncation_zeros(seq, n_dim), ref) < 1e-12


def test_eigensolver_failure_raises_eigen_solver_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(EigenSolverError) as info:
        spectral.truncation_zeros(Constant(0.5), 12)
    assert info.value.size == 12
    assert math.isfinite(info.value.condition_estimate)
    assert "did not converge" in str(info.value)


def test_zeros_inside_disk_many_sequences():
    # zeros approach the circle exponentially fast with the degree; past the
    # point where 1 - |zero| drops under one ulp, strict containment is only
    # checkable up to eigenvalue roundoff
    rng = np.random.default_rng(54)
    for n in (5, 20, 80):
        seq = random_explicit(rng, n)
        peak = np.max(np.abs(spectral.truncation_zeros(seq, n)))
        if n <= 20:
            assert peak < 1.0
        else:
            assert peak < 1.0 + 5e-13


def test_support_report_constant():
    rep = spectral.support_report(Constant(0.5), 0.5, 200)
    assert rep.coverage > 0.95
    assert len(rep.outliers) <= 1
    assert np.all(1.0 - np.abs(rep.zeros) > 0.0)


def test_support_report_perturbed_alt():
    seq = __import__("opuc").core.Perturbed(a=0.5, amplitude=1.0, p=1.0, sign="alt")
    rep = spectral.support_report(seq, 0.5, 200, tol=0.05)
    assert 1.0 - len(rep.outliers) / 200.0 >= 0.95
    assert len(rep.persistent_outliers) <= 3


def test_support_report_zhedanov_accumulates_at_minus_one():
    seq = Zhedanov(0.5)
    zeros = spectral.truncation_zeros(seq, 150)
    args = np.angle(zeros) % (2.0 * math.pi)
    assert np.mean(np.abs(args - math.pi) < 0.5) > 0.9


def test_weyl_stability_endpoint_concentration():
    # zero-argument histograms of the perturbed and constant systems agree in
    # the arc interior and differ mostly near the endpoints as N doubles
    seq = __import__("opuc").core.Perturbed(a=0.5, amplitude=0.8, p=2.0)
    alpha = math.pi / 3
    edges = np.linspace(alpha, 2 * math.pi - alpha, 25)

    def interior_mismatch(n_dim: int) -> float:
        h1, _ = np.histogram(np.angle(spectral.truncation_zeros(seq, n_dim)) % (2 * math.pi),
                             bins=edges)
        h2, _ = np.histogram(np.angle(spectral.truncation_zeros(Constant(0.5), n_dim))
                             % (2 * math.pi), bins=edges)
        diff = np.abs(h1 - h2)
        return float(diff[4:-4].sum()) / n_dim

    assert interior_mismatch(200) <= interior_mismatch(100) + 0.02


def test_offdiagonal_moment_bands_vanish_toward_single_limit_point():
    # the band entries of the multiplication matrix are the shifted moments
    # of z against the orthonormal system; with coefficients accumulating at
    # the boundary every band j >= 1 dies out along its diagonal while the
    # main diagonal tends to the limit point. Checked for j <= 5; uniformity
    # in the shift is not numerically certifiable.
    h = spectral.hessenberg(Zhedanov(0.5), 120).entries
    for j in range(1, 6):
        assert abs(h[110, 110 + j]) < 1e-6
    assert h[110, 110] == pytest.approx(-1.0, abs=1e-6)


def test_krein_zhedanov_algebraic_bound():
    rep = spectral.krein_check(Zhedanov(0.5), 41)
    for n in range(1, 41):
        # products[n-1] = c_{n+1} conj(c_n); exact algebra bounds the gap to 1
        assert abs(rep.products[n - 1] - 1.0) <= 3.0 * 2.0 ** (-n) + 1e-15
    assert rep.vi_holds
    assert rep.tau_estimate == pytest.approx(-1.0, abs=1e-9)
    assert rep.singular_flag
    assert rep.geronimus_tail == pytest.approx(0.0, abs=1e-9)


def test_krein_divergent_phase_sequence():
    values = [(1.0 - 1.0 / n) * cmath.exp(1j * math.log(n)) for n in range(1, 2001)]
    seq = Explicit(values)
    rep = spectral.krein_check(seq, 2000)
    assert rep.vi_holds
    assert rep.tau_estimate is not None
    assert abs(rep.tau_estimate + 1.0) < 0.01
    assert not rep.phi_converged  # the coefficients themselves keep wandering


def test_krein_constant_fails():
    rep = spectral.krein_check(Constant(0.5), 100)
    assert not rep.vi_holds
    assert rep.tau_estimate is None
    assert rep.phi_converged


@pytest.mark.parametrize("n_terms", [10, 300, 1001])
def test_krein_diameter_matches_full_difference_matrix(n_terms):
    seq = random_explicit(np.random.default_rng(n_terms), n_terms)
    tail = np.array(seq.coeffs(n_terms))[n_terms // 2:]
    full = float(np.max(np.abs(tail[:, None] - tail[None, :])))
    assert spectral.krein_check(seq, n_terms).phi_diameter == full


def test_christoffel_free_case_diverges():
    rep = spectral.christoffel_sum(Constant(0.0), cmath.exp(0.7j), 100)
    assert rep.partial_sums[-1] == pytest.approx(101.0, abs=1e-9)
    assert not rep.converged
    assert rep.mass_estimate == 0.0


def test_christoffel_mass_point():
    rep = spectral.christoffel_sum(Constant(-0.5), 1.0 + 0.0j, 120)
    # geometric-series oracle: sum ((1+a)/(1-a))^k = 3/2
    assert rep.converged
    assert rep.mass_estimate == pytest.approx(2.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("seq,z", [
    (Constant(-0.5), 1.0 + 0.0j),
    (Constant(-0.3 + 0.4j), cmath.exp(0.9j)),
    (Explicit([0.3 * (-0.9) ** k for k in range(400)]), cmath.exp(2.0j)),
])
def test_christoffel_partial_sums_match_step_fold(seq, z):
    rep = spectral.christoffel_sum(seq, z, 400)
    state = szego.initial_state(z)
    total = 1.0
    assert rep.partial_sums[0] == total
    for k in range(1, 401):
        state = szego.step(state, seq.coeff_at(k))
        total += state.phi.real**2 + state.phi.imag**2
        assert rep.partial_sums[k] == total


@pytest.mark.parametrize("n_terms", [120, 400])
@pytest.mark.parametrize("a", [-0.3 + 0.4j, 0.45 * cmath.exp(1j * (math.pi - 0.45))])
def test_christoffel_converges_at_complex_mass_point(a, n_terms):
    # rounding feeds the growing mode here, so the full N-term sum diverges;
    # the stopping rule reads the mass off before that
    measure = geronimus.mu_a_spec(a)
    rep = spectral.christoffel_sum(Constant(a), cmath.exp(1j * measure.beta), n_terms)
    assert rep.converged
    assert abs(rep.mass_estimate - measure.j_beta) <= 1e-9


def test_christoffel_interior_point_diverges():
    rep = spectral.christoffel_sum(Constant(0.5), cmath.exp(1j * math.pi), 500)
    assert not rep.converged
    assert rep.mass_estimate == 0.0


def test_support_report_json_roundtrip():
    rep = spectral.support_report(Constant(0.5), 0.5, 40)
    js = rep.to_json()
    assert js["schema_version"] == 1
    assert len(js["zeros"]) == 40
    assert {"coverage", "outliers", "N"} <= js.keys()
