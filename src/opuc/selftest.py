"""Fast invariant suite behind the CLI selftest subcommand.

Each check exercises one cross-module identity or contract on a fixed,
seeded corpus and returns a pass/fail line. The suite is a condensed version
of the test suite's invariants, sized to run in seconds.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from . import geronimus, oracle, perturbation, special, spectral, szego
from .core import Constant, Explicit, Perturbed, Zhedanov, mat_norm, parse_sequence

Check = tuple[str, Callable[[], tuple[bool, str]]]


def _random_explicit(rng: np.random.Generator, n: int, radius: float = 0.9) -> Explicit:
    mods = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    args = rng.uniform(0.0, 2.0 * math.pi, n)
    return Explicit(mods * np.exp(1j * args))


def _recurrence_routes() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        seq = _random_explicit(rng, 30)
        for theta in rng.uniform(0.0, 2.0 * math.pi, 6):
            z = cmath.exp(1j * theta)
            st = szego.evaluate(seq, 30, z)
            phi, phi_star = szego.pair_evaluate(seq, 30, z)
            total = szego.schur_sum_eval(seq, 30, z)
            scale = max(1.0, abs(st.phi), abs(st.phi_star))
            worst = max(worst, abs(phi - st.phi) / scale, abs(phi_star - st.phi_star) / scale,
                        abs(total - st.kappa * st.phi_star) / max(1.0, abs(total)))
    return worst < 1e-10, f"max residual {worst:.2e}"


def _determinant_identity() -> tuple[bool, str]:
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(5):
        seq = _random_explicit(rng, 30)
        for theta in rng.uniform(0.0, 2.0 * math.pi, 6):
            st = szego.evaluate(seq, 30, cmath.exp(1j * theta))
            w = szego.wronskian(st)
            norm = max(1.0, abs(st.phi) * abs(st.psi))
            worst = max(worst, abs(w + 2.0 * st.z**st.n) / norm)
    return worst < 1e-9, f"max normalized residual {worst:.2e}"


def _second_kind_swap() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    seq = _random_explicit(rng, 25)
    neg = Explicit([-v for v in seq.values])
    z = cmath.exp(0.7j)
    a_state = szego.evaluate(seq, 25, z)
    b_state = szego.evaluate(neg, 25, z)
    exact = (a_state.phi == b_state.psi and a_state.psi == b_state.phi
             and a_state.phi_star == b_state.psi_star and a_state.psi_star == b_state.phi_star)
    return exact, "columns swap exactly" if exact else "swap mismatch"


def _closed_form_vs_recurrence() -> tuple[bool, str]:
    rng = np.random.default_rng(14)
    worst = 0.0
    for a in (0.5, 0.3 + 0.4j):
        for theta in rng.uniform(0.0, 2.0 * math.pi, 8):
            z = cmath.exp(1j * theta)
            for n in (3, 40, 150):
                c = geronimus.closed_eval(a, n, z)
                r = szego.evaluate(Constant(a), n, z)
                scale = max(1.0, abs(r.phi), abs(r.phi_star), abs(r.psi), abs(r.psi_star))
                worst = max(worst, max(abs(c.phi - r.phi), abs(c.phi_star - r.phi_star),
                                       abs(c.psi - r.psi), abs(c.psi_star - r.psi_star)) / scale)
    return worst < 1e-8, f"max scaled residual {worst:.2e}"


def _eigen_invariants() -> tuple[bool, str]:
    rng = np.random.default_rng(15)
    alpha = math.pi / 3
    worst = 0.0
    for _ in range(200):
        z = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        p = geronimus.eigen_pair(z, alpha)
        worst = max(worst, abs(p.z1 + p.z2 - (z + 1.0)), abs(p.z1 * p.z2 - z * 0.75))
    return worst < 1e-13, f"max trace/det defect {worst:.2e}"


def _comparison_identity() -> tuple[bool, str]:
    seq = Perturbed(a=0.5, amplitude=1.0, p=2.0)
    res = max(perturbation.comparison_identity(seq, 0.5, n, cmath.exp(3j)).residual
              for n in (5, 15, 30))
    return res < 1e-9, f"max residual {res:.2e}"


def _product_form() -> tuple[bool, str]:
    seq = Perturbed(a=0.5, amplitude=1.0, p=2.0)
    res = perturbation.b_state(seq, 0.5, 80, cmath.exp(2.2j)).residual
    return res < 1e-9, f"residual {res:.2e}"


def _omega_closed_forms() -> tuple[bool, str]:
    rep = perturbation.omega_identities(0.5, cmath.exp(2.5j), 40)
    return rep.max_residual < 1e-9, f"max residual {rep.max_residual:.2e}"


def _e_matrix_bound() -> tuple[bool, str]:
    rng = np.random.default_rng(16)
    a = 0.4 + 0.2j
    c3 = (1.0 + 1.0) / math.sqrt(1.0 - abs(a) ** 2)
    ok = True
    for _ in range(100):
        b = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        z = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        ok &= mat_norm(perturbation.e_matrix(b, a, z)) <= c3 * abs(b - a) + 1e-12
    return ok, "norm bound holds" if ok else "norm bound violated"


def _hessenberg_structure() -> tuple[bool, str]:
    h = spectral.hessenberg(Constant(0.0), 6)
    shift = np.zeros((6, 6), complex)
    shift[np.arange(1, 6), np.arange(5)] = 1.0
    if not np.array_equal(h.entries, shift):
        return False, "free case is not the shift"
    defect = spectral.hessenberg(Zhedanov(0.5), 40).column_unit_defect()
    return defect < 1e-12, f"unit-column defect {defect:.2e}"


def _zeros_two_routes() -> tuple[bool, str]:
    d = spectral.hausdorff_distance(
        spectral.truncation_zeros(Constant(0.5), 12),
        spectral.zeros_from_coefficients(Constant(0.5), 12),
    )
    return d < 1e-7, f"hausdorff {d:.2e}"


def _krein_zhedanov() -> tuple[bool, str]:
    rep = spectral.krein_check(Zhedanov(0.5), 40)
    ok = rep.vi_holds and rep.tau_estimate is not None and abs(rep.tau_estimate + 1.0) < 1e-9
    return ok, f"tau estimate {rep.tau_estimate}"


def _qhermite_closure() -> tuple[bool, str]:
    worst = max(abs(special.qhermite_ratio_check(0.5, n)[0] - 0.5**n) / 0.5**n
                for n in range(1, 31))
    return worst < 1e-12, f"max rel err {worst:.2e}"


def _trig_identity() -> tuple[bool, str]:
    worst = 0.0
    for i in range(50):
        alpha = 0.05 + i * (math.pi - 0.1) / 49
        lhs, rhs = special.trig_identity(alpha)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst < 1e-14, f"max rel defect {worst:.2e}"


def _elliott_routes() -> tuple[bool, str]:
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        x = 1.0 + rng.uniform(0.01, 4.0)
        a = rng.uniform(-0.9, 3.0)
        b = rng.uniform(-0.9, 3.0)
        worst = max(worst, abs(special.elliott_A(x, a, b)
                               - special.elliott_A_integral_route(x, a, b)))
    return worst < 1e-12, f"max two-route gap {worst:.2e}"


def _expansion_consistency() -> tuple[bool, str]:
    p = special.ArcMeasureParams(math.pi / 2, 0.3, 0.7)
    worst = max(abs(exact - special.reflection_expansion(p, n)) * n**3
                for n, exact in zip(range(1, 200), special.arc_reflections(p)) if n >= 60)
    return worst < 1.0, f"max n^3 residual {worst:.3f}"


def _oracle_lebesgue() -> tuple[bool, str]:
    rec = oracle.verblunsky_from_moments(oracle.trig_moments(oracle.lebesgue(), 6), 5)
    worst = max(abs(c) for c in rec.coefficients)
    return worst < 1e-12, f"max |coefficient| {worst:.2e}"


def _parser_roundtrip() -> tuple[bool, str]:
    seq = parse_sequence("perturbed:a=0.5,amp=1,p=2,sign=alt")
    ok = abs(seq.coeff_at(1) - (0.5 - 0.25)) < 1e-15
    seq2 = parse_sequence("zhedanov:q=0.5")
    ok &= seq2.coeff_at(2) == -0.5
    return ok, "mini-language forms parse" if ok else "parse mismatch"


def _kappa_limit_constant() -> tuple[bool, str]:
    rep = perturbation.kappa_limit(Constant(0.5), 0.5, 500)
    return rep.value == 1.0 and rep.converged, f"value {rep.value}"


CHECKS: list[Check] = [
    ("recurrence-routes", _recurrence_routes),
    ("determinant-identity", _determinant_identity),
    ("second-kind-swap", _second_kind_swap),
    ("closed-form-vs-recurrence", _closed_form_vs_recurrence),
    ("eigenpair-invariants", _eigen_invariants),
    ("comparison-identity", _comparison_identity),
    ("product-form", _product_form),
    ("omega-closed-forms", _omega_closed_forms),
    ("perturbation-norm-bound", _e_matrix_bound),
    ("hessenberg-structure", _hessenberg_structure),
    ("zeros-two-routes", _zeros_two_routes),
    ("krein-accumulating-sequence", _krein_zhedanov),
    ("qhermite-ratio", _qhermite_closure),
    ("trig-identity", _trig_identity),
    ("ratio-correction-two-routes", _elliott_routes),
    ("arc-expansion-consistency", _expansion_consistency),
    ("oracle-lebesgue", _oracle_lebesgue),
    ("spec-mini-language", _parser_roundtrip),
    ("kappa-limit-constant", _kappa_limit_constant),
]


def run_all(emit: Callable[[str], None]) -> bool:
    """Run every check, emit one line per check, return overall success."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        emit(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
