import cmath
import math
from itertools import islice

import numpy as np
import pytest

from opuc import perturbation, special, szego
from opuc.core import (
    ArcSpec,
    Constant,
    Explicit,
    JacobiArc,
    Perturbed,
    ReflectionSequence,
    Rotated,
    Zhedanov,
    arc_from_a,
    explicit_from_csv,
    mat_norm,
    parse_sequence,
    rotate_sequence,
    unit_point,
)
from opuc.errors import (
    DomainError,
    InvalidCoefficientError,
    InvalidRotationError,
    SequenceSpecError,
)
from conftest import random_explicit


def test_constant_coeff_at():
    assert Constant(0.5).coeff_at(7) == 0.5


def test_zhedanov_coeff_value():
    # 2 q^n - 1 at q = 0.5, n = 2
    assert Zhedanov(0.5).coeff_at(2) == -0.5


def test_explicit_past_end_raises():
    seq = Explicit([0.1j, 0.2])
    with pytest.raises(IndexError):
        seq.coeff_at(3)


def test_explicit_rejects_out_of_disk():
    with pytest.raises(InvalidCoefficientError) as exc:
        Explicit([0.1, 1.2])
    assert exc.value.index == 2


NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: Constant(NAN),
    lambda: Constant(complex(0.5, NAN)),
    lambda: parse_sequence("const:nan"),
    lambda: parse_sequence("const:0.5,nan"),
    lambda: Explicit([0.1, NAN]),
    lambda: Perturbed(a=NAN, amplitude=0.5, p=2.0),
    lambda: Perturbed(a=0.5, amplitude=NAN, p=2.0),
], ids=["const", "const-imag", "spec", "spec-imag", "explicit", "perturbed-center",
        "perturbed-amplitude"])
def test_nan_coefficient_rejected(make):
    with pytest.raises(InvalidCoefficientError):
        make()


def test_nan_file_row_rejected(tmp_path):
    path = tmp_path / "coeffs.csv"
    path.write_text("n,re,im\n1,0.1,0.0\n2,nan,0.0\n")
    with pytest.raises(InvalidCoefficientError) as exc:
        parse_sequence(f"file:{path}")
    assert exc.value.index == 2


class _LateInvalid(ReflectionSequence):
    """0.5 at every index but 80, which holds `bad`; 80 lies past the eager check."""

    def __init__(self, bad):
        self.bad = bad

    def raw_coeff(self, n):
        return self.bad if n == 80 else 0.5


_Z = -1.0 + 0j  # mid-arc for a = 0.5
_LATE_READERS = {
    "evaluate": lambda seq: szego.evaluate(seq, 100, _Z),
    "pair_evaluate": lambda seq: szego.pair_evaluate(seq, 100, _Z),
    "schur_sum_eval": lambda seq: szego.schur_sum_eval(seq, 100, _Z),
    "kappa": lambda seq: szego.kappa(seq, 100),
    "log_kappa": lambda seq: szego.log_kappa(seq, 100),
    "monic_coefficients": lambda seq: szego.monic_coefficients(seq, 100),
    "normalized_matrices": lambda seq: perturbation.normalized_matrices(seq, 0.5, 100, _Z),
    "comparison_identity": lambda seq: perturbation.comparison_identity(seq, 0.5, 100, _Z),
    "b_state": lambda seq: perturbation.b_state(seq, 0.5, 100, _Z),
    "classify_conditions": lambda seq: perturbation.classify_conditions(seq, 0.5, 1.0, 100),
    "kappa_limit": lambda seq: perturbation.kappa_limit(seq, 0.5, 100),
    "s_n_bound": lambda seq: perturbation.s_n_bound(seq, 0.5, 100, _Z),
}


@pytest.mark.parametrize("bad", [NAN, 1.5], ids=["nan", "outside"])
@pytest.mark.parametrize("reader", sorted(_LATE_READERS))
def test_invalid_coefficient_found_late_names_its_index(reader, bad):
    with pytest.raises(InvalidCoefficientError) as exc:
        _LATE_READERS[reader](_LateInvalid(bad))
    assert exc.value.index == 80


@pytest.mark.parametrize("bad", [NAN, 1.5], ids=["nan", "outside"])
def test_rotated_bulk_read_names_the_late_index(bad):
    seq = Rotated(1j, _LateInvalid(bad))
    for read in (lambda: seq.coeffs(100), lambda: seq.coeff_at(80)):
        with pytest.raises(InvalidCoefficientError) as exc:
            read()
        assert exc.value.index == 80


# bulk reads: each kind's rule over 1..n against the single-index rules the
# kinds had before they read in bulk, written out here as references


def _bits(values):
    # hex tells signed zeros apart
    return [(v.real.hex(), v.imag.hex(), type(v)) for v in values]


def _perturbed_reference(seq, n):
    s = -1.0 if (seq.sign == "alt" and n % 2) else 1.0
    return complex(seq.a + seq.amplitude * s * (n + 1.0) ** (-seq.p))


def _zhedanov_reference(seq, n):
    v = 2.0 * seq.q**n - 1.0
    return complex(math.nextafter(-1.0, 0.0) if v <= -1.0 else v)


def _rotated_reference(seq, n):
    return cmath.exp(1j * n * cmath.phase(seq.tau)) * seq.base.coeff_at(n)


_TAU = cmath.exp(0.7j)
_BULK_CASES = {
    "constant-real": (lambda: Constant(0.25), 300, lambda seq, n: complex(seq.a)),
    "constant-complex": (lambda: Constant(complex(-0.3, -0.0)), 300, lambda seq, n: seq.a),
    "perturbed-plain-real": (lambda: Perturbed(a=0.5, amplitude=0.3, p=1.5), 300,
                             _perturbed_reference),
    "perturbed-alt-real": (lambda: Perturbed(a=-0.45, amplitude=0.2, p=0.7, sign="alt"), 300,
                           _perturbed_reference),
    "perturbed-plain-complex": (lambda: Perturbed(a=complex(0.4, -0.0), amplitude=0.1, p=2.5),
                                300, _perturbed_reference),
    "perturbed-alt-complex": (lambda: Perturbed(a=-0.2 + 0.3j, amplitude=0.4, p=0.5,
                                                sign="alt"), 300, _perturbed_reference),
    "zhedanov-past-clamp": (lambda: Zhedanov(0.5), 200, _zhedanov_reference),
    "rotated-perturbed": (lambda: Rotated(_TAU, Perturbed(a=0.5, amplitude=0.3, p=1.0,
                                                          sign="alt")), 300, _rotated_reference),
    "rotated-jacobi-arc": (lambda: Rotated(-_TAU, JacobiArc(1.0, 0.3, 0.7)), 300,
                           _rotated_reference),
    "explicit": (lambda: Explicit([0.1, -0.0, complex(0.2, -0.0), -0.5j, 0.3 - 0.4j]), 5,
                 lambda seq, n: seq.values[n - 1]),
}


@pytest.mark.parametrize("case", sorted(_BULK_CASES))
def test_bulk_read_has_the_bits_of_single_reads(case):
    make, n, reference = _BULK_CASES[case]
    seq = make()
    values = seq.coeffs(n)
    assert all(type(v) is complex for v in values)
    assert _bits(values) == _bits([seq.coeff_at(k) for k in range(1, n + 1)])
    assert _bits(values) == _bits([reference(seq, k) for k in range(1, n + 1)])
    assert seq.coeffs(0) == [] and seq.coeffs(-3) == []


def test_zhedanov_bulk_read_is_clamped_inside_the_disk():
    values = Zhedanov(0.5).coeffs(200)
    assert values[-1] == math.nextafter(-1.0, 0.0)
    assert all(abs(v) < 1.0 for v in values)


def test_jacobi_arc_bulk_read_after_reading_ahead():
    ahead = JacobiArc(2.0, -0.3, 0.4)
    last = ahead.coeff_at(500)  # extends the store past what coeffs reads next
    fresh = JacobiArc(2.0, -0.3, 0.4)
    single = [fresh.coeff_at(k) for k in range(1, 801)]
    assert _bits(ahead.coeffs(300)) == _bits(single[:300])
    assert _bits(ahead.coeffs(800)) == _bits(single)
    assert _bits([last]) == _bits([single[499]])


def test_explicit_bulk_read_past_end_keeps_the_message():
    seq = Explicit([0.1j, 0.2])
    with pytest.raises(IndexError, match="has 2 coefficients, index 3 requested"):
        seq.coeffs(5)
    with pytest.raises(IndexError, match="has 2 coefficients, index 4 requested"):
        seq.coeff_at(4)


@pytest.mark.parametrize("kind", [Constant, Explicit, Rotated, Zhedanov, JacobiArc, Perturbed])
def test_kinds_read_in_bulk_through_the_base_coeffs(kind):
    # benchmark/tracing.py times coefficient reads by wrapping
    # ReflectionSequence.coeffs; a kind overriding it would read untimed
    assert "coeffs" not in vars(kind)


@pytest.mark.parametrize("tau", [NAN, complex(1.0, NAN), float("inf")])
def test_non_finite_rotation_rejected(tau):
    with pytest.raises(InvalidRotationError):
        rotate_sequence(Constant(0.5), tau)
    with pytest.raises(InvalidRotationError):
        ArcSpec(alpha=1.0, tau=tau)


@pytest.mark.parametrize("z", [NAN, complex(NAN, 0.0), complex(float("inf"), 0.0)])
def test_unit_point_rejects_non_finite(z):
    with pytest.raises(DomainError):
        unit_point(z)


def test_index_must_be_positive():
    with pytest.raises(DomainError):
        Constant(0.5).coeff_at(0)


def test_rotation_values():
    base = Constant(0.5)
    assert rotate_sequence(base, 1.0).coeff_at(11) == pytest.approx(0.5, abs=1e-15)
    assert rotate_sequence(base, -1.0).coeff_at(3) == pytest.approx(-0.5, abs=1e-15)
    assert rotate_sequence(base, 1j).coeff_at(2) == pytest.approx(-0.5, abs=1e-15)


def test_rotation_requires_unit_modulus():
    with pytest.raises(InvalidRotationError):
        rotate_sequence(Constant(0.5), 0.9)


def test_rotation_roundtrip():
    rng = np.random.default_rng(5)
    seq = random_explicit(rng, 60)
    tau = cmath.exp(1.234j)
    double = rotate_sequence(rotate_sequence(seq, tau), tau.conjugate())
    for n in range(1, 61):
        assert double.coeff_at(n) == pytest.approx(seq.coeff_at(n), abs=1e-12)


def test_arc_from_a_value():
    arc = arc_from_a(0.5)
    assert arc.alpha == pytest.approx(math.pi / 3, abs=1e-15)
    # depends on |a| only
    assert arc_from_a(0.5j).alpha == pytest.approx(math.pi / 3, abs=1e-15)


def test_arc_shrinks_to_point():
    assert math.pi - arc_from_a(0.999).alpha < 0.09


def test_arc_roundtrip_modulus():
    rng = np.random.default_rng(6)
    for _ in range(200):
        r = rng.uniform(1e-3, 1 - 1e-6)
        alpha = arc_from_a(r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))).alpha
        assert math.sin(alpha / 2.0) == pytest.approx(r, abs=1e-14)


def test_arc_from_a_domain():
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            arc_from_a(bad)


def test_arc_contains_and_grid():
    arc = ArcSpec(math.pi / 3)
    assert arc.contains(math.pi)
    assert not arc.contains(0.1)
    g = arc.grid(7, epsilon=0.2)
    assert g[0] == pytest.approx(math.pi / 3 + 0.2)
    assert g[-1] == pytest.approx(5 * math.pi / 3 - 0.2)


@pytest.mark.parametrize("seq", [
    Constant(0.5),
    Constant(0.3 + 0.4j),
    Zhedanov(0.5),
    Zhedanov(0.99),
    Perturbed(a=0.5, amplitude=1.0, p=2.0, sign="plain"),
    Perturbed(a=0.5, amplitude=1.0, p=1.0, sign="alt"),
    Perturbed(a=-0.2 + 0.3j, amplitude=0.4, p=0.5, sign="alt"),
])
def test_kinds_stay_in_disk_to_1e4(seq):
    worst = max(abs(seq.coeff_at(n)) for n in range(1, 10_001))
    assert worst < 1.0


def test_jacobi_arc_in_disk_sampled():
    seq = JacobiArc(math.pi / 2, 0.3, 0.7)
    indices = list(range(1, 201)) + [2**k for k in range(8, 14)]
    assert all(abs(seq.coeff_at(n)) < 1.0 for n in indices)


def test_jacobi_arc_store_matches_exact_coefficients():
    seq = JacobiArc(2.0, -0.3, 0.4)
    values = seq.coeffs(2500)
    fresh = JacobiArc(2.0, -0.3, 0.4)
    order = [2500, 7, 1999, 1, 2000, 64, 65]  # jumps ahead, then reads back
    assert [fresh.coeff_at(k) for k in order] == [values[k - 1] for k in order]
    assert fresh.coeffs(2500) == values
    for k in order:
        assert values[k - 1] == complex(special.arc_reflection_exact(seq.params, k))


def test_jacobi_arc_instances_keep_their_own_store():
    a = JacobiArc(1.0, 0.3, 0.7)
    b = JacobiArc(2.5, -0.4, 0.1)
    a.coeffs(1000)
    assert b.coeffs(1000) == [complex(v) for v in islice(special.arc_reflections(b.params), 1000)]
    assert a.coeffs(1000) != b.coeffs(1000)
    # the store is not part of equality, hashing or repr
    twin = JacobiArc(1.0, 0.3, 0.7)
    assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)


def test_perturbed_is_index_stable():
    seq = Perturbed(a=0.5, amplitude=1.0, p=2.0, sign="alt")
    assert seq.coeff_at(1) == 0.5 - 1.0 / 4.0
    assert seq.coeff_at(1) == seq.coeff_at(1)
    assert seq.coeff_at(2) == 0.5 + 1.0 / 9.0


def test_perturbed_rejects_escape():
    with pytest.raises(InvalidCoefficientError):
        Perturbed(a=0.5, amplitude=1.9, p=1.0, sign="plain")


def test_unit_circle_point():
    z = cmath.exp(2j)
    assert unit_point(z) == z
    assert unit_point(-1) == -1.0 + 0j


def test_matrix_norm_is_max_column_sum():
    m = np.array([[1.0, 10.0], [2.0, 0.5]], dtype=complex)
    assert mat_norm(m) == pytest.approx(10.5)


# mini-language ------------------------------------------------------------

def test_parse_const():
    assert parse_sequence("const:0.5").coeff_at(3) == 0.5
    assert parse_sequence("const:0.3,0.4").coeff_at(1) == 0.3 + 0.4j


def test_parse_zhedanov():
    assert parse_sequence("zhedanov:q=0.5").coeff_at(2) == -0.5


def test_parse_perturbed_complex_center():
    seq = parse_sequence("perturbed:a=0.1,0.2,amp=0.3,p=2,sign=plain")
    assert seq.coeff_at(1) == pytest.approx(0.1 + 0.2j + 0.3 / 4.0)


def test_parse_jacobi_arc():
    seq = parse_sequence("jacobi-arc:alpha=1.5707963,gamma=0.3,delta=0.7")
    assert abs(seq.coeff_at(5)) < 1.0


def test_parse_file(tmp_path):
    path = tmp_path / "coeffs.csv"
    path.write_text("n,re,im\n1,0.1,0.0\n2,0.0,0.2\n")
    seq = parse_sequence(f"file:{path}")
    assert seq.coeff_at(2) == 0.2j
    direct = explicit_from_csv(path)
    assert direct.values == seq.values


@pytest.mark.parametrize("bad", [
    "nope",
    "nope:1",
    "const:x",
    "zhedanov:q=2",          # out of (0, 1) -> DomainError subclass of ValueError
    "perturbed:a=0.5,amp=1", # missing fields
    "zhedanov:q=0.5,extra=1",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_sequence(bad)


def test_parse_file_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0.1,0.0\n")
    with pytest.raises(SequenceSpecError):
        parse_sequence(f"file:{path}")


def test_parse_file_requires_contiguous_indices(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("n,re,im\n1,0.1,0\n3,0.2,0\n")
    with pytest.raises(SequenceSpecError):
        explicit_from_csv(path)


def test_lazy_submodules_and_star_import():
    import opuc

    namespace = {}
    exec("from opuc import *", namespace)
    assert set(opuc.__all__) <= namespace.keys()
    assert namespace["szego"] is opuc.szego is szego
    with pytest.raises(AttributeError, match="no_such_name"):
        opuc.no_such_name
