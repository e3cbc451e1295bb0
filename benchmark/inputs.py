"""Seeded input decks for the four workloads (standard library only).

A deck is one fixed mix of operations; a run executes whole decks until its
time is up, so every run sees the same mix and only the parameters move with
the seed. Sizes are drawn from fixed strata inside the ranges each workload
names, which keeps the work per deck, and so the medians, steady across
seeds. Deck `i` of seed `s` depends on nothing else, so any process can
rebuild it (the traced run replays each deck untraced and traced).

Each op is a dict with a `kind` (the public call it times) and its
parameters. Coefficient sequences are dicts too: {"seq": "const", "a": a} or
{"seq": "perturbed", "a", "amp", "p", "sign"}; complex numbers stay complex.
"""

from __future__ import annotations

import cmath
import math
import random
from time import perf_counter

from spec import LOG_DBL_MAX, ZERO_ROUTE_MAX_N

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# shared parameter helpers
# ---------------------------------------------------------------------------

def _a(rng: random.Random, lo: float, hi: float, phase=None) -> complex:
    """Comparison coefficient with |a| in [lo, hi]; random phase unless given."""
    ph = rng.uniform(0.0, TWO_PI) if phase is None else phase
    return rng.uniform(lo, hi) * cmath.exp(1j * ph)


def coeff(seq: dict, n: int) -> complex:
    """Coefficient n of a sequence dict, computed here independently of opuc."""
    if seq["seq"] == "const":
        return seq["a"]
    s = -1.0 if (seq["sign"] == "alt" and n % 2) else 1.0
    return seq["a"] + seq["amp"] * s * (n + 1.0) ** (-seq["p"])


def _seq(rng: random.Random, a: complex, kind: str) -> dict:
    if kind == "const":
        return {"seq": "const", "a": a}
    # amp / 2^p <= 0.25 keeps |c_1| < 1 for |a| <= 0.7
    return {"seq": "perturbed", "a": a, "amp": rng.uniform(0.2, 0.5),
            "p": rng.uniform(1.0, 2.5), "sign": kind}


_SEQ_KINDS = ("const", "plain", "alt")


def alpha_of(a: complex) -> float:
    """Half-gap angle of the arc attached to a: sin(alpha/2) = |a|."""
    return 2.0 * math.asin(abs(a))


def _arc_angle(rng: random.Random, a: complex, inset: float = 0.05) -> float:
    """An angle strictly on the support arc [alpha, 2 pi - alpha]."""
    lo = alpha_of(a)
    return rng.uniform(lo + inset, TWO_PI - lo - inset)


def overflow_degree(seq: dict, n_max: int) -> int | None:
    """First degree where log kappa_n exceeds log(DBL_MAX), or None."""
    acc = 0.0
    for k in range(1, n_max + 1):
        acc -= 0.5 * math.log1p(-abs(coeff(seq, k)) ** 2)
        if acc > LOG_DBL_MAX:
            return k
    return None


def _has_mass(a: complex) -> bool:
    return abs(1.0 - 2.0 * a) > 1.0


def _beta_in_gap(a: complex) -> bool:
    # geronimus.mu_a_spec refuses coefficients whose mass-point angle is on the arc
    beta = cmath.phase((1.0 - a) / (1.0 - a.conjugate()))
    alpha = alpha_of(a)
    return -alpha < beta < alpha


def _geronimus_a(rng: random.Random, lo: float, hi: float, mass: bool | None,
                 phase_lo: float = 0.0, phase_hi: float = TWO_PI) -> complex:
    while True:
        a = _a(rng, lo, hi, rng.uniform(phase_lo, phase_hi))
        if _beta_in_gap(a) and (mass is None or _has_mass(a) == mass):
            return a


def _explicit_values(rng: random.Random, n: int, bad: complex) -> tuple[list[complex], int]:
    """n valid coefficients with one entry replaced by `bad`."""
    a = _a(rng, 0.3, 0.6)
    values = [a + 0.1 * cmath.exp(1j * rng.uniform(0.0, TWO_PI)) for _ in range(n)]
    where = rng.randrange(n)
    values[where] = bad
    return values, where + 1


# ---------------------------------------------------------------------------
# grid-sweep
# ---------------------------------------------------------------------------

def _grid_sweep(rng: random.Random, index: int, seed: int) -> list[dict]:
    ops = []
    # four sweep strata spanning 512-4,096 angles x degree 500-2,000
    for j, (points, lo, hi) in enumerate(((512, 500, 700), (1024, 900, 1100),
                                          (2048, 1300, 1500), (4096, 1800, 2000))):
        a = _a(rng, 0.3, 0.7)
        ops.append({"kind": "szego.sweep_abs_phi",
                    "seq": _seq(rng, a, _SEQ_KINDS[(index + j) % 3]),
                    "points": points, "n": rng.randint(lo, hi)})
    ops.append({"kind": "geronimus.envelope_check", "a": _a(rng, 0.3, 0.7),
                "n": rng.randint(800, 1200), "points": 128,
                "epsilon": rng.uniform(0.0, 0.2)})
    for j, weight in enumerate(("1", "1/n", "sqrt_gap")):
        a = _a(rng, 0.3, 0.7)
        ops.append({"kind": "perturbation.sup_envelope", "weight": weight, "a": a,
                    "seq": _seq(rng, a, _SEQ_KINDS[(index + j) % 3]),
                    "n": rng.randint(600, 1000), "points": 129,
                    "epsilon": rng.uniform(0.05, 0.3)})
    a = _a(rng, 0.3, 0.7)
    ops.append({"kind": "oracle.mu_prime_floor", "a": a,
                "seq": _seq(rng, a, _SEQ_KINDS[index % 3]),
                "points": 256, "n": rng.randint(800, 1200)})
    # the `opuc eval` loop: one szego.evaluate per angle, angles on the arc
    for j, (plo, phi, nlo, nhi) in enumerate(((32, 40, 100, 150), (56, 64, 250, 300))):
        a = _a(rng, 0.3, 0.7)
        ops.append({"kind": "szego.evaluate_loop",
                    "seq": _seq(rng, a, _SEQ_KINDS[(index + j + 1) % 3]),
                    "points": rng.randint(plo, phi), "n": rng.randint(nlo, nhi)})
    values, where = _explicit_values(rng, 50, complex(math.nan, 0.0))
    ops.append({"kind": "invalid.sweep_nan", "values": values, "bad_index": where,
                "points": 64, "n": 50, "expect": "InvalidCoefficientError"})
    values, where = _explicit_values(rng, 50, 1.2 * cmath.exp(1j * rng.uniform(0, TWO_PI)))
    ops.append({"kind": "invalid.sweep_outside_disk", "values": values, "bad_index": where,
                "points": 64, "n": 50, "expect": "InvalidCoefficientError"})
    return ops


# ---------------------------------------------------------------------------
# pointwise-deep
# ---------------------------------------------------------------------------

# (|a| range, degree range, whether kappa_n overflows within the degree)
_POINT_STRATA = (
    (0.30, 0.40, 2000, 4000, False),
    (0.45, 0.55, 2000, 3200, False),
    (0.45, 0.55, 7500, 10000, True),
    (0.60, 0.70, 4000, 8000, True),
)


def _deep_seq(rng: random.Random, lo, hi, nlo, nhi, overflows, kind) -> tuple[dict, int]:
    """A sequence and degree kept 10 % clear of the kappa overflow degree."""
    while True:
        seq = _seq(rng, _a(rng, lo, hi), kind)
        n = rng.randint(nlo, nhi)
        deg = overflow_degree(seq, int(n * 1.2) + 1)
        if overflows and deg is not None and deg * 1.1 <= n:
            return seq, n
        if not overflows and (deg is None or n * 1.1 <= deg):
            return seq, n


def _pointwise_deep(rng: random.Random, index: int, seed: int) -> list[dict]:
    ops = []
    for j, stratum in enumerate(_POINT_STRATA):
        seq, n = _deep_seq(rng, *stratum, _SEQ_KINDS[(index + j) % 3])
        theta = _arc_angle(rng, seq["a"])
        for kind in ("szego.evaluate", "szego.pair_evaluate", "szego.schur_sum_eval"):
            ops.append({"kind": kind, "seq": seq, "n": n, "theta": theta})
    for nlo, nhi in ((2000, 5000), (5000, 10000)):
        a = _a(rng, 0.3, 0.7)
        ops.append({"kind": "geronimus.closed_eval", "a": a, "n": rng.randint(nlo, nhi),
                    "theta": _arc_angle(rng, a)})
    a = _a(rng, 0.3, 0.7)
    ops.append({"kind": "spectral.christoffel_sum", "seq": _seq(rng, a, "plain"),
                "theta": _arc_angle(rng, a), "n": rng.randint(2000, 5000), "mass": None})
    # mass points: real a as in the acceptance suite, and complex a, where the
    # forward recurrence picks up the growing mode and the plain sum diverges
    a = complex(-rng.uniform(0.4, 0.6), 0.0)
    ops.append({"kind": "spectral.christoffel_sum", "seq": {"seq": "const", "a": a},
                "n": rng.randint(60, 120), "mass": a})
    sign = rng.choice((-1.0, 1.0))
    a = _geronimus_a(rng, 0.4, 0.5, True, math.pi + sign * 0.6, math.pi + sign * 0.3)
    ops.append({"kind": "spectral.christoffel_sum", "seq": {"seq": "const", "a": a},
                "n": rng.randint(300, 500), "mass": a})
    ops.append({"kind": "geronimus.mu_a_spec", "a": _geronimus_a(rng, 0.3, 0.7, True)})
    ops.append({"kind": "geronimus.mu_a_spec", "a": _geronimus_a(rng, 0.3, 0.7, False)})
    a = _a(rng, 0.3, 0.6)
    ops.append({"kind": "perturbation.s_n_bound", "seq": _seq(rng, a, "plain"), "a": a,
                "n": rng.randint(2000, 5000), "theta": _arc_angle(rng, a)})
    a = _a(rng, 0.3, 0.6)
    ops.append({"kind": "perturbation.kappa_limit", "seq": _seq(rng, a, "alt"), "a": a,
                "n": rng.randint(2000, 5000)})
    a = _a(rng, 0.3, 0.6)
    ops.append({"kind": "perturbation.classify_conditions", "seq": _seq(rng, a, "plain"),
                "a": a, "n": rng.randint(2000, 5000)})
    ops.append({"kind": "spectral.krein_check", "seq": _seq(rng, _a(rng, 0.3, 0.7), "alt"),
                "n": rng.randint(500, 1500)})
    # fresh measure parameters per op: users pay the cold coefficient cost
    for nlo, nhi in ((200, 500), (500, 800)):
        ops.append({"kind": "special.jacobi_arc_coeffs", "alpha": rng.uniform(0.4, 2.4),
                    "gamma": rng.uniform(-0.4, 1.0), "delta": rng.uniform(-0.4, 1.0),
                    "n": rng.randint(nlo, nhi)})
    values, where = _explicit_values(rng, 300, complex(math.nan, 0.0))
    ops.append({"kind": "invalid.evaluate_nan", "values": values, "bad_index": where,
                "n": 300, "theta": 2.0, "expect": "InvalidCoefficientError"})
    values, where = _explicit_values(rng, 300, 1.2 * cmath.exp(1j * rng.uniform(0, TWO_PI)))
    ops.append({"kind": "invalid.evaluate_outside_disk", "values": values, "bad_index": where,
                "n": 300, "theta": 2.0, "expect": "InvalidCoefficientError"})
    return ops


# ---------------------------------------------------------------------------
# measure-side
# ---------------------------------------------------------------------------

def arc_jacobi_params(seed: int) -> list[tuple[float, float, float]]:
    """The two arc-Jacobi measures one run studies; set-up warms their normalization."""
    rng = random.Random(f"arc-jacobi:{seed}")
    return [(rng.uniform(0.6, 1.5), rng.uniform(-0.3, 0.8), rng.uniform(-0.3, 0.8))
            for _ in range(2)]


def _measure_side(rng: random.Random, index: int, seed: int) -> list[dict]:
    ops = []
    k = rng.randint(8, 16)
    ops.append({"kind": "oracle.trig_moments", "measure": {"m": "lebesgue"}, "K": k})
    ops.append({"kind": "oracle.verblunsky_from_moments", "measure": {"m": "lebesgue"},
                "K": k, "n": min(k - 1, 15)})
    ops.append({"kind": "oracle.trig_moments",
                "measure": {"m": "point", "theta": rng.uniform(0.0, TWO_PI)},
                "K": rng.randint(8, 16)})
    # Geronimus measures: no mass point (near-real a, as in the acceptance
    # suite: for some complex a the density peaks at an arc end and quad
    # raises QuadratureAccuracyError, as documented), a mass point, and
    # |a| ~ 0.7, where order-15 recovery loses all accuracy
    for lo, hi, mass, plo, phi in ((0.3, 0.45, False, -0.5, 0.5),
                                   (0.4, 0.5, True, math.pi - 0.5, math.pi + 0.5),
                                   (0.69, 0.71, None, -0.3, 0.3)):
        m = {"m": "geronimus", "a": _geronimus_a(rng, lo, hi, mass, plo, phi)}
        ops.append({"kind": "oracle.trig_moments", "measure": m, "K": 16})
        ops.append({"kind": "oracle.verblunsky_from_moments", "measure": m, "K": 16, "n": 15})
    params = arc_jacobi_params(seed)[index % 2]
    k = rng.randint(8, 10)
    m = {"m": "arc-jacobi", "params": params}
    ops.append({"kind": "oracle.trig_moments", "measure": m, "K": k})
    ops.append({"kind": "oracle.verblunsky_from_moments", "measure": m, "K": k, "n": k - 1})
    for nlo, nhi in ((40, 50), (70, 80)):
        a = _a(rng, 0.3, 0.6)
        alpha = alpha_of(a)
        lo = rng.uniform(alpha + 0.1, math.pi - 0.2)
        hi = rng.uniform(math.pi + 0.2, TWO_PI - alpha - 0.1)
        ops.append({"kind": "oracle.reconstruct_arc_mass", "a": a, "subarc": (lo, hi),
                    "n": rng.randint(nlo, nhi)})
    a = _geronimus_a(rng, 0.4, 0.6, False)     # no mass point: the gap holds no mass
    half_gap = 0.6 * alpha_of(a)
    ops.append({"kind": "oracle.reconstruct_arc_mass", "a": a,
                "subarc": (-half_gap, half_gap), "n": rng.randint(40, 80)})
    a = _a(rng, 0.3, 0.7)
    ops.append({"kind": "spectral.support_report", "seq": _seq(rng, a, "alt"), "a": a,
                "n": rng.randint(100, 200)})
    ops.append({"kind": "spectral.truncation_zeros",
                "seq": _seq(rng, _a(rng, 0.3, 0.7), _SEQ_KINDS[index % 3]),
                "n": rng.randint(200, 300)})
    ops.append({"kind": "spectral.truncation_zeros_small",
                "seq": _seq(rng, _a(rng, 0.3, 0.7), _SEQ_KINDS[(index + 1) % 3]),
                "n": rng.randint(12, ZERO_ROUTE_MAX_N)})
    ops.append({"kind": "spectral.hessenberg",
                "seq": _seq(rng, _a(rng, 0.3, 0.7), _SEQ_KINDS[(index + 2) % 3]),
                "n": rng.randint(100, 300)})
    values, where = _explicit_values(rng, 60, complex(math.nan, 0.0))
    ops.append({"kind": "invalid.reconstruct_nan", "values": values, "bad_index": where,
                "n": 60, "expect": "InvalidCoefficientError"})
    ops.append({"kind": "invalid.moments_negative_order", "K": -rng.randint(1, 5),
                "expect": "DomainError"})
    return ops


# ---------------------------------------------------------------------------
# cli-cold: argv lists for `python -m opuc.cli`
# ---------------------------------------------------------------------------

def _c(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def seq_spec(seq: dict) -> str:
    if seq["seq"] == "const":
        return "const:" + _c(seq["a"])
    return (f"perturbed:a={_c(seq['a'])},amp={seq['amp']!r},p={seq['p']!r},"
            f"sign={seq['sign']}")


def _cli_cold(rng: random.Random, index: int, seed: int) -> list[dict]:
    def op(name, *args, **extra):
        # --flag=value: values such as -0.3,0.2 must not read as options
        argv = [args[0]] + [f"--{k}={v}" for k, v in args[1:]]
        return {"kind": "cli." + name, "argv": argv, **extra}

    a = _a(rng, 0.3, 0.7)
    n, grid = rng.randint(50, 200), rng.randint(16, 64)
    ops = [op("eval", "eval", ("coeffs", seq_spec(_seq(rng, a, "plain"))), ("n", n),
              ("theta-grid", grid), rows=grid)]
    grid = rng.randint(16, 64)
    ops.append(op("geronimus", "geronimus", ("a", _c(_geronimus_a(rng, 0.3, 0.7, None))),
                  ("nmax", rng.randint(100, 500)), ("grid-points", grid), rows=grid))
    a = _a(rng, 0.3, 0.7)
    n = rng.randint(500, 2000)
    ops.append(op("conditions", "conditions", ("coeffs", seq_spec(_seq(rng, a, "alt"))),
                  ("a", _c(a)), ("N", n), rows=n))
    a = _a(rng, 0.3, 0.7)
    n = rng.randint(50, 150)
    ops.append(op("spectrum", "spectrum", ("coeffs", seq_spec(_seq(rng, a, "plain"))),
                  ("N", n), ("a", _c(a)), rows=n))
    n = rng.randint(50, 200)
    ops.append(op("krein", "krein", ("coeffs", seq_spec(_seq(rng, _a(rng, 0.3, 0.7), "alt"))),
                  ("N", n), rows=n - 1))
    n = rng.randint(50, 200)
    ops.append(op("example17", "example17", ("alpha", repr(rng.uniform(0.5, 2.5))),
                  ("gamma", repr(rng.uniform(-0.4, 1.0))), ("delta", repr(rng.uniform(-0.4, 1.0))),
                  ("nmax", n), rows=n))
    n = rng.randint(50, 200)
    ops.append(op("lemma18", "lemma18", ("a", repr(rng.uniform(-0.5, 2.0))),
                  ("b", repr(rng.uniform(-0.5, 2.0))), ("x", repr(rng.uniform(1.1, 4.0))),
                  ("nmax", n), rows=n - 1))
    k = rng.randint(4, 12)
    measure = ("lebesgue", f"point:theta={rng.uniform(0.0, TWO_PI)!r}",
               f"geronimus:a={_c(_geronimus_a(rng, 0.3, 0.6, None))}")[index % 3]
    ops.append(op("oracle-moments", "oracle", ("mode", "moments"), ("measure", measure),
                  ("K", k), rows=k + 1))
    a = _geronimus_a(rng, 0.3, 0.5, None)
    n = rng.randint(5, 12)
    ops.append(op("oracle-recover", "oracle", ("mode", "recover"),
                  ("measure", f"geronimus:a={_c(a)}"), ("n", n), ("K", n + 1), rows=n, a=a))
    a = _a(rng, 0.3, 0.6)
    alpha = alpha_of(a)
    ops.append(op("oracle-reconstruct", "oracle", ("mode", "reconstruct"),
                  ("coeffs", seq_spec({"seq": "const", "a": a})),
                  ("theta1", repr(rng.uniform(alpha + 0.1, math.pi - 0.2))),
                  ("theta2", repr(rng.uniform(math.pi + 0.2, TWO_PI - alpha - 0.1))),
                  ("n", rng.randint(30, 50)), rows=1))
    ops.append(op("selftest", "selftest"))
    # about one op in ten is invalid input, documented to exit 1
    ops.append(op("invalid-nan", "eval", ("coeffs", "const:nan"), ("n", 10),
                  ("theta-grid", 8), expect_exit=1))
    bad = (("eval", ("coeffs", f"bogus:{rng.uniform(0, 1)!r}"), ("n", 10)),
           ("eval", ("coeffs", f"const:{rng.uniform(1.0, 2.0)!r}"), ("n", 10)),
           ("spectrum", ("coeffs", seq_spec({"seq": "const", "a": _a(rng, 0.3, 0.7)}))))
    ops.append(op("invalid-input", *bad[index % 3], expect_exit=1))
    return ops


_BUILDERS = {
    "cli-cold": _cli_cold,
    "grid-sweep": _grid_sweep,
    "pointwise-deep": _pointwise_deep,
    "measure-side": _measure_side,
}


def more_decks(start: float, deck_start: float, seconds: float) -> bool:
    """Whether to start another deck: only if at least half of it fits in `seconds`."""
    now = perf_counter()
    return now - start + 0.5 * (now - deck_start) < seconds


def deck(workload: str, seed: int, index: int) -> list[dict]:
    """Deck `index` of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return _BUILDERS[workload](rng, index, seed)
