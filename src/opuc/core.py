"""Domain types shared by the whole package.

A system of orthogonal polynomials on the unit circle is determined by its
reflection coefficients, one complex number strictly inside the unit disk per
index n >= 1. A sequence is an evaluation rule, read in bulk: `coeffs(n)` runs
the kind's expressions over 1..n in one loop, then one validation pass; a
coefficient on or outside the unit circle, or NaN, raises, naming its index.

Also here: the circular-arc geometry attached to a comparison coefficient a
(the arc shrinks to a point as |a| -> 1), the unit-circle check for points,
the fixed 2 x 2 matrix norm used artifact-wide, and the parser for the
coefficient mini-language used by the CLI.
"""

from __future__ import annotations

import cmath
import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from . import special
from .errors import (
    DomainError,
    InvalidCoefficientError,
    InvalidRotationError,
    SequenceSpecError,
)

TWO_PI = 2.0 * math.pi

# eager validation horizon for parameterized sequences; the decay kinds are
# monotone beyond it so early indices are where violations appear
_EAGER_CHECK = 64


class ReflectionSequence:
    """Base evaluation rule n -> coefficient, n >= 1.

    A kind gives its rule as `_values`, the coefficients at a run of indices
    from one loop, or as `raw_coeff`, one index at a time; each defaults to
    the other.
    """

    # set where construction has validated every value the rule yields
    _prevalidated = False

    def raw_coeff(self, n: int) -> complex:
        return self._values(range(n, n + 1))[0]

    def _values(self, ks: range) -> list[complex]:
        return [complex(self.raw_coeff(k)) for k in ks]

    def coeff_at(self, n: int) -> complex:
        if n < 1:
            raise DomainError(f"coefficient index must be >= 1, got {n}")
        return self._read(range(n, n + 1))[0]

    def coeffs(self, n: int) -> list[complex]:
        """Coefficients 1..n as a list; every loop over indices reads them here."""
        # kinds define `_values`, never `coeffs`: benchmark/tracing.py wraps this method
        return self._read(range(1, max(n, 0) + 1))

    def _read(self, ks: range) -> list[complex]:
        """The rule's values at ks after one validation pass, naming the first bad index."""
        values = self._values(ks)
        if not self._prevalidated:
            for k, v in zip(ks, values):
                if not abs(v) < 1.0:  # also rejects NaN
                    raise InvalidCoefficientError(k, v, detail=repr(self))
        return values


@dataclass(frozen=True, repr=True)
class Constant(ReflectionSequence):
    """Constant coefficient a with |a| < 1 (a = 0 is the Lebesgue case)."""

    a: complex
    _prevalidated = True

    def __post_init__(self):
        if not abs(self.a) < 1.0:
            raise InvalidCoefficientError(1, self.a, detail="constant sequence")

    def _values(self, ks: range) -> list[complex]:
        return [complex(self.a)] * len(ks)


@dataclass(frozen=True)
class Explicit(ReflectionSequence):
    """Finite coefficient list; indices past the end raise IndexError."""

    values: tuple[complex, ...]

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(complex(v) for v in values))
        self.coeffs(len(self.values))  # validates every value

    def _values(self, ks: range) -> list[complex]:
        m = len(self.values)
        if ks and ks[-1] > m:
            raise IndexError(
                f"explicit sequence has {m} coefficients, index {max(ks[0], m + 1)} requested"
            )
        return list(self.values[ks.start - 1:ks.stop - 1])


@dataclass(frozen=True)
class Rotated(ReflectionSequence):
    """tau^n times a base sequence, |tau| = 1."""

    tau: complex
    base: ReflectionSequence

    def __post_init__(self):
        if not abs(abs(self.tau) - 1.0) <= 1e-12:  # also rejects non-finite tau
            raise InvalidRotationError(self.tau)

    def _values(self, ks: range) -> list[complex]:
        # polar power keeps |tau^k| = 1 to rounding for large k
        phase = cmath.phase(self.tau)
        return [cmath.exp(1j * k * phase) * b for k, b in zip(ks, self.base._read(ks))]


@dataclass(frozen=True)
class Zhedanov(ReflectionSequence):
    """The sequence 2 q^n - 1 for 0 < q < 1; accumulates toward -1.

    Once 2 q^n falls below half an ulp of 1, floating point rounds the
    coefficient to exactly -1; the value is clamped to the nearest
    representable point inside the disk (an error below one ulp of the true
    coefficient), keeping every index valid.
    """

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"Zhedanov parameter must lie in (0, 1), got {self.q}")

    def _values(self, ks: range) -> list[complex]:
        q, clamp = self.q, math.nextafter(-1.0, 0.0)
        return [complex(max(2.0 * q**k - 1.0, clamp)) for k in ks]


@dataclass(frozen=True)
class JacobiArc(ReflectionSequence):
    """Exact coefficients of the arc measure with a Jacobi-type weight."""

    alpha: float
    gamma: float
    delta: float
    params: special.ArcMeasureParams = field(init=False, compare=False)
    # coefficients 1..len(_store) so far, and the ratio pass that extends them
    _store: list[float] = field(init=False, compare=False, repr=False, default_factory=list)
    _pass: Iterator[float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        params = special.ArcMeasureParams(self.alpha, self.gamma, self.delta)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_pass", special.arc_reflections(params))
        self.coeffs(_EAGER_CHECK)  # validates the prefix

    def _values(self, ks: range) -> list[complex]:
        store = self._store
        store.extend(islice(self._pass, max(0, ks.stop - 1 - len(store))))
        return list(map(complex, store[ks.start - 1:ks.stop - 1]))


@dataclass(frozen=True)
class Perturbed(ReflectionSequence):
    """Decaying perturbation of a constant: a + amplitude * s_n * (n+1)^(-p).

    s_n is 1 ("plain") or (-1)^n ("alt"). The shifted decay (n+1)^(-p) keeps
    the standard test parameterizations (amplitude up to 1 around a = 0.5)
    strictly inside the disk; validity is enforced per index, eagerly on a
    small prefix and lazily beyond it.
    """

    a: complex
    amplitude: float
    p: float
    sign: str = "plain"

    def __post_init__(self):
        if not abs(self.a) < 1.0:
            raise InvalidCoefficientError(1, self.a, detail="perturbation center")
        if self.amplitude < 0.0:
            raise DomainError("amplitude must be nonnegative")
        if self.p <= 0.0:
            raise DomainError("decay exponent must be positive")
        if self.sign not in ("plain", "alt"):
            raise DomainError(f"sign pattern must be 'plain' or 'alt', got {self.sign!r}")
        self.coeffs(_EAGER_CHECK)  # validates the prefix

    def _values(self, ks: range) -> list[complex]:
        a, p = complex(self.a), -self.p
        # amplitude * s_k at even and at odd k
        amps = (self.amplitude * 1.0, self.amplitude * (-1.0 if self.sign == "alt" else 1.0))
        return [a + amps[k & 1] * (k + 1.0) ** p for k in ks]


def rotate_sequence(seq: ReflectionSequence, tau: complex) -> ReflectionSequence:
    """Sequence yielding tau^n times the original coefficient at index n."""
    return Rotated(complex(tau), seq)


@dataclass(frozen=True)
class ArcSpec:
    """Closed arc {e^(i t) : alpha <= t <= 2 pi - alpha} rotated by arg tau."""

    alpha: float
    tau: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not 0.0 < self.alpha < math.pi:
            raise DomainError(f"arc half-gap angle must lie in (0, pi), got {self.alpha}")
        if not abs(abs(self.tau) - 1.0) <= 1e-12:  # also rejects non-finite tau
            raise InvalidRotationError(self.tau)

    @property
    def endpoints(self) -> tuple[float, float]:
        rot = cmath.phase(self.tau)
        return (self.alpha + rot, TWO_PI - self.alpha + rot)

    def contains(self, theta: float, tol: float = 0.0) -> bool:
        """Whether e^(i theta) lies on the closed arc, widened by tol."""
        t = (theta - cmath.phase(self.tau)) % TWO_PI
        return self.alpha - tol <= t <= TWO_PI - self.alpha + tol

    def grid(self, num: int, epsilon: float = 0.0) -> np.ndarray:
        """Evenly spaced angles on the arc, inset by epsilon at both ends."""
        import numpy as np
        lo = self.alpha + epsilon
        hi = TWO_PI - self.alpha - epsilon
        if not lo < hi:
            raise DomainError("epsilon leaves an empty subarc")
        return np.linspace(lo, hi, num) + cmath.phase(self.tau)


def arc_from_a(a: complex, tau: complex = 1.0) -> ArcSpec:
    """Arc attached to a comparison coefficient via cos(alpha/2) = sqrt(1 - |a|^2)."""
    r = abs(a)
    if not 0.0 < r < 1.0:
        raise DomainError(f"comparison coefficient needs 0 < |a| < 1, got |a| = {r:.6g}")
    return ArcSpec(alpha=2.0 * math.asin(r), tau=complex(tau))


def unit_point(z) -> complex:
    """Coerce z to a complex point with |z| = 1."""
    w = complex(z)
    if not abs(abs(w) - 1.0) <= 1e-9:  # also rejects non-finite z
        raise DomainError(f"point must lie on the unit circle, got |z| = {abs(w):.6g}")
    return w


# fixed matrix norm for the whole artifact: maximum absolute column sum
def mat_norm(m: np.ndarray) -> float:
    import numpy as np
    return float(np.max(np.abs(m).sum(axis=0)))


# ---------------------------------------------------------------------------
# coefficient-spec mini-language
# ---------------------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise SequenceSpecError(f"cannot parse complex value {text!r}: {exc}") from exc
    raise SequenceSpecError(f"complex value must be 're' or 're,im', got {text!r}")


def _parse_kv(body: str, spec: str) -> dict[str, str]:
    """Split 'k=v,k=v,...' where a value may itself contain commas (complex)."""
    fields: dict[str, str] = {}
    key = None
    for token in body.split(","):
        if "=" in token:
            key, _, val = token.partition("=")
            key = key.strip()
            if key in fields:
                raise SequenceSpecError(f"duplicate field {key!r} in {spec!r}")
            fields[key] = val.strip()
        elif key is not None:
            fields[key] += "," + token.strip()
        else:
            raise SequenceSpecError(f"expected key=value near {token!r} in {spec!r}")
    return fields


def _require_fields(fields: dict[str, str], required: set[str], spec: str) -> None:
    missing = required - fields.keys()
    extra = fields.keys() - required
    if missing:
        raise SequenceSpecError(f"missing field(s) {sorted(missing)} in {spec!r}")
    if extra:
        raise SequenceSpecError(f"unknown field(s) {sorted(extra)} in {spec!r}")


def parse_sequence(spec: str) -> ReflectionSequence:
    """Parse the coefficient mini-language.

    Forms: const:re[,im] | zhedanov:q=V | jacobi-arc:alpha=V,gamma=V,delta=V |
    perturbed:a=re[,im],amp=V,p=V,sign=plain|alt | file:PATH (CSV n,re,im with
    header).
    """
    kind, sep, body = spec.partition(":")
    if not sep:
        raise SequenceSpecError(f"coefficient spec needs 'kind:...', got {spec!r}")
    kind = kind.strip().lower()
    try:
        if kind == "const":
            return Constant(_parse_complex(body))
        if kind == "zhedanov":
            fields = _parse_kv(body, spec)
            _require_fields(fields, {"q"}, spec)
            return Zhedanov(float(fields["q"]))
        if kind == "jacobi-arc":
            fields = _parse_kv(body, spec)
            _require_fields(fields, {"alpha", "gamma", "delta"}, spec)
            return JacobiArc(float(fields["alpha"]), float(fields["gamma"]), float(fields["delta"]))
        if kind == "perturbed":
            fields = _parse_kv(body, spec)
            _require_fields(fields, {"a", "amp", "p", "sign"}, spec)
            return Perturbed(
                a=_parse_complex(fields["a"]),
                amplitude=float(fields["amp"]),
                p=float(fields["p"]),
                sign=fields["sign"],
            )
        if kind == "file":
            return explicit_from_csv(body)
    except (DomainError, InvalidCoefficientError, InvalidRotationError):
        raise
    except SequenceSpecError:
        raise
    except ValueError as exc:
        raise SequenceSpecError(f"bad numeric field in {spec!r}: {exc}") from exc
    raise SequenceSpecError(
        f"unknown sequence kind {kind!r}; expected const, zhedanov, jacobi-arc, perturbed, or file"
    )


def explicit_from_csv(path: str | Path) -> Explicit:
    """Load an Explicit sequence from CSV with header n,re,im."""
    return Explicit(_read_indexed_csv(path, "n", 1))


def _read_indexed_csv(path: str | Path, key: str, first: int) -> list[complex]:
    """Values of a CSV with header key,re,im and indices first, first + 1, ...

    Any missing or unreadable file, bad header, row that is not three
    numbers, repeated index, empty file or gap raises SequenceSpecError,
    with path:line where a row is at fault.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise SequenceSpecError(f"cannot read {path}: {exc}") from exc
    if not rows or [c.strip().lower() for c in rows[0]] != [key, "re", "im"]:
        raise SequenceSpecError(f"{path} must start with header {key},re,im")
    indexed: dict[int, complex] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise SequenceSpecError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        try:
            n = int(row[0])
            value = complex(float(row[1]), float(row[2]))
        except ValueError as exc:
            raise SequenceSpecError(f"{path}:{lineno}: {exc}") from exc
        if n in indexed:
            raise SequenceSpecError(f"{path}:{lineno}: duplicate index {n}")
        indexed[n] = value
    if not indexed:
        raise SequenceSpecError(f"{path} has no data rows")
    if sorted(indexed) != list(range(first, first + len(indexed))):
        raise SequenceSpecError(f"{path} must cover indices {first}..m contiguously")
    return [indexed[k] for k in sorted(indexed)]
