"""Spans around calls into opuc's public functions, recorded from outside.

The traced pass replaces module attributes (and `ReflectionSequence.coeffs`)
with wrappers, so calls that one public function makes into another through
its module (`szego.sweep_abs_phi` inside `envelope_check`,
`spectral.truncation_zeros` inside `support_report`) get spans of their own.
Per-step functions (`szego.step`, `coeff_at`, `arc_reflection_exact`) are
never wrapped: a wrapper there would cost more than the step it measures.

Spans stay in memory until the pass ends. A span's self time is its busy
time minus the busy time of its child spans; a generator's busy time is the
time spent inside its `next()` calls.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter

# (module, attribute) pairs wrapped in the traced pass, and the counter each
# span carries: a function of the call's arguments or, for generators, of
# each item yielded
TRACED = {
    "szego": ("evaluate", "pair_evaluate", "schur_sum_eval", "sweep_abs_phi",
              "monic_coefficients"),
    "geronimus": ("closed_eval", "envelope_check", "mu_a_spec", "christoffel_mass"),
    "perturbation": ("sup_envelope", "s_n_bound", "kappa_limit", "classify_conditions"),
    "spectral": ("hessenberg", "truncation_zeros", "support_report", "christoffel_sum",
                 "krein_check", "zeros_from_coefficients"),
    "oracle": ("trig_moments", "verblunsky_from_moments", "reconstruct_arc_mass",
               "mu_prime_floor", "geronimus_measure", "arc_jacobi_measure", "parse_measure"),
    "cli": ("main",),
}

# work counted per span: degree for evaluate, dimension for eigensolves,
# moments for quadrature; grid points per yielded degree for sweeps
def _arg(position: int, keyword: str, extra: int = 0):
    def count(args, kwargs):
        value = args[position] if len(args) > position else kwargs.get(keyword, 0)
        return int(value) + extra
    return count


_COUNTERS = {
    "szego.evaluate": _arg(1, "n"),
    "spectral.truncation_zeros": _arg(1, "n_dim"),
    "oracle.trig_moments": _arg(1, "order", 1),
}
_ITEM_COUNTERS = {
    "szego.sweep_abs_phi": lambda item: len(item[1]),
}


class Tracer:
    """Collects spans: (id, parent id, op id, name, start, end, busy, count)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []  # open spans: (id, name)
        self.op_id = -1
        self.fp_errors: dict[str, int] = {}
        self._ids = 0
        self._saved: list[tuple] = []

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    def span(self, name: str, fn, counter=None):
        """Wrap a plain function."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._new_id()
            parent = tracer.stack[-1][0] if tracer.stack else 0
            tracer.stack.append((sid, name))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                count = counter(args, kwargs) if counter else 0
                tracer.spans.append((sid, parent, tracer.op_id, name, t0, t1, t1 - t0, count))

        return wrapper

    def generator_span(self, name: str, fn, item_counter=None):
        """Wrap a generator function; the span covers the time inside next()."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else 0
            return tracer._iterate(name, fn(*args, **kwargs), parent, item_counter)

        return wrapper

    def _iterate(self, name, inner, parent, item_counter):
        sid = self._new_id()
        busy = 0.0
        count = 0
        start = perf_counter()
        try:
            while True:
                self.stack.append((sid, name))
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    busy += perf_counter() - t0
                    self.stack.pop()
                if item_counter:
                    count += item_counter(item)
                yield item
        finally:
            self.spans.append((sid, parent, self.op_id, name, start, perf_counter(), busy, count))

    def install(self, modules: dict) -> None:
        """Wrap the TRACED attributes of the given {layer: module} map."""
        for layer, names in TRACED.items():
            module = modules.get(layer)
            if module is None:
                continue
            for attr in names:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapped = self.generator_span(name, fn, _ITEM_COUNTERS.get(name))
                else:
                    wrapped = self.span(name, fn, _COUNTERS.get(name))
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped)
        core = modules["core"]
        base = core.ReflectionSequence
        original = base.coeffs
        plain = self.span("core.coeffs", original, _arg(1, "n"))
        jacobi = self.span("special.jacobi_arc_coeffs", original, _arg(1, "n"))

        def coeffs(seq, n):
            # JacobiArc spends its coefficient time in opuc.special
            return (jacobi if isinstance(seq, core.JacobiArc) else plain)(seq, n)

        self._saved.append((base, "coeffs", original))
        base.coeffs = coeffs

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def on_fp_error(self, kind: str, flag: int) -> None:
        """numpy seterrcall hook: charge the warning to the innermost span's layer."""
        layer = self.stack[-1][1].split(".")[0] if self.stack else "op"
        self.fp_errors[layer] = self.fp_errors.get(layer, 0) + 1

    def summary(self) -> dict:
        """Per span name: calls, self seconds, inclusive busy seconds, counted work."""
        child_busy: dict[int, float] = {}
        for sid, parent, _op, _name, _t0, _t1, busy, _count in self.spans:
            child_busy[parent] = child_busy.get(parent, 0.0) + busy
        out: dict[str, dict] = {}
        for sid, _parent, _op, name, _t0, _t1, busy, count in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "count": 0})
            row["calls"] += 1
            row["busy_s"] += busy
            row["self_s"] += busy - child_busy.get(sid, 0.0)
            row["count"] += count
        return out
