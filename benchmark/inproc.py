"""In-process worker: set-up, timed decks, output checks, and the traced pass.

Run by benchmark/run.py as a child process with `src` on PYTHONPATH:

    inproc.py --workload W --seed N [--setup-only | --seconds S | --trace-decks K]

It prints one JSON line once set-up is done (the harness times process start
to that line as one `setup_s` sample), then, unless --setup-only, one JSON
line with the run's records. cli-cold only uses this worker for its traced
pass, which calls `opuc.cli.main(argv)` in-process.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

import cli_cold
import inputs
from speed import Speed
from spec import (
    CLOSED_FORM_TOL,
    RECON_ARC_TOL,
    RECON_GAP_TOL,
    RECOVERY_TOL,
    ROUTE_TOL,
    UNIT_COLUMN_TOL,
    WORKLOADS,
    WRONSKIAN_TOL,
    ZERO_ROUTE_TOL,
)

OUT_DIR = Path(__file__).resolve().parent / "out"


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int) -> dict:
    """Imports plus the one-time costs a user pays before the first result.

    The first LAPACK call and the first adaptive quadrature run on inputs no
    timed op uses; measure-side also computes the cached normalization of
    the arc-Jacobi measures it will study. The JacobiArc ratio cache is not
    touched.
    """
    import numpy as np

    from opuc import core, geronimus, oracle, perturbation, special, spectral, szego

    modules = {"np": np, "core": core, "szego": szego, "geronimus": geronimus,
               "perturbation": perturbation, "spectral": spectral, "oracle": oracle,
               "special": special}
    if workload == "cli-cold":
        from opuc import cli
        modules["cli"] = cli
    spectral.truncation_zeros(core.Constant(0.25), 4)
    oracle.trig_moments(oracle.lebesgue(), 1)
    if workload == "measure-side":
        for params in inputs.arc_jacobi_params(seed):
            oracle.arc_jacobi_measure(*params)
    return modules


# ---------------------------------------------------------------------------
# ops: the timed call and the check of its output
# ---------------------------------------------------------------------------

def geronimus_mass(a: complex) -> float:
    """Closed-form mass of the constant-coefficient measure at its mass point."""
    return (2.0 * abs(a) ** 2 - 2.0 * a.real) / abs(1.0 - a) ** 2


class Ops:
    """Builds library inputs from deck dicts, runs one op, checks its output."""

    def __init__(self, m: dict):
        self.m = m
        self.np = m["np"]
        self.residuals: dict[str, float] = {}
        self._last_state = None    # evaluate result reused by the two route checks
        self._moments = None       # trig_moments result reused by the recovery op

    # -- helpers ----------------------------------------------------------

    def seq(self, d: dict):
        core = self.m["core"]
        if d["seq"] == "const":
            return core.Constant(d["a"])
        return core.Perturbed(a=d["a"], amplitude=d["amp"], p=d["p"], sign=d["sign"])

    def coeff_array(self, d: dict, n: int):
        return self.np.array([inputs.coeff(d, k) for k in range(1, n + 1)], dtype=complex)

    def arc_grid(self, a: complex, points: int, epsilon: float = 0.0):
        return self.m["core"].arc_from_a(a).grid(points, epsilon)

    def ref_phi(self, d: dict, n: int, thetas):
        """(phi_k, phi*_k) at degrees 1..n over `thetas`, by the recurrence itself."""
        np = self.np
        z = np.exp(1j * np.asarray(thetas, dtype=float))
        phi = np.ones_like(z)
        phi_star = np.ones_like(z)
        out = np.empty((n, len(z)), dtype=complex)
        out_star = np.empty((n, len(z)), dtype=complex)
        for k in range(1, n + 1):
            b = inputs.coeff(d, k)
            r = math.sqrt(1.0 - abs(b) ** 2)
            phi, phi_star = (z * phi + b * phi_star) / r, (z * b.conjugate() * phi + phi_star) / r
            out[k - 1] = phi
            out_star[k - 1] = phi_star
        return out, out_star

    def subset(self, count: int, *extra: int):
        picks = {int(i) for i in self.np.linspace(0, count - 1, 8)} | set(extra)
        return sorted(picks)

    def rel(self, x, ref) -> float:
        """Largest |x - ref| / max(1, |ref|); NaN anywhere gives NaN."""
        np = self.np
        x = np.asarray(x, dtype=complex)
        ref = np.asarray(ref, dtype=complex)
        err = np.abs(x - ref) / np.maximum(1.0, np.abs(ref))
        return float(np.nan) if np.isnan(err).any() else float(err.max(initial=0.0))

    # -- grid-sweep --------------------------------------------------------

    def call_sweep(self, op):
        np = self.np
        thetas = self.arc_grid(op["seq"]["a"], op["points"])
        last = sup = None
        for _, abs_phi in self.m["szego"].sweep_abs_phi(self.seq(op["seq"]), thetas, op["n"]):
            sup = abs_phi.copy() if sup is None else np.maximum(sup, abs_phi, out=sup)
            last = abs_phi
        return thetas, last, sup

    def check_sweep(self, op, out):
        thetas, last, sup = out
        idx = self.subset(len(thetas))
        phi, _ = self.ref_phi(op["seq"], op["n"], thetas[idx])
        ref = self.np.abs(phi)
        return [("szego.max_route_residual", self.rel(last[idx], ref[-1]), ROUTE_TOL),
                ("szego.max_route_residual", self.rel(sup[idx], ref.max(axis=0)), ROUTE_TOL)]

    def call_envelope(self, op):
        return self.m["geronimus"].envelope_check(op["a"], op["n"], epsilon=op["epsilon"],
                                                  num_points=op["points"])

    def _weighted_ref(self, d, n, thetas, idx, alpha, weight):
        np = self.np
        phi, _ = self.ref_phi(d, n, thetas[idx])
        ref = np.abs(phi)
        t = thetas[idx]
        degrees = np.arange(1, n + 1)[:, None]
        if weight == "min_n_v":
            gap = np.abs(math.cos(alpha) - np.cos(t))
            with np.errstate(divide="ignore"):
                v = np.where(gap == 0.0, np.inf, np.sin(t / 2.0) / np.sqrt(gap))
            return ref / np.minimum(degrees, v[None, :])
        if weight == "1/n":
            return ref / degrees
        if weight == "sqrt_gap":
            return ref * np.sqrt(np.abs(math.cos(alpha) - np.cos(t)))[None, :]
        return ref

    def check_envelope(self, op, rep):
        np = self.np
        thetas = self.arc_grid(op["a"], op["points"], op["epsilon"])
        at = int(np.argmin(np.abs(thetas - rep.at_theta)))
        idx = self.subset(len(thetas), at)
        alpha = inputs.alpha_of(op["a"])
        d = {"seq": "const", "a": op["a"]}
        ratios = self._weighted_ref(d, op["n"], thetas, idx, alpha, "min_n_v")
        plain = self._weighted_ref(d, op["n"], thetas, idx, alpha, "1")
        at_ref = ratios[rep.at_degree - 1, idx.index(at)]
        return [
            ("szego.max_route_residual", self.rel(rep.c_min_n_v, at_ref), ROUTE_TOL),
            (None, max(0.0, ratios.max() / rep.c_min_n_v - 1.0), ROUTE_TOL),
            (None, max(0.0, plain.max() / rep.c_plain - 1.0), ROUTE_TOL),
            (None, abs(rep.c_plain - max(rep.lower_half_sup, rep.upper_half_sup)), 0.0),
        ]

    def call_sup(self, op):
        return self.m["perturbation"].sup_envelope(
            self.seq(op["seq"]), op["a"], op["n"], weight=op["weight"],
            epsilon=op["epsilon"], num_points=op["points"])

    def check_sup(self, op, rep):
        np = self.np
        thetas = self.arc_grid(op["a"], op["points"], op["epsilon"])
        at = int(np.argmin(np.abs(thetas - rep.at_theta)))
        idx = self.subset(len(thetas), at)
        w = self._weighted_ref(op["seq"], op["n"], thetas, idx, inputs.alpha_of(op["a"]),
                               op["weight"])
        below = np.max(w.max(axis=1) / rep.per_degree - 1.0)
        return [
            ("szego.max_route_residual", self.rel(rep.sup, w[rep.at_degree - 1, idx.index(at)]),
             ROUTE_TOL),
            (None, max(0.0, float(below)), ROUTE_TOL),
            (None, abs(rep.sup - float(rep.per_degree.max())), 0.0),
        ]

    def call_floor(self, op):
        grid = self.arc_grid(op["a"], op["points"])
        return grid, self.m["oracle"].mu_prime_floor(self.seq(op["seq"]), grid, op["n"])

    def check_floor(self, op, out):
        grid, rep = out
        idx = self.subset(len(grid))
        phi, _ = self.ref_phi(op["seq"], op["n"], grid[idx])
        peak = self.np.abs(phi[op["n"] // 2 - 1:]).max(axis=0)
        ref = 1.0 / (2.0 * math.pi * peak**2)
        return [("szego.max_route_residual", self.rel(rep.floors[idx] / ref, 1.0), ROUTE_TOL)]

    def call_eval_loop(self, op):
        szego = self.m["szego"]
        seq = self.seq(op["seq"])
        thetas = self.arc_grid(op["seq"]["a"], op["points"])
        return thetas, [szego.evaluate(seq, op["n"], cmath.exp(1j * t)) for t in thetas]

    def check_eval_loop(self, op, out):
        thetas, states = out
        phi, phi_star = self.ref_phi(op["seq"], op["n"], thetas)
        got = [s.phi for s in states]
        got_star = [s.phi_star for s in states]
        return ([("szego.max_route_residual", self.rel(got, phi[-1]), ROUTE_TOL),
                 ("szego.max_route_residual", self.rel(got_star, phi_star[-1]), ROUTE_TOL)]
                + [self._wronskian(s) for s in states])

    # -- pointwise-deep ----------------------------------------------------

    def _wronskian(self, st):
        resid = abs(self.m["szego"].wronskian(st) + 2.0 * st.z**st.n)
        return ("szego.max_wronskian_residual", resid / max(1.0, abs(st.phi) * abs(st.psi)),
                WRONSKIAN_TOL)

    def _state_for(self, op):
        key = (id(op["seq"]), op["n"], op["theta"])
        if self._last_state is None or self._last_state[0] != key:
            st = self.m["szego"].evaluate(self.seq(op["seq"]), op["n"], cmath.exp(1j * op["theta"]))
            self._last_state = (key, st)
        return self._last_state[1]

    def call_evaluate(self, op):
        st = self.m["szego"].evaluate(self.seq(op["seq"]), op["n"], cmath.exp(1j * op["theta"]))
        self._last_state = ((id(op["seq"]), op["n"], op["theta"]), st)
        return st

    def check_evaluate(self, op, st):
        finite = all(map(cmath.isfinite, (st.phi, st.phi_star, st.psi, st.psi_star)))
        return [self._wronskian(st), (None, 0.0 if finite else math.nan, 0.0)]

    def call_pair(self, op):
        return self.m["szego"].pair_evaluate(self.seq(op["seq"]), op["n"],
                                             cmath.exp(1j * op["theta"]))

    def check_pair(self, op, out):
        st = self._state_for(op)
        scale = max(1.0, abs(st.phi), abs(st.phi_star))
        resid = max(abs(out[0] - st.phi), abs(out[1] - st.phi_star)) / scale
        return [("szego.max_route_residual", resid, ROUTE_TOL)]

    def call_schur(self, op):
        return self.m["szego"].schur_sum_eval(self.seq(op["seq"]), op["n"],
                                              cmath.exp(1j * op["theta"]))

    def check_schur(self, op, total):
        st = self._state_for(op)
        resid = abs(total - st.kappa * st.phi_star) / max(1.0, abs(total))
        return [("szego.max_route_residual", resid, ROUTE_TOL)]

    def call_closed(self, op):
        return self.m["geronimus"].closed_eval(op["a"], op["n"], cmath.exp(1j * op["theta"]))

    def check_closed(self, op, c):
        r = self.m["szego"].evaluate(self.m["core"].Constant(op["a"]), op["n"],
                                     cmath.exp(1j * op["theta"]))
        fields = ("phi", "phi_star", "psi", "psi_star")
        scale = max(1.0, *(abs(getattr(r, f)) for f in fields))
        resid = max(abs(getattr(c, f) - getattr(r, f)) for f in fields) / scale
        return [("geronimus.max_closed_form_residual", resid, CLOSED_FORM_TOL)]

    def call_christoffel(self, op):
        if op["mass"] is None:
            z = cmath.exp(1j * op["theta"])
        else:
            a = op["mass"]
            z = (1.0 - a) / (1.0 - a.conjugate())   # the mass point e^(i beta)
        return self.m["spectral"].christoffel_sum(self.seq(op["seq"]), z, op["n"])

    def check_christoffel(self, op, rep):
        if op["mass"] is not None:
            mass = geronimus_mass(op["mass"])
            return [(None, 0.0 if rep.converged else math.nan, 0.0),
                    (None, abs(rep.mass_estimate - mass) / mass, CLOSED_FORM_TOL)]
        phi, _ = self.ref_phi(op["seq"], op["n"], [op["theta"]])
        total = 1.0 + float(self.np.sum(self.np.abs(phi) ** 2))
        return [(None, self.rel(rep.partial_sums[-1], total), ROUTE_TOL)]

    def call_mu(self, op):
        return self.m["geronimus"].mu_a_spec(op["a"])

    def check_mu(self, op, rep):
        a = op["a"]
        checks = [(None, abs(rep.alpha - inputs.alpha_of(a)), ROUTE_TOL)]
        if abs(1.0 - 2.0 * a) > 1.0:
            mass = geronimus_mass(a)
            checks += [(None, 0.0 if rep.mass_converged else math.nan, 0.0),
                       ("geronimus.max_closed_form_residual", abs(rep.j_beta - mass) / mass,
                        CLOSED_FORM_TOL)]
        else:
            checks.append((None, abs(rep.j_beta), 0.0))
        return checks

    def call_s_n(self, op):
        return self.m["perturbation"].s_n_bound(self.seq(op["seq"]), op["a"], op["n"],
                                                cmath.exp(1j * op["theta"]))

    def check_s_n(self, op, rep):
        ok = (math.isfinite(rep.s_n) and rep.s_n >= 1.0 and math.isfinite(rep.c1_star)
              and rep.c1_star > 0.0)
        slack = math.log(rep.s_n) - rep.log_cap if ok else math.nan
        return [(None, 0.0 if ok else math.nan, 0.0),
                (None, max(0.0, slack), 1e-9 * max(1.0, abs(rep.log_cap)))]

    def call_kappa_limit(self, op):
        return self.m["perturbation"].kappa_limit(self.seq(op["seq"]), op["a"], op["n"])

    def check_kappa_limit(self, op, rep):
        np = self.np
        c = self.coeff_array(op["seq"], op["n"])
        acc = 0.5 * np.sum(math.log1p(-abs(op["a"]) ** 2) - np.log1p(-np.abs(c) ** 2))
        return [(None, self.rel(rep.value, math.exp(acc)), ROUTE_TOL)]

    def call_conditions(self, op):
        return self.m["perturbation"].classify_conditions(self.seq(op["seq"]), op["a"], 1.0,
                                                          op["n"])

    def check_conditions(self, op, rep):
        np = self.np
        ks = np.arange(1, op["n"] + 1)
        dev = np.abs(self.coeff_array(op["seq"], op["n"]) - op["a"])
        refs = {"absolute": np.cumsum(dev), "log_weighted": np.cumsum(np.log(ks) * dev),
                "linear_weighted": np.cumsum(ks * dev),
                "linear_weighted_lognorm": np.cumsum(ks * dev)}
        return [(None, self.rel(rep.check(name).partial_sums, ref), ROUTE_TOL)
                for name, ref in refs.items()]

    def call_krein(self, op):
        return self.m["spectral"].krein_check(self.seq(op["seq"]), op["n"])

    def check_krein(self, op, rep):
        c = self.coeff_array(op["seq"], op["n"])
        return [(None, self.rel(rep.products, c[1:] * self.np.conj(c[:-1])), ROUTE_TOL)]

    def call_jacobi_arc(self, op):
        seq = self.m["core"].JacobiArc(op["alpha"], op["gamma"], op["delta"])
        return seq.coeffs(op["n"])

    def check_jacobi_arc(self, op, values):
        special = self.m["special"]
        params = special.ArcMeasureParams(op["alpha"], op["gamma"], op["delta"])
        # the four-term expansion is good to O(1/n^3); n^3 times the gap stays
        # below 1.8 over these parameter ranges (measured)
        tail = max(n**3 * abs(values[n - 1] - special.reflection_expansion(params, n))
                   for n in range(100, op["n"] + 1))
        inside = all(abs(v) < 1.0 for v in values)
        return [(None, 0.0 if len(values) == op["n"] and inside else math.nan, 0.0),
                (None, tail, 10.0)]

    # -- measure-side ------------------------------------------------------

    def measure(self, d: dict):
        oracle = self.m["oracle"]
        if d["m"] == "lebesgue":
            return oracle.lebesgue()
        if d["m"] == "point":
            return oracle.point_measure(d["theta"])
        if d["m"] == "geronimus":
            return oracle.geronimus_measure(d["a"])
        return oracle.arc_jacobi_measure(*d["params"])

    def call_moments(self, op):
        mom = self.m["oracle"].trig_moments(self.measure(op["measure"]), op["K"])
        self._moments = ((id(op["measure"]), op["K"]), mom)
        return mom

    def check_moments(self, op, mom):
        np = self.np
        vals = np.asarray(mom.values)
        d = op["measure"]
        checks = [(None, 0.0 if np.isfinite(vals).all() and vals[0] == 1.0 else math.nan, 0.0),
                  (None, float(np.max(np.abs(vals))) - 1.0, 1e-12)]
        if d["m"] == "lebesgue":
            checks.append((None, float(np.max(np.abs(vals[1:]))), ROUTE_TOL))
        if d["m"] == "point":
            ks = np.arange(op["K"] + 1)
            checks.append((None, self.rel(vals, np.exp(-1j * ks * d["theta"])), ROUTE_TOL))
        return checks

    def call_recover(self, op):
        key = (id(op["measure"]), op["K"])
        if self._moments is None or self._moments[0] != key:
            self.call_moments(op)
        return self.m["oracle"].verblunsky_from_moments(self._moments[1], op["n"])

    def check_recover(self, op, rec):
        d = op["measure"]
        if d["m"] == "lebesgue":
            truth = [0.0] * op["n"]
        elif d["m"] == "geronimus":
            truth = [d["a"]] * op["n"]
        else:
            params = self.m["special"].ArcMeasureParams(*d["params"])
            truth = [self.m["special"].arc_reflection_exact(params, k)
                     for k in range(1, op["n"] + 1)]
        err = max(abs(c - t) for c, t in zip(rec.coefficients, truth))
        if any(map(cmath.isnan, rec.coefficients)):
            err = math.nan
        return [("oracle.max_recovery_error", err, RECOVERY_TOL)]

    def call_reconstruct(self, op):
        return self.m["oracle"].reconstruct_arc_mass(self.m["core"].Constant(op["a"]),
                                                     op["subarc"], op["n"])

    def check_reconstruct(self, op, value):
        from scipy.integrate import quad

        lo, hi = op["subarc"]
        if lo < 0.0:     # a gap subarc; the deck picks a without a mass point
            return [("oracle.max_reconstruct_error", abs(value), RECON_GAP_TOL)]
        density = self.m["geronimus"].mu_a_spec(op["a"]).density
        ref, _ = quad(density, lo, hi, limit=200, epsabs=1e-11, epsrel=1e-11)
        return [("oracle.max_reconstruct_error", abs(value - ref), RECON_ARC_TOL)]

    def _zero_checks(self, op, zeros):
        np = self.np
        c = np.concatenate(([1.0], self.coeff_array(op["seq"], op["n"])))
        trace = -np.sum(c[1:] * np.conj(c[:-1]))
        # zeros lie strictly inside the disk; eigenvalues may land an ulp outside
        ok = (len(zeros) == op["n"] and np.isfinite(zeros).all()
              and (np.abs(zeros) <= 1.0 + ROUTE_TOL).all())
        return [(None, 0.0 if ok else math.nan, 0.0),
                (None, abs(np.sum(zeros) - trace), ROUTE_TOL * op["n"])]

    def call_support(self, op):
        return self.m["spectral"].support_report(self.seq(op["seq"]), op["a"], op["n"])

    def check_support(self, op, rep):
        ok = 0.0 <= rep.coverage <= 1.0 and rep.radial_min >= -ROUTE_TOL
        return self._zero_checks(op, rep.zeros) + [(None, 0.0 if ok else math.nan, 0.0)]

    def call_zeros(self, op):
        return self.m["spectral"].truncation_zeros(self.seq(op["seq"]), op["n"])

    def check_zeros(self, op, zeros):
        return self._zero_checks(op, zeros)

    def check_zeros_small(self, op, zeros):
        spectral = self.m["spectral"]
        other = spectral.zeros_from_coefficients(self.seq(op["seq"]), op["n"])
        return self._zero_checks(op, zeros) + [
            ("spectral.max_zero_route_distance", spectral.hausdorff_distance(zeros, other),
             ZERO_ROUTE_TOL)]

    def call_hessenberg(self, op):
        return self.m["spectral"].hessenberg(self.seq(op["seq"]), op["n"])

    def check_hessenberg(self, op, h):
        ok = h.entries.shape == (op["n"], op["n"]) and self.np.isfinite(h.entries).all()
        return [(None, 0.0 if ok else math.nan, 0.0),
                ("spectral.max_column_unit_defect", h.column_unit_defect(), UNIT_COLUMN_TOL)]

    # -- invalid input: the documented exception is the correct outcome ----

    def call_invalid(self, op):
        m = self.m
        kind = op["kind"]
        if kind == "invalid.moments_negative_order":
            return m["oracle"].trig_moments(m["oracle"].lebesgue(), op["K"])
        seq = m["core"].Explicit(op["values"])
        if kind.startswith("invalid.sweep"):
            thetas = self.np.linspace(0.5, 2.0 * math.pi - 0.5, op["points"])
            return [v for _, v in m["szego"].sweep_abs_phi(seq, thetas, op["n"])][-1]
        if kind.startswith("invalid.evaluate"):
            return m["szego"].evaluate(seq, op["n"], cmath.exp(1j * op["theta"]))
        return m["oracle"].reconstruct_arc_mass(seq, (1.0, 5.0), op["n"])

    # -- dispatch ----------------------------------------------------------

    def table(self):
        return {
            "szego.sweep_abs_phi": (self.call_sweep, self.check_sweep),
            "geronimus.envelope_check": (self.call_envelope, self.check_envelope),
            "perturbation.sup_envelope": (self.call_sup, self.check_sup),
            "oracle.mu_prime_floor": (self.call_floor, self.check_floor),
            "szego.evaluate_loop": (self.call_eval_loop, self.check_eval_loop),
            "szego.evaluate": (self.call_evaluate, self.check_evaluate),
            "szego.pair_evaluate": (self.call_pair, self.check_pair),
            "szego.schur_sum_eval": (self.call_schur, self.check_schur),
            "geronimus.closed_eval": (self.call_closed, self.check_closed),
            "spectral.christoffel_sum": (self.call_christoffel, self.check_christoffel),
            "geronimus.mu_a_spec": (self.call_mu, self.check_mu),
            "perturbation.s_n_bound": (self.call_s_n, self.check_s_n),
            "perturbation.kappa_limit": (self.call_kappa_limit, self.check_kappa_limit),
            "perturbation.classify_conditions": (self.call_conditions, self.check_conditions),
            "spectral.krein_check": (self.call_krein, self.check_krein),
            "special.jacobi_arc_coeffs": (self.call_jacobi_arc, self.check_jacobi_arc),
            "oracle.trig_moments": (self.call_moments, self.check_moments),
            "oracle.verblunsky_from_moments": (self.call_recover, self.check_recover),
            "oracle.reconstruct_arc_mass": (self.call_reconstruct, self.check_reconstruct),
            "spectral.support_report": (self.call_support, self.check_support),
            "spectral.truncation_zeros": (self.call_zeros, self.check_zeros),
            "spectral.truncation_zeros_small": (self.call_zeros, self.check_zeros_small),
            "spectral.hessenberg": (self.call_hessenberg, self.check_hessenberg),
        }


def known_defect(op: dict, exc, checks) -> str | None:
    """The KNOWN_DEFECTS id a failed op matches, or None for an unexpected failure."""
    kind = op["kind"]
    if kind.endswith("_nan") and exc is None:
        return "nan-coefficient-accepted"
    if kind in ("szego.pair_evaluate", "szego.schur_sum_eval") and exc is None:
        deg = inputs.overflow_degree(op["seq"], op["n"])
        if deg is not None and any(math.isnan(v) for _, v, _ in checks):
            return "kappa-overflow-nan"
    if kind == "oracle.verblunsky_from_moments" and op["n"] >= 13 and (
            exc is None or type(exc).__name__ == "RankDeficiencyError"):
        return "recovery-conditioning-undetected"
    if kind == "spectral.christoffel_sum" and op["mass"] is not None and op["mass"].imag != 0.0:
        return "christoffel-mass-point-divergence"
    return None


class Runner:
    """Runs decks of one workload and keeps what the harness needs."""

    def __init__(self, workload: str, seed: int, modules: dict):
        self.workload = workload
        self.seed = seed
        self.m = modules
        self.ops = Ops(modules)
        self.calls = self.ops.table()
        self.speed = Speed()
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.decks = 0

    def run_op(self, op: dict, tracer=None) -> None:
        np = self.m["np"]
        self.speed.tick()
        # the traced pass counts numpy floating-point warnings per layer
        errstate = (np.errstate(divide="call", over="call", invalid="call")
                    if tracer is not None else contextlib.nullcontext())
        if op["kind"].startswith("cli."):
            with errstate:
                self._run_cli_op(op, tracer)
            return
        call, check = self.calls.get(op["kind"], (self.ops.call_invalid, None))
        out = exc = None
        fn = call if tracer is None else tracer.span("op." + op["kind"], call)
        with errstate:
            t0 = perf_counter()
            try:
                out = fn(op)
            except Exception as e:  # every exception is an outcome to judge
                exc = e
            elapsed = perf_counter() - t0
        reason, checks = self._judge(op, out, exc, check)
        self._record(op, t0, elapsed, reason, known_defect(op, exc, checks) if reason else None)

    def _judge(self, op, out, exc, check):
        if "expect" in op:
            if exc is None:
                return "invalid input accepted", []
            if type(exc).__name__ != op["expect"]:
                return f"raised {type(exc).__name__}, expected {op['expect']}", []
            return None, []
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"[:200], []
        try:
            checks = check(op, out)
        except Exception as e:  # output of an unexpected shape
            return f"check raised {type(e).__name__}: {e}"[:200], []
        for group, value, _tol in checks:
            if group is not None and math.isfinite(value):
                self.ops.residuals[group] = max(self.ops.residuals.get(group, 0.0), value)
        bad = [(group, value, tol) for group, value, tol in checks if not value <= tol]
        if bad:
            group, value, tol = bad[0]
            return f"{group or 'check'} {value:.3g} > {tol:.3g}", checks
        return None, checks

    def _run_cli_op(self, op, tracer):
        cli = self.m["cli"]
        main = cli.main if tracer is None else tracer.span("op." + op["kind"], cli.main)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = main(op["argv"])
            except Exception as e:  # a traceback is a failed op, as in a fresh process
                code = f"{type(e).__name__}: {e}"
            elapsed = perf_counter() - t0
        reason = cli_cold.check(op, code, out.getvalue(), err.getvalue())
        self._record(op, t0, elapsed, reason, cli_cold.defect(op, code) if reason else None)

    def _record(self, op, t0, elapsed, reason, defect):
        self.attempted += 1
        self.starts.append(t0)
        self.latencies.append(elapsed)
        if reason:
            self.failures.append({"kind": op["kind"], "reason": reason, "defect": defect})

    def run_decks(self, first: int, count: int | None, seconds: float | None, tracer=None):
        """Whole decks from index `first`: `count` of them, or for about `seconds`."""
        self.speed.probe(3)
        start = perf_counter()
        index = first
        while count is None or index - first < count:
            deck_start = perf_counter()
            for op_id, op in enumerate(inputs.deck(self.workload, self.seed, index)):
                if tracer is not None:
                    tracer.op_id = index * 1000 + op_id
                self.run_op(op, tracer)
            index += 1
            self.decks += 1
            if seconds is not None and not inputs.more_decks(start, deck_start, seconds):
                break
        self.speed.probe(3)

    def scaled_latencies(self) -> list[float]:
        """Op latencies at the reference speed (speed.py)."""
        return self.speed.scaled(list(zip(self.starts, self.latencies)))


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------

def traced_pass(workload: str, seed: int, modules: dict, decks: int) -> dict:
    """Each of `decks` decks run once untraced and once traced; per-layer metrics.

    The two runs of a deck follow each other, in alternating order, so that
    the machine's drifting speed cancels from the tracing overhead. The
    JacobiArc ratio cache is emptied before each run, so both start equally
    cold; the entries reported are those the traced runs created.
    """
    import tracing

    np = modules["np"]
    plain = Runner(workload, seed, modules)
    traced = Runner(workload, seed, modules)
    tracer = tracing.Tracer()
    cache_entries = 0
    for index in range(decks):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            _clear_ratio_cache(modules["special"])
            if not with_trace:
                plain.run_decks(index, 1, None)
                continue
            tracer.install(modules)
            old_call = np.seterrcall(tracer.on_fp_error)
            try:
                traced.run_decks(index, 1, None, tracer)
            finally:
                np.seterrcall(old_call)
                tracer.uninstall()
            cache_entries += _ratio_cache_entries(modules["special"])
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    fields = ("id", "parent", "op", "name", "start", "end", "busy", "count")
    path.write_text(json.dumps([dict(zip(fields, s)) for s in tracer.spans]))
    return {
        "summary": tracer.summary(),
        "fp_errors": tracer.fp_errors,
        "residuals": traced.ops.residuals,
        "overhead_pct": 100.0 * (sum(traced.latencies) / sum(plain.latencies) - 1.0),
        "ratio_cache_entries": cache_entries,
        "attempted": traced.attempted,
        "failures": traced.failures,
        "spans": len(tracer.spans),
        "spans_file": str(path.relative_to(OUT_DIR.parent.parent)),
    }


def versions(np) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def _ratio_cache_entries(special) -> int:
    info = getattr(getattr(special, "_monic_ratios", None), "cache_info", None)
    return info().currsize if info else 0


def _clear_ratio_cache(special) -> None:
    clear = getattr(getattr(special, "_monic_ratios", None), "cache_clear", None)
    if clear:
        clear()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--trace-decks", type=int)
    args = p.parse_args(argv)
    modules = setup(args.workload, args.seed)
    emit({"ready": True, "versions": versions(modules["np"])})
    if args.setup_only:
        return 0
    if args.trace_decks is not None:
        emit(traced_pass(args.workload, args.seed, modules, args.trace_decks))
        return 0
    runner = Runner(args.workload, args.seed, modules)
    runner.run_decks(0, None, args.seconds)
    emit({"latencies": runner.scaled_latencies(), "wall_latencies": runner.latencies,
          "speed": runner.speed.relative(), "failures": runner.failures,
          "attempted": runner.attempted, "decks": runner.decks,
          "residuals": runner.ops.residuals,
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
