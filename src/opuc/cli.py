"""Command-line front door.

Subcommands evaluate the polynomial systems and emit plot-ready CSV or JSON
tables: `eval` (values over an angle grid), `geronimus` (constant-coefficient
measure data and envelope constants), `conditions` (deviation summability
report), `spectrum` (truncation zeros classified against the arc), `krein`
(single-limit-point diagnostics), `example17` (exact arc-measure reflection
coefficients against their asymptotic expansion), `lemma18` (normalized
Jacobi ratio against its expansion), `oracle` (moments, coefficient
recovery, arc-mass reconstruction), and `selftest` (invariant suite).

Angles are radians unless --degrees is given; conversion happens at the
boundary only. Floats are written with 17 significant digits so output is
byte-stable and round-trip safe. Exit codes: 0 success, 1 validation error,
2 numerical-accuracy error.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys
import tempfile
from itertools import islice
from pathlib import Path

# the handlers import the rest: eval, example17, lemma18 and usage errors load no numpy
from . import special, szego
from .core import _parse_complex, parse_sequence
from .errors import (
    DomainError,
    EigenSolverError,
    QuadratureAccuracyError,
    RankDeficiencyError,
)

SCHEMA_VERSION = 1
_RESIDUAL_COLUMNS = ["n", "exact", "expansion", "residual", "n3residual"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv_lines(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, target: str) -> None:
    if target == "-":
        sys.stdout.write(text)
        return
    path = Path(target)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit_json(payload: dict, target: str) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", target)


def _emit_csv_or_json(args, header: list[str], rows: list[list], payload: dict) -> int:
    """The rows as CSV, or the payload as JSON, as --format asks."""
    if args.format == "csv":
        _emit(_csv_lines(header, rows), args.output)
    else:
        _emit_json(payload, args.output)
    return 0


def _emit_table(args, header: list[str], rows: list[list], **meta) -> int:
    """Rows (first column as is, the rest as floats) as CSV, or as JSON with `meta`."""
    rows = [[r[0]] + [float(v) for v in r[1:]] for r in rows]
    return _emit_csv_or_json(args, header, rows,
                             {"command": args.command, **meta, "columns": header, "rows": rows})


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default="-", help="output path, or - for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--degrees", action="store_true",
                   help="interpret angle arguments as degrees")


def _cmd_eval(args) -> int:
    seq = parse_sequence(args.coeffs)
    count = args.theta_grid
    rows = []
    for j in range(count):
        theta = 2.0 * math.pi * j / count
        st = szego.evaluate(seq, args.n, cmath.exp(1j * theta))
        if not all(map(cmath.isfinite, (st.phi, st.phi_star, st.psi))):
            raise DomainError(f"phi_n, phi*_n or psi_n at theta = {_fmt(theta)} is beyond "
                              f"double range at n = {args.n}")
        rows.append([theta, st.phi.real, st.phi.imag, st.phi_star.real, st.phi_star.imag,
                     st.psi.real, st.psi.imag, st.kappa])
    header = ["theta", "re_phi", "im_phi", "re_phistar", "im_phistar", "re_psi", "im_psi", "kappa"]
    return _emit_table(args, header, rows, n=args.n)


def _cmd_geronimus(args) -> int:
    from . import geronimus
    a = _parse_complex(args.a)
    measure = geronimus.mu_a_spec(a)
    rep = geronimus.envelope_check(a, args.nmax, epsilon=args.epsilon,
                                   num_points=args.grid_points)
    rows = []
    arc = measure.support
    for j in range(args.grid_points):
        theta = arc[0] + (arc[1] - arc[0]) * j / (args.grid_points - 1)
        rows.append([theta, measure.density(theta), measure.density_printed(theta)])
    return _emit_csv_or_json(args, ["theta", "density", "density_printed"], rows, {
        "command": "geronimus",
        "a": [a.real, a.imag],
        "alpha": measure.alpha,
        "beta": measure.beta,
        "j_beta": measure.j_beta,
        "j_beta_printed": measure.j_beta_printed,
        "j_beta_squared_denom": measure.j_beta_squared_denom,
        "mass_converged": measure.mass_converged,
        "envelope": dataclasses.asdict(rep),
    })


def _cmd_conditions(args) -> int:
    from . import perturbation
    seq = parse_sequence(args.coeffs)
    rep = perturbation.classify_conditions(seq, _parse_complex(args.a),
                                           _parse_complex(args.tau), args.N)
    names = [c.name for c in rep.checks]
    rows = [[n + 1] + [float(c.partial_sums[n]) for c in rep.checks] for n in range(rep.n_terms)]
    return _emit_csv_or_json(args, ["n"] + names, rows, rep.to_json())


def _cmd_spectrum(args) -> int:
    import numpy as np

    from . import spectral
    seq = parse_sequence(args.coeffs)
    a = _parse_complex(args.a) if args.a is not None else None
    rep = spectral.support_report(seq, a, args.N, tol=args.tol)
    rows = [[z.real, z.imag, float(np.angle(z) % (2 * math.pi)), 1.0 - abs(z)] for z in rep.zeros]
    return _emit_csv_or_json(args, ["re", "im", "arg", "one_minus_abs"], rows, rep.to_json())


def _cmd_krein(args) -> int:
    from . import spectral
    seq = parse_sequence(args.coeffs)
    rep = spectral.krein_check(seq, args.N)
    rows = [[n + 1, p.real, p.imag, abs(p)] for n, p in enumerate(rep.products)]
    return _emit_csv_or_json(args, ["n", "re_product", "im_product", "abs_product"], rows,
                             rep.to_json())


def _cmd_example17(args) -> int:
    alpha = _angle(args.alpha, args.degrees)
    params = special.ArcMeasureParams(alpha, args.gamma, args.delta)
    rows = []
    for n, exact in zip(range(1, args.nmax + 1), special.arc_reflections(params)):
        expansion = special.reflection_expansion(params, n)
        resid = abs(exact - expansion)
        rows.append([n, exact, expansion, resid, n**3 * resid])
    return _emit_table(args, _RESIDUAL_COLUMNS, rows,
                       alpha=alpha, gamma=args.gamma, delta=args.delta)


def _cmd_lemma18(args) -> int:
    params = special.JacobiParams(args.a, args.b)
    rows = []
    checks = islice(special.elliott_ratio_checks(params, args.x), 1, None)
    for n, (exact, expansion) in zip(range(2, args.nmax + 1), checks):
        resid = abs(exact - expansion)
        rows.append([n, exact, expansion, resid, n**3 * resid])
    return _emit_table(args, _RESIDUAL_COLUMNS, rows, a=args.a, b=args.b, x=args.x)


def _cmd_oracle(args) -> int:
    from . import oracle
    if args.mode == "moments":
        measure = oracle.parse_measure(args.measure)
        mom = oracle.trig_moments(measure, args.K)
        rows = [[k, mom.c(k).real, mom.c(k).imag] for k in range(mom.order + 1)]
        return _emit_csv_or_json(args, ["k", "re", "im"], rows, {
            "command": "oracle-moments", "measure": args.measure,
            "moments": [[r[0], float(r[1]), float(r[2])] for r in rows]})
    if args.mode == "recover":
        if args.moments is not None:
            mom = oracle.read_moments_csv(args.moments)
        else:
            measure = oracle.parse_measure(args.measure)
            mom = oracle.trig_moments(measure, max(args.n, args.K))
        rec = oracle.verblunsky_from_moments(mom, args.n)
        rows = [[k + 1, c.real, c.imag, rec.kappas[k]] for k, c in enumerate(rec.coefficients)]
        return _emit_csv_or_json(args, ["n", "re", "im", "kappa"], rows, {
            "command": "oracle-recover",
            "coefficients": [[r[0], float(r[1]), float(r[2]), float(r[3])] for r in rows]})
    # reconstruct
    seq = parse_sequence(args.coeffs)
    lo = _angle(args.theta1, args.degrees)
    hi = _angle(args.theta2, args.degrees)
    estimate = oracle.reconstruct_arc_mass(seq, (lo, hi), args.n)
    return _emit_csv_or_json(args, ["theta1", "theta2", "n", "mass"], [[lo, hi, args.n, estimate]],
                             {"command": "oracle-reconstruct", "theta1": lo, "theta2": hi,
                              "n": args.n, "mass": estimate})


def _cmd_selftest(args) -> int:
    from . import selftest
    ok = selftest.run_all(lambda line: print(line))
    return 0 if ok else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="opuc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="polynomial values over an evenly spaced angle grid")
    p.add_argument("--coeffs", required=True, help="coefficient spec, e.g. const:0.5")
    p.add_argument("--n", type=int, required=True, help="degree")
    p.add_argument("--theta-grid", type=int, default=64, help="number of grid angles")
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("geronimus", help="constant-coefficient measure and envelope data")
    p.add_argument("--a", required=True, help="coefficient re[,im]")
    p.add_argument("--nmax", type=int, default=500)
    p.add_argument("--epsilon", type=float, default=0.0, help="arc inset for the sweep")
    p.add_argument("--grid-points", type=int, default=64)
    _add_common(p)
    p.set_defaults(func=_cmd_geronimus)

    p = sub.add_parser("conditions", help="deviation summability report")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--a", required=True, help="comparison coefficient re[,im]")
    p.add_argument("--tau", default="1", help="rotation re[,im] on the unit circle")
    p.add_argument("--N", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=_cmd_conditions)

    p = sub.add_parser("spectrum", help="truncation zeros classified against the arc")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--N", type=int, required=True, help="truncation dimension")
    p.add_argument("--a", default=None, help="comparison coefficient (default: last coefficient)")
    p.add_argument("--tol", type=float, default=0.05, help="argument tolerance for outliers")
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("krein", help="single-limit-point diagnostics")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--N", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_krein)

    p = sub.add_parser("example17",
                       help="exact arc-measure coefficients against the asymptotic expansion")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--nmax", type=int, default=400)
    _add_common(p)
    p.set_defaults(func=_cmd_example17)

    p = sub.add_parser("lemma18", help="Jacobi ratio asymptotics residual table")
    p.add_argument("--a", type=float, required=True, help="first Jacobi exponent")
    p.add_argument("--b", type=float, required=True, help="second Jacobi exponent")
    p.add_argument("--x", type=float, required=True, help="evaluation point > 1")
    p.add_argument("--nmax", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=_cmd_lemma18)

    p = sub.add_parser("oracle", help="measure-side ground truth")
    p.add_argument("--mode", choices=("moments", "recover", "reconstruct"), required=True)
    p.add_argument("--measure", default=None,
                   help="measure spec: lebesgue | point:theta=V | geronimus:a=.. | "
                        "arc-jacobi:alpha=..,gamma=..,delta=..")
    p.add_argument("--moments", default=None, help="moments CSV (recover mode)")
    p.add_argument("--K", type=int, default=10, help="moment order")
    p.add_argument("--n", type=int, default=8, help="recovery order / reconstruction degree")
    p.add_argument("--coeffs", default=None, help="coefficient spec (reconstruct mode)")
    p.add_argument("--theta1", type=float, default=None)
    p.add_argument("--theta2", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("selftest", help="run the invariant suite")
    _add_common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


# the least value of each size option that gives a table at least one row long
_LEAST = {("eval", "theta_grid"): 1, ("geronimus", "grid_points"): 2,
          ("example17", "nmax"): 1, ("lemma18", "nmax"): 2}


def _validate(args) -> None:
    for (command, option), least in _LEAST.items():
        if args.command == command and getattr(args, option) < least:
            raise _UsageError(f"--{option.replace('_', '-')} must be at least {least}")
    if args.command == "oracle":
        if args.mode in ("moments",) and args.measure is None:
            raise _UsageError("oracle --mode moments needs --measure")
        if args.mode == "recover" and args.measure is None and args.moments is None:
            raise _UsageError("oracle --mode recover needs --measure or --moments")
        if args.mode == "reconstruct":
            if args.coeffs is None or args.theta1 is None or args.theta2 is None:
                raise _UsageError("oracle --mode reconstruct needs --coeffs, --theta1, --theta2")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureAccuracyError, RankDeficiencyError, EigenSolverError) as exc:
        print(f"numerical accuracy error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
