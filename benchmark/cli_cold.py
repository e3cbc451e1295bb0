"""Child processes for the benchmark, and the checks on `opuc` CLI output.

Standard library only: the harness that imports this module must not pay
for numpy or opuc itself.
"""

from __future__ import annotations

import math
import os
import subprocess
import threading
import time

from spec import RECOVERY_TOL, ROUTE_TOL

_TABLE = ["n", "exact", "expansion", "residual", "n3residual"]
CSV_HEADERS = {
    "cli.eval": ["theta", "re_phi", "im_phi", "re_phistar", "im_phistar", "re_psi", "im_psi",
                 "kappa"],
    "cli.geronimus": ["theta", "density", "density_printed"],
    "cli.conditions": ["n", "absolute", "log_weighted", "linear_weighted_lognorm",
                       "linear_weighted"],
    "cli.spectrum": ["re", "im", "arg", "one_minus_abs"],
    "cli.krein": ["n", "re_product", "im_product", "abs_product"],
    "cli.example17": _TABLE,
    "cli.lemma18": _TABLE,
    "cli.oracle-moments": ["k", "re", "im"],
    "cli.oracle-recover": ["n", "re", "im", "kappa"],
    "cli.oracle-reconstruct": ["theta1", "theta2", "n", "mass"],
}


def run_child(cmd: list[str], env: dict, cwd: str, timeout: float):
    """Run one child to completion.

    Returns (exit code, stdout, stderr, wall seconds, peak RSS in MB). The
    child is reaped with wait4 so its own peak RSS is known; it is killed if
    it outlives `timeout`.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode(errors="replace"), b"".join(err).decode(errors="replace"),
            elapsed, usage.ru_maxrss / 1024.0)


def check(op: dict, code: int, out: str, err: str) -> str | None:
    """Failure reason for one CLI op, or None when its output is right."""
    expect = op.get("expect_exit", 0)
    if code != expect:
        return f"exit code {code}, expected {expect}"
    if expect:
        return None if err.startswith("error:") else "no error message on stderr"
    lines = out.splitlines()
    if op["kind"] == "cli.selftest":
        bad = [line for line in lines if not line.startswith("ok ")]
        return None if lines and not bad else f"selftest line {bad[:1]}"
    header = CSV_HEADERS[op["kind"]]
    if not lines or lines[0].split(",") != header:
        return f"header {lines[:1]}, expected {','.join(header)}"
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            return f"row with {len(cells)} columns"
        try:
            row = [float(c) for c in cells]
        except ValueError:
            return f"unparsable row {line[:60]!r}"
        if not all(math.isfinite(v) for v in row):
            return f"non-finite value in row {line[:60]!r}"
        rows.append(row)
    if len(rows) != op["rows"]:
        return f"{len(rows)} rows, expected {op['rows']}"
    if op["kind"] == "cli.oracle-recover":
        worst = max(abs(complex(r[1], r[2]) - op["a"]) for r in rows)
        if not worst <= RECOVERY_TOL:
            return f"recovery error {worst:.3g}"
    if op["kind"] == "cli.oracle-reconstruct" and not 0.0 <= rows[0][3] <= 1.0:
        return f"arc mass {rows[0][3]} outside [0, 1]"
    if op["kind"] == "cli.spectrum" and not all(r[3] >= -ROUTE_TOL for r in rows):
        return "a truncation zero outside the unit circle"
    return None


def defect(op: dict, code: int) -> str | None:
    """Known-defect id for a failed CLI op."""
    if op["kind"] == "cli.invalid-nan" and code == 0:
        return "cli-nan-exit-0"
    return None
