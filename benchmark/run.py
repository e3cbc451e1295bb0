"""Benchmark for the opuc library and CLI.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: cli-cold, grid-sweep, pointwise-deep,
measure-side (BENCHMARK.json says why each exists). The
library is driven only through its public functions and `python -m
opuc.cli` with `src` on PYTHONPATH; that is the entry point the `opuc`
console script wraps, used because the package need not be installed.

Every workload is a closed loop with one caller: the next op starts when the
previous one has finished and its output has been checked. A run executes
whole decks (a fixed mix of ops, parameters drawn from the seed) until
--seconds have passed. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced pass over a fixed number of decks. Earlier stdout lines are
a readable report and a JSON environment record.

Every timing in the result (set-up, op latencies and the throughput derived
from them) is scaled to a reference machine speed by probes interleaved
with the ops (speed.py), because the shared machines this runs on drift
in speed by tens of percent over minutes; the report line carries the raw
wall-clock figures and the measured speed beside them.

BLAS runs with one thread (OPENBLAS_NUM_THREADS=1 and friends), so the load
comes from one process on one core. Exit code 2 means the benchmark could
not run (for example, no `src/opuc` next to it); no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import cli_cold
import inputs
from speed import Speed
from spec import KNOWN_DEFECTS, SHOULD_MOVE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0          # the whole run must end within 180 s
OP_TIMEOUT_S = 60.0
SETUP_SAMPLES = 5           # fresh processes timed from spawn to ready
INTERP_SAMPLES = 5
IMPORT_SAMPLES = 3
BLAS_THREADS = "1"
# decks in the traced run, each run once untraced and once traced: about
# five seconds of traced work on a 2-core 2.1 GHz x86 virtual machine
TRACE_DECKS = {"cli-cold": 4, "grid-sweep": 5, "pointwise-deep": 8, "measure-side": 5}
LAYERS = ("cli", "core", "special", "szego", "geronimus", "perturbation", "spectral", "oracle")
BUSY_SPANS = (
    "szego.sweep_abs_phi", "szego.evaluate", "szego.pair_evaluate", "szego.schur_sum_eval",
    "core.coeffs", "special.jacobi_arc_coeffs", "geronimus.envelope_check",
    "geronimus.closed_eval", "geronimus.mu_a_spec", "perturbation.sup_envelope",
    "perturbation.s_n_bound", "perturbation.kappa_limit", "perturbation.classify_conditions",
    "spectral.hessenberg", "spectral.truncation_zeros", "spectral.support_report",
    "spectral.christoffel_sum", "spectral.krein_check", "oracle.trig_moments",
    "oracle.verblunsky_from_moments", "oracle.reconstruct_arc_mass", "oracle.mu_prime_floor",
)
RESIDUALS = (
    "szego.max_route_residual", "szego.max_wronskian_residual",
    "geronimus.max_closed_form_residual", "spectral.max_column_unit_defect",
    "spectral.max_zero_route_distance", "oracle.max_recovery_error",
    "oracle.max_reconstruct_error",
)


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Worker:
    """An inproc.py child: the first stdout line marks the end of its set-up."""

    def __init__(self, env: dict, workload: str, seed: int, *mode: str):
        cmd = [sys.executable, str(BENCH / "inproc.py"), "--workload", workload,
               "--seed", str(seed), *mode]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        self.killer = threading.Timer(max(1.0, DEADLINE_S - _elapsed()), self.proc.kill)
        self.killer.start()

    def ready(self) -> float:
        line = self.proc.stdout.readline()
        setup = time.perf_counter() - self.start
        ready = json.loads(line or "{}")
        if ready.get("ready") is not True:
            self.finish()
            raise BenchError("worker failed during set-up")
        self.versions = ready["versions"]
        return setup

    def finish(self) -> dict | None:
        """Wait for the worker; its last stdout line, parsed, if it printed one."""
        try:
            lines = self.proc.stdout.read().decode().splitlines()
        finally:
            self.proc.stdout.close()
            code = self.proc.wait()
            self.killer.cancel()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        return json.loads(lines[-1]) if lines else None

    def result(self) -> dict:
        out = self.finish()
        if out is None:
            raise BenchError("worker printed no result")
        return out


_T0 = time.perf_counter()


def _elapsed() -> float:
    return time.perf_counter() - _T0


def setup_samples(env: dict, workload: str, seed: int, count: int,
                  speed: Speed) -> tuple[list[tuple[float, float]], dict]:
    """`count` fresh workers timed from spawn to ready: (start, seconds) each."""
    samples = []
    for _ in range(count):
        speed.probe(5)
        worker = Worker(env, workload, seed, "--setup-only")
        samples.append((worker.start, worker.ready()))
        worker.finish()
    speed.probe(5)
    return samples, worker.versions


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def run_cli_cold(env: dict, seed: int, seconds: float, speed: Speed) -> dict:
    """Fresh `python -m opuc.cli` processes, one at a time, whole decks."""
    intervals, failures = [], []
    peak = 0.0
    start = time.perf_counter()
    index = 0
    more = True
    while more:
        deck_start = time.perf_counter()
        for op in inputs.deck("cli-cold", seed, index):
            if _elapsed() > DEADLINE_S:
                raise BenchError("run exceeded its deadline")
            speed.probe(3)
            t0 = time.perf_counter()
            code, out, err, wall, rss = cli_cold.run_child(
                [sys.executable, "-m", "opuc.cli", *op["argv"]], env, str(ROOT), OP_TIMEOUT_S)
            intervals.append((t0, wall))
            peak = max(peak, rss)
            reason = cli_cold.check(op, code, out, err)
            if reason:
                failures.append({"kind": op["kind"], "reason": reason,
                                 "defect": cli_cold.defect(op, code)})
        index += 1
        more = inputs.more_decks(start, deck_start, seconds)
    speed.probe(3)
    return {"latencies": speed.scaled(intervals), "wall_latencies": [w for _, w in intervals],
            "speed": speed.relative(), "failures": failures, "attempted": len(intervals),
            "decks": index, "peak_rss_mb": peak, "residuals": {}}


def end_to_end(records: dict, setup: list[float]) -> dict:
    lat_ms = sorted(1000.0 * x for x in records["latencies"])
    attempted = records["attempted"]
    failed = len(records["failures"])
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "throughput_ops_s": (attempted - failed) / (sum(lat_ms) / 1000.0),
        "error_rate": failed / attempted,
        "peak_rss_mb": records["peak_rss_mb"],
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def cli_probes(env: dict) -> dict:
    """Interpreter floor, opuc.cli import time and whether that import loads scipy."""
    interp = []
    for _ in range(INTERP_SAMPLES):
        code, _, _, wall, _ = cli_cold.run_child([sys.executable, "-c", "pass"], env,
                                                 str(ROOT), OP_TIMEOUT_S)
        interp.append(wall)
    probe = ("import sys, time; t = time.perf_counter(); import opuc.cli; "
             "print(time.perf_counter() - t, int('scipy' in sys.modules))")
    imports, scipy_loaded = [], 0
    for _ in range(IMPORT_SAMPLES):
        code, out, err, _, _ = cli_cold.run_child([sys.executable, "-c", probe], env,
                                                  str(ROOT), OP_TIMEOUT_S)
        if code != 0:
            raise BenchError(f"import probe failed: {err.strip()[-200:]}")
        seconds, loaded = out.split()
        imports.append(float(seconds))
        scipy_loaded = int(loaded)
    return {"cli.interp_start_ms": 1000.0 * statistics.median(interp),
            "cli.import_ms": 1000.0 * statistics.median(imports),
            "cli.scipy_loaded": scipy_loaded}


def per_layer(traced: dict, probes: dict) -> dict:
    summary = traced["summary"]

    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "count": 0})

    def per(name, scale):
        r = row(name)
        return r["self_s"] / r["count"] * scale if r["count"] else 0.0

    handler = row("cli.main")
    metrics = dict(probes)
    metrics["cli.handler_ms"] = (1000.0 * handler["busy_s"] / handler["calls"]
                                 if handler["calls"] else 0.0)
    for name in BUSY_SPANS:
        metrics[f"{name}.busy_s"] = row(name)["self_s"]
    metrics["szego.point_steps"] = row("szego.sweep_abs_phi")["count"]
    metrics["szego.ns_per_point_step"] = per("szego.sweep_abs_phi", 1e9)
    metrics["szego.evaluate.calls"] = row("szego.evaluate")["calls"]
    metrics["szego.ns_per_step"] = per("szego.evaluate", 1e9)
    metrics["core.ns_per_coeff"] = per("core.coeffs", 1e9)
    metrics["special.us_per_coeff"] = per("special.jacobi_arc_coeffs", 1e6)
    metrics["special.ratio_cache_entries"] = traced["ratio_cache_entries"]
    metrics["spectral.eig_dim_sum"] = row("spectral.truncation_zeros")["count"]
    metrics["oracle.moments_computed"] = row("oracle.trig_moments")["count"]
    for name in RESIDUALS:
        metrics[name] = traced["residuals"].get(name, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.fp_warnings"] = traced["fp_errors"].get(layer, 0)
    metrics["trace.overhead_pct"] = traced["overhead_pct"]
    return metrics


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def environment(workload: str, seed: int, versions: dict, why: str) -> dict:
    return {
        "workload": workload, "why": why, "seed": seed,
        "nproc": os.cpu_count(), "python": platform.python_version(), **versions,
        "blas_threads": BLAS_THREADS, "load": "one process, closed loop, one caller",
        "cli_entry": "python -m opuc.cli with src on PYTHONPATH (what the opuc script wraps)",
    }


def failure_causes(failures: list[dict]) -> dict:
    causes: dict[str, int] = {}
    for f in failures:
        key = f"{f['kind']}: {f['defect'] or 'UNEXPECTED ' + f['reason']}"
        causes[key] = causes.get(key, 0) + 1
    return causes




def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "opuc" / "__init__.py").is_file():
        raise BenchError(f"no opuc sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    env = child_env()
    # compile bytecode once so no timed process pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "opuc"), str(BENCH)],
                   env=env, cwd=ROOT, check=True, capture_output=True, timeout=OP_TIMEOUT_S)
    report = {}
    if trace:
        probes = cli_probes(env)
        worker = Worker(env, workload, seed, "--trace-decks", str(TRACE_DECKS[workload]))
        worker.ready()
        versions = worker.versions
        traced = worker.result()
        metrics = per_layer(traced, probes)
        failures, attempted = traced["failures"], traced["attempted"]
        report["trace"] = {"spans": traced["spans"], "spans_file": traced["spans_file"],
                           "decks": TRACE_DECKS[workload], "should_move": SHOULD_MOVE}
    else:
        speed = Speed()
        if workload == "cli-cold":
            samples, versions = setup_samples(env, workload, seed, SETUP_SAMPLES, speed)
            records = run_cli_cold(env, seed, seconds, speed)
        else:
            samples, versions = setup_samples(env, workload, seed, SETUP_SAMPLES - 1, speed)
            worker = Worker(env, workload, seed, "--seconds", str(seconds))
            samples.append((worker.start, worker.ready()))
            records = worker.result()
        setup = speed.scaled(samples)
        metrics = end_to_end(records, setup)
        wall = end_to_end({**records, "latencies": records["wall_latencies"]},
                          [sec for _, sec in samples])
        failures, attempted = records["failures"], records["attempted"]
        report["run"] = {"ops": attempted, "decks": records["decks"],
                         "latency_samples": len(records["latencies"]),
                         "samples_beyond_p90": sum(1 for x in records["latencies"]
                                                   if 1000.0 * x > metrics["latency_p90_ms"]),
                         "setup_samples_s": setup, "residuals": records["residuals"],
                         "speed": {"harness": speed.relative(), "worker": records["speed"]},
                         "wall": {k: wall[k] for k in ("setup_s", "latency_p50_ms",
                                                       "latency_p90_ms", "throughput_ops_s")}}
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    report["environment"] = environment(workload, seed, versions, why)
    report["failures"] = failure_causes(failures)
    report["known_defects"] = {k: v for k, v in KNOWN_DEFECTS.items()
                               if any(f["defect"] == k for f in failures)}
    return {
        "report": report,
        "result": {
            "correct": attempted > 0 and all(f["defect"] for f in failures),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, m in out["result"]["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for cause, count in out["report"]["failures"].items():
        print(f"failed x{count}: {cause}")
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
