"""Tests of the benchmark itself: python3 -m pytest benchmark -q (from the repo root).

Quick: each workload runs for one deck, and the traced pass for one deck.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import cli_cold  # noqa: E402
import inproc  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from spec import KNOWN_DEFECTS, SHOULD_MOVE, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_per_layer_metric_names_what_it_should_move():
    assert set(SHOULD_MOVE) == set(LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_reports_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 < result["failed"] < result["attempted"]


def test_quick_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "grid-sweep", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER
    assert result["metrics"]["szego.sweep_abs_phi.busy_s"]["value"] > 0
    assert result["metrics"]["cli.import_ms"]["value"] > result["metrics"][
        "cli.interp_start_ms"]["value"] > 0


@pytest.fixture(scope="module")
def modules():
    return inproc.setup("cli-cold", 1)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_pass_covers_per_layer_metrics(workload, modules):
    traced = inproc.traced_pass(workload, 5, modules, 1)
    probes = {"cli.interp_start_ms": 1.0, "cli.import_ms": 1.0, "cli.scipy_loaded": 1}
    metrics = run.per_layer(traced, probes)
    assert set(metrics) == set(LAYER)
    assert all(math.isfinite(v) for v in metrics.values())
    assert traced["attempted"] == len(inputs.deck(workload, 5, 0))
    assert all(f["defect"] in KNOWN_DEFECTS for f in traced["failures"])


def test_known_defects_show_at_this_commit(modules):
    runner = inproc.Runner("pointwise-deep", 3, modules)
    runner.run_decks(0, 1, None)
    defects = {f["defect"] for f in runner.failures}
    assert {"kappa-overflow-nan", "nan-coefficient-accepted"} <= defects
    op = next(o for o in inputs.deck("cli-cold", 3, 0) if o["kind"] == "cli.invalid-nan")
    code, out, err, _, _ = cli_cold.run_child([sys.executable, "-m", "opuc.cli", *op["argv"]],
                                              run.child_env(), str(ROOT), 60)
    assert cli_cold.check(op, code, out, err) and cli_cold.defect(op, code) == "cli-nan-exit-0"


def _unexpected(runner):
    return [f for f in runner.failures if f["defect"] is None]


def test_nan_result_is_counted(modules, monkeypatch):
    szego = modules["szego"]
    real = szego.evaluate

    def nan_phi(seq, n, z):
        st = real(seq, n, z)
        return szego.SzegoState(st.n, st.z, complex(math.nan), st.phi_star, st.psi,
                                st.psi_star, st.kappa)

    monkeypatch.setattr(szego, "evaluate", nan_phi)
    runner = inproc.Runner("pointwise-deep", 3, modules)
    runner.run_decks(0, 1, None)
    kinds = {f["kind"] for f in _unexpected(runner)}
    assert "szego.evaluate" in kinds


def test_perturbed_coefficient_is_counted(modules, monkeypatch):
    base = modules["core"].ReflectionSequence
    real = base.coeffs

    def perturbed(seq, n):
        values = real(seq, n)
        values[-1] += 1e-6
        return values

    monkeypatch.setattr(base, "coeffs", perturbed)
    runner = inproc.Runner("pointwise-deep", 3, modules)
    runner.run_decks(0, 1, None)
    kinds = {f["kind"] for f in _unexpected(runner)}
    assert {"special.jacobi_arc_coeffs", "spectral.krein_check"} <= kinds


def test_corrupted_cli_output_is_counted():
    op = next(o for o in inputs.deck("cli-cold", 1, 0) if o["kind"] == "cli.eval")
    header = ",".join(cli_cold.CSV_HEADERS["cli.eval"])
    row = ",".join(["0.5"] * 7 + ["nan"])
    assert cli_cold.check(op, 0, "\n".join([header] + [row] * op["rows"]) + "\n", "")
    assert cli_cold.check(op, 2, "", "")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seeds_change_inputs_but_not_the_mix(workload):
    one, two = inputs.deck(workload, 1, 0), inputs.deck(workload, 2, 0)
    # repr, because NaN inputs never compare equal
    assert repr(one) == repr(inputs.deck(workload, 1, 0))
    assert repr(one) != repr(two)
    assert [o["kind"] for o in one] == [o["kind"] for o in two]


def test_speed_scales_each_interval_by_its_nearest_probes():
    probe = speed.Speed()
    # ten probes at the reference cost, then ten at twice it
    probe.times = [float(t) for t in range(20)]
    probe.costs = [speed.REF_S] * 10 + [2.0 * speed.REF_S] * 10
    early, late = probe.scaled([(0.0, 1.0), (18.0, 1.0)])
    assert early == pytest.approx(1.0) and late == pytest.approx(0.5)
    real = speed.Speed()
    real.probe(3)
    assert len(real.costs) == 3 and math.isfinite(real.relative()) and real.relative() > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "grid-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
