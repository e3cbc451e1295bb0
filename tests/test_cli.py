import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from opuc import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_csv_contract(capsys):
    code, out, _ = run(capsys, "eval", "--coeffs", "const:0.5", "--n", "10",
                       "--theta-grid", "64", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,re_phi,im_phi,re_phistar,im_phistar,re_psi,im_psi,kappa"
    assert len(lines) == 65
    first = lines[1].split(",")
    # phi_10(1) = 3^5 for the a = 0.5 system
    assert float(first[1]) == pytest.approx(243.0, rel=1e-12)


def test_eval_deterministic(capsys):
    _, out1, _ = run(capsys, "eval", "--coeffs", "zhedanov:q=0.5", "--n", "7",
                     "--theta-grid", "16")
    _, out2, _ = run(capsys, "eval", "--coeffs", "zhedanov:q=0.5", "--n", "7",
                     "--theta-grid", "16")
    assert out1 == out2


def test_eval_to_file_atomic(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _, _ = run(capsys, "eval", "--coeffs", "const:0.5", "--n", "3",
                     "--theta-grid", "4", "--output", str(target))
    assert code == 0
    assert target.read_text().startswith("theta,")
    assert not list(tmp_path.glob("*.tmp"))


def test_eval_beyond_double_range_exits_one(capsys):
    # phi_2000 at theta = 0 is off the arc of a = 0.5 and overflows to NaN
    code, out, err = run(capsys, "eval", "--coeffs", "const:0.5", "--n", "2000",
                         "--theta-grid", "8")
    assert code == 1 and not out
    assert "theta = 0 " in err and "n = 2000" in err


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--coeffs", "zhedanov:q=0.5", "--N", "60",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert len(payload["zeros"]) == 60
    # zero arguments cluster at the accumulation point of the coefficients
    args = [math.atan2(im, re) % (2 * math.pi) for re, im in payload["zeros"]]
    near_pi = sum(1 for t in args if abs(t - math.pi) < 0.5)
    assert near_pi / 60 > 0.8


def test_conditions_json_fields(capsys):
    code, out, _ = run(capsys, "conditions", "--coeffs",
                       "perturbed:a=0.5,amp=1,p=3,sign=plain", "--a", "0.5",
                       "--N", "200", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = {c["condition"] for c in payload["checks"]}
    assert names == {"absolute", "log_weighted", "linear_weighted_lognorm", "linear_weighted"}
    for c in payload["checks"]:
        assert c["verdict"] in ("holds", "fails", "inconclusive")
        assert len(c["partial_sum"]) == 200


def test_krein_json(capsys):
    code, out, _ = run(capsys, "krein", "--coeffs", "zhedanov:q=0.5", "--N", "40",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["vi_holds"] is True
    assert payload["tau_estimate"][0] == pytest.approx(-1.0, abs=1e-6)


def test_example17_csv(capsys):
    code, out, _ = run(capsys, "example17", "--alpha", "1.5707963", "--gamma", "0.3",
                       "--delta", "0.7", "--nmax", "120")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,exact,expansion,residual,n3residual"
    assert len(lines) == 121
    tail_resid = [float(line.split(",")[4]) for line in lines[60:]]
    assert max(tail_resid) < 1.0


def test_example17_output_unchanged(capsys):
    # SHA-256 of the output of the per-index coefficient formula that the one
    # forward ratio pass replaced
    argv = ("example17", "--alpha", "2.2", "--gamma", "0.6", "--delta", "-0.3",
            "--nmax", "1500")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.split("\n")
    assert lines[1] == ("1,0.92614122617403649,0.91713765388791602,"
                        "0.0090035722861204759,0.0090035722861204759")
    assert lines[1500] == ("1500,0.89118679675603119,0.89118679676247869,"
                           "6.4475091932081341e-12,0.021760343527077453")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "55b64b0714ed436879d0e2b102f8786af3601cbc18499052964745829bb3f150")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1c89fa5ac25a58d72711d920754aaaea90c7f521469ab7c126b9360aba2a26b7")


def test_lemma18_csv(capsys):
    code, out, _ = run(capsys, "lemma18", "--a", "0.3", "--b", "0.7", "--x", "1.8",
                       "--nmax", "60")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,exact,expansion,residual,n3residual"
    assert max(float(line.split(",")[4]) for line in lines[20:]) < 1.0


def test_lemma18_output_unchanged(capsys):
    # SHA-256 of the output of the per-n ratio recurrence that the one pass
    # replaced
    argv = ("lemma18", "--a", "0.3", "--b", "-0.6", "--x", "1.05", "--nmax", "1500")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.split("\n")[1] == ("2,0.36825003702317788,0.32204406872108249,"
                                  "0.04620596830209539,0.36964774641676312")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "189b2a9b2973ab334c5d748787388c6e7b715ec231329300532338f5da338ed1")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2fd2751773f3d90ec2f5e23b14a8d99b54cc73c5e82d8dab9e7f19a5f9002ede")


def test_example17_at_the_removable_singularity(capsys):
    # gamma + delta/2 = -1/2 makes the m = 0 ratio factor 0/0
    code, out, _ = run(capsys, "example17", "--alpha", "1", "--gamma", "-0.25",
                       "--delta", "-0.5", "--nmax", "4")
    assert code == 0
    assert out.split("\n")[1].startswith("1,0.61492442353296")


def test_oracle_moments_and_recover_roundtrip(tmp_path, capsys):
    path = tmp_path / "moments.csv"
    code, _, _ = run(capsys, "oracle", "--mode", "moments", "--measure", "geronimus:a=0.5",
                     "--K", "9", "--output", str(path))
    assert code == 0
    assert path.read_text().startswith("k,re,im")
    code, out, _ = run(capsys, "oracle", "--mode", "recover", "--moments", str(path),
                       "--n", "8")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    for row in rows:
        assert float(row.split(",")[1]) == pytest.approx(0.5, abs=1e-6)


def test_oracle_recover_rejects_unnormalized_moments(tmp_path, capsys):
    # recovery assumes c_0 = 1, so a file with c_0 = 2 is refused, not misread
    path = tmp_path / "moments.csv"
    run(capsys, "oracle", "--mode", "moments", "--measure", "geronimus:a=0.5",
        "--K", "2", "--output", str(path))
    lines = path.read_text().split("\n")
    assert lines[1] == "0,1,0"
    path.write_text("\n".join([lines[0], "0,2,0"] + lines[2:]))
    code, out, err = run(capsys, "oracle", "--mode", "recover", "--moments", str(path),
                         "--n", "2")
    assert code == 1 and err and not out


def test_oracle_reconstruct_json(capsys):
    code, out, _ = run(capsys, "oracle", "--mode", "reconstruct", "--coeffs", "const:0.0",
                       "--theta1", "1.0", "--theta2", "2.5", "--n", "5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mass"] == pytest.approx(1.5 / (2 * math.pi), abs=1e-9)


def test_degrees_flag_converts_angles(capsys):
    code, out, _ = run(capsys, "oracle", "--mode", "reconstruct", "--coeffs", "const:0.0",
                       "--theta1", "0", "--theta2", "180", "--n", "3",
                       "--degrees", "--format", "json")
    assert code == 0
    assert json.loads(out)["mass"] == pytest.approx(0.5, abs=1e-9)


def test_geronimus_json_reports_both_mass_values(capsys):
    code, out, _ = run(capsys, "geronimus", "--a", "-0.5", "--nmax", "60",
                       "--epsilon", "0.2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["j_beta"] == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert payload["j_beta_printed"] == pytest.approx(1.0, abs=1e-12)
    # away from the endpoints the sup stalls; on the full closed arc it grows
    # linearly at the endpoints by design of the min(n, v) envelope
    assert payload["envelope"]["growth_ok"] is True


def test_validation_errors_exit_one(capsys):
    assert run(capsys, "eval", "--coeffs", "nonsense:1", "--n", "3")[0] == 1
    assert run(capsys, "eval", "--coeffs", "const:0.5")[0] == 1  # missing --n
    assert run(capsys, "oracle", "--mode", "reconstruct", "--coeffs", "const:0.5")[0] == 1
    code, _, err = run(capsys, "conditions", "--coeffs", "const:0.5", "--a", "0.5",
                       "--tau", "0.5")
    assert code == 1 and err


@pytest.mark.parametrize("spec", ["const:nan", "const:0.5,nan"])
def test_nan_coefficients_exit_one(capsys, spec):
    code, out, err = run(capsys, "eval", "--coeffs", spec, "--n", "10")
    assert code == 1 and err and not out


def test_nan_point_measure_exit_one(capsys):
    code, out, err = run(capsys, "oracle", "--mode", "moments", "--measure",
                         "point:theta=nan", "--K", "2")
    assert code == 1 and err and not out


@pytest.mark.parametrize("theta1,theta2", [("-inf", "1"), ("0", "inf"), ("nan", "1"),
                                           ("0", "1e6")])
def test_reconstruct_bad_subarc_exits_one(capsys, theta1, theta2):
    code, out, err = run(capsys, "oracle", "--mode", "reconstruct", "--coeffs", "const:0.5",
                         f"--theta1={theta1}", f"--theta2={theta2}", "--n", "10")
    assert code == 1 and err and not out


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("ok") for line in lines)
    assert len(lines) >= 15


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_geronimus_nonpositive_nmax_exits_one(capsys, nmax):
    code, out, err = run(capsys, "geronimus", "--a", "0.5", "--nmax", nmax, "--format", "json")
    assert code == 1 and err and not out


@pytest.mark.parametrize("argv", [
    ("eval", "--coeffs", "const:0.5", "--n", "3", "--theta-grid", "0"),
    ("eval", "--coeffs", "const:0.5", "--n", "3", "--theta-grid", "-2"),
    ("example17", "--alpha", "1.0", "--gamma", "0.3", "--delta", "0.7", "--nmax", "0"),
    ("example17", "--alpha", "1.0", "--gamma", "0.3", "--delta", "0.7", "--nmax", "-1"),
    ("lemma18", "--a", "0.5", "--b", "1.5", "--x", "2.0", "--nmax", "1"),
    ("geronimus", "--a", "0.5", "--grid-points", "1"),
])
def test_empty_table_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and "must be at least" in err and not out


@pytest.mark.parametrize("a", [(), ("--a", "0.5")], ids=["default-a", "given-a"])
def test_spectrum_small_dimension_names_the_dimension(capsys, a):
    code, out, err = run(capsys, "spectrum", "--coeffs", "const:0.5", "--N", "0", *a)
    assert code == 1 and not out
    assert "support classification needs dimension >= 20, got 0" in err


@pytest.mark.parametrize("argv", [
    ("geronimus", "--a", "0.5,0.1,9"),
    ("oracle", "--mode", "moments", "--measure", "geronimus:a=0.5,0.1,9", "--K", "2"),
    ("conditions", "--coeffs", "const:0.5", "--a", "0.5", "--tau", "1,0,9", "--N", "10"),
    ("spectrum", "--coeffs", "const:0.5", "--N", "30", "--a", "0.5,0,9"),
])
def test_three_part_complex_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and err and not out


@pytest.mark.parametrize("a", ["nan", "1.5"])
def test_conditions_bad_a_exits_one(capsys, a):
    code, out, err = run(capsys, "conditions", "--coeffs", "const:0.5", "--a", a, "--N", "10")
    assert code == 1 and err and not out


def test_eigensolver_failure_exits_two(capsys, monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    code, out, err = run(capsys, "spectrum", "--coeffs", "const:0.5", "--N", "30")
    assert code == 2 and "eigensolver failed" in err and not out


def test_scipy_stays_off_the_import_path(tmp_path):
    # one fresh interpreter (pytest has numpy loaded): eval, example17,
    # lemma18 and usage errors load no numpy, and no subcommand loads scipy
    script = """
import contextlib, io, sys
import opuc
from opuc import cli
assert "numpy" not in sys.modules and "scipy" not in sys.modules
def main(*argv, code=0):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == code, argv
main("eval", "--coeffs", "const:0.5", "--n", "20", "--theta-grid", "8")
main("example17", "--alpha", "1.0", "--gamma", "0.3", "--delta", "0.7", "--nmax", "20")
main("lemma18", "--a", "0.5", "--b", "1.5", "--x", "2.0", "--nmax", "20")
main("eval", "--coeffs", "const:nan", "--n", "10", "--theta-grid", "8", code=1)
main("spectrum", "--coeffs", "const:0.5", code=1)  # --N missing
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
main("geronimus", "--a", "0.5", "--nmax", "50", "--grid-points", "8")
main("conditions", "--coeffs", "const:0.5", "--a", "0.5", "--N", "20")
main("krein", "--coeffs", "const:0.5", "--N", "20")
main("spectrum", "--coeffs", "const:0.5", "--N", "20")
main("oracle", "--mode", "reconstruct", "--coeffs", "const:0.5", "--theta1", "2",
     "--theta2", "4", "--n", "10")
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
main("oracle", "--mode", "moments", "--measure", "geronimus:a=0.5", "--K", "4")
main("oracle", "--mode", "recover", "--measure", "geronimus:a=0.5", "--n", "3", "--K", "4")
main("selftest")
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
assert "scipy.integrate" not in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
