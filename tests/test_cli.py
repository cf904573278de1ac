import argparse
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from sphere2gauss import __version__
from sphere2gauss.cli import build_parser, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_converge_closed_exact_row(capsys):
    code, out, _ = _run(capsys, "converge-closed", "--n", "2", "--alpha", "1",
                        "--kmax", "3", "--N", "101")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[2]["k"] == "2"
    assert rows[2]["abs_err"] == "1/25"
    assert rows[1]["lhs"] == "101/100"


def test_cap_eigen_hemisphere(capsys):
    code, out, _ = _run(capsys, "cap-eigen", "--N", "7", "--a", "1",
                        "--theta", "1.5707963", "--tol", "1e-8")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert abs(float(row["lambda"]) - 7.0) < 1e-5  # theta is only approximately pi/2
    assert float(row["residual"]) < 1e-8


def test_cap_eigen_refuses_bad_residual(capsys):
    code, out, err = _run(capsys, "cap-eigen", "--N", "5", "--a", "1",
                          "--theta", "0.1", "--tol", "1e-20")
    assert code == 1
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["lambda"] == ""
    assert "residual" in row["error"]
    assert err == f"error: {row['error']}\n"


def test_usage_error_exit_2(capsys):
    code, _, _ = _run(capsys, "nu", "--badflag")
    assert code == 2


def test_solver_error_exit_1(capsys):
    code, out, err = _run(capsys, "halfspace-eigen", "--alpha", "1", "--R", "0",
                          "--j", "4", "--tol", "1e-12")
    # a too-tight tolerance fails either in the solver or at the residual
    # gate (an error record in the table); both are exit 1 with one error line
    if code != 0:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1


def test_json_structure_and_determinism(capsys):
    args = ("halfspace-eigen", "--alpha", "1", "--R", "0", "--j", "1",
            "--format", "json")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"meta", "rows"}
    assert payload["meta"]["command"] == "halfspace-eigen"
    assert abs(float(payload["rows"][0]["lambda"]) - 1.0) < 1e-8


def test_closed_spectrum_sphere_and_gauss(capsys):
    code, out, _ = _run(capsys, "closed-spectrum", "--space", "sphere",
                        "--N", "2", "--a", "1", "--kmax", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["multiplicity"] for r in rows] == ["1", "3", "5"]
    assert rows[2]["lambda"] == "6"

    code, out, _ = _run(capsys, "closed-spectrum", "--space", "gauss",
                        "--n", "3", "--alpha", "2", "--kmax", "2")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[1]["lambda"] == "1/4"
    assert rows[2]["multiplicity"] == "6"


def test_dump_poly(capsys):
    code, out, _ = _run(capsys, "dump-poly", "--which", "P", "--N", "5",
                        "--K", "2", "0")
    assert code == 0
    assert out.strip() == "1 * x1^2\n-1/4 * t^1"


def test_heat_and_cheeger_roundtrip(capsys, tmp_path):
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("# k1 k2 value\n3 0 2.0\n0 0 1.0\n1 1 -0.5\n")
    code, out, _ = _run(capsys, "heat", "--alpha", "1", "--t", "1", "--n", "2",
                        "--N", "100", "1000", "--coeffs", str(coeffs))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["l2_distance"]) > float(rows[1]["l2_distance"])

    code, out, _ = _run(capsys, "cheeger", "--alpha", "1", "--n", "2",
                        "--N", "10", "100", "--coeffs", str(coeffs))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(float(r["rel_err"]) < 1e-12 for r in rows)


def test_converge_dirichlet_with_schedule_file(capsys, tmp_path):
    import math
    sched = tmp_path / "schedule.csv"
    N = 26
    aN = math.sqrt(N - 1)
    sched.write_text(f"N,a_N,theta_N\n{N},{aN},{math.acos(0.0 / aN)}\n")
    code, out, _ = _run(capsys, "converge-dirichlet", "--alpha", "1", "--R", "0",
                        "--N", "26", "--tol", "1e-7", "--schedule", str(sched))
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert abs(float(row["lhs"]) - N / (N - 1)) < 1e-6
    assert row["hyp_ok"] == "true"


def test_emit_plot_data(capsys, tmp_path):
    plot = tmp_path / "plot.csv"
    code, out, _ = _run(capsys, "converge-closed", "--n", "1", "--alpha", "1",
                        "--kmax", "2", "--N", "11", "101",
                        "--emit-plot-data", str(plot))
    assert code == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 3  # one (N, abs_err) pair per N at k=kmax


# the (x, y) columns of each subcommand's --emit-plot-data file
PLOTTED = {"closed-spectrum": ("k", "lambda"), "converge-closed": ("N", "abs_err"),
           "converge-dirichlet": ("N", "abs_err"), "nu": ("N", "nu"),
           "heat": ("N", "l2_distance")}


def test_every_output_option_writes_its_file(capsys, tmp_path):
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("1 1.0\n2 0.5\n")
    argvs = {
        "closed-spectrum": ["--kmax", "2"],
        "converge-closed": ["--n", "1", "--kmax", "2", "--N", "11"],
        "cap-eigen": ["--N", "5", "--a", "1", "--theta", "1.5"],
        "halfspace-eigen": ["--alpha", "1", "--R", "0"],
        "converge-dirichlet": ["--alpha", "1", "--R", "0", "--N", "5"],
        "nu": ["--s", "0.5", "--N-from", "2", "--N-to", "3"],
        "heat": ["--alpha", "1", "--t", "1", "--N", "10", "--coeffs", str(coeffs)],
        "cheeger": ["--alpha", "1", "--N", "10", "--coeffs", str(coeffs)],
        "verify": ["--suite", "ou"],
        "dump-poly": ["--K", "2", "1", "--N", "4"],
    }
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(argvs) == sorted(sub.choices)
    for command, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings}
        if "--emit-plot-data" in options:
            plot = tmp_path / f"{command}-plot.csv"
            code, out, _ = _run(capsys, command, *argvs[command], "--emit-plot-data", str(plot))
            assert code == 0
            # the plot rows are the two plotted columns of the same run's table
            x, y = PLOTTED[command]
            table = list(csv.DictReader(io.StringIO(out)))
            if command == "converge-closed":
                table = [r for r in table if r["k"] == "2"]  # k = kmax
            elif command == "converge-dirichlet":
                table = [r for r in table if r["abs_err"]]
            pairs = list(csv.reader(io.StringIO(plot.read_text())))
            assert table and pairs == [["x", "y"]] + [[r[x], r[y]] for r in table], command
        if "--output" in options:
            target = tmp_path / f"{command}.out"
            code, out, _ = _run(capsys, command, *argvs[command], "--output", str(target))
            assert code == 0
            assert out == "", command
            assert target.read_text(), command


@pytest.mark.parametrize("argv", [
    ("--alpha", "1", "--R", "5", "--N", "3", "--tol", "1e-20"),
    ("--alpha", "1e-160", "--R", "5", "--N", "3"),
])
def test_converge_dirichlet_certifies_skipped_rows(capsys, argv):
    # N = 3 is skipped (|alpha R| >= a_N), and the half-line residual printed
    # on its row fails: above 1e-20 in the first run, NaN in the second
    code, out, err = _run(capsys, "converge-dirichlet", *argv)
    assert code == 1
    assert err == "error: residual exceeds tolerance at N = 3\n"
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["error"] == "residual exceeds tolerance"
    assert row["note"].startswith("skipped: ")
    assert row["residual_rhs"] == ""


def test_output_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = _run(capsys, "converge-closed", "--n", "1", "--alpha", "1",
                        "--kmax", "1", "--N", "11", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("N,k,lhs,rhs,abs_err")


def test_converge_dirichlet_nan_residual_exit_1(capsys):
    # at alpha = 1e-160 every eigenvalue overflows and both certificates read
    # NaN: a NaN residual fails the certificate as one above tol does
    code, out, err = _run(capsys, "converge-dirichlet", "--alpha", "1e-160", "--R", "0.5",
                          "--N", "25", "50")
    assert code == 1
    assert err == "error: residual exceeds tolerance at N = 25, 50\n"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["N"], r["lhs"], r["error"]) for r in rows] == [
        ("25", "", "residual exceeds tolerance"), ("50", "", "residual exceeds tolerance")]


@pytest.mark.parametrize("row", ["25,4.9", "25,4.9,x"])
def test_malformed_schedule_row_exit_2(capsys, tmp_path, row):
    sched = tmp_path / "schedule.csv"
    sched.write_text(f"N,a_N,theta_N\n{row}\n")
    code, out, err = _run(capsys, "converge-dirichlet", "--alpha", "1", "--R", "0.5",
                          "--N", "25", "--schedule", str(sched))
    assert code == 2
    assert out == ""
    assert err == f"error: {sched}:2: expected numeric N, a_N, theta_N\n"


def test_schedule_without_a_requested_N_exit_2(capsys, tmp_path):
    # every requested N must have a schedule row; a missing one is an input
    # error found before any solve, not a skipped row
    sched = tmp_path / "schedule.csv"
    sched.write_text("N,a_N,theta_N\n26,5.0,1.5707963\n50,7.0,1.5707963\n")
    code, out, err = _run(capsys, "converge-dirichlet", "--alpha", "1", "--R", "0",
                          "--N", "27", "26", "51", "--schedule", str(sched))
    assert code == 2
    assert out == ""
    assert err == f"error: {sched}: no row for N = 27, 51\n"


@pytest.mark.parametrize("argv", [
    ("cap-eigen", "--N", "15", "--a", "1", "--theta", "2.99", "--k", "1"),
    ("cap-eigen", "--N", "500", "--a", "1", "--theta", "2.36", "--k", "1", "--j", "4"),
    ("cap-eigen", "--N", "2000", "--a", "1", "--theta", "2.95"),
    ("halfspace-eigen", "--alpha", "1", "--R", "-8"),
    ("halfspace-eigen", "--alpha", "1", "--R", "30"),
])
def test_solver_failure_contract(capsys, argv):
    # a solve either fails with exit 1 and one error line, or prints a row
    # whose residual passes its certificate
    code, out, err = _run(capsys, *argv)
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["residual"]) <= 1e-8


@pytest.mark.parametrize("argv", [
    ("closed-spectrum", "--kmax", "2", "--a", "0"),
    ("closed-spectrum", "--kmax", "2", "--space", "gauss", "--alpha", "0"),
    # rational options with a zero denominator
    ("closed-spectrum", "--kmax", "2", "--a", "1/0"),
    ("closed-spectrum", "--kmax", "2", "--space", "gauss", "--alpha", "1/0"),
    ("converge-closed", "--n", "1", "--kmax", "2", "--N", "5", "--alpha", "1/0"),
    ("dump-poly", "--which", "Q-sphere", "--K", "1", "--a", "1/0"),
    ("dump-poly", "--which", "Q-gauss", "--K", "1", "--alpha", "1/0"),
])
def test_closed_spectrum_zero_scale_exit_2(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("closed-spectrum", "--kmax", "-1"),
    ("closed-spectrum", "--space", "sphere", "--N", "0", "--kmax", "-1"),
    ("closed-spectrum", "--space", "gauss", "--n", "0", "--kmax", "-1"),
])
def test_closed_spectrum_rejects_an_empty_k_range(capsys, argv):
    # an empty k range is an input error, not an empty table
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: need --kmax >= 0 and --") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("converge-dirichlet", "--alpha", "1", "--R", "0.5", "--N", "0"),
    ("converge-dirichlet", "--alpha", "1", "--R", "0.5", "--N", "-3"),
    ("converge-dirichlet", "--alpha", "1", "--R", "0.5", "--N", "1"),
    ("converge-dirichlet", "--alpha", "1", "--R", "0.5", "--N", "25", "1"),
    ("cheeger", "--alpha", "1", "--N", "1", "--coeffs", "{zonal}"),
    ("cheeger", "--alpha", "1", "--N", "1", "--coeffs", "{linear}"),
    ("cheeger", "--alpha", "1", "--N", "0", "--coeffs", "{linear}"),
    ("heat", "--alpha", "1", "--t", "1", "--N", "0", "--coeffs", "{zonal}"),
    ("heat", "--alpha", "1", "--t", "1", "--N", "10", "1", "--coeffs", "{linear}"),
    ("nu", "--s", "0.5", "--N-from", "1", "--N-to", "3"),
    ("nu", "--s", "0.5", "--N-from", "-2", "--N-to", "-5"),
])
def test_sphere_dimension_below_two_exit_2(capsys, tmp_path, argv):
    # S^N(a_N) needs N >= 2, whether N = 1 would be skipped, divide by a_N = 0
    # or take the root of N - 1 < 0
    files = {"zonal": tmp_path / "zonal.txt", "linear": tmp_path / "linear.txt"}
    files["zonal"].write_text("0 1.0\n")
    files["linear"].write_text("1 2.0\n")
    code, out, err = _run(capsys, *(a.format(**files) for a in argv))
    assert code == 2
    assert out == ""
    assert err == "error: need N >= 2\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nu_rejects_an_empty_N_range(capsys, fmt):
    # an empty N range is an input error, not a table of its header alone
    code, out, err = _run(capsys, "nu", "--s", "0.5", "--N-from", "5", "--N-to", "3",
                          "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: need --N-to >= --N-from\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", [["heat", "--t", "1"], ["cheeger"]])
@pytest.mark.parametrize("text", ["", "0 0.0\n1 0\n"], ids=["empty", "zeros"])
def test_zero_energy_prints_as_float(capsys, tmp_path, command, text, fmt):
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text(text)
    code, out, _ = _run(capsys, *command, "--alpha", "1", "--N", "10",
                        "--coeffs", str(coeffs), "--format", fmt)
    assert code == 0
    (row,) = json.loads(out)["rows"] if fmt == "json" else csv.DictReader(io.StringIO(out))
    assert row["energy_sphere"] == row["energy_gauss"] == "0.0000000000000000e+00"


@pytest.mark.parametrize("R", ["nan", "inf", "-1e400"])
def test_halfspace_eigen_non_finite_boundary_exit_2(capsys, R):
    code, out, err = _run(capsys, "halfspace-eigen", "--alpha", "1", f"--R={R}")
    assert code == 2
    assert out == ""
    assert err == "error: invalid half-line problem parameters\n"


def test_halfspace_eigen_overflow_exit_1(capsys):
    # a finite boundary so far out that the closed form overflows float64
    code, out, err = _run(capsys, "halfspace-eigen", "--alpha", "1", "--R", "1e308")
    assert code == 1
    assert out == ""
    assert err == "error: OverflowError: (34, 'Numerical result out of range')\n"


@pytest.mark.parametrize("command", [["heat", "--t", "1"], ["cheeger"]])
@pytest.mark.parametrize("line", ["0 abc", "x 1.0"])
def test_coeffs_non_numeric_entry_reports_its_line(capsys, tmp_path, command, line):
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text(f"# k value\n1 2.0\n{line}\n")
    code, out, err = _run(capsys, *command, "--alpha", "1", "--N", "10",
                          "--coeffs", str(coeffs))
    assert code == 2
    assert out == ""
    assert err == f"error: {coeffs}:3: expected integer indices and a numeric value\n"


@pytest.mark.parametrize("action", ["always", "error"])
@pytest.mark.parametrize("argv", [
    ("halfspace-eigen", "--alpha", "1", "--R", "1e308"),
    ("cap-eigen", "--N", "5", "--a", "1e308", "--theta", "1"),
])
def test_overflow_prints_one_error_line(capsys, argv, action):
    # NumPy's overflow warnings would reach stderr ahead of the error line,
    # or end the run with a traceback under an "error" filter
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter(action)
        code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: OverflowError: (34, 'Numerical result out of range')\n"
    assert escaped == []


def test_json_meta_carries_the_options(capsys):
    code, out, _ = _run(capsys, "converge-closed", "--n", "1", "--alpha", "1/2",
                        "--kmax", "2", "--N", "10", "20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"] == {
        "command": "converge-closed", "version": __version__,
        "options": {"n": 1, "alpha": "1/2", "kmax": 2, "N": [10, 20], "format": "json",
                    "output": "-", "emit_plot_data": None}}
    assert payload["rows"][4] == {"N": "20", "k": "1", "lhs": "80/19", "rhs": "4",
                                  "abs_err": "4/19"}


@pytest.mark.parametrize("argv", [
    ("cap-eigen", "--N", "26", "--a", "9", "--theta", "1e-20"),
    ("nu", "--s", "1e-300", "--N-from", "2", "--N-to", "2"),
])
def test_tiny_aperture_fails_fast(argv):
    # the cap's degree recurrence would climb about 1e20 steps; it is refused
    # at a fixed degree instead, in about a second.  A child process, so that
    # a run that climbs ends at the timeout
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "sphere2gauss.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cap degree ") and proc.stderr.count("\n") == 1
