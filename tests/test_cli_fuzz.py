"""Fuzz every CLI subcommand with valid, edge and junk option values.

Whatever the input, ``main`` exits 0, 1 or 2 and prints no traceback, and a
failure that is not an argparse usage error prints exactly one ``error:``
line on stderr.  Sizes (N, kmax, j, the N range of ``nu``) and the least
drawn cap aperture are bounded so that the suite stays fast; no drawn input
is filtered out.  The examples are derandomized, so every run tries the same
inputs.
"""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sphere2gauss.cli import main

EDGE = ["0", "-0", "-1", "1/0", "nan", "-nan", "inf", "-inf", "1e308", "-1e308",
        "1e400", "1e-160", "1e-320"]
JUNK = ["", "abc", "1,5", "0x10", "--", "1/2/3", "two"]


def _mostly(valid, rare=st.sampled_from(EDGE + JUNK)):
    """``valid`` four times in five, else an edge value or junk."""
    return st.integers(0, 4).flatmap(lambda i: rare if i == 0 else valid)


def _real(lo, hi):
    """A float option: a finite value in [lo, hi], an edge value or junk."""
    return _mostly(st.floats(lo, hi).map(repr))


def _int(lo, hi):
    return _mostly(st.integers(lo, hi).map(str))


def _rational(hi):
    """A rational option such as ``3`` or ``-2/5``."""
    return _mostly(st.one_of(
        st.integers(-hi, hi).map(str),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(-hi, hi), st.integers(-3, 9)),
        st.floats(-hi, hi).map(repr)))


def _ints(lo, hi):
    return st.lists(_int(lo, hi), min_size=1, max_size=3)


class File:
    """Contents of a file whose path goes into argv."""

    def __init__(self, text):
        self.text = text


def _coeffs_file(n_max):
    index = _mostly(st.integers(0, 6).map(str), st.sampled_from(["-1"] + JUNK))
    line = st.builds(lambda ks, v, c: " ".join(ks + [v]) + c,
                     st.lists(index, min_size=0, max_size=n_max + 1), _real(-1e3, 1e3),
                     st.sampled_from(["", " # note"]))
    return st.lists(st.one_of(line, st.sampled_from(["", "# k value"])), max_size=5).map(
        lambda lines: File("\n".join(lines) + "\n"))


def _schedule_file():
    row = st.one_of(
        st.tuples(st.integers(2, 12).map(str), _real(0, 10), _real(1e-2, 3.2)).map(list),
        st.lists(_real(-5, 50), max_size=4))
    return st.lists(st.one_of(row.map(",".join), st.just("N,a_N,theta_N")),
                    max_size=4).map(lambda rows: File("\n".join(rows) + "\n"))


def _options(required, optional=None):
    """Every required option with a value, and each optional one or not."""
    flags = [value.map(lambda v, f=flag: [f] + (v if isinstance(v, list) else [v]))
             for flag, value in required.items()]
    flags += [st.one_of(st.just([]), value.map(lambda v, f=flag: [f] + (
        v if isinstance(v, list) else [v]))) for flag, value in (optional or {}).items()]
    return st.tuples(*flags).map(lambda parts: [t for part in parts for t in part])


COMMON = _options({}, {"--format": st.sampled_from(["csv", "json", "xml"])})
NO_TABLE = {"verify", "dump-poly"}  # the subcommands that take no --format
CERTIFIED = {"cap-eigen", "halfspace-eigen", "converge-dirichlet"}  # tables with residuals

# a cap solve climbs a recurrence to a degree of about 2.4/theta, so its time
# grows like 1/theta: the drawn apertures (--theta, the schedule's theta_N and
# --s of nu) stay above 1e-2 or 1e-3, while the edge value 1e-320, which the
# solver refuses in about a second, is still drawn
STRATEGIES = {
    "closed-spectrum": _options({"--kmax": _int(-2, 8)}, {
        "--space": st.sampled_from(["sphere", "gauss", "torus"]), "--N": _int(-2, 60),
        "--a": _rational(20), "--n": _int(-2, 6), "--alpha": _rational(20)}),
    "converge-closed": _options(
        {"--n": _int(-2, 6), "--kmax": _int(-2, 6), "--N": _ints(-2, 10_000)},
        {"--alpha": _rational(20)}),
    "cap-eigen": _options(
        {"--N": _int(-2, 60), "--a": _real(-1, 10), "--theta": _real(1e-2, 3.3)},
        {"--k": _int(-2, 4), "--j": _int(-2, 6), "--tol": _real(0, 1)}),
    "halfspace-eigen": _options(
        {"--alpha": _real(-1, 5), "--R": _real(-6, 6)},
        {"--k": _int(-2, 4), "--j": _int(-2, 6), "--tol": _real(0, 1)}),
    "converge-dirichlet": _options(
        {"--alpha": _real(-1, 3), "--R": _real(-4, 4), "--N": _ints(-2, 12)},
        {"--tol": _real(0, 1), "--schedule": _schedule_file()}),
    "nu": _options(
        {"--s": _real(1e-3, 1.5), "--N-from": _int(-2, 12), "--N-to": _int(-2, 12)},
        {"--tol": _real(0, 1)}),
    "heat": _options(
        {"--alpha": _real(-1, 5), "--t": _real(-1, 50), "--N": _ints(-2, 10_000),
         "--coeffs": _coeffs_file(3)},
        {"--n": _int(-2, 3)}),
    "cheeger": _options(
        {"--alpha": _real(-1, 5), "--N": _ints(-2, 10_000), "--coeffs": _coeffs_file(3)},
        {"--n": _int(-2, 3)}),
    # the valid suites take tens of seconds: only invalid names are tried
    "verify": st.text(max_size=12).filter(
        lambda s: s not in ("harmonicity", "ou", "dimension", "all")).map(
        lambda s: ["--suite", s]),
    "dump-poly": _options(
        {"--K": st.lists(_int(-2, 4), min_size=1, max_size=3)},
        {"--which": st.sampled_from(["P", "Q-sphere", "Q-gauss", "R"]),
         "--N": _int(-2, 10), "--a": _rational(20), "--alpha": _rational(20)}),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", list(STRATEGIES))
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz(workdir, command, data):
    args = data.draw(STRATEGIES[command], label="options")
    argv = [command]
    common = [] if command in NO_TABLE else data.draw(COMMON, label="common")
    for i, arg in enumerate(args + common):
        if isinstance(arg, File):
            path = workdir / f"input{i}.txt"
            # a new file: writing again over a truncated one can stall close()
            path.unlink(missing_ok=True)
            path.write_text(arg.text)
            arg = str(path)
        argv.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code and not err.startswith("usage:"):
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 0 and command in CERTIFIED:
        # a table that passed its certificates prints no residual above --tol
        tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else 1e-8
        text = out.getvalue()
        rows = (json.loads(text)["rows"] if text.startswith("{")
                else list(csv.DictReader(io.StringIO(text))))
        for row in rows:
            for column, value in row.items():
                if column.startswith("residual") and value:
                    assert float(value) <= tol, (column, value, tol)
