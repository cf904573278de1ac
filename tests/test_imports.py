"""What a process loads, and what the package and its CLI offer.

The exact algebra runs without NumPy and SciPy.  The package resolves its
public names on first access, so the checks that count loaded modules run in
fresh interpreters.  The public names and the CLI options are frozen here:
adding one means editing a table below.
"""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import sphere2gauss
from sphere2gauss import cli, convergence

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names, and the submodules that an eager import of every
# submodule left bound in the package
PUBLIC = [
    "BasisTag", "ConvergenceRow", "EigenResult", "EigenfunctionComparison", "HeatRow",
    "LiftedPoly", "MultiIndex", "QuadratureError", "QuadratureRule", "RationalPoly",
    "SolverError", "SpectralCoefficients", "SphereSpec", "build_P", "build_Q_gauss",
    "build_Q_sphere", "cap_eigenvalue", "cap_volume_fraction", "check_harmonic",
    "closed_spectrum_table", "dirichlet_convergence_table", "dumps",
    "eigenfunction_comparison", "enumerate_multi_indices", "euler_pairing", "gauss_basis",
    "gauss_multiplicity", "halfline_eigenvalue", "heat_convergence_table", "heat_evolve",
    "hermite", "integrate_interval", "laplacian", "legendre_rule", "lifted_laplacian",
    "lifted_norm_sq_exact", "mc_sphere_integral", "normalization_Z", "nu_of_s",
    "ode_residual", "omega_density", "ou_apply", "projected_eigenspace_dimension",
    "proof_identities", "rational_rank", "recovery_sequence", "sample_sphere",
    "sphere_basis", "sphere_inner_product", "sphere_monomial_moment", "sphere_multiplicity",
    "sphere_volume_log", "varpi_and_A",
]
# every subcommand takes -h/--help; TABLE and PLOT are the output options,
# taken only by the subcommands that write a table or (x, y) pairs
TABLE = ["--format", "--output"]
PLOT = TABLE + ["--emit-plot-data"]
OPTIONS = {
    "closed-spectrum": ["--space", "--N", "--a", "--n", "--alpha", "--kmax", *PLOT],
    "converge-closed": ["--n", "--alpha", "--kmax", "--N", *PLOT],
    "cap-eigen": ["--N", "--a", "--theta", "--k", "--j", "--tol", *TABLE],
    "halfspace-eigen": ["--alpha", "--R", "--k", "--j", "--tol", *TABLE],
    "converge-dirichlet": ["--alpha", "--R", "--N", "--tol", "--schedule", *PLOT],
    "nu": ["--s", "--N-from", "--N-to", "--tol", *PLOT],
    "heat": ["--alpha", "--t", "--n", "--N", "--coeffs", *PLOT],
    "cheeger": ["--alpha", "--n", "--N", "--coeffs", *TABLE],
    "verify": ["--suite"],
    "dump-poly": ["--which", "--N", "--K", "--a", "--alpha"],
}
SUBMODULES = ["convergence", "eigensolve", "geometry", "harmonics", "heatflow", "indices",
              "polyalg", "quadrature"]


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout


NUMERICAL = 'sorted({m.partition(".")[0] for m in sys.modules} & {"numpy", "scipy"})'


def test_exact_algebra_loads_no_numpy_or_scipy():
    out = _fresh(f"""
import sys
from fractions import Fraction
import sphere2gauss, sphere2gauss.cli, sphere2gauss.convergence
import sphere2gauss.harmonics as hm, sphere2gauss.indices as ix
n, N, k, alpha2 = 3, 6, 3, Fraction(2)
assert hm.projected_eigenspace_dimension(N, n, k) == ix.gauss_multiplicity(n, k)
for K in ix.enumerate_multi_indices(n, k):
    assert hm.check_harmonic(hm.build_P(N, n, K))[0]
    Q = hm.build_Q_gauss(n, K, alpha2)
    assert hm.ou_apply(Q, alpha2) == Q * (Fraction(-k) / alpha2)
assert sphere2gauss.closed_spectrum_table(1, 1, 2, [10])[1].abs_err == Fraction(1, 9)
assert sphere2gauss.cli.main(["closed-spectrum", "--kmax", "3"]) == 0
print({NUMERICAL})
""")
    assert out.splitlines()[-1] == "[]"


def test_solvers_load_without_scipy_optimize():
    out = _fresh(f"""
import sys
import sphere2gauss.eigensolve
print({NUMERICAL}, "scipy.optimize" in sys.modules)
""")
    assert out.strip() == "['numpy', 'scipy'] False"


def test_public_names_unchanged():
    assert sorted(sphere2gauss.__all__) == sorted(PUBLIC + SUBMODULES)
    namespace = {}
    exec("from sphere2gauss import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC + SUBMODULES)
    for name in PUBLIC:
        owner = sphere2gauss._SOURCE[name]
        assert namespace[name] is getattr(getattr(sphere2gauss, owner), name)
    assert set(PUBLIC) <= set(dir(sphere2gauss))


def test_unknown_name_raises_attribute_error():
    try:
        sphere2gauss.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("no AttributeError")


def test_solver_bound_in_convergence_is_the_one_called(monkeypatch):
    # a name the tables bind on first use stays a name of the module: a
    # wrapper put in its place is what they call, as after a top-level import
    convergence.dirichlet_convergence_table(1.0, 0.0, [5])
    calls = []
    original = convergence.cap_eigenvalue

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(convergence, "cap_eigenvalue", wrapper)
    convergence.dirichlet_convergence_table(1.0, 0.0, [5, 9])
    assert [args[0] for args in calls] == [5, 9]


def test_cli_options_unchanged():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: sorted(o for a in p._actions for o in a.option_strings)
           for name, p in sub.choices.items()}
    assert got == {name: sorted(opts + ["-h", "--help"]) for name, opts in OPTIONS.items()}
    assert [o for a in parser._actions for o in a.option_strings] == ["-h", "--help"]


def test_cli_reads_no_environment_variable():
    tree = ast.parse(Path(cli.__file__).read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not names & {"environ", "environb", "getenv", "getenvb", "os"}
