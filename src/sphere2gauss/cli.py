"""Command-line front end: subcommands, deterministic CSV/JSON emission.

Exit codes: 0 success, 1 computational failure (solver bracketing,
truncation sensitivity, residual above tolerance), 2 usage error.  Errors
go to stderr as a single machine-readable line prefixed ``error:``.

The eigenvalue handlers import the solvers when they run: ``eigensolve``
loads NumPy and SciPy, which the exact subcommands never need.

Floats are printed in scientific notation with 17 significant digits;
exact rational columns are printed as ``p/q`` strings.  JSON output is one
object ``{meta, rows}``: the rows mirror the CSV rows, and ``meta`` holds the
subcommand, the package version and the parsed options.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from fractions import Fraction

from . import __version__, _bind
from .convergence import _certified, closed_spectrum_table, dirichlet_convergence_table
from .harmonics import (build_P, build_Q_gauss, build_Q_sphere, check_harmonic,
                        ou_apply, projected_eigenspace_dimension)
from .heatflow import (SpectralCoefficients, gauss_basis, heat_convergence_table,
                       recovery_sequence)
from .indices import MultiIndex, enumerate_multi_indices, gauss_multiplicity, sphere_multiplicity
from .polyalg import dumps


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.16e}"
    return str(v)


def _write_csv(out, header: list[str], rows) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)


def _emit(args, columns: list[str], rows: list[dict], plot=None) -> None:
    """The table to ``--output``; ``plot``, its (x, y) pairs, to ``--emit-plot-data``."""
    out = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    try:
        if args.format == "json":
            payload = {"meta": _meta(args),
                       "rows": [{c: _fmt(r.get(c, "")) for c in columns} for r in rows]}
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            _write_csv(out, columns, ([r.get(c, "") for c in columns] for r in rows))
    finally:
        if out is not sys.stdout:
            out.close()
    if plot is not None and args.emit_plot_data:
        with open(args.emit_plot_data, "w", newline="") as fh:
            _write_csv(fh, ["x", "y"], plot)


def _meta(args) -> dict:
    """The subcommand, the package version and every parsed option."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "handler")}
    return {"command": args.command, "version": __version__, "options": options}


def _fail(message: str) -> int:
    """Report a failure on stderr as one ``error:`` line; exit code 1."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _parse_multi_index(tokens: list[str]) -> MultiIndex:
    return MultiIndex(tuple(int(t) for t in tokens))


def _read_coeffs(path: str, n: int) -> dict:
    """Lines of "K_1 K_2 ... K_n value"; blank lines and # comments skipped."""
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != n + 1:
                raise ValueError(f"{path}:{lineno}: expected {n} indices and a value")
            try:
                entries[_parse_multi_index(parts[:n])] = float(parts[n])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected integer indices and a "
                                 "numeric value") from None
    return entries


def _read_schedule(path: str) -> dict:
    """CSV with columns (N, a_N, theta_N); returns {N: (a_N, theta_N)}."""
    table = {}
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), 1):
            if not row or not row[0].strip() or row[0].strip().lower() == "n":
                continue
            try:
                N, a, theta = int(row[0]), float(row[1]), float(row[2])
            except (IndexError, ValueError):
                raise ValueError(f"{path}:{lineno}: expected numeric N, a_N, theta_N") from None
            table[N] = (a, theta)
    return table


def _rational(text: str, option: str) -> Fraction:
    """A rational option value such as ``3`` or ``1/2``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option} must be a rational number, got {text}") from None


def _positive_square(text: str, option: str) -> Fraction:
    """Square of a positive rational option value such as a radius or a scale."""
    value = _rational(text, option)
    if value <= 0:
        raise ValueError(f"{option} must be positive, got {text}")
    return value ** 2


# -- subcommand handlers ---------------------------------------------------


def _cmd_closed_spectrum(args) -> int:
    size = "N" if args.space == "sphere" else "n"
    if args.kmax < 0 or getattr(args, size) < 1:
        raise ValueError(f"need --kmax >= 0 and --{size} >= 1")
    rows = []
    if args.space == "sphere":
        a2 = _positive_square(args.a, "--a")
        for k in range(args.kmax + 1):
            rows.append({"k": k, "lambda": Fraction(k * (k + args.N - 1)) / a2,
                         "multiplicity": sphere_multiplicity(args.N, k)})
    else:
        alpha2 = _positive_square(args.alpha, "--alpha")
        for k in range(args.kmax + 1):
            rows.append({"k": k, "lambda": Fraction(k) / alpha2,
                         "multiplicity": gauss_multiplicity(args.n, k)})
    _emit(args, ["k", "lambda", "multiplicity"], rows, [(r["k"], r["lambda"]) for r in rows])
    return 0


def _cmd_converge_closed(args) -> int:
    table = closed_spectrum_table(args.n, _rational(args.alpha, "--alpha"), args.kmax, args.N)
    rows = [{"N": r.N, "k": r.k, "lhs": r.lhs, "rhs": r.rhs, "abs_err": r.abs_err}
            for r in table]
    _emit(args, ["N", "k", "lhs", "rhs", "abs_err"], rows,
          [(r["N"], r["abs_err"]) for r in rows if r["k"] == args.kmax])
    return 0


def _eigen_command(solver: str, params: tuple[str, ...]):
    """Handler that solves for one eigenvalue and emits it as a one-row table.

    ``solver`` is called with the ``params`` options, k, j and tol.  The row
    carries the eigenvalue, or an error record if its certificate fails.
    """
    columns = [*params, "k", "j", "lambda", "residual", "zeros", "iterations", "error"]

    def handler(args) -> int:
        row = {c: getattr(args, c) for c in (*params, "k", "j")}
        result = _bind(globals(), solver)(*row.values(), args.tol)
        if _certified(result.residual, args.tol):
            row.update({"lambda": result.lam, "residual": result.residual,
                        "zeros": result.zeros, "iterations": result.iterations})
        else:
            row["error"] = f"residual {result.residual:.3g} exceeds tolerance {args.tol:.3g}"
        _emit(args, columns, [row])
        return _fail(row["error"]) if "error" in row else 0

    return handler


def _cmd_converge_dirichlet(args) -> int:
    schedule = None
    if args.schedule:
        points = _read_schedule(args.schedule)
        missing = [str(N) for N in args.N if N not in points]
        if missing:
            raise ValueError(f"{args.schedule}: no row for N = {', '.join(missing)}")
        schedule = points.__getitem__
    table = dirichlet_convergence_table(args.alpha, args.R, args.N, args.tol,
                                        schedule=schedule)
    rows, failed = [], []
    for r in table:
        row = {"N": r.N, "lhs": r.lhs, "rhs": r.rhs, "abs_err": r.abs_err,
               "residual_lhs": r.residual_lhs, "residual_rhs": r.residual_rhs,
               "hyp_ok": r.hypotheses_ok, "note": r.note}
        if not (_certified(r.residual_lhs, args.tol) and _certified(r.residual_rhs, args.tol)):
            row = {"N": r.N, "note": r.note,
                   "error": "residual exceeds tolerance"}
            failed.append(str(r.N))
        rows.append(row)
    _emit(args, ["N", "lhs", "rhs", "abs_err", "residual_lhs", "residual_rhs",
                 "hyp_ok", "note", "error"], rows,
          [(r["N"], r["abs_err"]) for r in rows if "abs_err" in r])
    return _fail(f"residual exceeds tolerance at N = {', '.join(failed)}") if failed else 0


def _cmd_nu(args) -> int:
    if args.N_from < 2:
        raise ValueError("need N >= 2")
    if args.N_to < args.N_from:
        raise ValueError("need --N-to >= --N-from")
    nu_of_s = _bind(globals(), "nu_of_s")
    rows = [{"N": N, "s": args.s, "nu": nu_of_s(N, args.s, args.tol)}
            for N in range(args.N_from, args.N_to + 1)]
    _emit(args, ["N", "s", "nu"], rows, [(r["N"], r["nu"]) for r in rows])
    return 0


def _cmd_heat(args) -> int:
    entries = _read_coeffs(args.coeffs, args.n)
    f = SpectralCoefficients(args.n, entries, gauss_basis(args.alpha))
    table = heat_convergence_table(f, args.t, args.N)
    rows = [{"N": r.N, "l2_distance": r.l2_distance,
             "energy_sphere": r.energy_sphere, "energy_gauss": r.energy_gauss}
            for r in table]
    _emit(args, ["N", "l2_distance", "energy_sphere", "energy_gauss"], rows,
          [(r["N"], r["l2_distance"]) for r in rows])
    return 0


def _cmd_cheeger(args) -> int:
    entries = _read_coeffs(args.coeffs, args.n)
    f = SpectralCoefficients(args.n, entries, gauss_basis(args.alpha))
    e_gauss = f.energy()
    rows = []
    for N in args.N:
        g = recovery_sequence(f, N)
        e_sphere = g.energy()
        rel = abs(e_sphere - e_gauss) / e_gauss if e_gauss else 0.0
        rows.append({"N": N, "energy_sphere": e_sphere, "energy_gauss": e_gauss,
                     "rel_err": rel, "l2_norm_recovery": g.l2_norm()})
    _emit(args, ["N", "energy_sphere", "energy_gauss", "rel_err",
                 "l2_norm_recovery"], rows)
    return 0


def _verify_harmonicity() -> bool:
    for n in range(1, 5):
        for N in range(max(2, n), 17):
            for k in range(0, 7):
                for K in enumerate_multi_indices(n, k):
                    P = build_P(N, n, K)
                    ok, _ = check_harmonic(P)
                    if not ok:
                        return False
    return True


def _verify_ou() -> bool:
    for n in range(1, 5):
        for alpha2 in (Fraction(1), Fraction(2), Fraction(1, 2)):
            for k in range(0, 7):
                for K in enumerate_multi_indices(n, k):
                    Q = build_Q_gauss(n, K, alpha2)
                    lhs = ou_apply(Q, alpha2)
                    rhs = Q * (Fraction(-k) / alpha2)
                    if lhs != rhs:
                        return False
    return True


def _verify_dimension() -> bool:
    for n in range(1, 5):
        for N in range(max(2, n + 1), 13):
            for k in range(0, 6):
                if projected_eigenspace_dimension(N, n, k) != gauss_multiplicity(n, k):
                    return False
    return True


_SUITES = {
    "harmonicity": (_verify_harmonicity, "harmonicity n<=4 N<=16 |K|<=6"),
    "ou": (_verify_ou, "ou n<=4 |K|<=6 alpha2 in {1,2,1/2}"),
    "dimension": (_verify_dimension, "dimension n<=4 N<=12 k<=5"),
}


def _cmd_verify(args) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = []
    for name in suites:
        fn, label = _SUITES[name]
        ok = fn()
        print(("PASS " if ok else "FAIL ") + label)
        if not ok:
            failed.append(name)
    return _fail(f"verification failed: {', '.join(failed)}") if failed else 0


def _cmd_dump_poly(args) -> int:
    K = _parse_multi_index(args.K)
    n = len(args.K)
    if args.which == "P":
        text = dumps(build_P(args.N, n, K).base, lifted=True)
    elif args.which == "Q-sphere":
        text = dumps(build_Q_sphere(args.N, n, K, _rational(args.a, "--a") ** 2))
    else:
        text = dumps(build_Q_gauss(n, K, _rational(args.alpha, "--alpha") ** 2))
    print(text)
    return 0


# -- parser ----------------------------------------------------------------


def _add_output(p: argparse.ArgumentParser, plot: bool = True) -> None:
    """The table options; ``plot`` for the subcommands that write (x, y) pairs."""
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")
    if plot:
        p.add_argument("--emit-plot-data", metavar="PATH",
                       help="also write (x, y) CSV pairs to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphere2gauss",
        description="Spectral convergence of high-dimensional spheres to Gaussian spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closed-spectrum", help="eigenvalues and multiplicities")
    p.add_argument("--space", choices=("sphere", "gauss"), default="sphere")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--a", default="1")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--alpha", default="1")
    p.add_argument("--kmax", type=int, required=True)
    _add_output(p)
    p.set_defaults(handler=_cmd_closed_spectrum)

    p = sub.add_parser("converge-closed", help="closed-spectrum convergence table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--N", type=int, nargs="+", required=True)
    _add_output(p)
    p.set_defaults(handler=_cmd_converge_closed)

    p = sub.add_parser("cap-eigen", help="Dirichlet eigenvalue of a spherical cap")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_output(p, plot=False)
    p.set_defaults(handler=_eigen_command("cap_eigenvalue", ("N", "a", "theta")))

    p = sub.add_parser("halfspace-eigen",
                       help="Dirichlet eigenvalue of a Gaussian half-space slice")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_output(p, plot=False)
    p.set_defaults(handler=_eigen_command("halfline_eigenvalue", ("alpha", "R")))

    p = sub.add_parser("converge-dirichlet",
                       help="cap-versus-half-line convergence table")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--schedule", metavar="FILE",
                   help="CSV with columns (N, a_N, theta_N) overriding the default schedule")
    _add_output(p)
    p.set_defaults(handler=_cmd_converge_dirichlet)

    p = sub.add_parser("nu", help="Friedland-Hayman exponent table")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--N-from", dest="N_from", type=int, required=True)
    p.add_argument("--N-to", dest="N_to", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    _add_output(p)
    p.set_defaults(handler=_cmd_nu)

    p = sub.add_parser("heat", help="heat-flow convergence table")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--coeffs", required=True,
                   help="file with lines 'K_1 ... K_n value'")
    _add_output(p)
    p.set_defaults(handler=_cmd_heat)

    p = sub.add_parser("cheeger", help="Cheeger-energy recovery sequence")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--coeffs", required=True)
    _add_output(p, plot=False)
    p.set_defaults(handler=_cmd_cheeger)

    p = sub.add_parser("verify", help="exact verification suites")
    p.add_argument("--suite", choices=tuple(_SUITES) + ("all",), default="all")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("dump-poly", help="print a lift polynomial")
    p.add_argument("--which", choices=("P", "Q-sphere", "Q-gauss"), default="P")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--K", nargs="+", required=True, help="multi-index entries")
    p.add_argument("--a", default="1")
    p.add_argument("--alpha", default="1")
    p.set_defaults(handler=_cmd_dump_poly)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # a failure is reported by its one error line alone, so the warnings a
    # run raises (NumPy's float overflow, say) are recorded, whatever the
    # caller's filters, and issued under those filters only if it succeeds
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            code = args.handler(args)
        except RuntimeError as exc:
            return _fail(str(exc))
        except ArithmeticError as exc:  # float overflow inside a solve
            return _fail(f"{type(exc).__name__}: {exc}")
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if code == 0:
        try:
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        except Warning as exc:  # a filter turns the warning into an error
            return _fail(f"{type(exc).__name__}: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
