"""Acceptance gate: fifteen end-to-end criteria at pinned tolerances.

Each test prints one ``PASS criterion k: ...`` / ``FAIL criterion k: ...``
line (visible with ``pytest -s`` or on failure) and asserts the criterion.
Stated runtime caps are asserted where the criterion pins one.
"""

import contextlib
import io
import math
import time
from fractions import Fraction

import numpy as np

from sphere2gauss.cli import main
from sphere2gauss.convergence import (closed_spectrum_table,
                                      dirichlet_convergence_table,
                                      proof_identities)
from sphere2gauss.eigensolve import cap_eigenvalue, halfline_eigenvalue, nu_of_s
from sphere2gauss.geometry import omega_density, sphere_volume_log
from sphere2gauss.harmonics import build_P
from sphere2gauss.heatflow import (SpectralCoefficients, gauss_basis,
                                   heat_convergence_table, recovery_sequence)
from sphere2gauss.indices import enumerate_multi_indices
from sphere2gauss.polyalg import RationalPoly
from sphere2gauss.quadrature import (legendre_rule, lifted_norm_sq_exact,
                                     sphere_inner_product)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _verify(suite: str) -> str:
    """Run ``verify --suite`` through the CLI; its one output line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", suite])
    assert code == 0, out.getvalue()
    return out.getvalue()


def test_criterion_01_exact_harmonicity():
    start = time.monotonic()
    out = _verify("harmonicity")
    elapsed = time.monotonic() - start
    _report(1, "exact harmonicity of lifts, n<=4 N<=16 |K|<=6, zero tolerance",
            out == "PASS harmonicity n<=4 N<=16 |K|<=6\n" and elapsed < 30.0,
            f"{elapsed:.1f}s < 30s")


def test_criterion_02_exact_ou_identity():
    out = _verify("ou")
    _report(2, "exact OU eigen-identity, n<=4 |K|<=6 alpha^2 in {1,2,1/2}",
            out == "PASS ou n<=4 |K|<=6 alpha2 in {1,2,1/2}\n")


def test_criterion_03_dimension_identity(fraction_calls):
    # the grid never falls back to the Fraction elimination: every rank there
    # is proved by the rank mod p
    out = _verify("dimension")
    _report(3, "rational-rank dimension identity d_k(n), n<=4 N<=12 k<=5",
            out == "PASS dimension n<=4 N<=12 k<=5\n" and fraction_calls == [])


def test_criterion_04_exact_error_law():
    ok = True
    for alpha in (Fraction(1), Fraction(3, 2)):
        alpha2 = alpha ** 2
        for N in range(2, 10_001):
            for k in range(9):
                lhs = Fraction(k * (k + N - 1)) / (alpha2 * (N - 1))
                if lhs - Fraction(k) / alpha2 != Fraction(k * k) / (alpha2 * (N - 1)):
                    ok = False
        if not ok:
            break
    rows = closed_spectrum_table(1, Fraction(1), 8, [10_000])
    ok = ok and all(r.abs_err == Fraction(r.k ** 2, 9999) for r in rows)
    _report(4, "exact closed-spectrum error law k^2/(alpha^2(N-1)), k<=8 N<=1e4", ok)


def test_criterion_05_hemisphere_anchor():
    start = time.monotonic()
    worst = 0.0
    for N in range(2, 51):
        for a in (1.0, math.sqrt(N - 1)):
            res = cap_eigenvalue(N, a, math.pi / 2, 0, 1, tol=1e-8)
            worst = max(worst, abs(res.lam - N / (a * a)))
    elapsed = time.monotonic() - start
    _report(5, "hemisphere eigenvalue N/a^2 within 1e-8, N=2..50, both radii",
            worst < 1e-8 and elapsed < 60.0,
            f"worst {worst:.2e}, {elapsed:.1f}s < 60s")


def test_criterion_06_friedland_hayman():
    ok = True
    worst = 0.0
    for N in range(2, 31):
        v = nu_of_s(N, 0.5, tol=1e-7)
        worst = max(worst, abs(v - 1.0))
    ok = worst < 1e-7
    for s in (0.3, 0.7):
        values = [nu_of_s(N, s, tol=1e-7) for N in range(2, 31)]
        ok = ok and all(v1 >= v2 - 1e-9 for v1, v2 in zip(values, values[1:]))
    _report(6, "nu_N(1/2)=1 within 1e-7 and nu_N(0.3), nu_N(0.7) nonincreasing, N=2..30",
            ok, f"worst |nu-1| {worst:.2e}")


def test_criterion_07_closed_form_slice():
    rows = dirichlet_convergence_table(1.0, 0.0, [11, 51, 201], tol=1e-8)
    ok = True
    for row in rows:
        ok = ok and abs(row.lhs - row.N / (row.N - 1)) < 1e-7
        ok = ok and abs(row.rhs - 1.0) < 1e-8
        ok = ok and abs(row.abs_err - 1.0 / (row.N - 1)) < 2e-7
    _report(7, "R=0 slice: cap = N/(N-1), half-line = 1, error 1/(N-1)", ok)


def test_criterion_08_generic_slice():
    start = time.monotonic()
    ok = True
    finals = []
    for R in (-0.5, 0.5, 1.0):
        rows = dirichlet_convergence_table(1.0, R, [25, 50, 100, 200, 400], tol=1e-8)
        errs = [r.abs_err for r in rows]
        ok = ok and all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
        ok = ok and errs[-1] < 0.05
        ok = ok and all(r.hypotheses_ok for r in rows)
        finals.append(errs[-1])
    elapsed = time.monotonic() - start
    _report(8, "generic slices R in {-0.5, 0.5, 1}: errors strictly decreasing, final < 0.05",
            ok and elapsed < 300.0,
            f"finals {['%.4f' % e for e in finals]}, {elapsed:.0f}s < 300s")


def test_criterion_09_halfline_anchor():
    worst = 0.0
    for alpha in (1.0, 2.0):
        for j in (1, 2, 3, 4):
            res = halfline_eigenvalue(alpha, 0.0, 0, j, tol=1e-8)
            worst = max(worst, abs(res.lam - (2 * j - 1) / alpha ** 2))
    _report(9, "half-line spectrum (2j-1)/alpha^2 within 1e-6, j<=4 alpha in {1,2}",
            worst < 1e-6, f"worst {worst:.2e}")


def test_criterion_10_remark_integral():
    z1_sq = RationalPoly.monomial((2, 0))
    z2_sq = RationalPoly.monomial((0, 2))
    from sphere2gauss.geometry import SphereSpec
    val = sphere_inner_product(z1_sq, z1_sq - z2_sq, SphereSpec(2, 1.0), 2)
    err = abs(val - 8 * math.pi / 15)
    _report(10, "sphere inner product <z1^2, z1^2 - z2^2> on S^2(1) = 8pi/15",
            err < 1e-9, f"err {err:.2e}")


def _gaussian_side_norm_sq(Q, N: int, n: int, a: float, alpha: float) -> float:
    """vol(S^(N-n)(a)) * int Q^2 omega dgamma^n_alpha by substituted quadrature.

    The substitution r = a sin(psi) removes the boundary behaviour of the
    projected weight; omega and the Gaussian density are evaluated as such,
    making this path independent of the Beta-moment oracle.
    """
    fibre = math.exp(sphere_volume_log(N - n, a))

    def gauss_density(sq):
        return math.exp(-sq / (2 * alpha * alpha)) / (
            (2 * math.pi * alpha * alpha) ** (n / 2))

    if n == 1:
        rule = legendre_rule(96)
        psis = 0.5 * math.pi * rule.nodes
        total = 0.0
        for psi, w in zip(psis, rule.weights):
            r = a * math.sin(psi)
            f = (Q.evaluate((r,)) ** 2 * omega_density(N, n, a, alpha, (r,))
                 * gauss_density(r * r))
            total += w * f * a * math.cos(psi)
        return fibre * total * 0.5 * math.pi
    # n == 2: polar coordinates, uniform trapezoid in the exact-trig angle
    rule = legendre_rule(64)
    psis = 0.25 * math.pi * (rule.nodes + 1.0)
    phis = np.linspace(0.0, 2 * math.pi, 129)[:-1]
    total = 0.0
    for psi, w in zip(psis, rule.weights):
        r = a * math.sin(psi)
        ring = 0.0
        for phi in phis:
            x = (r * math.cos(phi), r * math.sin(phi))
            ring += (Q.evaluate(x) ** 2 * omega_density(N, n, a, alpha, x)
                     * gauss_density(r * r))
        ring *= 2 * math.pi / len(phis)
        total += w * ring * a * a * math.sin(psi) * math.cos(psi)
    return fibre * total * 0.25 * math.pi


def test_criterion_11_perp_norm_identity():
    a, alpha = 1.0, 1.0
    worst = 0.0
    for n in (1, 2):
        for N in range(n + 1, 9):
            for k in range(4):
                for K in enumerate_multi_indices(n, k):
                    P = build_P(N, n, K)
                    Q = P.substitute_t(Fraction(1))
                    sphere_side = lifted_norm_sq_exact(P, a)
                    gauss_side = _gaussian_side_norm_sq(Q, N, n, a, alpha)
                    worst = max(worst, abs(gauss_side / sphere_side - 1.0))
    _report(11, "horizontal-part norm identity, n in {1,2} N<=8 |K|<=3, rel 1e-6",
            worst < 1e-6, f"worst rel {worst:.2e}")


def test_criterion_12_stirling_volume_ratio():
    N, alpha = 1_000_000, 1.0
    aN = alpha * math.sqrt(N - 1)
    ok = True
    worst = 0.0
    for n in (1, 2, 3):
        log_ratio = sphere_volume_log(N, aN) - sphere_volume_log(N - n, aN)
        rel = abs(math.expm1(log_ratio - (n / 2) * math.log(2 * math.pi * alpha ** 2)))
        worst = max(worst, rel)
        ok = ok and rel < 1e-5
    _report(12, "volume ratio vol(S^N)/vol(S^(N-n)) -> (2 pi alpha^2)^(n/2) at N=1e6",
            ok, f"worst rel {worst:.2e}")


def _test_coefficients() -> SpectralCoefficients:
    entries = {}
    for k in range(7):
        for i, K in enumerate(enumerate_multi_indices(2, k)):
            entries[K] = (-1.0) ** i / (1.0 + k + i)
    return SpectralCoefficients(2, entries, gauss_basis(1.0))


def test_criterion_13_heat_convergence():
    f = _test_coefficients()
    rows = heat_convergence_table(f, 1.0, [100, 1000, 10_000])
    dists = {r.N: r.l2_distance for r in rows}
    ok = dists[1000] <= 1e-3 * f.l2_norm()
    ok = ok and dists[100] > dists[1000] > dists[10_000]
    _report(13, "heat-flow coefficient distance <= 1e-3*|f| at N=1000, monotone in N",
            ok, f"d(1000)/|f| {dists[1000] / f.l2_norm():.2e}")


def test_criterion_14_cheeger_recovery():
    f = _test_coefficients()
    worst = 0.0
    for N in (10, 100, 1000):
        g = recovery_sequence(f, N)
        worst = max(worst, abs(g.energy() - f.energy()) / f.energy())
    _report(14, "Cheeger recovery energy exact to rel 1e-12, N in {10,100,1000}",
            worst < 1e-12, f"worst rel {worst:.2e}")


def test_criterion_15_proof_identities():
    ok = True
    for N in (10, 50, 200):
        for R in (0.0, 1.0):
            p = proof_identities(1.0, R, N, tol=1e-8)
            ok = ok and abs(p.norm_value - 1.0) < 1e-8
            ok = ok and abs(p.energy_value - p.lam) < 1e-6 * p.lam
            ok = ok and p.second_moment <= p.second_moment_bound
    _report(15, "profile normalization, Dirichlet energy and second-moment bound, "
                "N in {10,50,200} R in {0,1}", ok)
