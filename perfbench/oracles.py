"""Independent oracles for the benchmark's output checks.

Nothing here calls into sphere2gauss: every reference value comes from
closed forms, special functions (SciPy, mpmath) or a sympy Laplacian.

* half-line Dirichlet eigenvalue: the substitution r = alpha*x turns the
  half-line problem into the Hermite equation, whose recessive solution is
  exp(x^2/4) D_nu(x); so lambda_j = nu_j / alpha^2 with nu_j the j-th zero
  in nu of the parabolic-cylinder function D_nu(R);
* cap Dirichlet eigenvalue (k=0): the pole-regular solution on S^N is
  2F1(-nu, nu+N-1; N/2; sin^2(u/2)), so lambda_j = nu_j (nu_j+N-1) / a^2
  with nu_j its j-th zero in nu at u = theta;
* cap volume fraction: I_{sin^2(theta/2)}(N/2, N/2), inverted by betaincinv;
* Gaussian-space eigenfunction: prod_i alpha^{K_i} He_{K_i}(x_i / alpha).

Run as a script to execute the self-test on known values.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc, betaincinv, pbdv

mpmath.mp.dps = 20


def _jth_zero(f, j: int, step: float, limit: float) -> float:
    """j-th sign change of f on (0, limit] located by a uniform scan, then Brent."""
    x, fx, found = 0.0, f(0.0), 0
    while x < limit:
        x_next = x + step
        f_next = f(x_next)
        if f_next == 0.0:
            found += 1
            if found == j:
                return x_next
            x_next += step * 1e-3
            f_next = f(x_next)
        elif (fx < 0) != (f_next < 0):
            found += 1
            if found == j:
                return brentq(f, x, x_next, xtol=1e-15, rtol=8.9e-16)
        x, fx = x_next, f_next
    raise ValueError(f"zero {j} not found below {limit}")


def halfline_lambda(alpha: float, R: float, j: int = 1) -> float:
    nu = _jth_zero(lambda v: pbdv(v, R)[0], j, 0.05, 80.0)
    return nu / (alpha * alpha)


@functools.lru_cache(maxsize=None)
def cap_nu(N: int, z: float, j: int = 1) -> float:
    """j-th zero in nu of 2F1(-nu, nu+N-1; N/2; z), z = sin^2(theta/2).

    Memoized: the two tables of one R in the dirichlet workload ask for the
    same (N, theta).
    """
    half_N = mpmath.mpf(N) / 2
    return _jth_zero(lambda nu: float(mpmath.hyp2f1(-nu, nu + N - 1, half_N, z)), j, 0.1, 200.0)


def cap_lambda(N: int, a: float, theta: float, j: int = 1) -> float:
    nu = cap_nu(N, math.sin(theta / 2) ** 2, j)
    return nu * (nu + N - 1) / (a * a)


def volume_fraction(N: int, theta: float) -> float:
    return float(betainc(N / 2, N / 2, math.sin(theta / 2) ** 2))


def nu_exponent(N: int, s: float) -> float:
    """Friedland-Hayman exponent: nu of the unit cap whose volume fraction is s."""
    return cap_nu(N, float(betaincinv(N / 2, N / 2, s)))


def q_gauss_coeffs(K, alpha2: float) -> dict:
    """Power-basis coefficients of prod_i alpha^{K_i} He_{K_i}(x_i / alpha)."""
    out = {(): 1.0}
    for Ki in K:
        he = np.polynomial.hermite_e.herme2poly([0] * Ki + [1])
        factor = {p: float(c) * alpha2 ** ((Ki - p) // 2)
                  for p, c in enumerate(he) if c != 0}
        out = {e + (p,): c * cp for e, c in out.items() for p, cp in factor.items()}
    return out


def lifted_is_harmonic(terms: dict, n: int, N: int) -> bool:
    """sympy Laplacian on R^{N+1} of sum c x^e t^j with t = |(x_{n+1}, ..., x_{N+1})|^2."""
    import sympy

    xs = sympy.symbols(f"x1:{N + 2}")
    t = sum(v ** 2 for v in xs[n:])
    expr = 0
    for exps, c in terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in zip(xs[:n], exps[:n]):
            term *= v ** e
        expr += term * t ** exps[n]
    expr = sympy.expand(expr)
    return sympy.expand(sum(sympy.diff(expr, v, 2) for v in xs)) == 0


def self_test() -> list[str]:
    """Check each oracle on known values; returns the failures."""
    failures = []

    def check(label, got, want, tol):
        if not abs(got - want) <= tol * max(1.0, abs(want)):
            failures.append(f"{label}: got {got!r}, want {want!r}")

    for alpha in (0.5, 1.0, 2.0):
        for j in (1, 2, 3):
            check(f"half-line R=0 j={j} alpha={alpha}", halfline_lambda(alpha, 0.0, j),
                  (2 * j - 1) / alpha ** 2, 1e-12)
    for N in (2, 5, 40, 200):
        for a in (1.0, 3.0):
            check(f"hemisphere N={N} a={a}", cap_lambda(N, a, math.pi / 2), N / a ** 2, 1e-12)
        check(f"nu_N(1/2) N={N}", nu_exponent(N, 0.5), 1.0, 1e-12)
        check(f"volume fraction N={N}", volume_fraction(N, math.pi / 2), 0.5, 1e-14)
    # S^2: the cap of aperture theta has area fraction (1 - cos theta) / 2
    check("volume fraction S^2", volume_fraction(2, 1.0), (1 - math.cos(1.0)) / 2, 1e-14)
    if q_gauss_coeffs((2, 1), 2.0) != {(2, 1): 1.0, (0, 1): -2.0}:
        failures.append("Q_gauss (2,1) at alpha^2=2")
    harmonic = {(2, 0): Fraction(1), (0, 1): Fraction(-1, 2)}  # x^2 - |y|^2/2, N=2
    if not lifted_is_harmonic(harmonic, 1, 2) or lifted_is_harmonic({(2, 0): Fraction(1)}, 1, 2):
        failures.append("sympy lifted Laplacian")
    return failures


if __name__ == "__main__":
    bad = self_test()
    for line in bad:
        print("FAIL", line)
    print("oracle self-test:", "FAIL" if bad else "PASS")
    sys.exit(1 if bad else 0)
