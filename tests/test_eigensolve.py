import dataclasses
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq  # test-only oracle for the root step

from sphere2gauss.eigensolve import (SolverError, _brentq, cap_eigenvalue, halfline_eigenvalue,
                                     nu_of_s, ode_residual)


@pytest.mark.parametrize("N", [2, 5, 11])
@pytest.mark.parametrize("a", [1.0, 2.0])
def test_hemisphere_closed_form(N, a):
    # first Dirichlet eigenvalue of the hemisphere is N/a^2
    res = cap_eigenvalue(N, a, math.pi / 2, 0, 1, tol=1e-9)
    assert res.lam == pytest.approx(N / a ** 2, abs=1e-9)
    assert res.residual < 1e-7
    assert res.zeros == 0


@pytest.mark.parametrize("j", [1, 2, 3])
def test_hemisphere_zonal_branches(j, N=5):
    # odd-degree zonal harmonics vanish on the equator: the j-th branch is
    # degree 2j-1 with eigenvalue (2j-1)(2j-2+N)/a^2
    res = cap_eigenvalue(N, 1.0, math.pi / 2, 0, j, tol=1e-8)
    want = (2 * j - 1) * (2 * j - 2 + N)
    assert res.lam == pytest.approx(want, abs=1e-7)
    assert res.zeros == j - 1


def test_hemisphere_angular_branch():
    # degree-2 harmonic x * y vanishes on the equator: k=1 eigenvalue 2(N+1)/a^2
    N = 5
    res = cap_eigenvalue(N, 1.0, math.pi / 2, 1, 1, tol=1e-8)
    assert res.lam == pytest.approx(2 * (N + 1), abs=1e-7)


def test_cap_scales_with_radius():
    r1 = cap_eigenvalue(4, 1.0, 1.0, 0, 1, tol=1e-9)
    r2 = cap_eigenvalue(4, 2.0, 1.0, 0, 1, tol=1e-9)
    assert r2.lam == pytest.approx(r1.lam / 4.0, rel=1e-8)


def test_cap_monotone_in_aperture():
    lams = [cap_eigenvalue(6, 1.0, t, 0, 1, tol=1e-8).lam for t in (0.8, 1.2, 1.6)]
    assert lams[0] > lams[1] > lams[2]


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_halfline_hermite_spectrum(alpha, j):
    # at R=0 the eigenfunctions are the odd Hermite functions: mu_j = (2j-1)/alpha^2
    res = halfline_eigenvalue(alpha, 0.0, 0, j, tol=1e-8)
    assert res.lam == pytest.approx((2 * j - 1) / alpha ** 2, abs=1e-8)
    assert res.zeros == j - 1
    assert res.residual < 1e-8


def test_halfline_first_profile_is_linear():
    # R=0, j=1: h(r) proportional to r
    res = halfline_eigenvalue(1.0, 0.0, 0, 1, tol=1e-9)
    h1 = res.profile(1.0)
    for r in (0.25, 0.5, 2.0, 3.5):
        assert res.profile(r) == pytest.approx(h1 * r, rel=1e-7)
    assert res.profile(-1.0) == 0.0


def test_halfline_angular_shift_exact():
    base = halfline_eigenvalue(1.5, 0.3, 0, 1, tol=1e-9)
    shifted = halfline_eigenvalue(1.5, 0.3, 3, 1, tol=1e-9)
    assert shifted.lam == pytest.approx(base.lam + 3 / 1.5 ** 2, abs=1e-8)


def test_halfline_R1_value():
    # known half-space slice: lambda(V_{alpha}) = 2/alpha^2
    res = halfline_eigenvalue(1.0, 1.0, 0, 1, tol=1e-9)
    assert res.lam == pytest.approx(2.0, abs=1e-8)


def test_residual_certificate_rejects_perturbation():
    good = cap_eigenvalue(5, 1.0, math.pi / 2, 0, 1, tol=1e-9)
    assert good.residual < 1e-7
    bad = dataclasses.replace(good, lam=good.lam + 0.1)
    assert ode_residual(bad) > 1e-3


@pytest.mark.parametrize("kind, R, j, at", [("halfline", 0.0, 1, 2.0),
                                             ("halfline", 5.0, 4, 5.5),
                                             ("cap", math.pi / 2, 1, 0.5)])
def test_residual_certificate_rejects_local_perturbation(kind, R, j, at):
    # an error in three samples, 1e-9 relative, is rejected at tol 1e-8, also
    # next to the boundary at R=5 where h is ~1e-13 of its size further out
    if kind == "cap":
        res = cap_eigenvalue(5, 1.0, R, 0, j)
    else:
        res = halfline_eigenvalue(1.0, R, 0, j)
    assert res.residual < 1e-8
    samples = res.samples.copy()
    i = int(np.searchsorted(samples[:, 0], at))
    samples[i:i + 3, 1] *= 1 + 1e-9
    bad = dataclasses.replace(res, samples=samples)
    assert ode_residual(bad) > 1e-8


@pytest.mark.parametrize("j", [25, 40])
def test_high_branches_keep_every_zero_in_the_window(j):
    # the outermost zero of branch j lies near 2 sqrt(2j), past twelve weight
    # widths from j ~ 21 on; the counted stretch must reach it
    res = halfline_eigenvalue(1.0, 0.0, 0, j)
    assert res.lam == pytest.approx(2 * j - 1, rel=1e-9)
    assert res.zeros == j - 1
    assert res.residual < 1e-8
    N = 1000
    cap = cap_eigenvalue(N, math.sqrt(N - 1), math.pi / 2, 0, j)
    assert cap.lam == pytest.approx((2 * j - 1) * (2 * j - 2 + N) / (N - 1), rel=1e-9)
    assert cap.zeros == j - 1
    assert cap.residual < 1e-8


def test_nu_of_half_is_one():
    for N in (2, 7, 19):
        assert nu_of_s(N, 0.5) == pytest.approx(1.0, abs=1e-7)


def test_nu_monotone_in_N():
    vals = [nu_of_s(N, 0.3) for N in (3, 6, 12)]
    assert vals[0] >= vals[1] >= vals[2]


def test_input_validation():
    with pytest.raises(ValueError):
        cap_eigenvalue(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        cap_eigenvalue(3, 1.0, 4.0)
    with pytest.raises(ValueError):
        halfline_eigenvalue(0.0, 0.0)
    with pytest.raises(ValueError):
        halfline_eigenvalue(1.0, 0.0, k=-1)
    with pytest.raises(ValueError):
        nu_of_s(3, 1.5)


def _zeros_in_nu(f, count: int, start: float, step: float) -> list[float]:
    """First ``count`` sign changes of f(nu) past ``start``, by scan and bracketed solve."""
    roots, x, fx = [], start, f(start)
    while len(roots) < count:
        y = x + step
        fy = f(y)
        if (fx < 0) != (fy < 0):
            roots.append(float(mpmath.findroot(f, (x, y), solver="anderson")))
        x, fx = y, fy
    return roots


@pytest.mark.parametrize("N", [2, 5, 12, 48, 200, 1000])
def test_cap_matches_hypergeometric_zeros(N):
    # mpmath oracle: nu_j is the j-th zero in nu > k of
    # 2F1(k-nu, nu+k+N-1; k+N/2; sin^2(theta/2)), and lambda_j = nu_j (nu_j+N-1)/a^2
    a = math.sqrt(N - 1)
    for R in (-3.0, -1.0, 0.5, 3.0, 5.0):
        if abs(R) >= a:
            continue
        theta = math.acos(R / a)
        for k in (0, 1, 2):
            with mpmath.workdps(20):
                z = mpmath.mpf(math.sin(theta / 2)) ** 2
                zeros = _zeros_in_nu(
                    lambda nu: mpmath.hyp2f1(k - nu, nu + k + N - 1, k + mpmath.mpf(N) / 2, z),
                    3, k + 1e-9, 0.25)
            for j, nu in enumerate(zeros, 1):
                res = cap_eigenvalue(N, a, theta, k, j)
                want = nu * (nu + N - 1) / a ** 2
                assert res.lam == pytest.approx(want, rel=1e-9), (R, k, j)
                assert res.zeros == j - 1
                assert res.residual < 1e-8, (R, k, j, res.residual)


@pytest.mark.parametrize("N, theta, k", [(500, 0.2086, 1), (2000, 0.5029, 0)])
def test_small_cap_large_N_matches_hypergeometric_zero(N, theta, k):
    # nu ~ 465 and ~ 1109: the series at order nu cancels past float64 here,
    # the degree recurrence from the two lowest orders does not; towards the
    # pole h grows by up to 1e116, where the weighted profile carries nothing
    # and differences of the samples would not certify the correct lambda
    res = cap_eigenvalue(N, 1.0, theta, k, 1)
    nu = (1 - N + math.sqrt((N - 1) ** 2 + 4 * res.lam)) / 2
    with mpmath.workdps(20):
        z = mpmath.mpf(math.sin(theta / 2)) ** 2
        ref = float(mpmath.findroot(
            lambda v: mpmath.hyp2f1(k - v, v + k + N - 1, k + mpmath.mpf(N) / 2, z),
            (nu * (1 - 1e-6), nu * (1 + 1e-6)), solver="anderson"))
    assert res.lam == pytest.approx(ref * (ref + N - 1), rel=1e-9)
    assert res.residual < 1e-8


def test_halfline_matches_parabolic_cylinder_zeros():
    # mpmath oracle: lambda_j = nu_j / alpha^2, nu_j the j-th zero of D_nu(R)
    for R in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
        with mpmath.workdps(20):
            zeros = _zeros_in_nu(lambda nu: mpmath.pcfd(nu, R), 4, 1e-9, 0.1)
        for j, nu in enumerate(zeros, 1):
            for alpha in (1.0, 1.5):
                res = halfline_eigenvalue(alpha, R, 0, j)
                assert res.lam == pytest.approx(nu / alpha ** 2, rel=1e-9), (R, j)
                assert res.zeros == j - 1
                assert res.residual < 1e-8, (R, j, res.residual)


# -- the Brent-Dekker root step, against scipy's brentq as an oracle ------------

XTOL = sys.float_info.min  # the solvers' tolerances
RTOLS = (4 * sys.float_info.epsilon, 1e-11, 1e-6)


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def _both(f, a, b, rtol, maxiter=100):
    """scipy's brentq and the port on one bracket: (root bits or "failed", evaluations)."""
    g, h = _counted(f), _counted(f)
    try:
        want = brentq(g, a, b, xtol=XTOL, rtol=rtol, maxiter=maxiter).hex()
    except (ValueError, RuntimeError):
        want = "failed"
    try:
        got = _brentq(h, a, b, XTOL, rtol, maxiter)
        assert type(got) is float
        got = got.hex()
    except SolverError:
        got = "failed"
    return (want, g.calls), (got, h.calls)


BRENT_CASES = [
    (lambda x: math.cos(x) - x, 0.0, 2.0),
    (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
    (lambda x: math.exp(x) - 1e6, 0.0, 30.0),
    (lambda x: math.atan(1e4 * (x - 0.123456789)), -1.0, 1.0),
    (lambda x: (x - 0.7) ** 5, 0.0, 1.0),  # at rtol 4 eps both run out of steps
    (lambda x: -1.0 if x < 1 / 3 else 1.0, 0.0, 1.0),  # a jump: bisection only
    # values of order 1e-160: the inverse-quadratic denominator underflows to
    # zero, where C gets an inf or nan step and bisects
    (lambda x: 1e-160 * (x ** 3 - 0.027), 0.0, 1.0),
    (lambda x: 1e-300 * (x - 0.3) * (1 + x), 0.0, 1.0),
]


@pytest.mark.parametrize("rtol", RTOLS)
@pytest.mark.parametrize("case", range(len(BRENT_CASES)))
def test_brent_step_matches_scipy_bits_and_evaluations(case, rtol):
    want, got = _both(*BRENT_CASES[case], rtol)
    assert got == want


def test_brent_step_matches_scipy_on_random_brackets():
    rng = random.Random(7)
    for _ in range(300):
        c, s, p = rng.uniform(-2, 2), 10 ** rng.uniform(-200, 200), rng.choice((1, 3, 5))
        # odd p: the sign is that of x - c, the only root
        f = lambda x, c=c, s=s, p=p: s * (x - c) * (1 + math.sin(3 * x) ** 2 + (x - c) ** (p - 1))
        a, b = c - rng.uniform(1e-3, 3), c + rng.uniform(1e-3, 3)
        want, got = _both(f, a, b, rng.choice(RTOLS))
        assert want[0] != "failed" and got == want, (c, s, p, a, b)


def test_brent_step_root_at_an_endpoint():
    for a, b in ((0.5, 2.0), (-1.0, 0.5)):
        want, got = _both(lambda x: x - 0.5, a, b, 1e-11)
        assert got == want == ((0.5).hex(), 2)


def test_brent_step_refuses_equal_signs_nan_and_exhaustion():
    with pytest.raises(SolverError, match="do not change sign"):
        _brentq(lambda x: x * x + 1, -1.0, 1.0, XTOL, 1e-11)
    with pytest.raises(SolverError, match="NaN"):
        _brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, XTOL, 1e-11)
    with pytest.raises(SolverError, match="NaN"):  # NaN at an interior step
        _brentq(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.45, 0.0, 1.0, XTOL, 1e-11)
    with pytest.raises(SolverError, match="in 3 steps"):
        _brentq(lambda x: math.cos(x) - x, 0.0, 2.0, XTOL, 1e-11, maxiter=3)
    # scipy fails on each of these after the same number of evaluations
    for f, a, b, maxiter in ((lambda x: x * x + 1, -1.0, 1.0, 100),
                             (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.45, 0.0, 1.0, 100),
                             (lambda x: math.cos(x) - x, 0.0, 2.0, 3)):
        want, got = _both(f, a, b, 1e-11, maxiter)
        assert got == want and want[0] == "failed"


def test_eigenvalues_are_python_floats():
    assert type(cap_eigenvalue(5, 1.0, 1.0).lam) is float
    assert type(halfline_eigenvalue(1.0, 0.5).lam) is float
    assert type(nu_of_s(6, 0.3)) is float


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
def test_halfline_rejects_non_finite_boundary(R):
    with pytest.raises(ValueError):
        halfline_eigenvalue(1.0, R)
    with pytest.raises(ValueError):
        halfline_eigenvalue(math.inf, 0.0 if math.isnan(R) else 1.0)
