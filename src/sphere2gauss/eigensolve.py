"""Dirichlet eigenvalues of caps and Gaussian half-lines from closed forms.

Two boundary-value problems are handled:

* the geodesic cap of aperture theta on an N-sphere of radius a, with
  angular index k.  The eigenfunction regular at the pole is
  sin^k(u) 2F1(k-nu, nu+k+N-1; k+N/2; sin^2(u/2)) (DLMF 15.2, 18.3), with
  lambda = nu (nu + N - 1) / a^2;
* the half-line (alpha*R, infinity) under the 1-D Gaussian measure.  With
  x = r/alpha the eigenfunction recessive at infinity is exp(x^2/4) D_nu(x)
  (DLMF 12.2), with lambda = (nu + k) / alpha^2.

Each eigenvalue is the root in nu of the closed form at the boundary.  The
branch j is isolated by oscillation-count bisection on the profile sampled
past the boundary; one Brent-Dekker root-find then locates nu.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import betaincinv, rgamma, roots_genlaguerre


class SolverError(RuntimeError):
    pass


@dataclass
class EigenResult:
    lam: float
    residual: float
    zeros: int
    samples: np.ndarray  # (abscissa, value) pairs, uniform abscissa
    iterations: int  # closed-form evaluations spent on the root
    profile: Callable[[float], float] = field(repr=False, default=None)
    # r -> (c2, c1, potential) of c2 h'' + c1 h' + (lam - potential) h = 0
    ode: Callable = field(repr=False, default=None)


_EPS = sys.float_info.epsilon
_GRID = 1024  # verification-grid size
_COUNT_GRID = 160  # least sampling density used for interior zero counting
_LAGUERRE = 40  # quadrature nodes for the half-line Laplace integrals
# highest cap degree that the recurrence climbs to, one Python step per
# degree.  The first branch of a cap of aperture theta lies near degree
# j_{N/2-1,1} / theta (a Bessel zero, 2.4 at N = 2), so apertures below about
# 4e-5 at N = 2, and larger ones at larger N, fail in about a second instead
# of climbing for hours
_MAX_DEGREE = 2 ** 16
_MAX_GROW = 60  # doublings of the bracket top before a branch counts as not found
# the least sampled stretch past the boundary, in widths of the projected
# weight (a/sqrt(N) on the cap, alpha on the half-line); the stretch grows to
# the turning point of the branch when that lies further out
_WINDOW = 12.0
# the verification samples stop where the weighted eigenfunction has fallen
# to 1e-12 of its peak amplitude: further out it carries no weight
_DEPTH = 12 * math.log(10)
# order-8 central differences: weights of h[i-4..i+4] for h'(i) and h''(i)
_D1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
_D2 = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560])


def _count_sign_changes(values: np.ndarray) -> int:
    signs = np.sign(values)
    signs = signs[signs != 0]
    return int(np.sum(signs[:-1] != signs[1:]))


def _count_points(span: float, wavenumber: float) -> int:
    """Count-grid size with four samples per zero spacing.

    By Sturm comparison, zeros of w'' + Q w = 0 lie at least pi/sqrt(max Q)
    apart; ``wavenumber`` is that sqrt(max Q) and ``span`` the gridded stretch.
    """
    return max(_COUNT_GRID, math.ceil(4 * span * wavenumber / math.pi) + 1)


def _weighted_extent(abscissa: np.ndarray, log_amplitude: np.ndarray) -> float:
    """Far end of the stretch where the weighted eigenfunction is not negligible.

    ``abscissa`` runs from the far end to the boundary, ``log_amplitude`` is
    log(|profile| sqrt(weight)) there; past the turning point it only falls.
    """
    keep = np.nonzero(log_amplitude >= np.max(log_amplitude) - _DEPTH)[0][0]
    return float(abscissa[keep])


def _effective_zero_count(values: np.ndarray) -> int:
    """Interior zeros of a profile starting positive, with a boundary-lag fix.

    Just above an eigenvalue the newest zero sits arbitrarily close to the
    terminal endpoint and can hide inside the last grid interval; the parity
    of the interior count must match the terminal sign, so a mismatch means
    exactly one such hidden zero.
    """
    interior = _count_sign_changes(values[:-1])
    last = float(values[-1])
    if last != 0.0:
        parity = 1.0 if interior % 2 == 0 else -1.0
        if math.copysign(1.0, last) != parity:
            interior += 1
    return interior


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f between xa and xb by the Brent-Dekker iteration of scipy's brentq.

    A step-for-step port of scipy.optimize.brentq (Brent 1973, ch. 4): the
    same choice between inverse interpolation and bisection, the same
    tolerance xtol + rtol |x| and the same evaluations, so the same float
    comes out.  Where C divides by zero it gets an inf or nan step, which
    fails the step test; here that step is bisection too.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise SolverError(f"boundary value is NaN at {x!r}")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SolverError(f"boundary values do not change sign across [{xa:g}, {xb:g}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # bisect unless interpolation gives a short enough step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise SolverError(f"root not isolated to tolerance in {maxiter} steps")


def _locate(sample, at_boundary, j: int, hi0: float, tol: float):
    """Root nu of branch j, the closed-form evaluations spent, and ``sample(nu)``.

    ``sample(x)`` gives the count grid, from the profile's far end to the
    boundary, and the profile on it; ``at_boundary(x)`` is the profile's
    last value.  Oscillation-count bisection isolates adjacent parameters
    with counts j-1 and j; their parity-corrected counts give opposite
    boundary signs, so one Brent-Dekker root-find locates nu between them.
    """
    calls = 0

    def count(x):
        nonlocal calls
        calls += 1
        return _effective_zero_count(sample(x)[1])

    def end(x):
        nonlocal calls
        calls += 1
        return at_boundary(x)

    lo = 1e-12
    count_lo = count(lo)
    if count_lo >= j:
        raise SolverError("oscillation count at the bottom of the bracket is too high")
    hi = hi0
    count_hi = count(hi)
    grow = 0
    while count_hi < j:
        hi *= 2.0
        grow += 1
        if grow > _MAX_GROW:
            raise SolverError(f"no bracket found below nu = {hi:g}")
        count_hi = count(hi)
    while not (count_lo == j - 1 and count_hi == j):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise SolverError("bracket collapsed before isolating the branch")
        count_mid = count(mid)
        if count_mid >= j:
            hi, count_hi = mid, count_mid
        else:
            lo, count_lo = mid, count_mid
    root = _brentq(end, lo, hi, xtol=sys.float_info.min, rtol=max(1e-3 * tol, 4 * _EPS))
    return root, calls, *sample(root)


def _certify(lam: float, values: np.ndarray, j: int, samples: np.ndarray, iterations: int,
             profile, ode) -> EigenResult:
    """The result with its residual certificate; its count grid must hold j-1 zeros."""
    zeros = _count_sign_changes(values[:-1])
    result = EigenResult(lam=lam, residual=math.nan, zeros=zeros, samples=samples,
                         iterations=iterations, profile=profile, ode=ode)
    result.residual = ode_residual(result)
    if zeros != j - 1:
        raise SolverError(f"converged eigenfunction has {zeros} interior zeros, expected {j - 1}")
    return result


def ode_residual(result: EigenResult) -> float:
    """Max ODE residual of the sampled eigenfunction, in the r-coordinate form.

    Order-8 central differences on the uniform verification grid.  Each
    point's residual is divided by the summed magnitudes of the ODE's three
    terms there, so that an error anywhere on the grid counts at its own
    scale.  To that sum is added |c2| (|h'| / span + |h| / span^2), the
    second-derivative term of a function that changes by its own size
    across the sampled span; it keeps the ratio finite where all three terms
    nearly vanish together: for lambda -> 0 with a nearly constant
    eigenfunction, or at a zero of h where c1 = 0.
    """
    r = result.samples[:, 0]
    h = result.samples[:, 1]
    span = r[-1] - r[0]
    dr = r[1] - r[0]
    windows = sliding_window_view(h, len(_D1))
    h1, h2 = windows @ _D1 / dr, windows @ _D2 / dr ** 2
    m = len(_D1) // 2
    r, h = r[m:-m], h[m:-m]
    c2, c1, potential = result.ode(r)
    terms = (c2 * h2, c1 * h1, (result.lam - potential) * h)
    size = (sum(np.abs(term) for term in terms)
            + np.abs(c2) * (np.abs(h1) / span + np.abs(h) / span ** 2))
    return float(np.max(np.abs(sum(terms)) / size))


def _series(a: float, b: float | None, c: float, z):
    """2F1(a, b; c; z), or 1F1(a; c; z) for b=None, and its summed term magnitude.

    Needs a <= 1, c > 0 and 0 <= z, with z < 1 for 2F1; z is a scalar or an
    array.  Once a + m > 0, every later term ratio is below z/(m+c) for 1F1
    and z*max(1, (m+b)/(m+c)) for 2F1; summation stops when the geometric
    tail this bounds drops below the rounding error of the sum so far.
    """
    every = np.all if np.ndim(z) else bool  # plain floats skip numpy's overhead
    if b is not None and not every(z < 1):
        raise SolverError("2F1 series needs z < 1: the cap reaches the antipode in float64")
    term = total = size = 1.0 + 0.0 * z
    m = 0
    while True:
        ratio = (a + m) / ((c + m) * (m + 1))
        if b is not None:
            ratio *= b + m
        term = term * ratio * z
        total = total + term
        size = size + abs(term)
        m += 1
        if m % 8 == 0 and m > -a:
            if not every(size < math.inf):
                raise SolverError(f"hypergeometric series at ({a:g}, {b}, {c:g}) overflows float64")
            rho = z / (m + c) if b is None else z * max(1.0, (m + b) / (m + c))
            if every((rho < 1) & (abs(term) * rho <= _EPS * (1 - rho) * size)):
                return total, size


# -- spherical cap -------------------------------------------------------


def _cap_form(n: float, N: int, k: int):
    """t -> 2F1(-n, n+2k+N-1; k+N/2; (1-t)/2) at t = cos(u), scalar or array.

    With l = k + (N-1)/2 this is the Gegenbauer function of degree n,
    G_n = C^l_n / C^l_n(1) (DLMF 18.5); nu = n + k.  The series in
    (1-t)/2 is summed at the two lowest degrees n0 = n - floor(n) and
    n0 + 1, where its terms keep one sign past the second; the degree
    recurrence (m + 2l) G_{m+1} = 2(m + l) t G_m - m G_{m-1} (DLMF 18.9),
    of which G is not the minimal solution, then climbs to n.
    """
    if n > _MAX_DEGREE:
        raise SolverError(f"cap degree {n:.6g} is above {_MAX_DEGREE}: the aperture is too small")
    n0 = n - math.floor(n)
    half = k + (N - 1) / 2

    def F(t):
        z = (1 - t) / 2
        prev = _series(-n0, n0 + 2 * half, half + 0.5, z)[0]
        if n < 1:
            return prev
        cur = _series(-n0 - 1, n0 + 1 + 2 * half, half + 0.5, z)[0]
        m = n0 + 1
        while m < n - 0.5:
            prev, cur, m = cur, (2 * (m + half) * t * cur - m * prev) / (m + 2 * half), m + 1
        return cur

    return F


def cap_eigenvalue(N: int, a: float, theta: float, k: int = 0, j: int = 1,
                   tol: float = 1e-8) -> EigenResult:
    """j-th Dirichlet eigenvalue of the cap problem with angular index k.

    The root nu - k is located to relative precision tol/1000; ``residual``
    certifies the sampled eigenfunction against the ODE.
    """
    if N < 2 or not 0 < a < math.inf or not 0 < theta < math.pi or k < 0 or j < 1 or not tol > 0:
        raise ValueError("invalid cap problem parameters")
    t_b = math.cos(theta)
    half = k + (N - 1) / 2
    u_window = math.acos(min(1.0, t_b + _WINDOW / math.sqrt(N)))

    def sample(n):
        # w = sin^((N-1)/2)(u) f solves w'' + (L^2 - M / sin^2 u) w = 0 with
        # L = n + half and M = half (half - 1); below the turning point
        # u* = asin(sqrt(M) / L) w is positive and convex, so no zero lies there
        L, M = n + half, max(half * (half - 1), 0.0)
        u_far = min(u_window, math.asin(math.sqrt(M) / L))
        u = np.linspace(u_far, theta, _count_points(theta - u_far, math.sqrt(L * L - M)))
        return u, _cap_form(n, N, k)(np.cos(u))

    n, iterations, u, values = _locate(sample, lambda n: float(_cap_form(n, N, k)(t_b)),
                                       j, 2.0 * j, tol)
    nu = n + k
    F = _cap_form(n, N, k)

    def shape(t):
        return (1.0 - t * t) ** (k / 2) * F(t)

    # the weight is sin^(N-1)(u) and the profile sin^k(u) F; for odd k the
    # factor sin^k(u) is not smooth at the pole, so stop at u = theta/4
    with np.errstate(divide="ignore"):
        log_amplitude = np.log(np.abs(values)) + half * np.log(np.sin(u))
    span = a * (math.cos(max(_weighted_extent(u, log_amplitude), 0.25 * theta)) - t_b)
    r_grid = np.linspace(a * t_b + 1e-3 * span, a * t_b + span, _GRID)
    samples = np.column_stack([r_grid, shape(r_grid / a)])

    def profile(r: float) -> float:
        return 0.0 if r <= a * t_b or r > a else float(shape(r / a))

    def ode(r):
        c2 = 1.0 - (r / a) ** 2
        return c2, -N * r / a ** 2, k * (k + N - 2) / (a ** 2 * c2)

    return _certify(nu * (nu + N - 1) / (a * a), values, j, samples, iterations, profile, ode)


# -- Gaussian half-line ---------------------------------------------------


def _hermite_form(nu: float):
    """x -> exp(x^2/4) D_nu(x), for a scalar or an array x.

    Below x = 2 from Kummer's functions (DLMF 12.4, 12.7).  From x = 2
    on, the Laplace integral (DLMF 12.5) gives the function at the
    two orders mu = nu - floor(nu) - 2 and mu - 1 below -1 as x^mu times a
    mean of exp(-S^2/(2x^2)) over S ~ Gamma(-mu), taken by generalized
    Gauss-Laguerre quadrature; the order recurrence (DLMF 12.8), of which
    D_nu is not the minimal solution, then climbs to nu.  Neither step
    cancels, unlike the Kummer sum at large x or scipy's pbdv next to
    integer orders.  The two Laguerre rules are built the first time an
    abscissa reaches 2; when every x < 2 the Kummer value is returned as is.
    """
    kummer = math.sqrt(math.pi) * 2 ** (nu / 2)
    even_c = kummer * rgamma((1 - nu) / 2)
    odd_c = -math.sqrt(2) * kummer * rgamma(-nu / 2)
    mu0 = nu - math.floor(nu) - 2

    @functools.cache
    def rules():
        return roots_genlaguerre(_LAGUERRE, -mu0 - 1), roots_genlaguerre(_LAGUERRE, -mu0)

    def h(x):
        near = np.minimum(x, 2.0)
        z = near * near / 2
        small = (even_c * _series(-nu / 2, None, 0.5, z)[0]
                 + odd_c * near * _series((1 - nu) / 2, None, 1.5, z)[0])
        if np.all(x < 2.0):
            return small
        (s0, w0), (s1, w1) = rules()
        far = np.asarray(np.maximum(x, 2.0))[..., None]
        mean0 = np.exp(-s0 ** 2 / (2 * far ** 2)) @ w0 / w0.sum()
        mean1 = np.exp(-s1 ** 2 / (2 * far ** 2)) @ w1 / w1.sum()
        far = far[..., 0]
        prev, cur, mu = far ** (mu0 - 1) * mean1, far ** mu0 * mean0, mu0
        while mu < nu - 0.5:
            prev, cur, mu = cur, far * cur - mu * prev, mu + 1
        return np.where(x < 2.0, small, cur)

    return h


def halfline_eigenvalue(alpha: float, R: float, k: int = 0, j: int = 1,
                        tol: float = 1e-8) -> EigenResult:
    """j-th Dirichlet eigenvalue on (alpha*R, inf) under the 1-D Gaussian measure.

    The angular index enters only as the exact shift k/alpha^2.  The root nu
    of D_nu(R) is located to relative precision tol/1000.
    """
    if not 0 < alpha < math.inf or not math.isfinite(R) or k < 0 or j < 1 or not tol > 0:
        raise ValueError("invalid half-line problem parameters")

    def sample(nu):
        # D_nu has no zero past the turning point sqrt(4 nu + 2)
        far = max(R + _WINDOW, math.sqrt(4 * nu + 2))
        x = np.linspace(far, R, _count_points(far - R, math.sqrt(nu + 0.5)))
        return x, _hermite_form(nu)(x)

    nu, iterations, x, values = _locate(sample, lambda nu: float(_hermite_form(nu)(R)),
                                        j, 4.0 * j, tol)
    h = _hermite_form(nu)

    # the weight is exp(-x^2/2), so the weighted profile is D_nu(x)
    with np.errstate(divide="ignore"):
        span = _weighted_extent(x, np.log(np.abs(values)) - x * x / 4) - R
    x_grid = np.linspace(R + 1e-3 * span, R + span, _GRID)
    samples = np.column_stack([alpha * x_grid, h(x_grid)])

    def profile(r: float) -> float:
        return 0.0 if r <= alpha * R else float(h(r / alpha))

    def ode(r):
        return 1.0, -r / alpha ** 2, k / alpha ** 2

    return _certify((nu + k) / (alpha * alpha), values, j, samples, iterations, profile, ode)


# -- Friedland-Hayman exponent -------------------------------------------


def nu_of_s(N: int, s: float, tol: float = 1e-7) -> float:
    """Positive root nu of nu(nu + N - 1) = lambda(cap of volume fraction s).

    The cap of volume fraction s has sin^2(theta/2) = I^{-1}_s(N/2, N/2).
    """
    if not 0 < s < 1:
        raise ValueError("s must lie in (0, 1)")
    theta = 2.0 * math.asin(math.sqrt(betaincinv(N / 2, N / 2, s)))
    lam = cap_eigenvalue(N, 1.0, theta, 0, 1, tol).lam
    b = N - 1
    return (-b + math.sqrt(b * b + 4.0 * lam)) / 2.0
