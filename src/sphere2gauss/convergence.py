"""Convergence harnesses: closed spectra, Dirichlet eigenvalues, eigenfunctions.

Everything runs on the canonical schedule a_N = alpha*sqrt(N-1) with
theta_N = arccos(alpha*R / a_N), under which

* closed eigenvalues obey the exact rational error law
  k(k+N-1)/a_N^2 - k/alpha^2 = k^2/(alpha^2 (N-1));
* the cap boundary satisfies a_N cos(theta_N) = alpha*R exactly and the
  quantity A_N = (a_N^2 - alpha^2 (N-2))/a_N = alpha^2/a_N is positive,
  decreasing and bounded, so all standing hypotheses hold by construction.

Custom schedules may be supplied as explicit (N, a_N, theta_N) triples, in
which case the hypotheses are checked rather than guaranteed.

The numerical harnesses import the solvers and the quadrature (and so NumPy)
when they run, so that the exact table loads none of them.  The two solvers
are then bound as names of this module, as a top-level import would bind them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _bind
from .geometry import SphereSpec, log_weight_gauss, log_weight_sphere


@dataclass(frozen=True)
class ConvergenceRow:
    """One finite-N-versus-limit comparison; hypotheses recorded per row."""

    N: int
    lhs: object  # finite-N quantity (Fraction for closed spectra, float else)
    rhs: object  # limit quantity
    abs_err: object
    residual_lhs: float = 0.0
    residual_rhs: float = 0.0
    hypotheses_ok: bool = True
    k: int | None = None
    note: str = ""


def closed_spectrum_table(n: int, alpha, k_max: int,
                          N_list: Sequence[int]) -> list[ConvergenceRow]:
    """Exact table of closed eigenvalues along the canonical schedule.

    All entries are Fractions: lhs = k(k+N-1)/a_N^2 with a_N^2 =
    alpha^2 (N-1), rhs = k/alpha^2, and abs_err = k^2/(alpha^2 (N-1))
    identically.  The dimension n does not enter the eigenvalues (only
    their multiplicities) and is accepted for interface symmetry.
    """
    alpha2 = Fraction(alpha) ** 2
    if n < 1 or k_max < 0 or alpha2 == 0:
        raise ValueError("need n >= 1, k_max >= 0 and alpha != 0")
    rows = []
    for N in N_list:
        if N < 2:
            raise ValueError("need N >= 2")
        aN2 = alpha2 * (N - 1)
        for k in range(k_max + 1):
            lhs = Fraction(k * (k + N - 1)) / aN2
            rhs = Fraction(k) / alpha2
            rows.append(ConvergenceRow(N=N, lhs=lhs, rhs=rhs,
                                       abs_err=abs(lhs - rhs), k=k))
    return rows


def canonical_schedule(alpha: float, R: float, N: int) -> tuple[float, float]:
    """(a_N, theta_N) with a_N = alpha*sqrt(N-1), a_N cos(theta_N) = alpha*R.

    Raises ValueError when |alpha*R| >= a_N, i.e. N is too small for the
    boundary value to sit inside the sphere.
    """
    aN = alpha * math.sqrt(N - 1)
    if abs(alpha * R) >= aN:
        raise ValueError(f"|alpha*R| = {abs(alpha * R):g} >= a_N = {aN:g} at N = {N}")
    return aN, math.acos(alpha * R / aN)


def check_hypotheses(alpha: float, R: float, aN: float, thetaN: float,
                     N: int) -> bool:
    """The two standing hypotheses: a_N cos(theta_N) >= alpha*R and A_N bounded.

    Boundedness of A_N = (a_N^2 - alpha^2 (N-2))/a_N is checked as
    A_N < alpha (1 + alpha) + 1 (any fixed finite bound works; the canonical
    schedule gives A_N = alpha^2/a_N <= alpha).
    """
    slack = 1e-12 * max(1.0, abs(alpha * R))
    boundary_ok = aN * math.cos(thetaN) >= alpha * R - slack
    A_N = (aN * aN - alpha * alpha * (N - 2)) / aN
    bound_ok = A_N < alpha * (1.0 + alpha) + 1.0
    return boundary_ok and bound_ok


def _certified(residual: float, tol: float) -> bool:
    """Verdict of a residual certificate: within tol passes, and NaN fails."""
    return residual <= tol


def dirichlet_convergence_table(alpha: float, R: float, N_list: Sequence[int],
                                tol: float = 1e-8,
                                schedule=None) -> list[ConvergenceRow]:
    """First Dirichlet eigenvalue of the cap versus its half-line limit.

    ``schedule`` maps N to (a_N, theta_N); defaults to the canonical one.
    Ns too small for the canonical boundary produce a skipped row carrying
    a diagnostic note instead of an eigenvalue.  A row is marked invalid
    (hypotheses_ok False) unless both residual certificates pass.
    """
    if any(N < 2 for N in N_list):
        raise ValueError("need N >= 2")
    cap_eigenvalue = _bind(globals(), "cap_eigenvalue")
    limit = _bind(globals(), "halfline_eigenvalue")(alpha, R, 0, 1, tol)
    rows = []
    for N in N_list:
        try:
            aN, thetaN = schedule(N) if schedule is not None else canonical_schedule(alpha, R, N)
        except ValueError as exc:
            rows.append(ConvergenceRow(N=N, lhs=math.nan, rhs=limit.lam,
                                       abs_err=math.nan,
                                       residual_rhs=limit.residual,
                                       hypotheses_ok=False,
                                       note=f"skipped: {exc}"))
            continue
        cap = cap_eigenvalue(N, aN, thetaN, 0, 1, tol)
        ok = (check_hypotheses(alpha, R, aN, thetaN, N)
              and _certified(cap.residual, tol) and _certified(limit.residual, tol))
        rows.append(ConvergenceRow(N=N, lhs=cap.lam, rhs=limit.lam,
                                   abs_err=abs(cap.lam - limit.lam),
                                   residual_lhs=cap.residual,
                                   residual_rhs=limit.residual,
                                   hypotheses_ok=ok))
    return rows


# -- eigenfunction comparison ---------------------------------------------


@dataclass(frozen=True)
class EigenfunctionComparison:
    """Weighted L2 and H1-seminorm distances of the same two profiles, g_N and h_inf."""

    N: int
    l2_distance: float
    h1_surrogate: float  # weighted H1-seminorm distance of g_N and h_inf: L2 of their slopes
    lam_N: float
    lam_limit: float
    normalization_check: float  # |int h_inf^2 dgamma - 1| after normalization


@dataclass(frozen=True)
class ProofIdentities:
    """Quadrature checks of the normalized 1-D profile h_N on I_N = (alpha*R, a_N)."""

    N: int
    norm_value: float  # int h_N^2 w_N dr, should be 1
    energy_value: float  # int h_N'^2 s_N w_N dr, should equal lam
    lam: float
    second_moment: float  # int r^2 h_N^2 w_N dr
    second_moment_bound: float  # (2 a_N^2 / N)(1 + 2 a_N^2 lam / N)


def _slope(f, lo: float, hi: float):
    """f' on [lo, hi]: central differences, one-sided within a step of either end."""
    step = 1e-6 * max(abs(lo), abs(hi))

    def df(r):
        a, b = max(r - step, lo), min(r + step, hi)
        return (f(b) - f(a)) / (b - a)

    return df


def _cap_profile(alpha: float, R: float, N: int, tol: float):
    """(a_N, canonical cap solve, w_N, h_N normalized on I_N = (alpha*R, a_N))."""
    aN, thetaN = canonical_schedule(alpha, R, N)
    cap = _bind(globals(), "cap_eigenvalue")(N, aN, thetaN, 0, 1, tol)
    spec = SphereSpec(N, aN)

    def w_N(r):
        return math.exp(log_weight_sphere(spec, r))

    return aN, cap, w_N, _normalize_positive(cap.profile, w_N, alpha * R, aN)


def proof_identities(alpha: float, R: float, N: int,
                     tol: float = 1e-8) -> ProofIdentities:
    """Verify the normalization, energy and second-moment facts for h_N.

    With h_N normalized so that int h_N^2 w_N dr = 1 on I_N, the Dirichlet
    identity int h_N'^2 s_N w_N dr = lambda_N holds, and the second moment
    int r^2 h_N^2 w_N dr is bounded by (2 a_N^2/N)(1 + 2 a_N^2 lambda_N/N).
    The derivative is the slope rule that the eigenfunction comparison uses.
    """
    from .quadrature import integrate_interval

    aN, cap, w_N, h = _cap_profile(alpha, R, N, tol)
    lo = alpha * R
    dh = _slope(h, lo, aN)
    norm_value = integrate_interval(lambda r: h(r) ** 2 * w_N(r), (lo, aN),
                                    order=64, panels=32)
    energy_value = integrate_interval(
        lambda r: dh(r) ** 2 * (1.0 - (r / aN) ** 2) * w_N(r), (lo, aN),
        order=64, panels=32)
    second = integrate_interval(lambda r: r * r * h(r) ** 2 * w_N(r), (lo, aN),
                                order=64, panels=32)
    bound = (2.0 * aN * aN / N) * (1.0 + 2.0 * aN * aN * cap.lam / N)
    return ProofIdentities(N=N, norm_value=norm_value, energy_value=energy_value,
                           lam=cap.lam, second_moment=second,
                           second_moment_bound=bound)


def _normalize_positive(profile, weight, lo: float, hi: float):
    """Scale a positive profile so that its weighted square integrates to 1 on (lo, hi).

    The first-branch cap and half-line profiles are positive on their
    supports, so no sign is chosen.  The integral runs on the 48-node,
    24-panel rule; the checks of the result integrate on 64 nodes and 32
    panels, so that they can see an error of the rule.
    """
    from .quadrature import integrate_interval

    norm2 = integrate_interval(lambda r: profile(r) ** 2 * weight(r), (lo, hi),
                               order=48, panels=24)
    c = 1.0 / math.sqrt(norm2)
    return lambda r: c * profile(r)


def eigenfunction_comparison(alpha: float, R: float, N: int,
                             tol: float = 1e-8) -> EigenfunctionComparison:
    """Compare the projected cap eigenfunction profile with its half-line limit.

    The finite-N profile is g_N = h_N * s_N * sqrt(w_N / w_inf) on
    I_N = (alpha*R, a_N), extended by zero, with h_N normalized so that
    int h_N^2 w_N dr = 1; the limit profile h_inf is normalized to unit
    L2(gamma^1_alpha) norm.  Both first-branch profiles are positive on their
    supports, so no sign convention enters the distances.
    """
    from .quadrature import integrate_interval

    aN, cap, w_N, h_N = _cap_profile(alpha, R, N, tol)
    inf = _bind(globals(), "halfline_eigenvalue")(alpha, R, 0, 1, tol)
    lo = alpha * R
    hi_inf = lo + 20.0 * alpha

    def w_inf(r):
        return math.exp(log_weight_gauss(alpha, r))

    h_inf = _normalize_positive(inf.profile, w_inf, lo, hi_inf)
    check = abs(integrate_interval(lambda r: h_inf(r) ** 2 * w_inf(r),
                                   (lo, hi_inf), order=64, panels=32) - 1.0)
    if check > tol * 100.0:
        raise RuntimeError(f"limit profile normalization check failed: {check:.3g}")

    def g_N(r):  # evaluated inside (lo, aN) only
        return h_N(r) * (1.0 - (r / aN) ** 2) * math.sqrt(w_N(r) / w_inf(r))

    def distance(f, g):
        """Weighted L2 distance on (lo, hi_inf) of f, zero past a_N, and g."""
        sq = integrate_interval(lambda r: (f(r) - g(r)) ** 2 * w_inf(r),
                                (lo, min(aN, hi_inf)), order=48, panels=32)
        if aN < hi_inf:  # tail of g past the sphere's edge
            sq += integrate_interval(lambda r: g(r) ** 2 * w_inf(r),
                                     (aN, hi_inf), order=48, panels=8)
        return math.sqrt(sq)

    return EigenfunctionComparison(
        N=N, l2_distance=distance(g_N, h_inf),
        h1_surrogate=distance(_slope(g_N, lo, aN), _slope(h_inf, lo, hi_inf)),
        lam_N=cap.lam, lam_limit=inf.lam, normalization_check=check)
