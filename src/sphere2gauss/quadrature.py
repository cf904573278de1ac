"""Deterministic integration backends.

Gauss-Legendre on intervals, the disc-reduction formula for sphere
integrals of projected polynomials, an exact Beta-function moment oracle,
and a seeded Monte Carlo sphere sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import betainc

from .geometry import SphereSpec, sphere_volume_log
from .polyalg import LiftedPoly, RationalPoly

DEFAULT_SEED = 42
_ORDER = 48  # Gauss-Legendre order of the disc reduction
_RTOL = 1e-9  # agreement of two successive panel counts
_MAX_REFINE = 20  # panel doublings before the disc reduction gives up


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    order: int
    nodes: np.ndarray
    weights: np.ndarray


def legendre_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    if order < 2:
        raise ValueError("order must be >= 2")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(order, nodes, weights)


def integrate_interval(f, interval: tuple[float, float], order: int = 32,
                       panels: int = 1) -> float:
    """Composite Gauss-Legendre estimate of the integral of f over (a, b)."""
    a, b = interval
    rule = legendre_rule(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        xs = mid + half * rule.nodes
        vals = np.array([float(f(x)) for x in xs])
        bad = ~np.isfinite(vals)
        if bad.any():
            raise QuadratureError(f"integrand not finite at node {xs[np.argmax(bad)]!r}")
        total += half * float(rule.weights @ vals)
    return float(total)


def cap_volume_fraction(N: int, theta: float) -> float:
    """Volume fraction of the geodesic cap of aperture theta on the unit N-sphere.

    The regularized incomplete beta function I_{sin^2(theta/2)}(N/2, N/2).
    """
    if not 0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")
    return float(betainc(N / 2, N / 2, math.sin(theta / 2) ** 2))


# -- disc reduction ----------------------------------------------------


def _disc_weight_integral(poly: RationalPoly, N: int, a: float, panels: int) -> float:
    """Integral over the n-disc of radius a of poly(x) (1-|x|^2/a^2)^{(N-n-1)/2}.

    The substitution r = a sin(psi) turns the boundary-singular weight into
    cos(psi)^{N-n}, smooth for all N >= n; for n = 2 the angle is integrated
    on one panel of the same rule.
    """
    expo = N - poly.nvars  # power of cos(psi) after the substitution
    if poly.nvars == 1:
        def integrand(psi):
            return a * poly.evaluate((a * math.sin(psi),)) * math.cos(psi) ** expo

        return integrate_interval(integrand, (-math.pi / 2, math.pi / 2), _ORDER, panels)

    def radial(psi):
        s, c = math.sin(psi), math.cos(psi)
        ang = integrate_interval(
            lambda p: poly.evaluate((a * s * math.cos(p), a * s * math.sin(p))),
            (0.0, 2 * math.pi), _ORDER)
        return a * a * s * c ** expo * ang

    return integrate_interval(radial, (0.0, math.pi / 2), _ORDER, panels)


def sphere_inner_product(F: RationalPoly, G: RationalPoly, spec: SphereSpec,
                         n: int) -> float:
    """L2 inner product over the sphere of two polynomials in the first n coordinates.

    Only n in {1, 2} is supported.  The exact product F*G is evaluated in
    floats at each node of a weighted disc integral, which is multiplied by
    the volume of the fibre sphere; the composite panels double until two
    successive panel counts agree to a relative 1e-9.
    """
    N, a = spec.N, spec.a
    if n not in (1, 2) or n > N:
        raise ValueError("need n in {1, 2} and n <= N")
    for P in (F, G):
        if P.nvars != n:
            raise ValueError(f"polynomial has {P.nvars} variables, expected {n}")
    prod = F * G
    fibre_vol = math.exp(sphere_volume_log(N - n, a)) if N > n else 2.0
    prev = None
    panels = 1
    for _ in range(_MAX_REFINE + 1):
        val = fibre_vol * _disc_weight_integral(prod, N, a, panels)
        if prev is not None and abs(val - prev) <= _RTOL * max(1.0, abs(val)):
            return val
        prev = val
        panels *= 2
    raise QuadratureError(f"panel refinement exceeded {_MAX_REFINE} doublings")


# -- exact moment oracle -------------------------------------------------


def _log_disc_moment(exponents: Sequence[int], p: float) -> tuple[float, bool]:
    """log of the integral over the unit n-disc of x^A (1-|x|^2)^p, and evenness.

    Closed Beta form: prod Gamma((A_i+1)/2) * Gamma(p+1) / Gamma(|A|/2 + n/2 + p + 1)
    when every exponent is even; the moment vanishes otherwise.
    """
    if any(e % 2 for e in exponents):
        return -math.inf, False
    n = len(exponents)
    total = sum(exponents)
    log_val = (sum(math.lgamma((e + 1) / 2) for e in exponents)
               + math.lgamma(p + 1)
               - math.lgamma(total / 2 + n / 2 + p + 1))
    return log_val, True


def sphere_monomial_moment(N: int, a: float, beta: Sequence[int]) -> float:
    """Exact integral of z^beta over S^N(a); zero unless every exponent is even."""
    if len(beta) != N + 1:
        raise ValueError("beta must have N+1 entries")
    if any(b % 2 for b in beta):
        return 0.0
    total = sum(beta)
    log_val = (math.log(2) + sum(math.lgamma((b + 1) / 2) for b in beta)
               - math.lgamma((N + 1 + total) / 2)
               + (N + total) * math.log(a))
    return math.exp(log_val)


def lifted_norm_sq_exact(P: LiftedPoly, a: float) -> float:
    """Squared L2 norm over S^N(a) of a lifted polynomial, via Beta moments.

    Expands P^2 and integrates each x^A t^j term with the closed-form disc
    moment at weight exponent (N-n-1)/2 + j; independent of any quadrature.
    """
    N, n = P.N, P.n
    sq = P.base * P.base
    fibre_log = sphere_volume_log(N - n, 1.0) if N > n else math.log(2.0)
    total = 0.0
    for exps, coeff in sq.terms.items():
        j = exps[-1]
        A = exps[:-1]
        log_m, even = _log_disc_moment(A, (N - n - 1) / 2 + j)
        if not even:
            continue
        scale = (N + sum(A) + 2 * j) * math.log(a)
        total += float(coeff) * math.exp(fibre_log + log_m + scale)
    return total


# -- Monte Carlo oracle --------------------------------------------------


def sample_sphere(N: int, a: float, size: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Uniform samples on S^N(a): normalized (N+1)-vectors of standard Gaussians."""
    g = np.random.default_rng(seed).standard_normal((size, N + 1))
    return a * g / np.linalg.norm(g, axis=1, keepdims=True)


def mc_sphere_integral(f, spec: SphereSpec, samples: int = 100_000,
                       seed: int = DEFAULT_SEED) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the integral of f over the sphere.

    ``f`` receives one sample point (array of length N+1) at a time.
    """
    pts = sample_sphere(spec.N, spec.a, samples, seed=seed)
    vals = np.array([float(f(p)) for p in pts])
    vol = math.exp(sphere_volume_log(spec.N, spec.a))
    mean = vals.mean()
    stderr = vals.std(ddof=1) / math.sqrt(samples)
    return vol * mean, vol * stderr
