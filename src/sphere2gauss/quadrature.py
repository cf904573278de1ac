"""Deterministic integration backends.

Gauss-Legendre on intervals, the disc-reduction formula for sphere
integrals of projected polynomials, an exact Beta-function moment oracle,
and a seeded Monte Carlo sphere sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import betainc

from .geometry import SphereSpec, sphere_volume_log
from .polyalg import LiftedPoly, RationalPoly

DEFAULT_SEED = 42


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    kind: str  # "legendre"
    order: int
    nodes: np.ndarray
    weights: np.ndarray


def legendre_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    if order < 2:
        raise ValueError("order must be >= 2")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return QuadratureRule("legendre", order, nodes, weights)


def _check_finite(values: np.ndarray, nodes: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        node = nodes[np.argmax(bad)]
        raise QuadratureError(f"integrand not finite at node {node!r}")


def _eval(f: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    return np.array([float(f(x)) for x in xs])


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
        vals = _eval(f, xs)
        _check_finite(vals, xs)
        total += half * float(rule.weights @ vals)
    return total


def cap_volume_fraction(N: int, theta: float) -> float:
    """Volume fraction of the geodesic cap of aperture theta on the unit N-sphere.

    The regularized incomplete beta function I_{sin^2(theta/2)}(N/2, N/2).
    """
    if not 0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")
    return float(betainc(N / 2, N / 2, math.sin(theta / 2) ** 2))


# -- disc reduction ----------------------------------------------------


def _as_scalar_fn(F, n: int):
    if isinstance(F, RationalPoly):
        if F.nvars != n:
            raise ValueError(f"polynomial has {F.nvars} variables, expected {n}")
        terms = [(np.array(e), float(c)) for e, c in F.terms.items()]

        def fn(*xs):
            pt = np.array(xs)
            return sum(c * np.prod(pt ** e) for e, c in terms)

        return fn
    return F


def _disc_weight_integral(g, n: int, N: int, a: float, order: int, panels: int) -> float:
    """Integral over the n-disc of radius a of g(x) (1-|x|^2/a^2)^{(N-n-1)/2}.

    The substitution r = a sin(psi) turns the boundary-singular weight into
    cos(psi)^{N-n}, smooth for all N >= n.
    """
    expo = N - n  # power of cos(psi) after the substitution, n = 1
    if n == 1:
        def integrand(psi):
            return a * g(a * math.sin(psi)) * math.cos(psi) ** expo

        return integrate_interval(integrand, (-math.pi / 2, math.pi / 2), order, panels)
    if n == 2:
        rule = legendre_rule(order)
        phi_nodes = math.pi * (rule.nodes + 1.0)  # (0, 2*pi)
        phi_weights = math.pi * rule.weights

        def radial(psi):
            s, c = math.sin(psi), math.cos(psi)
            ang = sum(w * g(a * s * math.cos(p), a * s * math.sin(p))
                      for p, w in zip(phi_nodes, phi_weights))
            return a * a * s * c ** (N - 2) * ang

        return integrate_interval(radial, (0.0, math.pi / 2), order, panels)
    raise NotImplementedError("disc reduction implemented for n in {1, 2}")


def sphere_inner_product(F, G, spec: SphereSpec, n: int, order: int = 48,
                         rtol: float = 1e-9, max_refine: int = 20) -> float:
    """L2 inner product over the sphere of two functions of the first n coordinates.

    Reduces to a weighted disc integral times the volume of the fibre sphere
    and refines composite panels until two successive panel counts agree to
    ``rtol``.
    """
    N, a = spec.N, spec.a
    if not 1 <= n <= N:
        raise ValueError("need 1 <= n <= N")
    Ff = _as_scalar_fn(F, n)
    Gf = _as_scalar_fn(G, n)

    def prod(*xs):
        return Ff(*xs) * Gf(*xs)

    fibre_vol = math.exp(sphere_volume_log(N - n, a)) if N > n else 2.0
    prev = None
    panels = 1
    for _ in range(max_refine + 1):
        val = fibre_vol * _disc_weight_integral(prod, n, N, a, order, panels)
        if prev is not None and abs(val - prev) <= rtol * max(1.0, abs(val)):
            return val
        prev = val
        panels *= 2
    raise QuadratureError(f"panel refinement exceeded {max_refine} doublings")


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
    sq = (P * P).base
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


def sample_sphere(N: int, a: float, size: int,
                  rng: np.random.Generator | None = None,
                  seed: int = DEFAULT_SEED) -> np.ndarray:
    """Uniform samples on S^N(a): normalized (N+1)-vectors of standard Gaussians."""
    if rng is None:
        rng = np.random.default_rng(seed)
    g = rng.standard_normal((size, N + 1))
    return a * g / np.linalg.norm(g, axis=1, keepdims=True)


def mc_sphere_integral(f, spec: SphereSpec, samples: int = 100_000,
                       rng: np.random.Generator | None = None,
                       seed: int = DEFAULT_SEED) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the integral of f over the sphere.

    ``f`` receives one sample point (array of length N+1) at a time.
    """
    pts = sample_sphere(spec.N, spec.a, samples, rng=rng, seed=seed)
    vals = np.array([float(f(p)) for p in pts])
    vol = math.exp(sphere_volume_log(spec.N, spec.a))
    mean = vals.mean()
    stderr = vals.std(ddof=1) / math.sqrt(samples)
    return vol * mean, vol * stderr
