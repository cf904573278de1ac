"""Sphere and Gaussian weights, sphere volumes, and boundedness diagnostics.

Every quantity that can underflow at large N is carried in the log domain;
log-gamma comes from ``math.lgamma`` (relative error well below 1e-12,
checked against integer factorials in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SphereSpec:
    """An N-dimensional sphere of radius a."""

    N: int
    a: float

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if not self.a > 0:
            raise ValueError("a must be positive")


def normalization_Z(spec: SphereSpec) -> float:
    """log of the radial normalizer: integral of (1 - r^2/a^2)^{N/2-1} over (-a, a).

    Closed form a * sqrt(pi) * Gamma(N/2) / Gamma((N+1)/2).
    """
    N, a = spec.N, spec.a
    return math.log(a) + 0.5 * math.log(math.pi) + math.lgamma(N / 2) - math.lgamma((N + 1) / 2)


def log_weight_sphere(spec: SphereSpec, r: float) -> float:
    """log w_N(r); -inf outside the open interval (-a, a)."""
    N, a = spec.N, spec.a
    if abs(r) >= a:
        return -math.inf
    return (N / 2 - 1) * math.log1p(-(r / a) ** 2) - normalization_Z(spec)


def log_weight_gauss(alpha: float, r: float) -> float:
    """log of the one-dimensional Gaussian density with standard deviation alpha."""
    return -r * r / (2 * alpha * alpha) - math.log(math.sqrt(2 * math.pi) * alpha)


def sphere_volume_log(N: int, a: float) -> float:
    """log vol(S^N(a)) = log 2 + ((N+1)/2) log pi + N log a - lgamma((N+1)/2)."""
    if N < 1 or not a > 0:
        raise ValueError("need N >= 1 and a > 0")
    return math.log(2) + (N + 1) / 2 * math.log(math.pi) + N * math.log(a) - math.lgamma((N + 1) / 2)


def varpi_and_A(spec: SphereSpec, alpha: float) -> tuple[float, float, float]:
    """Supremum of w_N/w_inf, the boundedness functional A_N, and the argmax.

    The first-order condition puts the extremum at r* = sqrt(a * A_N) when
    A_N > 0 and at the origin otherwise.
    """
    N, a = spec.N, spec.a
    if N < 3:
        raise ValueError("first-order analysis needs N >= 3")
    A = (a * a - alpha * alpha * (N - 2)) / a
    if A <= 0:
        r_star = 0.0
    else:
        r_star = math.sqrt(a * A)
        if r_star >= a:
            raise ValueError("extremal point escaped the interval; invalid spec")
    log_ratio = log_weight_sphere(spec, r_star) - log_weight_gauss(alpha, r_star)
    return math.exp(log_ratio), A, r_star


def omega_density(N: int, n: int, a: float, alpha: float, x) -> float:
    """Reweighting density pairing sphere projections with the Gaussian measure.

    Zero outside the open disc of radius a; evaluated in the log domain.
    """
    if not n < N:
        raise ValueError("need n < N")
    sq = sum(float(xi) ** 2 for xi in x)
    if sq >= a * a:
        return 0.0
    log_val = ((N - n - 1) / 2 * math.log1p(-sq / (a * a))
               + n / 2 * math.log(2 * math.pi * alpha * alpha)
               + sq / (2 * alpha * alpha))
    return math.exp(log_val)

