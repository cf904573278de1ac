"""Construction of the projected eigenfunction families.

Builds the harmonic lifts on R^{N+1}, their on-sphere restrictions as
polynomials in the first n coordinates, the Gaussian-space eigenfunctions,
probabilists' Hermite polynomials, and the weighted Laplacian acting on
polynomials.  Everything here is exact rational arithmetic.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .indices import MultiIndex, enumerate_multi_indices, gauss_multiplicity
from .polyalg import (
    LiftedPoly,
    RationalPoly,
    euler_pairing,
    laplacian,
    lifted_laplacian,
    rational_rank,
)


def coeff_C(j: int, m: int) -> Fraction:
    """Product over l=1..j of -1/(2l(m+2l-1)); the empty product is 1."""
    if j < 0:
        raise ValueError("j must be >= 0")
    out = Fraction(1)
    for l in range(1, j + 1):
        den = 2 * l * (m + 2 * l - 1)
        if den == 0:
            raise ZeroDivisionError(f"coefficient undefined: m+2l-1 = 0 at l={l}, m={m}")
        out *= Fraction(-1, den)
    return out


def _as_entries(K) -> tuple[int, ...]:
    if isinstance(K, MultiIndex):
        return K.entries
    return MultiIndex(tuple(K)).entries


def _laplacian_series(xK: RationalPoly, coeffs: Sequence,
                      variables: Sequence[int] | None = None) -> RationalPoly:
    """Sum over j of coeffs[j] * Delta^j x^K, the Laplacian over ``variables``."""
    total = RationalPoly(xK.nvars)
    delta = xK
    for j, c in enumerate(coeffs):
        if j:
            delta = laplacian(delta, variables)
        total = total + c * delta
    return total


def build_P(N: int, n: int, K) -> LiftedPoly:
    """Harmonic lift of x^K to R^{N+1}: sum over j of C_j(N-n) t^j Delta^j x^K, t = |y|^2."""
    K = _as_entries(K)
    if len(K) != n:
        raise ValueError(f"K has length {len(K)}, expected n={n}")
    if not 1 <= n <= N:
        raise ValueError("need 1 <= n <= N")
    coeffs = [RationalPoly.monomial((0,) * n + (j,), coeff_C(j, N - n))
              for j in range(sum(K) // 2 + 1)]
    return LiftedPoly(_laplacian_series(RationalPoly.monomial(K + (0,)), coeffs, range(n)),
                      n, N)


def build_Q_sphere(N: int, n: int, K, a2) -> RationalPoly:
    """On-sphere restriction of the harmonic lift, as a polynomial on R^n.

    The lift P depends on y only through t = |y|^2, which on the sphere of
    squared radius a2 equals a2 - |x|^2.
    """
    P = build_P(N, n, K)
    a2 = Fraction(a2)
    if a2 <= 0:
        raise ValueError("a2 must be positive")
    return P.substitute_t(a2)


def build_Q_gauss(n: int, K, alpha2) -> RationalPoly:
    """Gaussian-space eigenfunction sum over j of (-alpha^2/2)^j / j! Delta^j x^K."""
    K = _as_entries(K)
    if len(K) != n:
        raise ValueError(f"K has length {len(K)}, expected n={n}")
    alpha2 = Fraction(alpha2)
    if alpha2 <= 0:
        raise ValueError("alpha2 must be positive")
    coeffs = [(-alpha2 / 2) ** j / math.factorial(j) for j in range(sum(K) // 2 + 1)]
    return _laplacian_series(RationalPoly.monomial(K), coeffs)


def hermite(k: int) -> RationalPoly:
    """Probabilists' Hermite polynomial H_k in one variable."""
    if k < 0:
        raise ValueError("k must be >= 0")
    h_prev = RationalPoly.constant(1, 1)
    if k == 0:
        return h_prev
    r = RationalPoly.variable(1, 0)
    h = r
    for m in range(1, k):
        h, h_prev = r * h - Fraction(m) * h_prev, h
    return h


def check_harmonic(p: LiftedPoly) -> tuple[bool, LiftedPoly]:
    """Exact harmonicity test; returns (is_harmonic, residual)."""
    residual = lifted_laplacian(p)
    return residual.is_zero(), residual


def ou_apply(q: RationalPoly, alpha2) -> RationalPoly:
    """Weighted (Ornstein-Uhlenbeck) Laplacian: Delta q - <x, grad q>/alpha^2."""
    alpha2 = Fraction(alpha2)
    return laplacian(q) + Fraction(-1) / alpha2 * euler_pairing(q)


def _generic_points(n: int, count: int, seed: int = 20240) -> list[tuple[Fraction, ...]]:
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        pts.append(tuple(Fraction(rng.randint(-97, 97), rng.randint(1, 89)) for _ in range(n)))
    return pts


def projected_eigenspace_dimension(N: int, n: int, k: int) -> int:
    """Rank over Q of the order-k family on the sphere of squared radius N, at generic points.

    Extra evaluation points are appended (up to three times the family size)
    before trusting a rank-deficient answer, so a degenerate point draw
    cannot fake a failure of the dimension identity.
    """
    family = [build_Q_sphere(N, n, K, N) for K in enumerate_multi_indices(n, k)]
    d = gauss_multiplicity(n, k)
    for npts in (d, 2 * d, 3 * d):
        pts = _generic_points(n, npts)
        rows = [[q.evaluate(p) for p in pts] for q in family]
        rank = rational_rank(rows)
        if rank == len(family):
            return rank
    return rank
