"""Construction of the projected eigenfunction families.

Builds the harmonic lifts on R^{N+1}, their on-sphere restrictions as
polynomials in the first n coordinates, the Gaussian-space eigenfunctions,
probabilists' Hermite polynomials, and the weighted Laplacian acting on
polynomials.  Everything here is exact rational arithmetic.
"""

from __future__ import annotations

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


def _laplacian_powers(base: RationalPoly, jmax: int,
                      variables: Sequence[int] | None = None) -> list[RationalPoly]:
    powers = [base]
    for _ in range(jmax):
        powers.append(laplacian(powers[-1], variables))
    return powers


def build_P(N: int, n: int, K) -> LiftedPoly:
    """Harmonic lift of the monomial x^K to R^{N+1}, in the t-slot encoding."""
    K = _as_entries(K)
    if len(K) != n:
        raise ValueError(f"K has length {len(K)}, expected n={n}")
    if not 1 <= n <= N:
        raise ValueError("need 1 <= n <= N")
    k = sum(K)
    xK = RationalPoly.monomial(tuple(K) + (0,))
    deltas = _laplacian_powers(xK, k // 2, range(n))
    total = RationalPoly(n + 1)
    for j in range(k // 2 + 1):
        c = coeff_C(j, N - n)
        t_j = RationalPoly.monomial((0,) * n + (j,))
        total = total + c * (t_j * deltas[j])
    return LiftedPoly(total, n, N)


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
    """Gaussian-space eigenfunction with leading monomial x^K."""
    K = _as_entries(K)
    if len(K) != n:
        raise ValueError(f"K has length {len(K)}, expected n={n}")
    alpha2 = Fraction(alpha2)
    if alpha2 <= 0:
        raise ValueError("alpha2 must be positive")
    k = sum(K)
    xK = RationalPoly.monomial(K)
    deltas = _laplacian_powers(xK, k // 2)
    total = RationalPoly(n)
    fact = 1
    for j in range(k // 2 + 1):
        if j:
            fact *= j
        q_j = Fraction((-1) ** j) * alpha2 ** j / (2 ** j * fact)
        total = total + q_j * deltas[j]
    return total


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


def projected_eigenspace_dimension(N: int, n: int, k: int, a2=None) -> int:
    """Rank over Q of the on-sphere family of order k, evaluated at generic points.

    Extra evaluation points are appended (up to three times the family size)
    before trusting a rank-deficient answer, so a degenerate point draw
    cannot fake a failure of the dimension identity.
    """
    if a2 is None:
        a2 = Fraction(N)
    family = [build_Q_sphere(N, n, K, a2) for K in enumerate_multi_indices(n, k)]
    d = gauss_multiplicity(n, k)
    for npts in (d, 2 * d, 3 * d):
        pts = _generic_points(n, npts)
        rows = [[q.evaluate(p) for p in pts] for q in family]
        rank = rational_rank(rows)
        if rank == len(family):
            return rank
    return rank
