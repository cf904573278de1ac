"""Coefficient-space heat flow and Cheeger-energy apparatus.

All computations act on finitely supported coefficient arrays against
orthonormalized eigenbases, tagged either ``gauss(alpha)`` or
``sphere(N, a)``; the eigenvalue attached to a multi-index K is k/alpha^2
or k(k+N-1)/a^2 with k = |K|.  Working coefficient-wise isolates the
convergence content from quadrature error: the heat semigroup, the
Dirichlet/Cheeger energy and the recovery sequence are all diagonal in
these bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .indices import MultiIndex

_UNDERFLOW = 1e-300  # entries pruned below this after evolution


@dataclass(frozen=True)
class BasisTag:
    """Which orthonormal eigenbasis the coefficients refer to."""

    kind: str  # "gauss" | "sphere"
    alpha: float | None = None
    N: int | None = None
    a: float | None = None

    def __post_init__(self):
        if self.kind == "gauss":
            if self.alpha is None or not self.alpha > 0:
                raise ValueError("gauss basis needs alpha > 0")
        elif self.kind == "sphere":
            if self.N is None or self.N < 2 or self.a is None or not self.a > 0:
                raise ValueError("sphere basis needs N >= 2 and a > 0")
        else:
            raise ValueError(f"unknown basis kind {self.kind!r}")

    def eigenvalue(self, k: int) -> float:
        if self.kind == "gauss":
            return k / (self.alpha * self.alpha)
        return k * (k + self.N - 1) / (self.a * self.a)


def gauss_basis(alpha: float) -> BasisTag:
    return BasisTag("gauss", alpha=alpha)


def sphere_basis(N: int, a: float) -> BasisTag:
    return BasisTag("sphere", N=N, a=a)


@dataclass(frozen=True)
class SpectralCoefficients:
    """Finitely supported coefficient array in an orthonormal eigenbasis."""

    n: int
    entries: Mapping[MultiIndex, float]
    basis: BasisTag

    def __post_init__(self):
        clean = {}
        for K, c in self.entries.items():
            if len(K.entries) != self.n:
                raise ValueError(f"multi-index {K} does not have {self.n} slots")
            if c != 0.0:
                clean[K] = float(c)
        object.__setattr__(self, "entries", clean)

    def l2_norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.entries.values()))

    def energy(self) -> float:
        """Dirichlet/Cheeger energy sum lambda_{|K|} * c_K^2 in this basis."""
        return sum((self.basis.eigenvalue(K.order()) * c * c
                    for K, c in self.entries.items()), 0.0)


def heat_evolve(c: SpectralCoefficients, t: float) -> SpectralCoefficients:
    """Heat semigroup: multiply the entry at K by exp(-t * lambda_{|K|})."""
    if t < 0:
        raise ValueError("need t >= 0")
    out = {}
    for K, v in c.entries.items():
        w = v * math.exp(-t * c.basis.eigenvalue(K.order()))
        if abs(w) >= _UNDERFLOW:
            out[K] = w
    return SpectralCoefficients(c.n, out, c.basis)


def recovery_sequence(f: SpectralCoefficients, N: int) -> SpectralCoefficients:
    """Sphere-basis array whose Cheeger energy equals the Gaussian energy exactly.

    Along a_N = alpha*sqrt(N-1) the entry at K is scaled by
    sqrt(a_N^2 / ((|K|+N-1) alpha^2)), and the cancellation
    lambda_{|K|}(sphere) * a_N^2 / ((|K|+N-1) alpha^2) = |K|/alpha^2 is an
    algebraic identity, independent of N.
    """
    if f.basis.kind != "gauss":
        raise ValueError("recovery sequence starts from a gauss-basis array")
    if N < 2:
        raise ValueError("need N >= 2")
    alpha = f.basis.alpha
    aN = alpha * math.sqrt(N - 1)
    aN2 = aN * aN
    out = {}
    for K, v in f.entries.items():
        k = K.order()
        out[K] = v * math.sqrt(aN2 / ((k + N - 1) * alpha * alpha))
    return SpectralCoefficients(f.n, out, sphere_basis(N, aN))


@dataclass(frozen=True)
class HeatRow:
    N: int
    l2_distance: float
    energy_sphere: float
    energy_gauss: float


def heat_convergence_table(f: SpectralCoefficients, t: float,
                           N_list: Sequence[int]) -> list[HeatRow]:
    """Coefficient-space distance between sphere and Gaussian heat evolution.

    The same coefficient array is paired with the N-dependent sphere
    eigenvalues (canonical radius a_N = alpha*sqrt(N-1)), evolved, and
    compared entry-wise with the Gaussian evolution of f.
    """
    if f.basis.kind != "gauss":
        raise ValueError("heat_convergence_table starts from a gauss-basis array")
    if any(N < 2 for N in N_list):
        raise ValueError("need N >= 2")
    alpha = f.basis.alpha
    limit = heat_evolve(f, t)
    rows = []
    for N in N_list:
        aN = alpha * math.sqrt(N - 1)
        fN = SpectralCoefficients(f.n, dict(f.entries), sphere_basis(N, aN))
        uN = heat_evolve(fN, t)
        keys = set(uN.entries) | set(limit.entries)
        dist = math.sqrt(sum((uN.entries.get(K, 0.0) - limit.entries.get(K, 0.0)) ** 2
                             for K in keys))
        rows.append(HeatRow(N=N, l2_distance=dist,
                            energy_sphere=uN.energy(), energy_gauss=limit.energy()))
    return rows
