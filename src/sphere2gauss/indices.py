"""Multi-index combinatorics and closed-form eigenvalue multiplicities."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class MultiIndex:
    """An n-tuple of nonnegative integers indexing an eigenfunction family."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise ValueError("multi-index must have length >= 1")
        if any(e < 0 for e in self.entries):
            raise ValueError(f"negative entry in multi-index {self.entries}")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    def order(self) -> int:
        return sum(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def enumerate_multi_indices(n: int, k: int) -> list[MultiIndex]:
    """All multi-indices of length ``n`` and order ``k``, lexicographically descending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")

    if n == 1:
        return [MultiIndex((k,))]
    return [MultiIndex((head, *tail)) for head in range(k, -1, -1)
            for tail in enumerate_multi_indices(n - 1, k - head)]


def gauss_multiplicity(n: int, k: int) -> int:
    """Dimension of the order-k eigenspace of the Gaussian space: binom(n-1+k, k)."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return comb(n - 1 + k, k)


def sphere_multiplicity(N: int, k: int) -> int:
    """Multiplicity of the k-th distinct eigenvalue on an N-sphere.

    binom(N+k, k) - binom(N+k-2, k-2), with the convention that the second
    binomial vanishes for k < 2.
    """
    if N < 1 or k < 0:
        raise ValueError("need N >= 1 and k >= 0")
    second = comb(N + k - 2, k - 2) if k >= 2 else 0
    return comb(N + k, k) - second
