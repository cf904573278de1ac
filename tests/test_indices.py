import math

import pytest
from hypothesis import given, strategies as st

from sphere2gauss.indices import (MultiIndex, enumerate_multi_indices, gauss_multiplicity,
                                  sphere_multiplicity)


def test_multi_index_order():
    assert MultiIndex((2, 0, 1)).order() == 3
    assert MultiIndex((0,)).order() == 0
    with pytest.raises(ValueError):
        MultiIndex(())


def test_multi_index_rejects_negative():
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


@given(st.integers(1, 5), st.integers(0, 7))
def test_enumeration_matches_multiplicity(n, k):
    indices = enumerate_multi_indices(n, k)
    assert len(indices) == gauss_multiplicity(n, k)
    assert len(set(indices)) == len(indices)
    assert all(K.order() == k for K in indices)


@given(st.integers(1, 4), st.integers(0, 6))
def test_enumeration_descending_lex(n, k):
    indices = [K.entries for K in enumerate_multi_indices(n, k)]
    assert indices == sorted(indices, reverse=True)


def test_gauss_multiplicity_small():
    # n=1: one monomial per degree; n=2: k+1 monomials of degree k
    assert [gauss_multiplicity(1, k) for k in range(5)] == [1, 1, 1, 1, 1]
    assert [gauss_multiplicity(2, k) for k in range(5)] == [1, 2, 3, 4, 5]
    assert gauss_multiplicity(3, 2) == 6


def test_sphere_multiplicity_classic():
    # S^2: 2k+1 spherical harmonics of degree k
    assert [sphere_multiplicity(2, k) for k in range(6)] == [1, 3, 5, 7, 9, 11]
    assert sphere_multiplicity(3, 2) == 9


@given(st.integers(2, 10), st.integers(0, 8))
def test_sphere_multiplicity_telescopes(N, m):
    # summing the harmonic dimensions telescopes to the dimension of
    # polynomial restrictions: binom(N+m, m) + binom(N+m-1, m-1)
    total = sum(sphere_multiplicity(N, k) for k in range(m + 1))
    expected = math.comb(N + m, m) + (math.comb(N + m - 1, m - 1) if m >= 1 else 0)
    assert total == expected


def test_multiplicity_input_validation():
    with pytest.raises(ValueError):
        gauss_multiplicity(0, 1)
    with pytest.raises(ValueError):
        sphere_multiplicity(0, 1)
    with pytest.raises(ValueError):
        enumerate_multi_indices(2, -1)
