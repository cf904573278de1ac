import math

import pytest
from hypothesis import given, settings, strategies as st

from sphere2gauss.heatflow import (SpectralCoefficients, gauss_basis,
                                   heat_convergence_table, heat_evolve,
                                   recovery_sequence, sphere_basis)
from sphere2gauss.indices import MultiIndex


def _coeffs(n=2):
    return SpectralCoefficients(n, {
        MultiIndex((0, 0)): 1.0,
        MultiIndex((2, 0)): -0.75,
        MultiIndex((1, 2)): 0.5,
        MultiIndex((3, 3)): 0.125,
    }, gauss_basis(1.0))


def test_basis_eigenvalues():
    assert gauss_basis(2.0).eigenvalue(3) == pytest.approx(0.75)
    assert sphere_basis(5, 2.0).eigenvalue(2) == pytest.approx(2 * 6 / 4.0)
    with pytest.raises(ValueError):
        gauss_basis(0.0)
    with pytest.raises(ValueError):
        sphere_basis(1, 1.0)


def test_heat_evolve_identity_at_t0():
    f = _coeffs()
    g = heat_evolve(f, 0.0)
    assert g.entries == f.entries


def test_heat_evolve_factors():
    f = SpectralCoefficients(2, {MultiIndex((1, 1)): 1.0}, gauss_basis(1.0))
    g = heat_evolve(f, 1.0)
    assert g.entries[MultiIndex((1, 1))] == pytest.approx(math.exp(-2.0), rel=1e-15)
    # sphere basis at a_N^2 = N-1: factor exp(-2(N+1)/(N-1)) for |K| = 2
    N = 11
    fs = SpectralCoefficients(2, {MultiIndex((1, 1)): 1.0},
                              sphere_basis(N, math.sqrt(N - 1)))
    gs = heat_evolve(fs, 1.0)
    assert gs.entries[MultiIndex((1, 1))] == pytest.approx(
        math.exp(-2 * (N + 1) / (N - 1)), rel=1e-14)


@pytest.mark.parametrize("basis", [gauss_basis(1.0), sphere_basis(5, 2.0)],
                         ids=["gauss", "sphere"])
def test_heat_evolve_keeps_the_constant_mode_at_infinite_time(basis):
    # exp(-inf * 0) is NaN, so the eigenvalue-0 mode must not go through exp
    f = SpectralCoefficients(2, _coeffs().entries, basis)
    assert heat_evolve(f, math.inf).entries == {MultiIndex((0, 0)): 1.0}


@settings(max_examples=30)
@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_semigroup_law(s, t):
    f = _coeffs()
    a = heat_evolve(heat_evolve(f, s), t)
    b = heat_evolve(f, s + t)
    for K in b.entries:
        assert a.entries[K] == pytest.approx(b.entries[K], rel=1e-14)


@settings(max_examples=20)
@given(st.floats(0.0, 10.0))
def test_energy_monotone_along_flow(t):
    f = _coeffs()
    assert heat_evolve(f, t).energy() <= f.energy() + 1e-15


def test_energy_and_norm_values():
    f = SpectralCoefficients(1, {MultiIndex((0,)): 2.0}, gauss_basis(1.0))
    assert f.energy() == 0.0
    g = SpectralCoefficients(1, {MultiIndex((1,)): 3.0}, gauss_basis(1.0))
    assert g.energy() == pytest.approx(9.0)
    assert g.l2_norm() == pytest.approx(3.0)


@pytest.mark.parametrize("N", [10, 100, 1000])
def test_recovery_energy_exact(N):
    f = _coeffs()
    g = recovery_sequence(f, N)
    assert g.basis.kind == "sphere"
    assert g.energy() == pytest.approx(f.energy(), rel=1e-12)


def test_recovery_norm_error_bound():
    f = _coeffs()
    kmax = max(K.order() for K in f.entries)
    for N in (50, 500):
        g = recovery_sequence(f, N)
        rel = abs(g.l2_norm() ** 2 - f.l2_norm() ** 2) / f.l2_norm() ** 2
        assert rel <= kmax / (N - 1)


def test_recovery_requires_gauss_basis():
    f = SpectralCoefficients(1, {MultiIndex((1,)): 1.0}, sphere_basis(5, 2.0))
    with pytest.raises(ValueError):
        recovery_sequence(f, 10)


def test_heat_table_monotone():
    rows = heat_convergence_table(_coeffs(), 1.0, [100, 1000, 10_000])
    dists = [r.l2_distance for r in rows]
    assert dists[0] > dists[1] > dists[2]


def test_liminf_defect_inequality():
    # for one coefficient array paired with either set of eigenvalues:
    # sphere energy >= gauss energy - defect, defect = sum c_K^2 |dlambda|
    f = _coeffs()
    alpha = f.basis.alpha
    for N in (100, 1000):
        fN = SpectralCoefficients(f.n, dict(f.entries),
                                  sphere_basis(N, alpha * math.sqrt(N - 1)))
        defect = sum(c * c * abs(fN.basis.eigenvalue(K.order())
                                 - f.basis.eigenvalue(K.order()))
                     for K, c in f.entries.items())
        assert fN.energy() >= f.energy() - defect - 1e-12
        assert defect <= f.l2_norm() ** 2 * max(K.order() for K in f.entries) ** 2 / (N - 1)


def test_heat_table_t0_distance_zero():
    rows = heat_convergence_table(_coeffs(), 0.0, [100])
    assert rows[0].l2_distance == 0.0


def test_validation():
    with pytest.raises(ValueError):
        heat_evolve(_coeffs(), -1.0)
    with pytest.raises(ValueError):
        SpectralCoefficients(2, {MultiIndex((1,)): 1.0}, gauss_basis(1.0))
