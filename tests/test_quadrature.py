import math
from fractions import Fraction

import numpy as np
import pytest

from sphere2gauss.geometry import SphereSpec, log_weight_gauss, sphere_volume_log
from sphere2gauss.harmonics import build_P
from sphere2gauss.indices import MultiIndex
from sphere2gauss.polyalg import RationalPoly
from sphere2gauss.quadrature import (QuadratureError, cap_volume_fraction,
                                     integrate_interval, legendre_rule,
                                     lifted_norm_sq_exact, mc_sphere_integral,
                                     sample_sphere, sphere_inner_product,
                                     sphere_monomial_moment)


@pytest.mark.parametrize("order", [2, 5, 16])
def test_legendre_exactness_degree(order):
    # order-n Gauss-Legendre is exact through degree 2n-1 on [-1, 1]
    rule = legendre_rule(order)
    for d in range(2 * order):
        got = float(np.sum(rule.weights * rule.nodes ** d))
        want = 0.0 if d % 2 else 2.0 / (d + 1)
        assert got == pytest.approx(want, abs=1e-13)


def test_integrate_interval_and_gauss():
    assert integrate_interval(math.sin, (0.0, math.pi), order=32) == pytest.approx(
        2.0, rel=1e-13)
    # second moment of the Gaussian density with alpha = 2; past 10 alpha the
    # tails hold less than e^-50
    second = integrate_interval(lambda r: r * r * math.exp(log_weight_gauss(2.0, r)),
                                (-20.0, 20.0), order=32, panels=8)
    assert second == pytest.approx(4.0, rel=1e-12)


def test_integrate_interval_rejects_nonfinite():
    # the odd rule has a node at 0, where 1/r divides by zero on purpose
    with pytest.warns(RuntimeWarning), pytest.raises(QuadratureError):
        integrate_interval(lambda r: 1.0 / r, (-1.0, 1.0), order=33)


def test_cap_volume_fraction_closed_forms():
    # hemisphere is half the sphere in any dimension
    for N in (2, 7, 30, 200):
        assert cap_volume_fraction(N, math.pi / 2) == pytest.approx(0.5, abs=1e-12)
    # S^2: fraction = (1 - cos(theta)) / 2
    for theta in (0.3, 1.0, 2.5):
        assert cap_volume_fraction(2, theta) == pytest.approx(
            (1 - math.cos(theta)) / 2, rel=1e-10)
        # S^3: fraction = (theta - sin(theta) cos(theta)) / pi
        assert cap_volume_fraction(3, theta) == pytest.approx(
            (theta - math.sin(theta) * math.cos(theta)) / math.pi, rel=1e-10)
    # monotone in the aperture
    vals = [cap_volume_fraction(5, t) for t in (0.5, 1.0, 1.5, 2.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_remark_inner_product_8pi_15():
    z1_sq = RationalPoly.monomial((2, 0))
    z2_sq = RationalPoly.monomial((0, 2))
    val = sphere_inner_product(z1_sq, z1_sq - z2_sq, SphereSpec(2, 1.0), 2)
    assert val == pytest.approx(8 * math.pi / 15, abs=1e-9)


@pytest.mark.parametrize("n", [0, 3])
def test_sphere_inner_product_rejects_n_outside_1_2(n):
    # the disc reduction covers n in {1, 2}; any other n is refused up front
    one = RationalPoly.constant(max(n, 1), 1)
    with pytest.raises(ValueError, match="need n in"):
        sphere_inner_product(one, one, SphereSpec(5, 1.0), n)


def test_integrals_are_python_floats():
    assert type(integrate_interval(math.sin, (0.0, 1.0))) is float
    assert type(integrate_interval(math.sin, (0.0, 1.0), panels=3)) is float
    for n in (1, 2):
        one = RationalPoly.constant(n, 1)
        assert type(sphere_inner_product(one, one, SphereSpec(3, 1.0), n)) is float


def test_sphere_inner_product_of_constants_is_volume():
    one = RationalPoly.constant(1, 1)
    for N, a in [(2, 1.0), (5, 1.5)]:
        got = sphere_inner_product(one, one, SphereSpec(N, a), 1)
        assert got == pytest.approx(math.exp(sphere_volume_log(N, a)), rel=1e-9)


@pytest.mark.parametrize("beta", [(0, 0), (2, 0), (2, 2), (4, 2)])
def test_monomial_moment_against_quadrature(beta):
    N, a = 4, 1.0
    F = RationalPoly.monomial(beta)
    one = RationalPoly.constant(2, 1)
    got = sphere_inner_product(F, one, SphereSpec(N, a), 2)
    want = sphere_monomial_moment(N, a, beta + (0,) * (N - 1))
    assert got == pytest.approx(want, rel=1e-9)


def test_monomial_moment_odd_vanishes():
    assert sphere_monomial_moment(4, 1.0, (1, 2, 0, 0, 0)) == 0.0


def test_monomial_moment_against_monte_carlo():
    # seeded MC cross-check at 3 sigma
    N, a = 5, 1.0
    beta = (2, 2, 0, 0, 0, 0)
    exact = sphere_monomial_moment(N, a, beta)
    val, err = mc_sphere_integral(lambda p: p[0] ** 2 * p[1] ** 2,
                                  SphereSpec(N, a), samples=200_000, seed=7)
    assert abs(val - exact) < 3 * err


def test_lifted_norm_matches_quadrature():
    N, n = 5, 2
    a = 1.0
    K = MultiIndex((2, 1))
    P = build_P(N, n, K)
    Q = P.substitute_t(Fraction(1))
    got = lifted_norm_sq_exact(P, a)
    want = sphere_inner_product(Q, Q, SphereSpec(N, a), n)
    assert got == pytest.approx(want, rel=1e-8)


def test_sampler_determinism_and_radius():
    pts1 = sample_sphere(6, 2.0, 100, seed=42)
    pts2 = sample_sphere(6, 2.0, 100, seed=42)
    assert np.array_equal(pts1, pts2)
    assert np.allclose(np.linalg.norm(pts1, axis=1), 2.0)
    pts3 = sample_sphere(6, 2.0, 100, seed=43)
    assert not np.array_equal(pts1, pts3)


def test_mc_volume_sanity():
    spec = SphereSpec(3, 1.0)
    val, err = mc_sphere_integral(lambda p: 1.0, spec, samples=1000)
    assert val == pytest.approx(math.exp(sphere_volume_log(3, 1.0)), rel=1e-12)
    assert err == 0.0
