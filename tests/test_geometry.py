import math

import numpy as np
import pytest

from sphere2gauss.geometry import (SphereSpec, log_weight_gauss, log_weight_sphere,
                                   normalization_Z, omega_density, sphere_volume_log,
                                   varpi_and_A)
from sphere2gauss.quadrature import integrate_interval


def test_spec_validation():
    with pytest.raises(ValueError):
        SphereSpec(1, 1.0)
    with pytest.raises(ValueError):
        SphereSpec(3, 0.0)


@pytest.mark.parametrize("N,a", [(2, 1.0), (5, 2.0), (10, 3.0), (50, 7.0)])
def test_normalization_Z_against_quadrature(N, a):
    # Z = int_{-a}^{a} (1 - r^2/a^2)^(N/2-1) dr, computed independently
    val = integrate_interval(
        lambda r: (1 - (r / a) ** 2) ** (N / 2 - 1), (-a, a), order=64, panels=64)
    assert math.exp(normalization_Z(SphereSpec(N, a))) == pytest.approx(val, rel=1e-8)


def test_sphere_volume_known_values():
    assert math.exp(sphere_volume_log(1, 1.0)) == pytest.approx(2 * math.pi, rel=1e-14)
    assert math.exp(sphere_volume_log(2, 1.0)) == pytest.approx(4 * math.pi, rel=1e-14)
    assert math.exp(sphere_volume_log(3, 1.0)) == pytest.approx(2 * math.pi ** 2, rel=1e-14)
    # scaling: vol(S^N(a)) = a^N vol(S^N(1))
    assert sphere_volume_log(4, 3.0) == pytest.approx(
        sphere_volume_log(4, 1.0) + 4 * math.log(3.0), rel=1e-14)


def test_log_weight_sphere_support():
    spec = SphereSpec(6, 2.0)
    assert log_weight_sphere(spec, 2.0) == -math.inf
    assert log_weight_sphere(spec, -2.5) == -math.inf
    assert math.isfinite(log_weight_sphere(spec, 1.9))


def test_weight_profile_integrates_to_one():
    spec = SphereSpec(12, 3.0)
    total = integrate_interval(lambda r: math.exp(log_weight_sphere(spec, r)), (-3.0, 3.0),
                               order=64, panels=64)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_gauss_weight_is_normal_density():
    alpha = 1.7
    w = math.exp(log_weight_gauss(alpha, 0.9))
    assert w == pytest.approx(
        math.exp(-0.81 / (2 * alpha ** 2)) / (math.sqrt(2 * math.pi) * alpha), rel=1e-14)


@pytest.mark.parametrize("N,a,alpha", [
    (10, 3.0, 1.0),       # A > 0: interior maximum
    (10, 2.0, 1.0),       # A < 0: maximum at the origin
    (25, math.sqrt(24), 1.0),  # canonical schedule
])
def test_varpi_against_grid_search(N, a, alpha):
    spec = SphereSpec(N, a)
    varpi, A, r_star = varpi_and_A(spec, alpha)
    rs = np.linspace(-a + 1e-9, a - 1e-9, 200_001)
    ratios = [log_weight_sphere(spec, r) - log_weight_gauss(alpha, r) for r in rs]
    grid_max = math.exp(max(ratios))
    assert varpi == pytest.approx(grid_max, rel=1e-6)
    assert A == pytest.approx((a * a - alpha * alpha * (N - 2)) / a, rel=1e-14)
    if A <= 0:
        assert r_star == 0.0


def test_varpi_canonical_schedule_decreasing():
    # along a_N = sqrt(N-1) the supremum decreases toward 1
    values = [varpi_and_A(SphereSpec(N, math.sqrt(N - 1)), 1.0)[0]
              for N in (10, 50, 200, 1000)]
    assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-2)


def test_omega_density_support_and_value():
    N, n, a, alpha = 8, 2, 2.0, 1.0
    assert omega_density(N, n, a, alpha, (2.0, 0.0)) == 0.0
    assert omega_density(N, n, a, alpha, (1.5, 1.5)) == 0.0  # |x| > a
    x = (0.3, -0.4)
    sq = 0.25
    want = ((1 - sq / (a * a)) ** ((N - n - 1) / 2)
            * (2 * math.pi * alpha ** 2) ** (n / 2)
            * math.exp(sq / (2 * alpha ** 2)))
    assert omega_density(N, n, a, alpha, x) == pytest.approx(want, rel=1e-12)


def test_omega_times_gaussian_is_projected_weight():
    # omega * gaussian density = (1 - |x|^2/a^2)^((N-n-1)/2), the factor
    # appearing in the fibre reduction of sphere integrals
    N, n, a, alpha = 9, 1, 3.0, 1.2
    r = 1.1
    lhs = omega_density(N, n, a, alpha, (r,)) * math.exp(log_weight_gauss(alpha, r))
    assert lhs == pytest.approx((1 - (r / a) ** 2) ** ((N - n - 1) / 2), rel=1e-12)


def test_varpi_requires_N_at_least_3():
    with pytest.raises(ValueError):
        varpi_and_A(SphereSpec(2, 1.0), 1.0)
