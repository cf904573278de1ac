import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from sphere2gauss import quadrature
from sphere2gauss.convergence import (canonical_schedule, check_hypotheses,
                                      closed_spectrum_table,
                                      dirichlet_convergence_table,
                                      eigenfunction_comparison, proof_identities)


def test_closed_table_examples():
    rows = closed_spectrum_table(2, 1, 3, [101])
    by_k = {r.k: r for r in rows}
    assert by_k[1].lhs == Fraction(101, 100)
    assert by_k[1].rhs == 1
    assert by_k[1].abs_err == Fraction(1, 100)
    assert by_k[0].abs_err == 0
    assert by_k[2].rhs == 2


@settings(max_examples=40)
@given(st.integers(2, 10_000), st.integers(0, 8),
       st.fractions(min_value="1/4", max_value=4, max_denominator=8))
def test_exact_error_law(N, k, alpha):
    row = next(r for r in closed_spectrum_table(1, alpha, k, [N]) if r.k == k)
    assert row.abs_err == Fraction(k * k) / (alpha ** 2 * (N - 1))


def test_canonical_schedule_and_hypotheses():
    alpha, R = 1.0, 1.0
    aN, thetaN = canonical_schedule(alpha, R, 101)
    assert aN == pytest.approx(10.0)
    assert aN * math.cos(thetaN) == pytest.approx(alpha * R, abs=1e-12)
    assert check_hypotheses(alpha, R, aN, thetaN, 101)
    with pytest.raises(ValueError):
        canonical_schedule(1.0, 3.0, 5)


def test_A_N_positive_decreasing_bounded():
    alpha = 1.0
    prev = math.inf
    for N in (3, 10, 100, 10_000, 1_000_000):
        aN = alpha * math.sqrt(N - 1)
        A = (aN * aN - alpha * alpha * (N - 2)) / aN
        assert 0 < A < prev
        assert A <= alpha
        prev = A


def test_dirichlet_table_hemisphere_closed_form():
    rows = dirichlet_convergence_table(1.0, 0.0, [11, 101], tol=1e-8)
    for row in rows:
        assert row.lhs == pytest.approx(row.N / (row.N - 1), abs=1e-7)
        assert row.rhs == pytest.approx(1.0, abs=1e-8)
        assert row.hypotheses_ok
        assert row.residual_lhs < 1e-8 and row.residual_rhs < 1e-8


def test_dirichlet_table_certifies_far_negative_slice():
    # the profile spans a steep boundary layer here; both residual
    # certificates must still accept the correct eigenvalues
    rows = dirichlet_convergence_table(1.0, -3.0, [12, 24, 48], tol=1e-8)
    assert all(row.hypotheses_ok for row in rows)
    assert all(row.residual_lhs < 1e-8 and row.residual_rhs < 1e-8 for row in rows)


def test_dirichlet_table_large_N():
    rows = dirichlet_convergence_table(1.0, 0.5, [1_000, 10_000, 100_000], tol=1e-8)
    errs = [row.abs_err for row in rows]
    assert errs[0] > errs[1] > errs[2]
    assert all(row.hypotheses_ok for row in rows)


def test_dirichlet_table_skips_small_N():
    rows = dirichlet_convergence_table(1.0, 3.0, [5, 25], tol=1e-8)
    assert rows[0].note.startswith("skipped")
    assert not rows[0].hypotheses_ok
    assert math.isnan(rows[0].lhs)
    assert rows[1].note == ""


def test_dirichlet_table_custom_schedule():
    # feeding the canonical schedule explicitly reproduces the default rows
    def sched(N):
        return canonical_schedule(1.0, 0.0, N)

    default = dirichlet_convergence_table(1.0, 0.0, [26], tol=1e-8)
    custom = dirichlet_convergence_table(1.0, 0.0, [26], tol=1e-8, schedule=sched)
    assert custom[0].lhs == pytest.approx(default[0].lhs, rel=1e-12)


def test_eigenfunction_comparison_improves_with_N():
    c_small = eigenfunction_comparison(1.0, 0.0, 25, tol=1e-8)
    c_large = eigenfunction_comparison(1.0, 0.0, 100, tol=1e-8)
    assert c_large.l2_distance < c_small.l2_distance
    assert c_large.l2_distance < 0.1
    assert c_small.normalization_check < 1e-8
    assert c_large.h1_surrogate < c_small.h1_surrogate


@pytest.mark.parametrize("N,alpha", [(25, 1.0), (100, 1.0), (400, 1.0), (50, 1.3)])
def test_eigenfunction_distances_match_closed_forms_at_R0(N, alpha):
    # at R = 0 the hemisphere's first profile is h_N = c_N r and the
    # half-line's is h_inf = c r, so g_N = c_N r s^(N/4 + 1/2) e^(r^2/(4 alpha^2))
    # sqrt(sqrt(2 pi) alpha / Z) with s = 1 - r^2/a^2, and both distances are
    # one-dimensional integrals of closed forms
    mp = mpmath.mp.clone()
    mp.dps = 30
    alpha = mp.mpf(alpha)
    a = alpha * mp.sqrt(N - 1)
    Z = a * mp.sqrt(mp.pi) * mp.gamma(mp.mpf(N) / 2) / mp.gamma(mp.mpf(N + 1) / 2)
    c_N = 1 / mp.sqrt(a ** 3 / Z * mp.beta(mp.mpf(3) / 2, mp.mpf(N) / 2) / 2)
    c = mp.sqrt(2) / alpha
    K = c_N * mp.sqrt(mp.sqrt(2 * mp.pi) * alpha / Z)
    p, q = mp.mpf(N) / 4 + mp.mpf(1) / 2, 1 / (4 * alpha ** 2)

    def w_inf(r):
        return mp.exp(-r * r / (2 * alpha ** 2)) / (mp.sqrt(2 * mp.pi) * alpha)

    def g(r):
        return K * r * (1 - r * r / a ** 2) ** p * mp.exp(q * r * r)

    def dg(r):
        s = 1 - r * r / a ** 2
        return K * s ** p * mp.exp(q * r * r) * (1 + r * r * (2 * q - 2 * p / (a * a * s)))

    hi_inf = 20 * alpha
    hi = min(a, hi_inf)

    def distance(f, h):
        sq = mp.quad(lambda r: (f(r) - h(r)) ** 2 * w_inf(r), mp.linspace(0, hi, 9))
        if a < hi_inf:
            sq += mp.quad(lambda r: h(r) ** 2 * w_inf(r), mp.linspace(a, hi_inf, 9))
        return mp.sqrt(sq)

    l2 = distance(g, lambda r: c * r)
    h1 = distance(dg, lambda r: c)
    comp = eigenfunction_comparison(float(alpha), 0.0, N, tol=1e-8)
    assert comp.l2_distance == pytest.approx(float(l2), rel=1e-8, abs=0)
    assert comp.h1_surrogate == pytest.approx(float(h1), rel=1e-8, abs=0)


def test_proof_identities_hold():
    for N, R in [(10, 0.0), (50, 1.0)]:
        p = proof_identities(1.0, R, N, tol=1e-8)
        assert p.norm_value == pytest.approx(1.0, abs=1e-8)
        assert p.energy_value == pytest.approx(p.lam, rel=1e-6)
        assert p.second_moment <= p.second_moment_bound


@pytest.mark.parametrize("order", [48, 64])
def test_proof_identities_norm_check_sees_a_rule_error(monkeypatch, order):
    # h_N is normalized on one Gauss-Legendre rule and its norm checked on
    # another, so an error in either rule shows in norm_value; were the two
    # rules the same, the error would cancel and norm_value would read 1
    rule = quadrature.legendre_rule

    def skewed(n):
        r = rule(n)
        return dataclasses.replace(r, weights=r.weights * (1 + 1e-6)) if n == order else r

    monkeypatch.setattr(quadrature, "legendre_rule", skewed)
    p = proof_identities(1.0, 0.0, 10, tol=1e-8)
    assert abs(p.norm_value - 1.0) > 1e-8


def test_eigenfunction_checks_are_python_floats():
    p = proof_identities(1.0, 0.0, 10, tol=1e-8)
    for field in dataclasses.fields(p):
        if field.name != "N":
            assert type(getattr(p, field.name)) is float, field.name
    c = eigenfunction_comparison(1.0, 0.0, 25, tol=1e-8)
    assert type(c.normalization_check) is float


def test_closed_table_input_validation():
    with pytest.raises(ValueError):
        closed_spectrum_table(0, 1, 2, [10])
    with pytest.raises(ValueError):
        closed_spectrum_table(1, 1, 2, [1])
    with pytest.raises(ValueError):
        closed_spectrum_table(1, 0, 2, [10])
