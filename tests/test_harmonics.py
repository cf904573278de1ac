import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sphere2gauss import cli
from sphere2gauss.harmonics import (build_P, build_Q_gauss, build_Q_sphere, check_harmonic,
                                    coeff_C, hermite, ou_apply,
                                    projected_eigenspace_dimension)
from sphere2gauss.indices import MultiIndex, enumerate_multi_indices, gauss_multiplicity
from sphere2gauss.polyalg import RationalPoly, dumps, laplacian


def test_coeff_C_first_values():
    # C_1(m) = -1/(2(m+1)), C_2(m) = C_1(m) * (-1/(4(m+3)))
    assert coeff_C(1, 3) == Fraction(-1, 8)
    assert coeff_C(2, 3) == Fraction(-1, 8) * Fraction(-1, 24)
    assert coeff_C(0, 3) == 1


def test_coeff_C_degenerate_denominator():
    with pytest.raises(ZeroDivisionError):
        coeff_C(1, -1)


def test_build_P_quadratic_example():
    # |K|=2: P = x1^2 + C_1(N-n) * t * (Delta x1^2), Delta x1^2 = 2
    P = build_P(5, 2, MultiIndex((2, 0)))
    assert P.base == RationalPoly(3, {(2, 0, 0): Fraction(1),
                                      (0, 0, 1): Fraction(-1, 4)})


@pytest.mark.parametrize("n,N,K", [
    (1, 2, (3,)), (1, 4, (4,)), (2, 3, (2, 1)), (2, 5, (2, 2)), (3, 6, (1, 1, 2)),
])
def test_build_P_harmonic_spot(n, N, K):
    ok, residual = check_harmonic(build_P(N, n, MultiIndex(K)))
    assert ok and residual.is_zero()


@pytest.mark.parametrize("N,n,K,extra_vars", [(2, 1, (2,), 2), (3, 1, (3,), 3),
                                              (4, 2, (2, 1), 3)])
def test_build_P_harmonic_against_sympy(N, n, K, extra_vars):
    # expand the t-slot into honest y-coordinates and apply sympy's Laplacian
    assert extra_vars == N + 1 - n
    P = build_P(N, n, MultiIndex(K))
    xs = sympy.symbols(f"x1:{n + 1}")
    ys = sympy.symbols(f"y1:{extra_vars + 1}")
    t = sum(y ** 2 for y in ys)
    expr = 0
    for exps, c in P.base.terms.items():
        mono = sympy.Rational(c)
        for v, e in zip(xs, exps[:-1]):
            mono *= v ** e
        expr += mono * t ** exps[-1]
    lap = sum(sympy.diff(expr, v, 2) for v in (*xs, *ys))
    assert sympy.expand(lap) == 0


def test_hermite_matches_sympy_rodrigues():
    r = sympy.Symbol("r")
    for k in range(9):
        ours = hermite(k)
        expr = sum(sympy.Rational(c) * r ** e[0] for e, c in ours.terms.items())
        # probabilists' Hermite via Rodrigues: He_k = (-1)^k e^{r^2/2} d^k/dr^k e^{-r^2/2}
        rodrigues = sympy.expand(
            (-1) ** k * sympy.exp(r ** 2 / 2) * sympy.diff(sympy.exp(-r ** 2 / 2), r, k))
        assert sympy.expand(expr - rodrigues) == 0


def test_build_Q_gauss_is_hermite_product():
    # alpha = 1, n = 1: Q reduces to the probabilists' Hermite polynomial
    for k in range(6):
        Q = build_Q_gauss(1, MultiIndex((k,)), Fraction(1))
        assert Q == hermite(k)
    # n = 2 factorizes: Q_{(2,1)} = He_2(x1) * He_1(x2)
    Q = build_Q_gauss(2, MultiIndex((2, 1)), Fraction(1))
    x1 = RationalPoly.variable(2, 0)
    x2 = RationalPoly.variable(2, 1)
    assert Q == (x1 * x1 - 1) * x2


@pytest.mark.parametrize("alpha2", [Fraction(1), Fraction(2), Fraction(1, 2)])
@pytest.mark.parametrize("K", [(0,), (1,), (3,)])
def test_ou_eigen_identity_n1(alpha2, K):
    Q = build_Q_gauss(1, MultiIndex(K), alpha2)
    k = sum(K)
    assert ou_apply(Q, alpha2) == Q * (Fraction(-k) / alpha2)


def test_ou_identity_fails_for_wrong_alpha():
    Q = build_Q_gauss(1, MultiIndex((2,)), Fraction(1))
    assert ou_apply(Q, Fraction(2)) != Q * Fraction(-2, 1)


# dumps of the restriction, computed by a second route: the direct sum
# sum_j C_j(N-n) (a^2 - |x|^2)^j Delta^j x^K over R^n, with no t-slot lift
Q_SPHERE_DUMPS = [
    # (N, K, a2): a2 != N, odd k
    (6, (2, 1), Fraction(9, 4), """6/5 * x1^2 x2^1
1/5 * x2^3
-9/20 * x2^1"""),
    # n = 3
    (5, (1, 1, 2), Fraction(1), """1/3 * x1^3 x2^1
1/3 * x1^1 x2^3
4/3 * x1^1 x2^1 x3^2
-1/3 * x1^1 x2^1"""),
    # k = 5
    (7, (3, 2), Fraction(1), """11/48 * x1^5
43/24 * x1^3 x2^2
-7/24 * x1^3
9/16 * x1^1 x2^4
-5/8 * x1^1 x2^2
1/16 * x1^1"""),
    # a2 = N
    (4, (4,), Fraction(4), """21/8 * x1^4
-7 * x1^2
2"""),
    # n = 3, k = 5
    (8, (2, 1, 2), Fraction(1, 4), """3/16 * x1^4 x2^1
5/24 * x1^2 x2^3
11/8 * x1^2 x2^1 x3^2
-5/96 * x1^2 x2^1
1/48 * x2^5
5/24 * x2^3 x3^2
-1/96 * x2^3
3/16 * x2^1 x3^4
-5/96 * x2^1 x3^2
1/768 * x2^1"""),
]


def test_build_Q_sphere_matches_recorded_dumps():
    for N, K, a2, text in Q_SPHERE_DUMPS:
        assert dumps(build_Q_sphere(N, len(K), K, a2)) == text, (N, K, a2)


def test_Q_sphere_first_slot_zero_theta_identity_on_S2():
    # on S^2(1) with n=2 the restriction identity holds pointwise: at a
    # sphere point (x1, x2, y) the lift of (0, k') evaluates to the
    # restriction of that lift at (x1, x2)
    K = (0, 2)
    Q = build_Q_sphere(2, 2, K, Fraction(1))
    P = build_P(2, 2, MultiIndex(K))
    x = (Fraction(3, 10), Fraction(2, 5))
    t = 1 - x[0] ** 2 - x[1] ** 2  # y^2 on the unit sphere
    assert P.evaluate(x, t) == Q.evaluate(x)
    # and it is the harmonic polynomial x2^2 - y^2 = 2 x2^2 + x1^2 - 1 there
    assert Q == 2 * RationalPoly.monomial((0, 2)) + RationalPoly.monomial((2, 0)) - 1


def test_projected_dimension_matches_gauss(fraction_calls):
    # the harmonicity grid, N = n included, which criterion 3 skips
    for n in range(1, 5):
        for N in range(n, 17):
            for k in range(7):
                assert projected_eigenspace_dimension(N, n, k) == gauss_multiplicity(n, k)
    assert fraction_calls == []


def test_dimension_grid_is_certified_mod_p(fraction_calls):
    # the criterion-3 grid (n <= 4, N <= 12, k <= 5) never falls back to the
    # Fraction elimination: every rank there is proved by the rank mod p
    assert cli._verify_dimension()
    assert fraction_calls == []


def test_enumerate_consistency_with_family_size():
    K_list = enumerate_multi_indices(2, 3)
    assert len(K_list) == gauss_multiplicity(2, 3) == 4


# -- the dimension identity, proved ----------------------------------------
# The top-degree part of the lift x^K -> Q_K is T = sum_j C_j(m) (-|x|^2)^j Delta^j,
# m = N - n.  On the Fischer summand |x|^{2i} h_p, h_p harmonic of degree p,
# T scales by mu_i = sum_{j<=i} prod_{l<=j} c_l / (2l(m+2l-1)) with
# c_l = 2(i-l+1)(2(i-l+1)+2p+n-2).  Every term is >= 0 and the j = 0 term is
# 1, so mu_i >= 1: T is invertible on the degree-k polynomials, and the
# order-k family is independent for every N >= n, every a^2 and every k.


def _norm2(n):
    return sum((RationalPoly.monomial(tuple(2 * (j == i) for j in range(n)))
                for i in range(n)), RationalPoly(n))


def _T(f, m):
    total, delta = RationalPoly(f.nvars), f
    for j in range(f.degree() // 2 + 1):
        total = total + coeff_C(j, m) * (-_norm2(f.nvars)) ** j * delta
        delta = laplacian(delta)
    return total


def test_lift_top_degree_part_is_T_of_monomial():
    for n in range(1, 4):
        for N in range(n, 9):
            for k in range(6):
                for K in enumerate_multi_indices(n, k):
                    TxK = _T(RationalPoly.monomial(K), N - n)
                    for a2 in (Fraction(1), Fraction(N), Fraction(2, 3)):
                        Q = build_Q_sphere(N, n, K, a2)
                        top = {e: c for e, c in Q.terms.items() if sum(e) == k}
                        assert top == TxK.terms, (N, K, a2)


def _harmonic(n, p):
    """Re (x1 + i x2)^p for n >= 2; 1 or x1 for n = 1."""
    return RationalPoly(n, {((p - r, r) + (0,) * (n - 2))[:n]: (-1) ** (r // 2) * math.comb(p, r)
                            for r in range(0, p + 1, 2)})


def _mu(i, p, n, m):
    total = term = Fraction(1)
    for l in range(1, i + 1):
        c = 2 * (i - l + 1) * (2 * (i - l + 1) + 2 * p + n - 2)
        term *= Fraction(c, 2 * l * (m + 2 * l - 1))
        total += term
    return total


def test_T_scales_each_fischer_summand_by_mu_at_least_one():
    for n in range(1, 5):
        for m in range(9):
            for p in range(2 if n == 1 else 5):
                h = _harmonic(n, p)
                assert laplacian(h).is_zero()
                for i in range(3):
                    f = _norm2(n) ** i * h
                    mu = _mu(i, p, n, m)
                    assert mu >= 1
                    assert _T(f, m) == mu * f, (n, m, p, i)
