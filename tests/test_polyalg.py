from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sphere2gauss import polyalg
from sphere2gauss.polyalg import (LiftedPoly, RationalPoly, dumps, euler_pairing,
                                  laplacian, lifted_laplacian, rational_rank)


def _coeffs():
    return st.fractions(min_value=-10, max_value=10, max_denominator=8)


def _polys(nvars=2, max_deg=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_deg)] * nvars)
    return st.dictionaries(exps, _coeffs(), max_size=max_terms).map(
        lambda d: RationalPoly(nvars, d))


@settings(max_examples=60)
@given(_polys(), _polys(), _polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p - p == RationalPoly.zero(2)


@settings(max_examples=40)
@given(_polys(), _polys())
def test_product_rule(p, q):
    lhs = (p * q).diff(0)
    rhs = p.diff(0) * q + p * q.diff(0)
    assert lhs == rhs


@settings(max_examples=40)
@given(_polys(), st.tuples(_coeffs(), _coeffs()))
def test_evaluate_is_homomorphic(p, point):
    q = p * p + 3
    assert q.evaluate(point) == p.evaluate(point) ** 2 + 3
    assert isinstance(p.evaluate(point), Fraction) or p.evaluate(point) == 0


def test_zero_terms_pruned():
    p = RationalPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in p.terms
    assert (p - p).is_zero()


def test_pow_and_degree():
    x = RationalPoly.variable(2, 0)
    y = RationalPoly.variable(2, 1)
    p = (x + y) ** 3
    assert p.degree() == 3
    assert p.terms[(2, 1)] == 3


def test_euler_pairing_homogeneous():
    # <x, grad m> = deg(m) * m on monomials
    m = RationalPoly.monomial((2, 3), Fraction(5, 7))
    assert euler_pairing(m) == m * 5


def test_laplacian_known_values():
    x = RationalPoly.variable(2, 0)
    y = RationalPoly.variable(2, 1)
    assert laplacian(x * x + y * y) == RationalPoly.constant(2, 4)
    assert laplacian(x * x - y * y).is_zero()
    assert laplacian(x * y, variables=[0]).is_zero()


@settings(max_examples=30, deadline=None)
@given(_polys(3, 3, 3))
def test_laplacian_matches_sympy(p):
    xs = sympy.symbols("x0 x1 x2")
    expr = sum(sympy.Rational(c) * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
               for e, c in p.terms.items())
    want = sympy.expand(sum(sympy.diff(expr, v, 2) for v in xs))
    got = laplacian(p)
    got_expr = sum(sympy.Rational(c) * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
                   for e, c in got.terms.items())
    assert sympy.expand(got_expr - want) == 0


@pytest.mark.parametrize("extra", [1, 2, 3])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_lifted_laplacian_rule_against_expansion(extra, j):
    # t stands for |y|^2 in `extra` real variables y_1..y_extra; the rule
    # Delta t^j = 2j (extra + 2j - 2) t^(j-1) must match expanding t^j as
    # (y_1^2 + ... + y_extra^2)^j and applying the honest Laplacian.
    n = 1
    N = n + extra - 1  # N - n + 1 = extra trailing coordinates
    if N < n:
        pytest.skip("not a valid lift")
    tj = LiftedPoly(RationalPoly.monomial((0, j)), n, N)
    got = lifted_laplacian(tj)

    norm2 = RationalPoly(extra)
    for i in range(extra):
        norm2 = norm2 + RationalPoly.monomial(tuple(2 if m == i else 0
                                                    for m in range(extra)))
    expanded = laplacian(norm2 ** j)
    factor = 2 * j * (extra + 2 * j - 2)
    want = norm2 ** (j - 1) * Fraction(factor) if j >= 1 else RationalPoly.zero(extra)
    assert expanded == want
    # and the encoded result carries the same factor on t^(j-1)
    assert got.base == RationalPoly.monomial((0, j - 1), factor)


@settings(max_examples=30)
@given(_polys(2, 2, 3), st.tuples(_coeffs(), _coeffs()), _coeffs())
def test_substitute_t_consistent_with_evaluate(p, x, t):
    lifted = LiftedPoly(p, 1, 4)
    a2 = x[0] ** 2 + t
    # substitute t = a2 - x1^2, then evaluating at x1 must agree with
    # evaluating the lifted polynomial at (x1, t = a2 - x1^2)
    sub = lifted.substitute_t(a2)
    assert sub.evaluate((x[0],)) == lifted.evaluate((x[0],), a2 - x[0] ** 2)


def test_lifted_poly_validation():
    with pytest.raises(ValueError):
        LiftedPoly(RationalPoly.zero(3), 3, 2)  # n > N
    with pytest.raises(ValueError):
        LiftedPoly(RationalPoly.zero(3), 1, 4)  # wrong variable count


@st.composite
def _matrices(draw):
    """1-6 x 1-6 matrices whose rows past a random few are combinations of earlier rows."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 6))
    row = st.lists(_coeffs(), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=nrows))
    while len(rows) < nrows:
        w = draw(st.lists(_coeffs(), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(a * r[c] for a, r in zip(w, rows)) for c in range(ncols)])
    return draw(st.permutations(rows))


@settings(max_examples=80)
@given(_matrices())
def test_rational_rank_matches_sympy(rows):
    want = sympy.Matrix(rows).rank()
    assert rational_rank(rows) == want
    assert polyalg._fraction_rank([[Fraction(v) for v in row] for row in rows]) == want


P = polyalg._P


@pytest.mark.parametrize("rows, rank, fallback", [
    ([[1, 2], [3, 4]], 2, False),                   # full rank mod p: certified
    ([[1, 0], [0, P]], 2, True),                    # full rank over Q, singular mod p
    ([[1, 0], [0, 2 * P]], 2, True),
    ([[Fraction(1, P), 1], [0, 1]], 2, True),       # denominator divisible by p
    ([[Fraction(3, 7 * P)]], 1, True),
    ([[1, 2], [2, 4]], 1, True),                    # rank lost over Q too
    ([], 0, False),
    ([[]], 0, False),
    ([[], []], 0, False),
    ([[0]], 0, True),
    ([[0, 0, 0], [0, 0, 0]], 0, True),
])
def test_rational_rank_both_paths(fraction_calls, rows, rank, fallback):
    assert rational_rank(rows) == rank
    assert bool(fraction_calls) is fallback


@pytest.mark.parametrize("rows", [[[1], [1, 2]], [[0, 1], [1]], [[], [0]]])
def test_rational_rank_rejects_ragged_rows(rows):
    with pytest.raises(ValueError, match="differ in length"):
        rational_rank(rows)


def test_dumps_deterministic_and_rational():
    p = RationalPoly(2, {(2, 0): Fraction(1), (0, 1): Fraction(-1, 4)})
    assert dumps(p) == "1 * x1^2\n-1/4 * x2^1"
    assert dumps(RationalPoly.zero(2)) == "0"


def test_dumps_lifted_names_t():
    p = LiftedPoly(RationalPoly.monomial((1, 2), Fraction(3)), 1, 5)
    assert dumps(p.base, lifted=True) == "3 * x1^1 t^2"
