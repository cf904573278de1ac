"""Exact sparse multivariate polynomial arithmetic over the rationals.

All coefficients are ``fractions.Fraction``; no floating point ever enters
an arithmetic operation, so polynomial identities can be asserted with zero
tolerance.  Zero coefficients are pruned eagerly, hence equality of
polynomials is plain equality of their term maps.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]


def _sum_terms(pairs: Iterable[tuple[Exponents, Fraction]],
               start: Mapping[Exponents, Fraction] | None = None) -> dict[Exponents, Fraction]:
    """Term map of ``start`` plus the summed (exponents, coefficient) pairs.

    A sum that reaches zero drops its term as it occurs, so a term map holds
    no zero coefficient.  ``start`` is copied, not changed.
    """
    out = dict(start or {})
    for exps, c in pairs:
        acc = out.get(exps)
        s = c if acc is None else acc + c
        if s:
            out[exps] = s
        else:
            out.pop(exps, None)
    return out


class RationalPoly:
    """Sparse polynomial in ``nvars`` variables with rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, object] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars

        def checked():
            for exps, coeff in (terms or {}).items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                yield exps, Fraction(coeff)

        self.terms = _sum_terms(checked())

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "RationalPoly":
        """A polynomial on a term map that already holds no zero coefficient."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> "RationalPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "RationalPoly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff=1) -> "RationalPoly":
        exps = tuple(exps)
        return cls(len(exps), {exps: Fraction(coeff)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "RationalPoly":
        """The coordinate polynomial x_{i+1} (0-based index ``i``)."""
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "RationalPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable counts")

    def __add__(self, other):
        if isinstance(other, RationalPoly):
            self._check(other)
            return RationalPoly._raw(self.nvars, _sum_terms(other.terms.items(), self.terms))
        if isinstance(other, Rational):
            return self + RationalPoly.constant(self.nvars, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalPoly) else RationalPoly.constant(self.nvars, -Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RationalPoly):
            self._check(other)
            return RationalPoly._raw(self.nvars, _sum_terms(
                (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()))
        if isinstance(other, Rational):
            c = Fraction(other)
            if not c:
                return RationalPoly(self.nvars)
            return RationalPoly._raw(self.nvars, {e: c * v for e, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = RationalPoly.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, RationalPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, Rational):
            return self == RationalPoly.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def diff(self, i: int) -> "RationalPoly":
        """Partial derivative with respect to variable ``i`` (0-based)."""
        return RationalPoly._raw(self.nvars, _sum_terms(
            (exps[:i] + (exps[i] - 1,) + exps[i + 1:], c * exps[i])
            for exps, c in self.terms.items() if exps[i]))

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def evaluate(self, point: Sequence):
        """Evaluate at ``point``; exact when all coordinates are rational."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        exact = all(isinstance(x, Rational) for x in point)
        total = Fraction(0) if exact else 0.0
        for exps, c in self.terms.items():
            term = c if exact else float(c)
            for x, e in zip(point, exps):
                if e:
                    term *= x ** e
            total += term
        return total

    def __repr__(self):
        return f"RationalPoly({self.nvars}, {dumps(self)!r})"


class LiftedPoly:
    """Polynomial in (x_1..x_n, t) where the slot t stands for |y|^2.

    Encodes polynomials on R^{N+1} that depend on the trailing N-n+1
    coordinates only through their squared norm; the extra variable has
    weight 2 so the encoding stays N-independent.
    """

    __slots__ = ("base", "n", "N")

    def __init__(self, base: RationalPoly, n: int, N: int):
        if not 1 <= n <= N:
            raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
        if base.nvars != n + 1:
            raise ValueError("base must have n+1 variables (x_1..x_n, t)")
        self.base = base
        self.n = n
        self.N = N

    def is_zero(self) -> bool:
        return self.base.is_zero()

    def substitute_t(self, a2) -> RationalPoly:
        """Restrict to the sphere of squared radius ``a2``: t := a2 - |x|^2."""
        n = self.n
        repl = RationalPoly(n, {(0,) * n: a2, **{
            tuple(2 * (j == i) for j in range(n)): -1 for i in range(n)}})
        powers = {j: (repl ** j).terms for j in {exps[-1] for exps in self.base.terms}}
        # zip stops at a term's n x exponents and so leaves out its t slot
        return RationalPoly._raw(n, _sum_terms(
            (tuple(a + b for a, b in zip(exps, e)), c * d)
            for exps, c in self.base.terms.items() for e, d in powers[exps[-1]].items()))

    def evaluate(self, x: Sequence, t):
        return self.base.evaluate(list(x) + [t])

    def __repr__(self):
        return f"LiftedPoly(n={self.n}, N={self.N}, {dumps(self.base, lifted=True)!r})"


# -- differential operators ------------------------------------------


def laplacian(p: RationalPoly, variables: Iterable[int] | None = None) -> RationalPoly:
    """Sum of second partials over ``variables`` (default: all)."""
    idx = range(p.nvars) if variables is None else variables
    out = RationalPoly(p.nvars)
    for i in idx:
        out = out + p.diff(i).diff(i)
    return out


def lifted_laplacian(p: LiftedPoly) -> LiftedPoly:
    """Laplacian on R^{N+1} in the t-slot encoding.

    The trailing block contributes via Delta |y|^{2j} = 2j(N-n+2j-1)|y|^{2(j-1)}.
    """
    n, N = p.n, p.N
    x_part = laplacian(p.base, range(n))
    t_part = ((exps[:-1] + (j - 1,), c * 2 * j * (N - n + 2 * j - 1))
              for exps, c in p.base.terms.items() if (j := exps[-1]))
    return LiftedPoly(RationalPoly._raw(n + 1, _sum_terms(t_part, x_part.terms)), n, N)


def euler_pairing(p: RationalPoly) -> RationalPoly:
    """<x, grad p>; multiplies each monomial by its total degree."""
    return RationalPoly._raw(p.nvars, {e: c * sum(e) for e, c in p.terms.items() if sum(e)})


# -- serialization ------------------------------------------------------


def _var_names(nvars: int, lifted: bool) -> list[str]:
    if lifted:
        return [f"x{i + 1}" for i in range(nvars - 1)] + ["t"]
    return [f"x{i + 1}" for i in range(nvars)]


def dumps(p: RationalPoly, lifted: bool = False) -> str:
    """Deterministic textual form: one ``coeff * x1^a x2^b`` line per term.

    Terms are sorted descending-lexicographically on exponents; rational
    coefficients print as ``p/q``.
    """
    if not p.terms:
        return "0"
    names = _var_names(p.nvars, lifted)
    lines = []
    for exps in sorted(p.terms, reverse=True):
        c = p.terms[exps]
        factors = [f"{nm}^{e}" for nm, e in zip(names, exps) if e]
        coeff = str(c)
        lines.append(coeff if not factors else coeff + " * " + " ".join(factors))
    return "\n".join(lines)


# A Mersenne prime: the modulus of the first, certifying elimination.
_P = 2 ** 61 - 1


def _rank_mod_p(m: list[list[Fraction]]) -> int | None:
    """Rank over GF(_P) of the rows' image; None if a denominator is divisible by _P."""
    try:
        a = [[v.numerator * pow(v.denominator, -1, _P) % _P for v in row] for row in m]
    except ValueError:
        return None
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        prow = a[rank]
        inv = pow(prow[col], -1, _P)
        for r in range(rank + 1, len(a)):
            if a[r][col]:
                f = a[r][col] * inv % _P
                a[r] = [(x - f * y) % _P for x, y in zip(a[r], prow)]
        rank += 1
        if rank == len(a):
            break
    return rank


def _fraction_rank(m: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination on Fractions; ``m`` is overwritten."""
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(row + 1, len(m)):
            if m[r][col]:
                f = m[r][col] / pv
                mr, mrow = m[r], m[row]
                for c in range(col, ncols):
                    mr[c] -= f * mrow[c]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank over Q of a rectangular matrix of rationals.

    The rows are first reduced modulo the prime ``_P`` and eliminated in
    GF(_P).  Reduction mod p is a ring map, so every minor of the image is
    the image of a rational minor, and the rank mod p never exceeds the rank
    over Q.  A rank mod p equal to min(rows, columns) is therefore the rank
    over Q, certified.  Otherwise (rank lost mod p, or a denominator
    divisible by p) plain elimination over Q on Fractions decides.  Either
    way the result is exact; nothing is random.  Rows of unequal length
    raise ``ValueError``.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    if len({len(row) for row in m}) > 1:
        raise ValueError("rows differ in length")
    full = min(len(m), len(m[0])) if m else 0
    if _rank_mod_p(m) == full:
        return full
    return _fraction_rank(m)
