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


class RationalPoly:
    """Sparse polynomial in ``nvars`` variables with rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, object] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = Fraction(coeff)
                if c:
                    acc = clean.get(exps)
                    c = c if acc is None else acc + c
                    if c:
                        clean[exps] = c
                    else:
                        clean.pop(exps, None)
        self.terms = clean

    # -- constructors -------------------------------------------------

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
            out = dict(self.terms)
            for exps, c in other.terms.items():
                s = out.get(exps, Fraction(0)) + c
                if s:
                    out[exps] = s
                else:
                    out.pop(exps, None)
            p = RationalPoly(self.nvars)
            p.terms = out
            return p
        if isinstance(other, Rational):
            return self + RationalPoly.constant(self.nvars, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        p = RationalPoly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalPoly) else RationalPoly.constant(self.nvars, -Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RationalPoly):
            self._check(other)
            out: dict[Exponents, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    s = out.get(e, Fraction(0)) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            p = RationalPoly(self.nvars)
            p.terms = out
            return p
        if isinstance(other, Rational):
            c = Fraction(other)
            if not c:
                return RationalPoly(self.nvars)
            p = RationalPoly(self.nvars)
            p.terms = {e: c * v for e, v in self.terms.items()}
            return p
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
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                new = exps[:i] + (e - 1,) + exps[i + 1:]
                out[new] = out.get(new, Fraction(0)) + c * e
        p = RationalPoly(self.nvars)
        p.terms = {e: c for e, c in out.items() if c}
        return p

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

    def __call__(self, *point):
        return self.evaluate(point)

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

    def __eq__(self, other):
        return (isinstance(other, LiftedPoly) and self.n == other.n
                and self.N == other.N and self.base == other.base)

    def __add__(self, other):
        if isinstance(other, LiftedPoly):
            if (self.n, self.N) != (other.n, other.N):
                raise ValueError("mismatched (n, N)")
            return LiftedPoly(self.base + other.base, self.n, self.N)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Rational):
            return LiftedPoly(self.base * other, self.n, self.N)
        if isinstance(other, LiftedPoly):
            if (self.n, self.N) != (other.n, other.N):
                raise ValueError("mismatched (n, N)")
            return LiftedPoly(self.base * other.base, self.n, self.N)
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.base.is_zero()

    def weighted_degrees(self) -> set[int]:
        """Set of x-degree + 2*t-degree over all terms."""
        return {sum(e[:-1]) + 2 * e[-1] for e in self.base.terms}

    def substitute_t(self, a2) -> RationalPoly:
        """Restrict to the sphere of squared radius ``a2``: t := a2 - |x|^2."""
        n = self.n
        a2 = Fraction(a2)
        norm2 = RationalPoly(n)
        for i in range(n):
            norm2 = norm2 + RationalPoly.monomial(tuple(2 if j == i else 0 for j in range(n)))
        repl = RationalPoly.constant(n, a2) - norm2
        out = RationalPoly(n)
        powers: dict[int, RationalPoly] = {0: RationalPoly.constant(n, 1)}
        for exps, c in self.base.terms.items():
            j = exps[-1]
            if j not in powers:
                powers[j] = repl ** j
            out = out + RationalPoly.monomial(exps[:-1], c) * powers[j]
        return out

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
    out = dict(x_part.terms)
    for exps, c in p.base.terms.items():
        j = exps[-1]
        if j:
            e = exps[:-1] + (j - 1,)
            s = out.get(e, Fraction(0)) + c * 2 * j * (N - n + 2 * j - 1)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    q = RationalPoly(n + 1)
    q.terms = out
    return LiftedPoly(q, n, N)


def euler_pairing(p: RationalPoly) -> RationalPoly:
    """<x, grad p>; multiplies each monomial by its total degree."""
    out = RationalPoly(p.nvars)
    out.terms = {e: c * sum(e) for e, c in p.terms.items() if sum(e)}
    return out


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


def dumps_lifted(p: LiftedPoly) -> str:
    return dumps(p.base, lifted=True)


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
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
