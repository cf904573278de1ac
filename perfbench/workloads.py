"""The three workloads: seeded inputs, one operation each, and output checks.

Each workload is a sequence of rounds; round r is drawn from
``random.Random(f"<workload>:<seed>:<r>")``, so a seed fixes every input.
A round always holds the same kinds of operation in the same order, with
inputs drawn from fixed ranges, so the seed barely moves the cost of a
round and does not move the share of failed operations.  ``warmup()`` returns
the input of the set-up operation, which no round contains.

Checks run after the timed loop and compare every output with the
oracles in ``oracles.py``, which is imported only then, so that its
imports weigh neither on set-up time nor on peak memory.
"""

from __future__ import annotations

import csv
import io
import math
import random
from fractions import Fraction

LAMBDA_RTOL = 1e-8  # solver tol is 1e-8; measured agreement is 1e-9 or better
NU_RTOL = 1e-8  # nu_of_s tol is 1e-7 on lambda; measured agreement is 1e-10


def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(1.0, abs(want))


# -- dirichlet ---------------------------------------------------------------

N_SCHEDULE = [25, 50, 100, 200]
R_BAND = (0.45, 0.55)
FAILING_N = [12, 24, 48]  # the certificate rejects this table's correct lambda at R near -3


class Dirichlet:
    name = "dirichlet"

    def __init__(self, s2g, ctx):
        self.convergence = s2g.convergence

    @staticmethod
    def round(seed, r):
        rng = random.Random(f"dirichlet:{seed}:{r}")
        # the solvers' cost depends on R (a cold table costs 3.6 s near R = 0
        # and 6.7 s at R = 0.7), so R comes from a narrow band: every round
        # then costs about the same, whatever the seed
        R = rng.uniform(*R_BAND)
        alpha_a, alpha_b = rng.uniform(0.8, 1.0), rng.uniform(1.1, 1.3)
        # theta_N depends on R only, so the second table's cap solves repeat
        # keys of the first.  The failing table's R depends on r but not on
        # the seed: its cost is the same in every round and its cap solves
        # are never repeated
        R_fail = random.Random(f"dirichlet-failing:{r}").uniform(-3.05, -2.95)
        return [(alpha_a, R, N_SCHEDULE), (alpha_b, R, N_SCHEDULE),
                (1.0, R_fail, FAILING_N)]

    @staticmethod
    def warmup():
        return (1.0, 0.0, [9])

    def run(self, inp):
        alpha, R, Ns = inp
        rows = self.convergence.dirichlet_convergence_table(alpha, R, Ns)
        return rows, not all(row.hypotheses_ok for row in rows)

    @staticmethod
    def check(inp, rows):
        import oracles

        alpha, R, Ns = inp
        errs = []
        if [row.N for row in rows] != list(Ns):
            return [f"table {inp}: rows for N={[row.N for row in rows]}"]
        half = oracles.halfline_lambda(alpha, R)
        for row in rows:
            aN = alpha * math.sqrt(row.N - 1)
            cap = oracles.cap_lambda(row.N, aN, math.acos(alpha * R / aN))
            if not _close(row.lhs, cap, LAMBDA_RTOL):
                errs.append(f"table {inp} N={row.N}: cap lambda {row.lhs!r}, oracle {cap!r}")
            if not _close(row.rhs, half, LAMBDA_RTOL):
                errs.append(f"table {inp}: half-line lambda {row.rhs!r}, oracle {half!r}")
            if row.abs_err != abs(row.lhs - row.rhs):
                errs.append(f"table {inp} N={row.N}: abs_err is not |lhs - rhs|")
        err = [row.abs_err for row in rows]
        if any(not e1 < e0 for e0, e1 in zip(err, err[1:])):
            errs.append(f"table {inp}: abs_err does not strictly decrease: {err}")
        if R == 0.0:  # closed forms: N/a_N^2 on the hemisphere, 1/alpha^2
            for row in rows:
                if not _close(row.lhs, row.N / (alpha ** 2 * (row.N - 1)), LAMBDA_RTOL):
                    errs.append(f"table {inp} N={row.N}: hemisphere lambda {row.lhs!r}")
                if not _close(row.rhs, 1 / alpha ** 2, LAMBDA_RTOL):
                    errs.append(f"table {inp}: half-line lambda {row.rhs!r} at R=0")
        return errs


# -- nu ------------------------------------------------------------------------

NU_WINDOWS = [2, 10, 18]  # lowest first N of each window; 6 N values each
NU_S_STRATA = [(0.22, 0.28), (0.37, 0.43), (0.62, 0.68)]


class Nu:
    name = "nu"

    def __init__(self, s2g, ctx):
        self.cli = s2g.cli
        self.path = ctx["nu_csv"]

    @staticmethod
    def round(seed, r):
        rng = random.Random(f"nu:{seed}:{r}")
        # the windows' shifts are a permutation of 0, 1, 2, so every round
        # solves for the same total of N, whatever the seed
        shifts = rng.sample(range(len(NU_WINDOWS)), len(NU_WINDOWS))
        ops = []
        for lo, shift, stratum in zip(NU_WINDOWS, shifts, NU_S_STRATA):
            s = rng.uniform(*stratum)
            ops.append((s, lo + shift, lo + shift + 5))
        return ops

    @staticmethod
    def warmup():
        return (0.5, 2, 3)

    def run(self, inp):
        s, lo, hi = inp
        rc = self.cli.main(["nu", "--s", repr(s), "--N-from", str(lo), "--N-to", str(hi),
                            "--output", self.path])
        with open(self.path, "rb") as fh:
            return (rc, fh.read()), rc != 0

    @staticmethod
    def check(inp, out):
        import oracles

        s, lo, hi = inp
        rc, data = out
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if [int(row["N"]) for row in rows] != list(range(lo, hi + 1)):
            return [f"nu {inp}: rows for N={[row['N'] for row in rows]}"]
        errs = []
        for row in rows:
            N, nu = int(row["N"]), float(row["nu"])
            if float(row["s"]) != s:
                errs.append(f"nu {inp} N={N}: s column {row['s']}")
            want = 1.0 if s == 0.5 else oracles.nu_exponent(N, s)
            if not _close(nu, want, NU_RTOL):
                errs.append(f"nu {inp} N={N}: nu {nu!r}, oracle {want!r}")
        return errs


# -- exact ---------------------------------------------------------------------

# (n, k): three (4, 4) cells per round keep the median operation on one
# kind of cell, so op_p50_s rests on many samples of about 0.5 s each
EXACT_CELLS = [(3, 5), (4, 4), (4, 4), (4, 4), (4, 5)]
ALPHA2 = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3),
          Fraction(3), Fraction(1, 3)]
SYMPY_MEMBERS = 1  # lifts per cell with k <= 4 that also get a sympy Laplacian


class Exact:
    name = "exact"

    def __init__(self, s2g, ctx):
        self.harmonics = s2g.harmonics
        self.indices = s2g.indices

    @staticmethod
    def round(seed, r):
        rng = random.Random(f"exact:{seed}:{r}")
        ops = []
        for n, k in EXACT_CELLS:
            N = rng.randint(n + 2, 12)
            picks = rng.sample(range(math.comb(n - 1 + k, k)), SYMPY_MEMBERS) if k <= 4 else []
            ops.append((n, N, k, rng.choice(ALPHA2), tuple(picks)))
        return ops

    @staticmethod
    def warmup():
        return (3, 4, 3, Fraction(1), ())

    def run(self, inp):
        n, N, k, alpha2, _ = inp
        hm = self.harmonics
        dim = hm.projected_eigenspace_dimension(N, n, k)
        members = []
        for K in self.indices.enumerate_multi_indices(n, k):
            P = hm.build_P(N, n, K)
            harmonic, _ = hm.check_harmonic(P)
            Q = hm.build_Q_gauss(n, K, alpha2)
            members.append((tuple(K), P, harmonic, Q, hm.ou_apply(Q, alpha2)))
        return (dim, members), False

    @staticmethod
    def check(inp, out):
        import oracles

        n, N, k, alpha2, picks = inp
        dim, members = out
        errs = []
        if dim != math.comb(n - 1 + k, k):
            errs.append(f"cell {inp}: dimension {dim}, want {math.comb(n - 1 + k, k)}")
        if len(members) != math.comb(n - 1 + k, k):
            errs.append(f"cell {inp}: {len(members)} multi-indices")
        for i, (K, P, harmonic, Q, ou) in enumerate(members):
            if not harmonic:
                errs.append(f"cell {inp} K={K}: check_harmonic is False")
            if i in picks and not oracles.lifted_is_harmonic(P.base.terms, n, N):
                errs.append(f"cell {inp} K={K}: sympy Laplacian of P is not zero")
            want = oracles.q_gauss_coeffs(K, float(alpha2))
            got = {e: float(c) for e, c in Q.terms.items()}
            if got.keys() != want.keys() or any(
                    not _close(got[e], want[e], 1e-12) for e in want):
                errs.append(f"cell {inp} K={K}: Q_gauss differs from the Hermite product")
            shift = Fraction(-k) / alpha2
            if ou.terms != {e: shift * c for e, c in Q.terms.items() if shift * c}:
                errs.append(f"cell {inp} K={K}: OU image is not {shift} * Q_gauss")
        return errs


WORKLOADS = {w.name: w for w in (Dirichlet, Nu, Exact)}
