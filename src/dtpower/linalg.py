"""Exact rational linear algebra for small dense integer systems.

Everything works over Python ints and fractions.Fraction; no floats enter
any computation here.  Vectors are plain tuples of ints.  rank (for
check_system only) and column_solver share one fraction-free elimination
over int (_bareiss); solve_columns is the Fraction reference.  column_solver,
cached, decides each fact about a basis once: independence, determinant,
adjugate; integer_relation and square_solver, the one invertible-basis
check, read it.  The cached pointedness_certificate eliminates over int
rows too, each divided by its gcd, and makes Fractions only for xi.

Two more kernels are shared by the engines and the evaluators: cone_count,
the one test of a point against the cone of columns that column_solver
solved (independent_count, the recursion's base case and
support_membership), and int_range, the one clip of an integer range by
rows a * v <= r (a box line of eval_closed_box to a basis's chamber, and
each multiplier of the brute walk to the box).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import InvariantError

Vec = tuple[int, ...]


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def scale(v: Vec, n: int) -> Vec:
    return tuple(n * c for c in v)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def is_zero(v: Vec) -> bool:
    return all(c == 0 for c in v)


@dataclass(frozen=True)
class IntegerRelation:
    """Primitive relation: multiplier * target == sum(coefficients[i] * basis[i]).

    The multiplier is always positive and gcd(multiplier, *coefficients) == 1;
    the sign pattern of the coefficients is free.
    """

    multiplier: int
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class PointedCertificate:
    """Rational vector xi with <xi, a> >= 1 for every a in the certified system."""

    xi: tuple[Fraction, ...]

    def pairing(self, v) -> Fraction:
        return sum(x * c for x, c in zip(self.xi, v))

    def scaled(self) -> tuple[Vec, int]:
        """Integer multiple (L*xi, L) of the certificate, L the lcm of denominators."""
        m = lcm(*(f.denominator for f in self.xi)) if self.xi else 1
        return tuple(int(f * m) for f in self.xi), m


def solve_columns(basis, rhs):
    """Solve sum(lambda_j * basis[j]) == rhs exactly, basis given as columns.

    Returns a tuple of Fractions, or None when the columns are dependent /
    singular or the system is inconsistent (rhs outside the column span).
    """
    s = len(rhs)
    r = len(basis)
    for b in basis:
        if len(b) != s:
            raise ValueError("dimension mismatch between basis and right-hand side")
    rows = [[Fraction(basis[j][k]) for j in range(r)] + [Fraction(rhs[k])]
            for k in range(s)]
    row = 0
    for col in range(r):
        piv = next((i for i in range(row, s) if rows[i][col] != 0), None)
        if piv is None:
            return None  # dependent columns
        rows[row], rows[piv] = rows[piv], rows[row]
        pv = rows[row][col]
        rows[row] = [x / pv for x in rows[row]]
        for i in range(s):
            if i != row and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[row])]
        row += 1
    for i in range(row, s):
        if rows[i][r] != 0:
            return None  # inconsistent
    return tuple(rows[c][r] for c in range(r))


def solve_square(basis, rhs):
    """Solve a square system: s basis vectors of dimension s. None when singular."""
    s = len(rhs)
    if len(basis) != s:
        raise ValueError(f"expected {s} basis vectors, got {len(basis)}")
    return solve_columns(basis, rhs)


def rank(X) -> int:
    """Rank over the rationals of the span of the given integer vectors."""
    if not X:
        return 0
    return _bareiss([list(v) for v in X], len(X[0]))[0]


def integer_relation(basis, target):
    """Primitive integer relation m * target == sum(c_i * basis[i]).

    basis must be linearly independent.  Returns None when target lies outside
    the span.  The multiplier m is the least positive integer clearing the
    denominators of the rational solution, which makes the relation primitive.
    """
    if not basis:
        return IntegerRelation(1, ()) if is_zero(target) else None
    solved = column_solver(tuple(tuple(b) for b in basis))
    if solved is None:
        return None
    d, adj, null = solved
    if any(dot(row, target) for row in null):
        return None
    nums = [dot(row, target) for row in adj]
    g = gcd(d, *nums)
    return IntegerRelation(d // g, tuple(n // g for n in nums))


def orth_complement(basis, i: int) -> Vec:
    """Primitive integer vector orthogonal to all basis vectors except basis[i]:
    square_solver's adjugate row i divided by its gcd.

    basis must be s invertible columns (square_solver's ValueError
    otherwise); the returned w satisfies <w, basis[j]> == 0 for j != i and
    <w, basis[i]> > 0, with content 1.  Index i is 0-based.
    """
    row = square_solver(basis)[1][i]
    g = gcd(*row)
    return tuple(c // g for c in row)


def square_solver(basis) -> tuple[int, tuple[Vec, ...]]:
    """column_solver's (d, adj) of s invertible columns of dimension s:
    d = |det| and adj[i] / d is row i of the inverse.  ValueError("singular
    basis") for dependent columns or fewer than s of them."""
    solved = column_solver(tuple(map(tuple, basis)))
    if solved is None or solved[2]:
        raise ValueError("singular basis")
    return solved[:2]


def _bareiss(rows, ncols: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows,
    in place, with pivots taken from the first ncols columns.

    Returns (rank, last pivot d); d is 1 when the rank is 0.  Afterwards the
    pivot rows come first, in pivot order: each holds d in its own pivot
    column and 0 in the others, and every other row is 0 in all pivot
    columns.  Every entry stays a minor of the input, so each division by
    the previous pivot is exact.
    """
    rk, prev = 0, 1
    for col in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        top = rows[rk]
        p = top[col]
        for i, row in enumerate(rows):
            if i != rk:
                f = row[col]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        rk += 1
    return rk, prev


@lru_cache(maxsize=4096)
def column_solver(columns: tuple[Vec, ...]):
    """(d, adj, null) for r independent columns of dimension s >= r, or None
    when they are dependent.

    d > 0, and lambda_i = <adj[i], u> / d is the only candidate for
    sum(lambda_j * columns[j]) == u.  The s - r rows of null pair to 0 with
    every column, and u lies in the span of the columns iff every row of
    null pairs to 0 with u.  Built by one elimination of [A | I_s], A the
    s x r matrix of the columns; for r == s, null is () and d = |det|.
    Cached: the fold search, the inversion (orth_complement), the compile
    and the recursion's base case share a few bases.
    """
    s = len(columns[0]) if columns else 0
    if any(len(c) != s for c in columns):
        raise ValueError("columns of different dimensions")
    r = len(columns)
    rows = [[c[k] for c in columns] + [int(k == i) for i in range(s)] for k in range(s)]
    rk, d = _bareiss(rows, r)
    if rk < r:
        return None
    sign = 1 if d > 0 else -1
    adj = tuple(tuple(sign * x for x in row[r:]) for row in rows[:r])
    return sign * d, adj, tuple(tuple(row[r:]) for row in rows[r:])


def cone_count(solved, u: Vec) -> int:
    """1 iff u is a nonnegative integer combination of the columns that
    column_solver solved as `solved`, (d, adj, null); 0 for None."""
    if solved is None:
        return 0
    d, adj, null = solved
    for row in null:
        if sum(map(mul, row, u)):
            return 0  # u is outside the span of the columns
    for row in adj:
        num = sum(map(mul, row, u))
        if num < 0 or num % d:
            return 0
    return 1


def int_range(rows, low: int, high: int) -> range:
    """The integers v in [low, high] with a * v <= r for every (a, r) in rows."""
    for a, r in rows:
        if a > 0:
            high = min(high, r // a)
        elif a < 0:
            low = max(low, -(r // -a))
        elif r < 0:
            return range(0)
    return range(low, high + 1)


def pointedness_certificate(X):
    """Rational xi with <xi, a> >= 1 for all a in X, via Fourier-Motzkin.

    Returns None exactly when the system is infeasible, i.e. the cone spanned
    by X contains a line (some nonzero nonnegative combination vanishes).
    Memoised on the vectors of X, so every engine asks for it.
    """
    return _fourier_motzkin(tuple(map(tuple, X)))


@lru_cache(maxsize=1024)
def _fourier_motzkin(X: tuple[Vec, ...]):
    """The elimination runs over int rows <coefs, xi> >= r: a pos row cp and
    a neg row cn combine as -cn[var] * cp + cp[var] * cn, right-hand side
    included, divided by the row's gcd, a positive multiple of the rational
    row that eliminates var.  Only the back-substitution of xi is rational.
    """
    if not X:
        return PointedCertificate(())
    s = len(X[0])
    cons = [(a, 1) for a in X]
    stages = []
    for var in range(s):
        stages.append(cons)
        pos = [c for c in cons if c[0][var] > 0]
        neg = [c for c in cons if c[0][var] < 0]
        new = [c for c in cons if c[0][var] == 0]
        for cp, rp in pos:
            for cn, rn in neg:
                coefs = [-cn[var] * x + cp[var] * y for x, y in zip(cp, cn)]
                r = -cn[var] * rp + cp[var] * rn
                g = gcd(*coefs, r) or 1
                new.append((tuple(x // g for x in coefs), r // g))
        cons = new
    if any(r > 0 for _, r in cons):
        return None
    xi = [Fraction(0)] * s
    for var in reversed(range(s)):
        lo = hi = None
        for coefs, r in stages[var]:
            c = coefs[var]
            if c == 0:
                continue
            bound = Fraction(r - sum(coefs[k] * xi[k] for k in range(var + 1, s))) / c
            if c > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            xi[var] = Fraction(0)
        elif lo is None:
            xi[var] = hi
        elif hi is None:
            xi[var] = lo
        else:
            xi[var] = (lo + hi) / 2
    cert = PointedCertificate(tuple(xi))
    if not all(cert.pairing(a) >= 1 for a in X):
        raise InvariantError(f"Fourier-Motzkin certificate {cert.xi} fails on {X}")
    return cert


def check_system(X) -> PointedCertificate:
    """The pointedness certificate of X, after checking that X is a system
    the engines can count: nonempty, all of one dimension, free of zero
    vectors, full rank and pointed.  Raises ValueError, with the message
    the CLI prints, for the first check that fails."""
    if not X:
        raise ValueError("no vectors in the system")
    s = len(X[0])
    for i, a in enumerate(X, 1):
        if len(a) != s:
            raise ValueError(f"ragged system: vector {i} has {len(a)} entries, expected {s}")
        if is_zero(a):
            raise ValueError(f"vector {i} is the zero vector, which is not allowed")
    r = rank(X)
    if r != s:
        raise ValueError(f"rank-deficient system: rank {r} < dimension {s}")
    cert = pointedness_certificate(X)
    if cert is None:
        raise ValueError("system is not pointed: a nonzero nonnegative combination vanishes")
    return cert
