"""Formal algebra of exponential-rational expressions.

A term is q * e^{<c,x>} / prod_a (1 - e^{-<a,x>})^{h_a} with q a nonzero
integer, c an integer vector and the a nonzero integer vectors.  Sums of
such terms are kept normalized: denominators sorted, duplicate vectors
merged by adding powers, terms merged on the (shift, denominator) key.

All algebra is exact, the identity check too: eval_numeric evaluates an
expression in F_p, p = MODULUS, at a point z, reading e^{<c,x>} as z^c, and
spot_check compares two expressions there at seeded points; neither feeds
results.

The reduction builds its numerators as packed Laurents (see toric), so the
sum algebra here, make_sum, add, mul, monomial and geometric_factor, is off
the build path: it is the reference the tests check the reduction against.
The build uses the term types, make_term (through laplace_generating) and
the spot check.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import count
from math import prod
from operator import getitem, neg

from .errors import InvariantError
from .linalg import Vec, is_zero, scale, vadd

MODULUS = 2**61 - 1  # a Mersenne prime: the identity check works in F_p


class SingularPoint(Exception):
    """Raised when an evaluation point annihilates a denominator factor.

    Retryable: pick another point.
    """


@dataclass(frozen=True, slots=True)
class ExpMonomial:
    """q * e^{<shift, x>} with q a nonzero int."""

    coeff: int
    shift: Vec


@dataclass(frozen=True, order=True, slots=True)
class DenomFactor:
    """(1 - e^{-<vector, x>})^power in a denominator; vector != 0, power >= 1."""

    vector: Vec
    power: int


@dataclass(frozen=True, slots=True)
class ExpRatTerm:
    num: ExpMonomial
    denom: tuple[DenomFactor, ...]

    @property
    def key(self):
        return (self.num.shift, self.denom)


@dataclass(frozen=True, slots=True)
class ExpRatSum:
    terms: tuple[ExpRatTerm, ...]


def make_term(coeff, shift: Vec, factors=()) -> ExpRatTerm:
    """Build a term, merging duplicate denominator vectors and sorting."""
    if type(coeff) is not int:
        raise ValueError(f"term coefficient must be an int, not {type(coeff).__name__}")
    if coeff == 0:
        raise ValueError("zero coefficient in term")
    merged: dict[Vec, int] = {}
    for f in factors:
        if is_zero(f.vector):
            raise ValueError("zero vector in denominator")
        if f.power < 1:
            raise ValueError("denominator power must be >= 1")
        merged[f.vector] = merged.get(f.vector, 0) + f.power
    denom = tuple(DenomFactor(v, merged[v]) for v in sorted(merged))
    return ExpRatTerm(ExpMonomial(coeff, shift), denom)


def make_sum(terms) -> ExpRatSum:
    """Normalize: merge terms sharing (shift, denom), drop zeros, sort."""
    acc: dict[tuple, int] = {}
    for t in terms:
        acc[t.key] = acc.get(t.key, 0) + t.num.coeff
    out = [ExpRatTerm(ExpMonomial(c, shift), denom)
           for (shift, denom), c in acc.items() if c != 0]
    out.sort(key=lambda t: t.key)
    return ExpRatSum(tuple(out))


def monomial(coeff, shift: Vec) -> ExpRatSum:
    return make_sum([make_term(coeff, shift)])


def add(a: ExpRatSum, b: ExpRatSum) -> ExpRatSum:
    return make_sum(a.terms + b.terms)


def mul(a: ExpRatSum, b: ExpRatSum) -> ExpRatSum:
    return make_sum([make_term(ta.num.coeff * tb.num.coeff,
                               vadd(ta.num.shift, tb.num.shift),
                               ta.denom + tb.denom)
                     for ta in a.terms for tb in b.terms])


def laplace_generating(X) -> ExpRatTerm:
    """The product term 1 / prod_{a in X} (1 - e^{-<a,x>}); make_term
    rejects a zero vector."""
    if not X:
        raise ValueError("empty vector system")
    return make_term(1, (0,) * len(X[0]), [DenomFactor(tuple(a), 1) for a in X])


def geometric_factor(a: Vec, m: int) -> ExpRatSum:
    """beta = sum_{j=0}^{m-1} e^{-<j*a, x>}, so (1-e^{-<m*a,x>}) = beta*(1-e^{-<a,x>})."""
    if is_zero(a):
        raise ValueError("zero vector")
    if m < 1:
        raise ValueError("m must be >= 1")
    return make_sum([make_term(1, scale(a, -j)) for j in range(m)])


def eval_numeric(expr, z) -> int:
    """The value mod p = MODULUS of a term, an ExpRatSum or a grouped sum
    {denominator: {shift: coeff}}, as ReducedForm.grouped holds it, at z in
    (F_p^*)^s, reading e^{<c,x>} as z^c; SingularPoint when a denominator
    factor 1 - z^{-v} is 0 mod p.  The sum is kept as one fraction, so the
    evaluation takes one modular inverse, and none when the value is 0.
    """
    p = MODULUS
    tables = [_Powers(zi) for zi in z]
    num, den = 0, 1
    for denom, terms in (expr if isinstance(expr, dict) else _grouped(expr)).items():
        d = 1
        for v, h in denom:
            f = (1 - prod(map(getitem, tables, map(neg, v)))) % p
            if not f:
                raise SingularPoint(f"1 - z^(-{v}) vanishes at {z}")
            d = d * pow(f, h, p) % p
        columns = (map(t.__getitem__, col) for t, col in zip(tables, zip(*terms)))
        n = sum(map(operator.mul, terms.values(), map(prod, zip(*columns))))
        num, den = (num * d + n * den) % p, den * d % p
    return num * pow(den, -1, p) % p if num else 0


class _Powers(dict):
    """z^e mod MODULUS by exponent e, each computed on first use."""

    def __init__(self, z: int):
        super().__init__()
        self.z, self.inverse = z, pow(z, -1, MODULUS)

    def __missing__(self, e: int) -> int:
        value = self[e] = pow(self.z if e >= 0 else self.inverse, abs(e), MODULUS)
        return value


def _grouped(expr, sign: int = 1, out=None) -> dict:
    """sign * expr, a term, an ExpRatSum or a grouped sum, added into the
    grouped sum out, a new one by default."""
    out = {} if out is None else out
    if isinstance(expr, dict):
        terms = ((d, c, q) for d, num in expr.items() for c, q in num.items())
    else:
        terms = ((tuple((f.vector, f.power) for f in t.denom), t.num.shift, t.num.coeff)
                 for t in ((expr,) if isinstance(expr, ExpRatTerm) else expr.terms))
    for d, c, q in terms:
        num = out.setdefault(d, {})
        num[c] = num.get(c, 0) + sign * q
    return out


def random_generic_point(vectors, seed) -> tuple[int, ...]:
    """A seeded point of (F_p^*)^s, p = MODULUS, s the vectors' dimension:
    each coordinate drawn from [2, p - 1]."""
    rng = random.Random(seed)
    return tuple(rng.randrange(2, MODULUS) for _ in vectors[0])


def spot_check(got, want, X, seed: int = 0) -> None:
    """Raise InvariantError unless got - want is 0 mod MODULUS at five
    points random_generic_point(X, k), k = seed, seed + 1, ..., skipping
    each point where a denominator factor vanishes.  Each side is a term,
    an ExpRatSum or a grouped sum; by Schwartz and Zippel, a false identity
    passes a point with probability at most the degree of its cleared
    difference over p."""
    diff = _grouped(want, -1, _grouped(got))
    checked = 0
    for k in count(seed):
        z = random_generic_point(X, k)
        try:
            value = eval_numeric(diff, z)
        except SingularPoint:
            continue
        if value:
            raise InvariantError(f"generating-function identity fails at {z}: "
                                 f"got - want is {value} mod {MODULUS}")
        checked += 1
        if checked == 5:
            return
