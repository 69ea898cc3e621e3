"""Formal algebra of exponential-rational expressions.

A term is q * e^{<c,x>} / prod_a (1 - e^{-<a,x>})^{h_a} with q a nonzero
integer, c an integer vector and the a nonzero integer vectors.  Sums of
such terms are kept normalized: denominators sorted, duplicate vectors
merged by adding powers, terms merged on the (shift, denominator) key.

All algebra is exact; numeric evaluation exists only to spot-check
identities and never feeds results.

The reduction builds its numerators as packed Laurents (see toric), so the
sum algebra here, make_sum, add, mul, monomial and geometric_factor, is off
the build path: it is the reference the tests check the reduction against.
The build uses the term types, make_term (through laplace_generating) and
the numeric spot check, each point one seeded draw around linalg's
memoised pointedness certificate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import BudgetError, InvariantError
from .linalg import Vec, is_zero, pointedness_certificate, scale, vadd

SINGULAR_TOL = 1e-12
IDENTITY_RTOL = 1e-9


class SingularPoint(Exception):
    """Raised when a numeric evaluation point annihilates a denominator factor.

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


def eval_numeric(expr, x) -> float:
    """Floating evaluation at the real point x of a term, an ExpRatSum or a
    grouped sum; raises SingularPoint when a denominator pairing vanishes
    within tolerance, and BudgetError when a denominator factor
    (1 - e^{-<v,x>})^h underflows to 0.

    A grouped sum is {denominator: {shift: coeff}}, as ReducedForm.grouped
    holds it.  Each denominator's product is evaluated once and divides the
    sum of its numerators q * e^{<c,x>}.
    """
    if isinstance(expr, ExpRatSum):
        return sum(eval_numeric(t, x) for t in expr.terms)
    if isinstance(expr, ExpRatTerm):
        return _divided(float(expr.num.coeff) * math.exp(dot_f(expr.num.shift, x)),
                        [(f.vector, f.power) for f in expr.denom], x)
    return sum(_divided(sum(q * math.exp(dot_f(c, x)) for c, q in num.items()), denom, x)
               for denom, num in expr.items())


def _divided(val: float, denom, x) -> float:
    """val / prod (1 - e^{-<v,x>})^h over the (v, h) of denom."""
    for v, h in denom:
        p = dot_f(v, x)
        if abs(p) < SINGULAR_TOL:
            raise SingularPoint(f"pairing with {v} vanishes at {x}")
        factor = (1.0 - math.exp(-p)) ** h
        if not factor:
            raise _out_of_range(f"(1 - e^(-<{v}, x>))^{h} underflows to 0", x)
        val /= factor
    return val


def _out_of_range(what: str, x) -> BudgetError:
    return BudgetError(f"the spot check leaves its floating-point range at {x}: {what}")


def dot_f(v, x) -> float:
    return sum(float(c) * float(xc) for c, xc in zip(v, x))


def random_generic_point(vectors, seed) -> tuple[float, ...]:
    """Deterministic point x with <a,x> >= 0.1 for every listed vector.

    The pointedness certificate xi scaled by t = max(0.15, min(1, 4 /
    max<xi,a>)), plus one seeded perturbation moving each pairing by at
    most 0.05*t: as <xi,a> >= 1, every pairing lies in
    [0.95*t, 1.05*t*max<xi,a>], at least 0.1425.
    """
    return _generic_points(vectors, [seed])[0]


def _generic_points(vectors, seeds) -> list[tuple[float, ...]]:
    """random_generic_point(vectors, seed) for each seed, all from one
    pointedness certificate of vectors: one draw per seed."""
    vectors = [tuple(v) for v in vectors]
    cert = pointedness_certificate(vectors)
    if cert is None:
        raise ValueError("system is not pointed; no generic point available")
    xi = [float(c) for c in cert.xi]
    big = max(float(cert.pairing(a)) for a in vectors)
    t = max(0.15, min(1.0, 4.0 / big))
    eps = 0.05 * t / max(sum(abs(c) for c in a) for a in vectors)
    return [tuple(t * c + rng.uniform(-eps, eps) for c in xi)
            for rng in map(random.Random, seeds)]


def spot_check(got, want, X, seed: int = 0) -> None:
    """Raise InvariantError unless got and want agree, to relative
    IDENTITY_RTOL, at the five points random_generic_point(X, seed + k),
    placed in one pass.  Each is a term, an ExpRatSum or a grouped sum,
    ReducedForm.grouped (see eval_numeric).

    BudgetError where floats give out: a denominator factor underflows to
    0, or want, the defining side, is not finite.  Where want is finite and
    got is inf or nan, the identity fails: the test is written so that a
    nan difference fails it too."""
    for x in _generic_points(X, range(seed, seed + 5)):
        w = eval_numeric(want, x)
        if not math.isfinite(w):
            raise _out_of_range(f"the defining side is {w}", x)
        g = eval_numeric(got, x)
        if not abs(g - w) <= IDENTITY_RTOL * (1 + abs(w)):
            raise InvariantError(f"generating-function identity fails at {x}: {g} vs {w}")
