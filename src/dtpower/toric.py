"""Toric reduction of the counting generating function.

Rewrites prod_{a in X} (1 - e^{-<a,x>})^{-1} as a finite sum of terms whose
denominator vectors form a linearly independent s-subset of the positive
integer multiples of X.  The rewrite folds one vector at a time; a dependent
vector is absorbed through a telescoping split of 1 - e^{-<m*a,x>} into the
existing factors followed by a partial-fraction pass that eliminates one of
them.

The reduction is order-dependent and non-unique; correctness is semantic
(formal-identity preservation, spot-checked numerically in debug mode).
The number of terms depends on the fold order by orders of magnitude, so
toric_reduce chooses its order by a bounded greedy search (choose_fold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import expalg
from .errors import InvariantError
from .expalg import (DenomFactor, ExpMonomial, ExpRatSum, ExpRatTerm,
                     geometric_factor, laplace_generating, make_sum, make_term,
                     monomial, spot_check)
from .linalg import (IntegerRelation, Vec, check_system, det_adj,
                     integer_relation, is_zero, rank, scale, vadd)


@dataclass(frozen=True)
class ReducedForm:
    source: tuple[Vec, ...]
    sum: ExpRatSum


def expand_dependent(relation: IntegerRelation, basis) -> list[tuple[ExpRatSum, int]]:
    """Coefficients gamma_i with y0 = sum_i gamma_i * y_i as a formal identity.

    Here y0 = 1 - e^{-<m*t, x>} for the relation m*t = sum_i m_i * basis[i]
    (all m_i nonzero) and y_i = 1 - e^{-<basis[i], x>}.  Derived by telescoping
    1 - prod u_i = sum_j (prod_{i<j} u_i)(1 - u_j) with u_i = e^{-m_i<basis[i],x>},
    then splitting each 1 - u_j through a geometric factor:

        m_j > 0:  1 - e^{-m_j<b,x>} =  (sum_{l<m_j} e^{-l<b,x>}) * y_j
        m_j < 0:  1 - e^{|m_j|<b,x>} = -(sum_{0<l<=|m_j|} e^{l<b,x>}) * y_j
    """
    coeffs = relation.coefficients
    if len(coeffs) != len(basis):
        raise ValueError("relation does not match basis length")
    if any(m == 0 for m in coeffs):
        raise ValueError("zero relation coefficient; drop it before expanding")
    dim = len(basis[0])
    prefix: Vec = (0,) * dim
    out = []
    for j, (m, b) in enumerate(zip(coeffs, basis)):
        if m > 0:
            g = geometric_factor(b, m)
        else:
            p = -m
            g = make_sum([make_term(-1, scale(b, l)) for l in range(1, p + 1)])
        gamma = expalg.mul(monomial(1, prefix), g)
        out.append((gamma, j))
        prefix = vadd(prefix, scale(b, -m))
    return out


def partial_fraction(y0_factor: DenomFactor, gammas, denom) -> list[ExpRatTerm]:
    """Decompose 1 / (y0^power * prod denom) so one gamma-indexed factor is
    eliminated.

    gammas is a list of (ExpRatSum, vector) pairs with y0 = sum gamma_v * y_v;
    each listed vector must appear in denom, a tuple of DenomFactor.  Applies
    1/(y0^t * prod y_v^{h_v}) = sum_v gamma_v/(y0^{t+1} * y_v^{h_v-1} * ...)
    until every branch has emptied one of the y_v, then reassembles terms.
    Each output term's total denominator power exceeds denom's by exactly
    y0_factor.power.
    """
    involved = {v: g for g, v in gammas}
    powers = {}
    passive = []
    for f in denom:
        if f.vector in involved:
            powers[f.vector] = f.power
        else:
            passive.append(f)
    if len(powers) != len(involved):
        raise ValueError("denominator is missing a gamma factor")

    vecs = sorted(powers)
    start = tuple(powers[v] for v in vecs)
    total0 = y0_factor.power + sum(start)
    leaves = []
    # breadth-first over power states; expansion orders reaching the same
    # state share one numerator, which keeps the tree from re-walking paths
    active = {start: expalg.one(len(y0_factor.vector))}
    while active:
        nxt: dict[tuple, ExpRatSum] = {}
        for pw, num in active.items():
            t0 = total0 - sum(pw)
            if any(p == 0 for p in pw):
                leaves.append((num, t0, pw))
                continue
            for k, v in enumerate(vecs):
                child = pw[:k] + (pw[k] - 1,) + pw[k + 1:]
                grown = expalg.mul(num, involved[v])
                nxt[child] = expalg.add(nxt[child], grown) if child in nxt else grown
        active = nxt

    out = []
    for num, t0, pw in leaves:
        residue = [DenomFactor(y0_factor.vector, t0)]
        residue += [DenomFactor(v, p) for v, p in zip(vecs, pw) if p > 0]
        residue += passive
        for mono in num.terms:
            out.append(make_term(mono.num.coeff, mono.num.shift, residue))
    return out


@lru_cache(maxsize=4096)
def _absorption_data(denom: tuple[DenomFactor, ...], a: Vec) -> tuple[ExpRatTerm, ...] | None:
    """The normalized terms of 1 / (denom * (1 - e^{-<a,x>})) for a not among
    denom's vectors, or None when a is independent of them.  Every term with
    this denominator absorbs a through these terms, scaled by its numerator."""
    vecs = [f.vector for f in denom]
    if rank(vecs + [a]) == len(vecs) + 1:
        return None
    rel = integer_relation(vecs, a)
    if rel is None:
        raise InvariantError(f"{a} is outside the span of the denominators {vecs}")
    kept = [(m, v) for m, v in zip(rel.coefficients, vecs) if m != 0]
    sub_basis = [v for _, v in kept]
    sub_rel = IntegerRelation(rel.multiplier, tuple(m for m, _ in kept))
    beta = geometric_factor(a, rel.multiplier)
    y0 = DenomFactor(scale(a, rel.multiplier), 1)
    gammas = [(g, sub_basis[j]) for g, j in expand_dependent(sub_rel, sub_basis)]
    return expalg.mul(make_sum(partial_fraction(y0, gammas, denom)), beta).terms


def absorb_vector(term: ExpRatTerm, a: Vec) -> list[ExpRatTerm]:
    """Terms summing to term / (1 - e^{-<a,x>}).

    Independent vectors are appended, exact repeats merge into the power, and
    a dependent vector goes through integer_relation + expand_dependent +
    partial_fraction, keeping every output denominator set independent.
    The independence test and that rewrite depend only on term's
    denominator and a, so _absorption_data makes both once, for the unit
    numerator, and the result is scaled by term's.
    """
    a = tuple(a)
    if is_zero(a):
        raise ValueError("cannot absorb the zero vector")
    q, c = term.num.coeff, term.num.shift
    data = None if any(f.vector == a for f in term.denom) else _absorption_data(term.denom, a)
    if data is None:
        return [make_term(q, c, term.denom + (DenomFactor(a, 1),))]
    return [ExpRatTerm(ExpMonomial(q * t.num.coeff, vadd(c, t.num.shift)), t.denom)
            for t in data]


def toric_reduce(X, check: bool = False, seed: int = 0) -> ReducedForm:
    """Fold absorb_vector over X, starting from the unit term, in the fold
    order chosen by choose_fold.

    X must pass linalg.check_system.  With check=True every absorption step
    of the chosen fold is verified numerically against the partial product
    at seeded generic points.  The result always passes the structural
    invariant checks of assert_reduced_invariants; its source is X in the
    caller's order.
    """
    X = [tuple(a) for a in X]
    check_system(X)

    order, reduced = choose_fold(X)
    if check:  # each step of the order; the last one is the sum returned
        for k in range(1, len(X) + 1):
            part = reduced if k == len(X) else _fold(X, order[:k])
            spot_check(part, laplace_generating([X[i] for i in order[:k]]), X, seed)

    rf = ReducedForm(tuple(X), reduced)
    assert_reduced_invariants(rf)
    return rf


def fold_step(acc: ExpRatSum, a: Vec, cap: float = math.inf) -> ExpRatSum | None:
    """acc / (1 - e^{-<a,x>}) as a normalized sum; None as soon as the terms
    produced so far carry more than cap distinct (shift, denominator) keys."""
    out: list[ExpRatTerm] = []
    keys = set()
    for old in acc.terms:
        new = absorb_vector(old, a)
        out += new
        keys.update(t.key for t in new)
        if len(keys) > cap:
            return None
    return make_sum(out)


def _fold(X, order, cap: float = math.inf) -> ExpRatSum | None:
    """The unit term folded through X[i] for i in order; None as soon as a
    step carries more than cap distinct terms."""
    acc = make_sum([make_term(1, (0,) * len(X[0]))])
    for i in order:
        acc = fold_step(acc, X[i], cap)
        if acc is None:
            return None
    return acc


def choose_fold(X) -> tuple[list[int], ExpRatSum]:
    """Fold order for X and the sum its fold gives.

    Every sum of a complete fold is t_X's generating function; they differ
    only in their number of terms.  The search seeds one greedy fold with
    each independent s-subset of X, in ascending |det| (ties in index
    order).  After the seed, each step absorbs every remaining vector, in
    input order, and keeps the one that leaves the fewest terms; a later
    candidate wins only with strictly fewer.  A candidate is abandoned once
    it has more terms than the best one of its step or the best complete
    fold so far.  Input order is folded last, capped at the best count, and
    kept when it comes in at or below it: it wins ties, and the result never
    has more terms than the input-order fold.
    """
    n, s = len(X), len(X[0])
    seeds = []
    for subset in combinations(range(n), s):
        solved = det_adj(tuple(X[i] for i in subset))
        if solved is not None:
            seeds.append((solved[0], subset))
    seeds.sort()

    best, best_count = None, math.inf
    for _, subset in seeds:
        order, acc = list(subset), _fold(X, subset)
        rest = [i for i in range(n) if i not in subset]
        while rest:
            pick, step = None, None
            for i in rest:
                cap = best_count if step is None else min(best_count, len(step.terms))
                cand = fold_step(acc, X[i], cap)
                if cand is not None and (step is None or len(cand.terms) < len(step.terms)):
                    pick, step = i, cand
            if step is None:
                break
            rest.remove(pick)
            order.append(pick)
            acc = step
        if not rest and len(acc.terms) < best_count:
            best, best_count = (order, acc), len(acc.terms)

    # a capped fold that completes has at most cap terms
    acc = _fold(X, range(n), best_count)
    return best if acc is None else (list(range(n)), acc)


def assert_reduced_invariants(rf: ReducedForm) -> None:
    """Structural guarantees of the reduction, checked term by term."""
    X = rf.source
    s = len(X[0])
    n = len(X)
    for t in rf.sum.terms:
        vecs = [f.vector for f in t.denom]
        if len(vecs) != s:
            raise InvariantError(f"term has {len(vecs)} denominators, expected {s}")
        if rank(vecs) != s:
            raise InvariantError("dependent denominator vectors")
        if t.total_power() != n:
            raise InvariantError(f"power conservation broken: {t.total_power()} != {n}")
        for v in vecs:
            if not _positive_multiple_of_some(v, X):
                raise InvariantError(f"{v} is not a positive multiple of a source vector")


def _positive_multiple_of_some(v: Vec, X) -> bool:
    for a in X:
        k = next((c for c in a if c != 0))
        i = a.index(k)
        if v[i] % k == 0:
            n = v[i] // k
            if n >= 1 and v == scale(a, n):
                return True
    return False
