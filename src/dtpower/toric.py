"""Toric reduction of the counting generating function.

Rewrites prod_{a in X} (1 - e^{-<a,x>})^{-1} as a finite sum of terms whose
denominator vectors form a linearly independent s-subset of the positive
integer multiples of X.  The rewrite folds one vector at a time; a dependent
vector is absorbed through a telescoping split of 1 - e^{-<m*a,x>} into the
existing factors followed by a partial-fraction pass that eliminates one of
them.  linalg.integer_relation alone decides dependence: no relation
means independent.

The working sum is grouped by denominator, the short rational form of
Barvinok and LattE: it maps each denominator, a sorted tuple of
(vector, power) pairs, to its Laurent numerator {shift: int}.  A fold step
absorbs each distinct denominator once, through a rewrite cached on
(denominator, vector), and multiplies the denominator's whole numerator into
it; it makes no dataclass per term.  The denominators of the result are the
toric arrangement.

Inside the fold a shift is one packed int (see STRIDE), so multiplying
numerators adds ints and builds no tuple per product.  Shifts are packed
where they enter, the monomials of a gamma or of beta and the numerator of
the unit term, and unpacked once, by _unpacked, when the fold is done, so
ReducedForm.grouped maps each denominator to {shift in Z^s: int}; listing
orders its terms for printing, and ReducedForm.sum, for the tests, is built
on demand.  absorb_vector adds its term's shift after unpacking.

The reduction is order-dependent and non-unique; correctness is semantic
(formal-identity preservation, which the tests spot-check numerically at
every prefix of the fold).  The number of terms depends on the fold order
by orders of magnitude, so toric_reduce chooses its order by a bounded
greedy search (choose_fold), within a term budget.

The search abandons most candidate steps before they multiply anything.
Over Z a sum of finite sets has |A + B| >= |A| + |B| - 1, and packed
shifts are plain ints, so num * factor puts at least
len(num) + len(factor) - 1 keys into its target.  The cap counts keys
before zeros are dropped, so a step's key count only grows; a step whose
one pre-product bound, summed over its targets, passes the cap would pass
it once multiplied, too.  The bound therefore changes no decision, only
when a step is abandoned.  A partial-fraction group is multiplied by its
geometric factor beta only when a step reaches it, and a lower bound on
that product's length (_product_floor) enters the pre-product bound
without building it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

from .errors import BudgetError, InvariantError
from .expalg import DenomFactor, ExpMonomial, ExpRatSum, ExpRatTerm
from .linalg import (IntegerRelation, Vec, check_system, column_solver, cone_count,
                     integer_relation, is_zero, scale, vadd)

Factor = tuple[Vec, int]            # (vector, power): (1 - e^{-<vector,x>})^power
Denom = tuple[Factor, ...]          # sorted by vector, each vector once
Laurent = dict[int, int]            # packed shift -> coefficient
Grouped = dict[Denom, Laurent]      # the working sum: denominator -> numerator
Reduced = dict[Denom, dict[Vec, int]]  # a grouped sum with its shifts unpacked

# A shift c in Z^s is packed as the int sum_i c_i * STRIDE^i (signed c_i):
# packed ints add as their shifts do, and _unpack recovers c while every
# |c_i| < STRIDE / 2.  No coordinate a reduction reaches exceeds REACH:
# _pack, the only way in, rejects a coordinate past ENTRY_LIMIT; a group's
# numerator, _absorbed_group(denom, a, i), is beta times at most P gammas,
# P the total power of denom, which _absorption_data requires below
# MAX_POWER; and the k-th step of a
# fold from the unit term absorbs denominators of power k - 1.  So a fold
# moves a coordinate by at most (1 + ... + MAX_POWER) * ENTRY_LIMIT = REACH,
# and absorb_vector, which adds its term's shift after unpacking, by at most
# MAX_POWER * ENTRY_LIMIT.  Both limits are wide: ENTRY_LIMIT is about
# 2.3 * 10^18, and a fold that absorbs into power MAX_POWER folds over 1,024
# vectors, on which choose_fold's first seed alone tries over 500,000
# candidate steps.
# STRIDE is 2^81 rather than 2^64 for the dict lookups: CPython hashes an
# int modulo 2^61 - 1, where 2^64 is 8 and the shifts (8, 0) and (0, 1)
# would collide, while 2^81 and 2^162 are 2^20 and 2^40.
STRIDE = 1 << 81
MAX_POWER = 1024
ENTRY_LIMIT = (STRIDE // 2 - 1) // (MAX_POWER * (MAX_POWER + 1) // 2)
REACH = MAX_POWER * (MAX_POWER + 1) // 2 * ENTRY_LIMIT

# The term budget: no step of choose_fold's search may carry more terms,
# and no relation of _absorption_data a larger multiplier or coefficient.
# The largest fold the tests and the benchmark build, that of
# [(3,1), (1,4), (7,2), (2,9)], has 78,399 terms and peaks near 250 MiB
# through closed_form and its first evaluation; memory grows with the terms.
TERM_BUDGET = 200_000


@dataclass(frozen=True)
class ReducedForm:
    """The reduction of source: grouped maps each denominator to its
    numerator {shift in Z^s: int}, the sum choose_fold returns, unpacked."""

    source: tuple[Vec, ...]
    grouped: Reduced = field(hash=False)  # compared by ==, left out of hash

    @cached_property
    def sum(self) -> ExpRatSum:
        """The terms, built on the first access and kept on this instance."""
        return _to_sum(self.grouped)


def expand_dependent(relation: IntegerRelation, basis) -> list[tuple[Laurent, int]]:
    """Coefficients gamma_i with y0 = sum_i gamma_i * y_i as a formal identity,
    each a numerator {packed shift: int}.

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
            gamma = {_pack(vadd(prefix, scale(b, -l))): 1 for l in range(m)}
        else:
            gamma = {_pack(vadd(prefix, scale(b, l))): -1 for l in range(1, 1 - m)}
        out.append((gamma, j))
        prefix = vadd(prefix, scale(b, -m))
    return out


def partial_fraction(y0: Factor, gammas, denom: Denom) -> Grouped:
    """Decompose 1 / (y0^power * prod denom) so one gamma-indexed factor is
    eliminated.

    y0 is a (vector, power) pair and denom a denominator.  gammas is a list
    of (numerator, vector) pairs with y0 = sum gamma_v * y_v, each numerator
    a {packed shift: int}; each listed vector must appear in denom.  Applies
    1/(y0^t * prod y_v^{h_v}) = sum_v gamma_v/(y0^{t+1} * y_v^{h_v-1} * ...)
    until every branch has emptied one of the y_v, then groups the branches
    by denominator.  Each output denominator's total power exceeds denom's
    by exactly y0's power.
    """
    involved = {v: g.items() for g, v in gammas}
    powers = {}
    passive = []
    for v, p in denom:
        if v in involved:
            powers[v] = p
        else:
            passive.append((v, p))
    if len(powers) != len(involved):
        raise ValueError("denominator is missing a gamma factor")

    y0_vector, y0_power = y0
    unit = (0, 1),
    vecs = sorted(powers)
    start = tuple(powers[v] for v in vecs)
    total0 = y0_power + sum(start)
    out: Grouped = {}
    # breadth-first over power states; expansion orders reaching the same
    # state share one numerator, which keeps the tree from re-walking paths
    active = {start: dict(unit)}
    while active:
        nxt: dict[tuple, Laurent] = {}
        for pw, num in active.items():
            if 0 in pw:
                residue = [(y0_vector, total0 - sum(pw))]
                residue += [(v, p) for v, p in zip(vecs, pw) if p > 0]
                _accumulate(out.setdefault(_denominator(residue + passive), {}), num, unit)
                continue
            for k, v in enumerate(vecs):
                child = pw[:k] + (pw[k] - 1,) + pw[k + 1:]
                _accumulate(nxt.setdefault(child, {}), num, involved[v])
        active = nxt
    return _nonzero(out)


@lru_cache(maxsize=4096)
def _absorption_data(denom: Denom, a: Vec) -> tuple[tuple, tuple[tuple[Denom, tuple, int], ...]] | None:
    """1 / (denom * (1 - e^{-<a,x>})) for a not among denom's vectors, as
    (beta, groups); None when integer_relation finds none: a is then
    independent of denom's vectors, themselves independent.

    With y0 = 1 - e^{-<m*a,x>} = beta * (1 - e^{-<a,x>}), the partial
    fractions of 1 / (denom * y0) are the (denominator, numerator, floor)
    groups; numerators and beta are immutable (shift, coeff) pairs.  Every
    numerator over denom absorbs a by multiplying into each group's
    numerator times beta, _absorbed_group(denom, a, i), which is built only
    when a fold step reaches it; floor, its _product_floor, is at most its
    number of terms.

    BudgetError when denom's power reaches MAX_POWER, or m or a relation
    coefficient passes TERM_BUDGET: beta and the gammas carry one term per
    unit of them, built before any cap of a fold step can be checked."""
    vecs = [v for v, _ in denom]
    rel = integer_relation(vecs, a)
    if rel is None:
        return None
    if sum(p for _, p in denom) >= MAX_POWER:
        raise BudgetError(f"a denominator's power reaches the packed-shift bound of {MAX_POWER:,}")
    if max(rel.multiplier, *map(abs, rel.coefficients)) > TERM_BUDGET:
        raise BudgetError(f"absorbing {a} needs a relation coefficient past the budget of {TERM_BUDGET:,} terms")
    kept = [(m, v) for m, v in zip(rel.coefficients, vecs) if m != 0]
    sub_basis = [v for _, v in kept]
    sub_rel = IntegerRelation(rel.multiplier, tuple(m for m, _ in kept))
    beta = tuple((_pack(scale(a, -j)), 1) for j in range(rel.multiplier))
    y0 = (scale(a, rel.multiplier), 1)
    gammas = [(g, sub_basis[j]) for g, j in expand_dependent(sub_rel, sub_basis)]
    return beta, tuple((d, tuple(num.items()), _product_floor(num, beta))
                       for d, num in partial_fraction(y0, gammas, denom).items())


@lru_cache(maxsize=4096)
def _absorbed_group(denom: Denom, a: Vec, i: int) -> tuple:
    """Group i's numerator times beta, as immutable (shift, coeff) pairs."""
    beta, groups = _absorption_data(denom, a)
    product: Laurent = {}
    _accumulate(product, dict(groups[i][1]), beta)
    return tuple((c, q) for c, q in product.items() if q)


def _product_floor(num: Laurent, beta) -> int:
    """A lower bound on the number of nonzero terms of num * beta, for a
    geometric factor beta = sum_{l<m} x^(l*step) given as (shift, coeff)
    pairs.

    The product splits over the lines r + step*Z, and on a line over the
    clusters of num's shifts, cut where two neighbours lie m or more steps
    apart: the products of two clusters do not overlap.  A cluster of one
    shift gives m terms, a larger one at least 2, its lowest and its
    highest.  The bound is exact when every cluster is one shift.
    """
    m = len(beta)
    if m == 1:
        return len(num)
    shifts = [c for c, _ in beta]
    step = (max(shifts) - min(shifts)) // (m - 1)
    if len({c % step for c in num}) == len(num):  # one shift per line
        return m * len(num)
    keys = sorted((c % step, c) for c in num)
    near = [r1 == r2 and c2 - c1 < m * step for (r1, c1), (r2, c2) in zip(keys, keys[1:])]
    clusters = len(keys) - sum(near)
    # a shift is alone in its cluster when it is near neither neighbour
    alone = sum(not (left or right) for left, right in zip([False] + near, near + [False]))
    return m * alone + 2 * (clusters - alone)


def absorb_vector(term: ExpRatTerm, a: Vec) -> list[ExpRatTerm]:
    """Terms summing to term / (1 - e^{-<a,x>}): one fold_step of the sum
    whose only group is term.

    Independent vectors are appended, exact repeats merge into the power, and
    a dependent vector goes through integer_relation + expand_dependent +
    partial_fraction, keeping every output denominator set independent.
    """
    a = tuple(a)
    if is_zero(a):
        raise ValueError("cannot absorb the zero vector")
    denom = tuple((f.vector, f.power) for f in term.denom)
    folded = _to_sum(_unpacked(fold_step({denom: {0: term.num.coeff}}, a), len(a)))
    shift = term.num.shift
    return [ExpRatTerm(ExpMonomial(t.num.coeff, vadd(t.num.shift, shift)), t.denom)
            for t in folded.terms]


def toric_reduce(X) -> ReducedForm:
    """Fold fold_step over X, starting from the unit term, in the fold
    order chosen by choose_fold within the term budget.

    X must pass linalg.check_system.  BudgetError when no fold the search
    tries fits TERM_BUDGET or a shift passes ENTRY_LIMIT.  The fold's sum is
    unpacked here, once, and rf.sum is not built.  The result passes
    assert_reduced_invariants; its source is X in the caller's order.
    """
    X = [tuple(a) for a in X]
    check_system(X)
    rf = ReducedForm(tuple(X), _unpacked(choose_fold(X)[1], len(X[0])))
    assert_reduced_invariants(rf)
    return rf


def fold_step(acc: Grouped, a: Vec, cap: float = math.inf) -> Grouped | None:
    """acc / (1 - e^{-<a,x>}), grouped, acc's shifts packed as _fold packs
    them; None when the result would carry more than cap distinct
    (shift, denominator) keys, zero coefficients included.  acc is left
    unchanged.

    The step mostly abandons before it multiplies.  A numerator num
    multiplied into a group's numerator factor leaves its target at least
    len(num) + len(factor) - 1 keys (the sumset bound over Z), and keys are
    never removed before the end, so the key count only grows.  One lower
    bound on the final count is checked before any product, as each
    denominator's groups are looked up: the sum over targets of the largest
    such bound, each factor's length bounded by its _product_floor.  The
    count itself is checked after each product.  So the step returns None
    exactly when its finished key count passes cap, as when only that was
    checked, and mostly before any product.
    """
    steps = []
    floors: dict[Denom, int] = {}
    for denom, num in acc.items():
        data = None if any(v == a for v, _ in denom) else _absorption_data(denom, a)
        if data is None:  # a merges into the power or is appended
            parts = [(_denominator(denom + ((a, 1),)), 1, None)]
        else:
            parts = [(d, floor, (denom, a, i)) for i, (d, _, floor) in enumerate(data[1])]
        for d, floor, key in parts:
            floors[d] = max(floors.get(d, 0), len(num) + floor - 1)
            steps.append((num, d, key))
        if sum(floors.values()) > cap:
            return None
    out: Grouped = {}
    size = 0
    for num, d, key in steps:
        target = out.setdefault(d, {})
        n = len(target)
        factor = ((0, 1),) if key is None else _absorbed_group(*key)
        _accumulate(target, num, factor)
        size += len(target) - n
        if size > cap:
            return None
    return _nonzero(out)


def _fold(X, order, cap: float = math.inf) -> Grouped | None:
    """The unit term folded through X[i] for i in order; None as soon as a
    step carries more than cap distinct terms."""
    acc = {(): {0: 1}}
    for i in order:
        acc = fold_step(acc, X[i], cap)
        if acc is None:
            return None
    return acc


def choose_fold(X) -> tuple[list[int], Grouped]:
    """Fold order for X and the grouped sum its fold gives; BudgetError when
    no fold the search tries stays within TERM_BUDGET terms a step.

    Every sum of a complete fold is t_X's generating function; they differ
    only in their number of terms.  The search seeds one greedy fold with
    each independent s-subset of X, in ascending |det| (ties in index
    order).  After the seed, each step absorbs every remaining vector, in
    input order, and keeps the one that leaves the fewest terms; a later
    candidate wins only with strictly fewer.  Equal vectors give equal
    steps, so each step tries a vector only at its first remaining index,
    and a seed whose vectors equal an earlier seed's is skipped: neither
    could win.  A candidate is abandoned once it has more terms than the
    best one of its step or the best complete fold so far, and every
    candidate once it has more than TERM_BUDGET terms.
    Input order is folded last, capped at twice the best count, and kept
    when it ends at or below the best count: it wins ties.  A step's keys
    include the zero coefficients of terms that cancel, so the result has
    more terms than the input-order fold only if a step of that fold passes
    twice the best count and the fold still ends below it.
    """
    budget = TERM_BUDGET
    n, s = len(X), len(X[0])
    seeds = []
    for subset in combinations(range(n), s):
        solved = column_solver(tuple(X[i] for i in subset))
        if solved is not None:
            seeds.append((solved[0], subset))
    seeds.sort()

    best, best_count = None, math.inf
    seeded = set()
    for _, subset in seeds:
        if (vecs := tuple(X[i] for i in subset)) in seeded:
            continue
        seeded.add(vecs)
        order, acc = list(subset), _fold(X, subset)
        rest = [i for i in range(n) if i not in subset]
        while rest:
            pick, step, size = None, None, math.inf
            tried = set()
            for i in rest:
                if X[i] in tried:
                    continue
                tried.add(X[i])
                cand = fold_step(acc, X[i], min(best_count, size, budget))
                if cand is not None and (k := _size(cand)) < size:
                    pick, step, size = i, cand, k
            if step is None:
                break
            rest.remove(pick)
            order.append(pick)
            acc = step
        if not rest and _size(acc) < best_count:
            best, best_count = (order, acc), _size(acc)

    acc = _fold(X, range(n), min(2 * best_count, budget))
    if acc is not None and _size(acc) <= best_count:
        return list(range(n)), acc
    if best is None:
        raise BudgetError(f"no fold the search tries stays within the budget of {budget:,} terms")
    return best


def assert_reduced_invariants(rf: ReducedForm) -> None:
    """Structural guarantees of the reduction.  Each depends only on a
    term's denominator, so each denominator of the grouped sum is checked
    once."""
    X = rf.source
    s = len(X[0])
    n = len(X)
    for denom in rf.grouped:
        vecs = [v for v, _ in denom]
        if len(vecs) != s:
            raise InvariantError(f"term has {len(vecs)} denominators, expected {s}")
        if column_solver(tuple(vecs)) is None:
            raise InvariantError("dependent denominator vectors")
        power = sum(p for _, p in denom)
        if power != n:
            raise InvariantError(f"power conservation broken: {power} != {n}")
        # the basis is independent, so v != 0 and a cone point n*a of (a,) has n >= 1
        for v in vecs:
            if not any(cone_count(column_solver((a,)), v) for a in X):
                raise InvariantError(f"{v} is not a positive multiple of a source vector")


def _denominator(factors) -> Denom:
    """Sorted (vector, power) pairs, a repeated vector merged by adding powers."""
    merged: dict[Vec, int] = {}
    for v, p in factors:
        merged[v] = merged.get(v, 0) + p
    return tuple(sorted(merged.items()))


def _pack(shift: Vec) -> int:
    """sum_i shift[i] * STRIDE^i; BudgetError past ENTRY_LIMIT."""
    packed = 0
    for c in reversed(shift):
        if abs(c) > ENTRY_LIMIT:
            raise BudgetError(f"shift {shift} has a coordinate past the packed-shift bound of {ENTRY_LIMIT:,}")
        packed = packed * STRIDE + c
    return packed


def _unpack(packed: int, s: int) -> Vec:
    """The shift in Z^s that _pack (or a sum of its values) gives packed."""
    out = []
    for _ in range(s):
        c = (packed + STRIDE // 2) % STRIDE - STRIDE // 2
        out.append(c)
        packed = (packed - c) // STRIDE
    return tuple(out)


def _accumulate(target: Laurent, num: Laurent, factor) -> None:
    """target += num * factor, factor given as (packed shift, coeff) pairs."""
    get = target.get
    for t, r in factor:
        for c, q in num.items():
            k = c + t
            target[k] = get(k, 0) + q * r


def _nonzero(acc: Grouped) -> Grouped:
    """acc without zero coefficients and without empty numerators."""
    out = {}
    for d, num in acc.items():
        kept = {c: q for c, q in num.items() if q}
        if kept:
            out[d] = kept
    return out


def _size(acc: Grouped) -> int:
    """The number of terms of a grouped sum."""
    return sum(map(len, acc.values()))


def _unpacked(acc: Grouped, s: int) -> Reduced:
    """acc with each packed shift unpacked into Z^s, in acc's order."""
    return {d: {_unpack(c, s): q for c, q in num.items()} for d, num in acc.items()}


def listing(grouped: Reduced) -> list[tuple[Vec, Denom, int]]:
    """An unpacked grouped sum's terms as (shift, denominator, coefficient),
    sorted by shift, then denominator: the order of every rendering."""
    return sorted((c, d, q) for d, num in grouped.items() for c, q in num.items())


def _to_sum(grouped: Reduced) -> ExpRatSum:
    """The ExpRatSum of an unpacked grouped sum, in listing order."""
    factors = {d: tuple(DenomFactor(v, p) for v, p in d) for d in grouped}
    return ExpRatSum(tuple(ExpRatTerm(ExpMonomial(q, c), factors[d]) for c, d, q in listing(grouped)))
