import itertools
import math
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (EX1, EX2, STRESS_A, STRESS_B, pinned_inputs, pointed_systems,
                      random_pointed_systems)
from dtpower import engines, linalg, toric
from dtpower.engines import (DMContext, brute_force_box, brute_force_count,
                             cross_check, dm_count, independent_count)
from dtpower.errors import BudgetError, InvariantError
from dtpower.expalg import eval_numeric, laplace_generating, random_generic_point, spot_check
from dtpower.linalg import column_solver, pointedness_certificate, rank, solve_columns
from dtpower.quasipoly import closed_form, support_membership
from dtpower.toric import ReducedForm, toric_reduce

CORPUS = random_pointed_systems()
# systems whose recursion base is a prefix of fewer than s vectors
DEPENDENT_PREFIX = [
    ((1, 0), (2, 0), (0, 1)),
    ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)),
    ((1, 2, 0), (2, 4, 0), (0, 1, 1), (1, 0, 1)),
]


def pairing(u, v):
    return sum(a * b for a, b in zip(u, v))


def unclipped_box(X, lo, hi):
    """brute_force_box without the clip at the last vector: every beta under
    the certificate cap, each point tested against the box."""
    xs, _ = pointedness_certificate(X).scaled()
    weights = [pairing(xs, a) for a in X]
    cap = sum(max(x * l, x * h) for x, l, h in zip(xs, lo, hi))
    counts = {}

    def walk(i, point, used):
        if i == len(X):
            if all(l <= c <= h for l, c, h in zip(lo, point, hi)):
                counts[point] = counts.get(point, 0) + 1
            return
        for j in range((cap - used) // weights[i] + 1):
            walk(i + 1, tuple(p + j * c for p, c in zip(point, X[i])), used + j * weights[i])

    if cap >= 0:
        walk(0, (0,) * len(lo), 0)
    return counts


@st.composite
def brute_boxes(draw):
    """(X, lo, hi): a small pointed system, a seeded corpus system or
    stress B, and a box that is random, a single point, with a far
    negative lower corner, or wholly below the cone (every corner pairs
    negatively with the certificate, so the cap is negative)."""
    X = draw(st.one_of(pointed_systems(), st.sampled_from(CORPUS + [STRESS_B])))
    s = len(X[0])
    kind = draw(st.sampled_from(["random", "single", "negative", "below"]))
    lo = tuple(draw(st.integers(-6, 6)) for _ in range(s))
    hi = lo if kind == "single" else tuple(l + draw(st.integers(0, {1: 20, 2: 6, 3: 3}[s])) for l in lo)
    if kind == "negative":
        lo = tuple(l - draw(st.integers(1, 12)) for l in lo)
    if kind == "below":
        xs, _ = pointedness_certificate(X).scaled()
        m = max(0, sum(max(x * l, x * h) for x, l, h in zip(xs, lo, hi)) // pairing(xs, xs) + 1)
        lo = tuple(l - m * x for l, x in zip(lo, xs))
        hi = tuple(h - m * x for h, x in zip(hi, xs))
    return X, lo, hi


class TestBruteForce:
    def test_scalar_count(self):
        # beta3 in {0,1,2} leaves 5+3+1 splittings of the remainder over {1,1}
        assert brute_force_count(EX1, (4,)) == 9

    def test_planar_count(self):
        assert brute_force_count(EX2, (2, 2)) == 2

    def test_origin_counts_once(self):
        assert brute_force_count(EX1, (0,)) == 1
        assert brute_force_count(EX2, (0, 0)) == 1

    def test_negative_budget_is_zero(self):
        assert brute_force_count(EX1, (-3,)) == 0

    def test_box_histogram_matches_pointwise(self):
        lo, hi = (-4, -4), (6, 6)
        table = brute_force_box(EX2, lo, hi)
        for a in itertools.product(range(-4, 7), repeat=2):
            assert table.get(a, 0) == brute_force_count(EX2, a)

    @settings(max_examples=60, deadline=None)
    @given(brute_boxes())
    # last vector with a negative coordinate, with a zero one, a one-point
    # box, and a box below the cone
    @example((EX2, (-2, -3), (5, 4)))
    @example(([(1, 1), (1, 0)], (-1, -2), (5, 3)))
    @example(([(0, 1), (2, -1)], (-4, -4), (4, 4)))
    @example((EX1, (7,), (7,)))
    @example((EX2, (-9, -9), (-5, -2)))
    # a column of mixed sign after the first vector and of one sign after
    # the second: only lowered, only raised, and all three columns of
    # stress B
    @example(([(1, 0), (1, 1), (1, -1)], (0, 2), (6, 4)))
    @example(([(1, 0), (1, -1), (1, 1)], (0, -4), (6, -2)))
    @example((STRESS_B, (-3, -3, -3), (0, 0, 0)))
    def test_clipped_box_equals_unclipped_enumeration(self, case):
        X, lo, hi = case
        assert brute_force_box(X, lo, hi) == unclipped_box(X, lo, hi)

    @pytest.mark.parametrize("lo,hi", [((0,), (3,)), ((0, 0, 0), (3, 3, 3))])
    def test_box_of_another_dimension_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="do not have dimension 2"):
            brute_force_box(EX2, lo, hi)
        with pytest.raises(ValueError, match="do not have dimension 2"):
            brute_force_count(EX2, hi)

    def test_node_budget_is_inclusive(self, monkeypatch):
        # one interior node, then eleven one-point lines at the last vector
        X = [(1,), (1,)]
        monkeypatch.setattr(engines, "NODE_BUDGET", 12)
        assert brute_force_count(X, (10,)) == 11
        monkeypatch.setattr(engines, "NODE_BUDGET", 11)
        with pytest.raises(BudgetError, match="11 nodes"):
            brute_force_count(X, (10,))
        assert not issubclass(BudgetError, InvariantError)

    @pytest.mark.parametrize("X,lo,hi,nodes", [
        # clipped at the last vector only, the walks took 56 and 42 nodes
        (STRESS_B, (-3, -3, -3), (6, 6, 6), 55),
        ([(1, 0), (1, 1), (1, -1)], (0, 2), (6, 4), 29),
    ])
    def test_level_clip_node_count_is_inclusive(self, X, lo, hi, nodes, monkeypatch):
        want = unclipped_box(X, lo, hi)
        monkeypatch.setattr(engines, "NODE_BUDGET", nodes)
        assert brute_force_box(X, lo, hi) == want
        monkeypatch.setattr(engines, "NODE_BUDGET", nodes - 1)
        with pytest.raises(BudgetError, match=f"{nodes - 1} nodes"):
            brute_force_box(X, lo, hi)

    def test_node_budget_stops_a_line_before_walking_it(self, monkeypatch):
        # a line of 100,001 points counts as a whole: the walk raises before
        # it holds a single count of the line
        X = [(1,)]
        monkeypatch.setattr(engines, "NODE_BUDGET", 100_000)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="100,000 nodes"):
                brute_force_box(X, (0,), (100_000,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        monkeypatch.setattr(engines, "NODE_BUDGET", 100_001)
        assert len(brute_force_box(X, (0,), (100_000,))) == 100_001


class TestIndependentCount:
    def test_scalar_multiple(self):
        assert independent_count([(2,)], (6,)) == 1
        assert independent_count([(2,)], (3,)) == 0

    def test_planar(self):
        assert independent_count([(1, 0), (-1, 2)], (0, 2)) == 1

    def test_partial_basis_outside_span(self):
        assert independent_count([(1, 0, 0)], (0, 1, 0)) == 0
        assert independent_count([(1, 0, 0)], (2, 0, 0)) == 1

    @pytest.mark.parametrize("s,r", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_elimination(self, s, r, data):
        entry = st.integers(-3, 3)
        A = data.draw(st.lists(st.tuples(*[entry] * s), min_size=r, max_size=r))
        assume(rank(A) == r)
        # near a lattice point of the span, so both answers occur
        lam = data.draw(st.lists(st.integers(-2, 4), min_size=r, max_size=r))
        nudge = data.draw(st.tuples(*[st.integers(-1, 1)] * s))
        alpha = tuple(sum(l * a[k] for l, a in zip(lam, A)) + nudge[k] for k in range(s))
        ref = solve_columns(A, alpha)
        want = int(ref is not None and all(f.denominator == 1 and f >= 0 for f in ref))
        assert independent_count(A, alpha) == want

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            independent_count([(1, 0)], (1,))

    def test_empty_set_counts_only_the_origin(self):
        assert independent_count([], (0, 0)) == 1
        assert independent_count([], (1, 0)) == 0


class TestRecursion:
    def test_scalar(self):
        assert dm_count(EX1, (3,)) == 6

    def test_planar(self):
        assert dm_count(EX2, (0, 4)) == 3

    def test_single_vector(self):
        assert dm_count([(3, 1)], (3, 1)) == 1
        assert dm_count([(3, 1)], (1, 1)) == 0

    @pytest.mark.parametrize("alpha", [(4,), (4, 0, 0)])
    def test_point_of_another_dimension_rejected(self, alpha):
        with pytest.raises(ValueError, match=f"dimension mismatch: 2 vs {len(alpha)}"):
            DMContext(EX2).count(alpha)

    def test_agrees_with_brute_force(self):
        ctx = DMContext(EX2)
        for a in itertools.product(range(-4, 9), repeat=2):
            assert ctx.count(a) == brute_force_count(EX2, a)

    @pytest.mark.parametrize("X,box", [
        (EX1, [(a,) for a in range(-6, 21)]),
        (EX2, list(itertools.product(range(-3, 9), repeat=2))),
    ])
    def test_removal_identity_every_index(self, X, box):
        # t_X(a) = sum_j t_{X\{a_i}}(a - j*a_i) must hold for every i
        X = list(X)
        xs, _ = pointedness_certificate(X).scaled()
        full = DMContext(X)
        for i in range(len(X)):
            rest = X[:i] + X[i + 1:]
            sub = DMContext(rest) if rest else None
            ai = X[i]
            w = sum(x * c for x, c in zip(xs, ai))
            for alpha in box:
                budget = sum(x * c for x, c in zip(xs, alpha))
                total = 0
                for j in range(max(budget // w + 1, 0)):
                    shifted = tuple(c - j * b for c, b in zip(alpha, ai))
                    if sub is None:
                        total += int(all(c == 0 for c in shifted))
                    else:
                        total += sub.count(shifted)
                assert total == full.count(alpha)

    @pytest.mark.parametrize("X", DEPENDENT_PREFIX)
    def test_dependent_prefix_agrees_with_brute_force(self, X):
        # the base case is a prefix of fewer than s vectors
        ctx = DMContext(X)
        assert ctx.base_len < len(X[0])
        hi = 8 if len(X[0]) == 2 else 5
        for a in itertools.product(range(-2, hi + 1), repeat=len(X[0])):
            assert ctx.count(a) == brute_force_count(X, a)

    def test_monotone_under_vector_addition(self):
        bigger = list(EX1) + [(3,)]
        for a in range(-2, 15):
            assert dm_count(bigger, (a,)) >= dm_count(list(EX1), (a,))


def coin_change(coins, target):
    """Ways to write target as a sum of the coins, by the textbook table."""
    ways = [1] + [0] * target
    for c in coins:
        for t in range(c, target + 1):
            ways[t] += ways[t - c]
    return ways[target]


def summed_recursion(X):
    """The removal recursion as a sum over the last vector's multiplier,
    t_k(alpha) = sum_j t_{k-1}(alpha - j*a_k), down to the empty prefix."""
    X = [tuple(a) for a in X]
    xs, _ = pointedness_certificate(X).scaled()

    @lru_cache(maxsize=None)
    def t(k, alpha):
        u = pairing(xs, alpha)
        if u < 0:
            return 0
        if k == 0:
            return int(not any(alpha))
        a = X[k - 1]
        return sum(t(k - 1, tuple(c - j * b for c, b in zip(alpha, a)))
                   for j in range(u // pairing(xs, a) + 1))
    return lambda alpha: t(len(X), tuple(alpha))


def finite_difference(values):
    """The (len(values) - 1)-th forward difference of equally spaced values."""
    m = len(values) - 1
    return sum((-1) ** (m - i) * math.comb(m, i) * y for i, y in enumerate(values))


# Largest certificate pairing of a point on a theorem line: the recursion's
# memo grows with the lattice points below it.
LINE_BUDGET = 3000


@lru_cache(maxsize=None)
def theorem_systems():
    """(X, pieces, P, context) for EX1, EX2 and the seeded systems of
    dimension <= 2 with #X > s whose lines stay within LINE_BUDGET; P is the
    lcm of the pieces' |det|.  One DMContext per system serves every line."""
    out = []
    for X in [EX1, EX2] + CORPUS:
        s, n = len(X[0]), len(X)
        if s > 2 or n == s:
            continue
        pieces = closed_form(X).pieces
        P = math.lcm(*(column_solver(p.basis)[0] for p in pieces))
        xs, _ = pointedness_certificate(X).scaled()
        if (n - s + 3) * P * sum(pairing(xs, a) for a in X) + 6 * sum(xs) <= LINE_BUDGET:
            out.append((X, pieces, P, DMContext(X)))
    return out


class TestTelescopedRecursion:
    """DMContext walks t_k(alpha) = t_{k-1}(alpha) + t_k(alpha - a_k) down a
    line; it must count exactly what the summed recursion counts, in work
    proportional to the points reached."""

    def test_far_point_matches_coin_change(self):
        # seconds for the summed recursion, milliseconds for the telescoped one
        assert dm_count([(1,), (2,), (3,), (5,)], (2000,)) == 44812012
        assert coin_change([1, 2, 3, 5], 2000) == 44812012

    @pytest.mark.parametrize("X,box", [
        (EX1, [(a,) for a in range(-6, 31)]),
        (EX2, list(itertools.product(range(-4, 13), repeat=2))),
    ] + [(X, list(itertools.product(range(-2, 6), repeat=len(X[0]))))
         for X in DEPENDENT_PREFIX])
    def test_agrees_with_summed_recursion(self, X, box):
        ctx = DMContext(X)
        reference = summed_recursion(X)
        for a in box:
            assert ctx.count(a) == reference(a), a

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_polynomial_along_a_line_in_one_chamber(self, data):
        # The paper's theorem, checked on the recursion alone: on a line
        # alpha + k*P*v the lattice cosets of all pieces are fixed, so where
        # the set of pieces containing the point does not change, t_X is one
        # polynomial in k of degree <= n - s.
        X, pieces, P, ctx = data.draw(st.sampled_from(theorem_systems()))
        s, n = len(X[0]), len(X)
        alpha = tuple(data.draw(st.integers(-3, 6)) for _ in range(s))
        coeffs = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any))
        v = tuple(pairing(coeffs, [a[k] for a in X]) for k in range(s))
        line = [tuple(c + k * P * d for c, d in zip(alpha, v)) for k in range(n - s + 4)]
        counts = [ctx.count(p) for p in line]
        inside = [frozenset(i for i, pc in enumerate(pieces)
                            if support_membership(pc.basis, pc.offset, p)) for p in line]
        window = n - s + 2
        runs = [k for k in range(len(line) - window + 1) if len(set(inside[k:k + window])) == 1]
        assume(runs)
        for k in runs:
            assert finite_difference(counts[k:k + window]) == 0, (line[k], v)

    def test_memo_budget_raises_before_filling(self, monkeypatch):
        # the point 5*168*v of stress A, v the sum of its vectors, grew the
        # memo past 3 GB with no budget; a small budget stops it early
        monkeypatch.setattr(engines, "MEMO_BUDGET", 10_000)
        ctx = DMContext(STRESS_A)
        with pytest.raises(BudgetError, match="10,000 entries"):
            ctx.count((-840, -3360))
        assert 0 < len(ctx.memo) <= 10_000
        assert not issubclass(BudgetError, InvariantError)

    def test_memo_budget_bounds_a_single_line(self, monkeypatch):
        # one line of 100,000 points: the walk stops at the budget instead
        # of holding the whole line before the first entry is memoised
        monkeypatch.setattr(engines, "MEMO_BUDGET", 1_000)
        ctx = DMContext([(1,), (1,)])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                ctx.count((100_000,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_memo_budget_is_inclusive(self, monkeypatch):
        want = coin_change([1, 2, 3, 5], 500)
        ctx = DMContext([(1,), (2,), (3,), (5,)])
        assert ctx.count((500,)) == want
        used = len(ctx.memo)
        monkeypatch.setattr(engines, "MEMO_BUDGET", used)
        assert DMContext([(1,), (2,), (3,), (5,)]).count((500,)) == want
        monkeypatch.setattr(engines, "MEMO_BUDGET", used - 1)
        with pytest.raises(BudgetError):
            DMContext([(1,), (2,), (3,), (5,)]).count((500,))


class TestCrossCheck:
    def test_scalar_box(self):
        report = cross_check(EX1, (-6,), (20,), seed=3)
        assert report.ok
        assert report.totals["brute"] == 27

    def test_planar_box(self):
        report = cross_check(EX2, (-6, -6), (12, 12), seed=7)
        assert report.ok
        assert report.totals["closed"] == 19 * 19

    def test_independent_all_ones(self):
        report = cross_check([(1, 0), (0, 1)], (0, 0), (3, 3), seed=0)
        assert report.ok

    def test_mismatches_are_listed_in_box_order(self, corrupted_closed):
        report = cross_check(EX2, (-2, -2), (4, 4))
        assert not report.ok
        assert report.mismatches == corrupted_closed
        assert report.totals == dict.fromkeys(("brute", "recursion", "closed"), 49)

    def test_reduces_once(self, monkeypatch):
        calls = []

        def counted(X):
            calls.append(X)
            return toric_reduce(X)
        monkeypatch.setattr("dtpower.engines.toric_reduce", counted)
        monkeypatch.setattr("dtpower.quasipoly.toric_reduce", counted)
        assert cross_check(EX2, (-3, -3), (6, 6)).ok
        assert len(calls) == 1

    def test_one_elimination_per_cross_check(self):
        # toric_reduce's validation eliminates X; the brute enumeration and
        # the recursion reuse its certificate, and the spot check needs none
        for X in (EX1, EX2, STRESS_A, STRESS_B):
            linalg._fourier_motzkin.cache_clear()
            assert cross_check(X, (0,) * len(X[0]), (2,) * len(X[0])).ok
            info = linalg._fourier_motzkin.cache_info()
            assert (info.misses, info.hits) == (1, 2), X

    def test_box_past_the_memo_budget_raises_before_reducing(self, monkeypatch):
        # a box of 3 x 3 points reaches the reduction under a budget of 9
        # and raises before it under a budget of 8
        class Reduced(Exception):
            pass

        def reduce(X):
            raise Reduced
        monkeypatch.setattr(engines, "toric_reduce", reduce)
        monkeypatch.setattr(engines, "MEMO_BUDGET", 9)
        with pytest.raises(Reduced):
            cross_check(EX2, (0, 0), (2, 2))
        monkeypatch.setattr(engines, "MEMO_BUDGET", 8)
        with pytest.raises(BudgetError, match="9 points, past the removal recursion's memo budget of 8"):
            cross_check(EX2, (0, 0), (2, 2))

    def test_engine_agreement_random_systems(self, random_systems):
        for i, X in enumerate(random_systems[:12]):
            s = len(X[0])
            report = cross_check(X, (-4,) * s, (8,) * s, seed=i)
            assert report.ok, (X, report.mismatches[:3])


def with_unit_term(grouped):
    """A copy of a grouped sum with 1 more at the zero shift of its first
    denominator."""
    out = dict(grouped)
    first = next(iter(out))
    zero = (0,) * len(first[0][0])
    out[first] = {**out[first], zero: out[first].get(zero, 0) + 1}
    return out


class TestGroupedSpotCheck:
    """cross_check spot-checks the reduction grouped by denominator
    (ReducedForm.grouped as it is), exactly in F_p."""

    def test_grouped_matches_term_by_term(self):
        for label, X in pinned_inputs():
            rf = toric_reduce(X)
            for seed in range(5):
                z = random_generic_point(X, seed)
                assert eval_numeric(rf.grouped, z) == eval_numeric(rf.sum, z), label

    @pytest.mark.parametrize("X", [EX1, EX2, STRESS_A, STRESS_B])
    def test_corrupted_grouped_sum_raises(self, X):
        # the unit term adds 1 / (its denominator's product), not 0 mod p
        grouped = with_unit_term(toric_reduce(X).grouped)
        with pytest.raises(InvariantError, match="identity fails"):
            spot_check(grouped, laplace_generating(X), X, 0)

    @pytest.mark.parametrize("X", [EX2, STRESS_A])
    def test_cross_check_raises_on_a_corrupted_reduction(self, X, monkeypatch):
        rf = toric_reduce(X)
        grouped = with_unit_term(rf.grouped)
        monkeypatch.setattr(engines, "toric_reduce", lambda X: ReducedForm(rf.source, grouped))
        with pytest.raises(InvariantError, match="identity fails"):
            cross_check(X, (0,) * len(X[0]), (2,) * len(X[0]))

    @pytest.mark.parametrize("X", [EX2, STRESS_A, STRESS_B])
    def test_cross_check_unpacks_each_shift_once(self, X, monkeypatch):
        terms = sum(map(len, toric_reduce(X).grouped.values()))
        calls = []
        unpack = toric._unpack

        def counted(packed, s):
            calls.append(packed)
            return unpack(packed, s)

        monkeypatch.setattr(toric, "_unpack", counted)
        assert cross_check(X, (0,) * len(X[0]), (2,) * len(X[0])).ok
        assert len(calls) == terms
