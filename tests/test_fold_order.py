"""The fold order chosen by toric_reduce: counts never depend on it, and the
chosen fold is never larger than the input-order fold."""

import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (D59, EX1, EX2, STRESS_A, STRESS_B, pinned_inputs,
                      pointed_systems, reduce_checked)
from dtpower import toric
from dtpower.engines import DMContext, box_points
from dtpower.errors import BudgetError, InvariantError
from dtpower.expalg import make_sum, make_term
from dtpower.linalg import column_solver
from dtpower.quasipoly import closed_form, eval_closed_box
from dtpower.toric import absorb_vector, toric_reduce

BOXES = {1: ((-3,), (12,)), 2: ((-3, -3), (6, 6))}

FEW = settings(max_examples=40, deadline=None)


def input_order_fold(X):
    acc = make_sum([make_term(1, (0,) * len(X[0]))])
    for a in X:
        acc = make_sum([t for old in acc.terms for t in absorb_vector(old, a)])
    return acc


@FEW
@given(st.data())
def test_counts_do_not_depend_on_the_order(data):
    X = data.draw(pointed_systems())
    perm = data.draw(st.permutations(X))
    lo, hi = BOXES[len(X[0])]
    cf = closed_form(perm)
    assert cf.source == tuple(perm)
    counts = eval_closed_box(cf, lo, hi)
    ctx = DMContext(X)
    for p in box_points(lo, hi):
        assert counts.get(p, 0) == ctx.count(p)


@FEW
@given(pointed_systems())
# input order ties with the greedy search here, with a different sum
@example([(1, 0), (2, 2), (0, -1), (0, -1)])
@example([(1, 2), (1, -2), (1, 1), (2, 2)])
# terms cancel in the input order's last step: past 20 keys, 14 terms left
@example([(-2, 0), (-2, -1), (1, 1), (0, 2)])
def test_never_more_terms_than_input_order(X):
    chosen = toric_reduce(X).sum
    reference = input_order_fold(X)
    assert len(chosen.terms) <= len(reference.terms)
    if len(chosen.terms) == len(reference.terms):
        assert chosen == reference


def test_stress_a_reduces_to_156_terms_in_any_order():
    for perm in ((0, 1, 2, 3), (1, 3, 2, 0)):
        X = [STRESS_A[i] for i in perm]
        rf = reduce_checked(X)
        assert len(rf.sum.terms) == 156
        assert rf.source == tuple(X)


def reference_fold_step(acc, a, cap=math.inf):
    """fold_step as it was before the early abandon: the cap is checked
    only once every group of a denominator has been multiplied."""
    out, size = {}, 0
    for denom, num in acc.items():
        data = None if any(v == a for v, _ in denom) else toric._absorption_data(denom, a)
        if data is None:
            factors = [(toric._denominator(denom + ((a, 1),)), ((0, 1),))]
        else:
            factors = [(d, toric._absorbed_group(denom, a, i)) for i, (d, _, _) in enumerate(data[1])]
        for d, factor in factors:
            target = out.setdefault(d, {})
            n = len(target)
            toric._accumulate(target, num, factor)
            size += len(target) - n
        if size > cap:
            return None
    return toric._nonzero(out)


def clear_toric_caches():
    for f in (toric._absorption_data, toric._absorbed_group):
        f.cache_clear()


class TestEarlyAbandon:
    def test_bound_changes_no_decision(self, monkeypatch, random_systems):
        # every capped candidate step of the search returns None exactly
        # when the step that checks its cap after each denominator does,
        # and the same sum otherwise
        real = toric.fold_step
        seen = {"capped": 0, "abandoned": 0}

        def compared(acc, a, cap=math.inf):
            out = real(acc, a, cap)
            if cap < math.inf:
                assert out == reference_fold_step(acc, a, cap)
                seen["capped"] += 1
                seen["abandoned"] += out is None
            return out

        monkeypatch.setattr(toric, "fold_step", compared)
        for X in [EX1, EX2, STRESS_A, STRESS_B] + random_systems:
            toric.choose_fold([tuple(a) for a in X])
        assert seen["abandoned"] > 50 and seen["capped"] > seen["abandoned"]


class TestD59:
    def test_search_keeps_the_smallest_fold(self):
        order, grouped = toric.choose_fold(D59)
        assert order == [1, 3, 0, 2]
        assert toric._size(grouped) == 78_399

    def test_search_multiplies_few_numerators(self, monkeypatch):
        # numerator products len(num) * len(factor) of the whole search
        # from cold caches: 432,616 with the abandon before multiplying
        # (partial fractions included), against 49 M in one abandoned step
        # when the cap was checked after each denominator
        products = [0]
        real = toric._accumulate

        def counting(target, num, factor):
            products[0] += len(num) * len(factor)
            real(target, num, factor)

        clear_toric_caches()
        monkeypatch.setattr(toric, "_accumulate", counting)
        toric.choose_fold(D59)
        clear_toric_caches()
        assert products[0] <= 440_000

    def test_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(toric, "TERM_BUDGET", 78_399)
        assert toric.choose_fold(D59)[0] == [1, 3, 0, 2]
        monkeypatch.setattr(toric, "TERM_BUDGET", 78_398)
        with pytest.raises(BudgetError, match="78,398 terms"):
            toric.choose_fold(D59)

    def test_small_budget_raises(self, monkeypatch):
        monkeypatch.setattr(toric, "TERM_BUDGET", 10_000)
        with pytest.raises(BudgetError):
            toric_reduce(D59)
        assert not issubclass(BudgetError, InvariantError)


def unpruned_choose_fold(X):
    """choose_fold as it was before the search tried each distinct vector
    once: every seed, and at each step every remaining index."""
    n, s = len(X), len(X[0])
    seeds = []
    for subset in combinations(range(n), s):
        solved = column_solver(tuple(X[i] for i in subset))
        if solved is not None:
            seeds.append((solved[0], subset))
    seeds.sort()
    best, best_count = None, math.inf
    for _, subset in seeds:
        order, acc = list(subset), toric._fold(X, subset)
        rest = [i for i in range(n) if i not in subset]
        while rest:
            pick, step, size = None, None, math.inf
            for i in rest:
                cand = toric.fold_step(acc, X[i], min(best_count, size, toric.TERM_BUDGET))
                if cand is not None and (k := toric._size(cand)) < size:
                    pick, step, size = i, cand, k
            if step is None:
                break
            rest.remove(pick)
            order.append(pick)
            acc = step
        if not rest and toric._size(acc) < best_count:
            best, best_count = (order, acc), toric._size(acc)
    acc = toric._fold(X, range(n), min(2 * best_count, toric.TERM_BUDGET))
    if acc is not None and toric._size(acc) <= best_count:
        return list(range(n)), acc
    return best


class TestDistinctVectors:
    """The search tries each distinct vector once per step and each distinct
    seed once: equal vectors give equal steps, so no decision changes."""

    def test_repeated_vector_costs_linear_steps(self, monkeypatch):
        # every index and every seed tried: about n^3 / 2 steps
        calls = [0]
        real = toric.fold_step

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(toric, "fold_step", counting)
        X = [(1,)] * 60
        order, acc = toric.choose_fold(X)
        assert calls[0] <= 3 * len(X)
        assert order == list(range(60))
        assert acc == {(((1,), 60),): {0: 1}}

    def test_same_decisions_as_the_unpruned_search(self):
        inputs = [X for _, X in pinned_inputs()]
        for base in (EX1, STRESS_A, STRESS_B):
            inputs += [base + (base[i],) for i in range(len(base))]
        for X in inputs:
            X = [tuple(a) for a in X]
            assert toric.choose_fold(X) == unpruned_choose_fold(X), X
