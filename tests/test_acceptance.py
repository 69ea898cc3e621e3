"""Acceptance suite: one printed pass/fail line per criterion.

Summary lines are collected and printed in pytest's terminal summary.
Tolerances are pinned here and nowhere looser: numeric identity checks use
relative 1e-9; everything else is exact integer/rational equality.
"""

import itertools
import time
from fractions import Fraction

import pytest

from conftest import EX1, EX2
from dtpower.engines import (DMContext, brute_force_box, cross_check,
                             independent_count)
from dtpower.expalg import eval_numeric, laplace_generating, random_generic_point
from dtpower.linalg import pointedness_certificate, rank
from dtpower.quasipoly import closed_form, eval_closed
from dtpower.toric import assert_reduced_invariants, toric_reduce

RTOL = 1e-9


def report(num, total, label, elapsed=None):
    from conftest import ACCEPTANCE_LINES
    extra = "" if elapsed is None else f" ({elapsed:.2f}s)"
    ACCEPTANCE_LINES.append(f"[acceptance {num}/{total}] PASS: {label}{extra}")


def test_1_planar_example_reference_identity():
    """Closed form for {(1,0),(0,1),(-1,2)} equals the known piecewise
    expression (2x+y+2)/2 * 1_{A1}(x,y) + (2x+y+1)/2 * 1_{A1}(x,y-1)
    - x * 1_{A2}(x,y) on [0,15]^2, and both equal brute force."""
    start = time.perf_counter()
    X = EX2
    a1 = [(1, 0), (-1, 2)]
    a2 = [(1, 0), (0, 1)]
    cf = closed_form(X)
    table = brute_force_box(X, (0, 0), (15, 15))
    for x, y in itertools.product(range(16), repeat=2):
        ref = (Fraction(2 * x + y + 2, 2) * independent_count(a1, (x, y))
               + Fraction(2 * x + y + 1, 2) * independent_count(a1, (x, y - 1))
               - x * independent_count(a2, (x, y)))
        got = eval_closed(cf, (x, y))
        assert got == ref, (x, y, got, ref)
        assert got == table.get((x, y), 0), (x, y)
    for point, value in [((0, 2), 2), ((1, 1), 1), ((2, 2), 2), ((0, 4), 3)]:
        assert eval_closed(cf, point) == value
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s budget"
    report(1, 7, "planar example matches reference expression on [0,15]^2",
           elapsed)


def test_2_scalar_example_with_corrected_odd_branch():
    """Closed form for {1,1,2} matches brute force on [-6,30]. On even
    x >= 0 it equals (x+2)^2/4. On odd x >= 0 it equals (x+1)(x+3)/4.
    The often-quoted odd-branch formula (x+2)(x+4)/4 is a transcription
    error: at x=1 it gives 15/4, while the true count is 2."""
    start = time.perf_counter()
    cf = closed_form(EX1)
    table = brute_force_box(EX1, (-6,), (30,))
    for x in range(-6, 31):
        assert eval_closed(cf, (x,)) == table.get((x,), 0)
    for x in range(0, 31, 2):
        assert eval_closed(cf, (x,)) == Fraction((x + 2) ** 2, 4)
    for x in range(1, 31, 2):
        assert eval_closed(cf, (x,)) == Fraction((x + 1) * (x + 3), 4)
    # the wrong branch really is wrong, starting at the first odd point
    assert Fraction((1 + 2) * (1 + 4), 4) == Fraction(15, 4)
    assert eval_closed(cf, (1,)) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s budget"
    report(2, 7, "scalar example exact on [-6,30], odd branch (x+1)(x+3)/4",
           elapsed)


def test_3_reduction_invariants(random_systems):
    """Every reduced term has exactly s independent denominator vectors,
    total denominator power #X, each vector a positive multiple of an
    input vector. Checked on both examples plus 50 seeded systems."""
    systems = [EX1, EX2] + list(random_systems)
    for X in systems:
        rf = toric_reduce(X)
        assert_reduced_invariants(rf)
        s = rank(X)
        for term in rf.sum.terms:
            assert len(term.denom) == s
            assert sum(f.power for f in term.denom) == len(X)
            assert rank([f.vector for f in term.denom]) == s
    report(3, 7, f"reduction invariants hold on {len(systems)} systems")


def test_4_generating_function_identity(random_systems):
    """Reduced sum agrees with the defining product numerically at 5
    seeded generic points per system, to relative 1e-9."""
    systems = [EX1, EX2] + list(random_systems)
    for X in systems:
        rf = toric_reduce(X)
        gen = laplace_generating(X)
        for seed in range(5):
            x = random_generic_point(X, seed=seed)
            want = eval_numeric(gen, x)
            got = eval_numeric(rf.sum, x)
            assert abs(got - want) <= RTOL * (1 + abs(want)), (X, seed)
    report(4, 7, "reduced sum = generating product at 5 points/system, "
                 "rel 1e-9")


def test_5_degree_law(random_systems):
    """Each piece polynomial has degree <= #X - s; equality is attained
    by some piece whenever #X > s."""
    systems = [EX1, EX2] + list(random_systems)
    for X in systems:
        s = rank(X)
        cf = closed_form(X)
        degs = [p.poly.degree() for p in cf.pieces]
        assert all(d <= len(X) - s for d in degs), X
        if len(X) > s:
            assert max(degs) == len(X) - s, X
    report(5, 7, "degree law: max piece degree = #X - s on all systems")


def test_6_triple_engine_agreement(random_systems):
    """Brute force, removal recursion and closed form return identical
    integers on [-6,12]^s for all 50 seeded systems (0 outside the cone
    included). Total runtime under 120 s."""
    start = time.perf_counter()
    points = 0
    for i, X in enumerate(random_systems):
        s = len(X[0])
        rep = cross_check(X, (-6,) * s, (12,) * s, seed=i)
        assert rep.ok, (X, rep.mismatches[:3])
        points += rep.totals["brute"]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 120s budget"
    report(6, 7, f"3 engines agree on {points} points across 50 systems",
           elapsed)


@pytest.mark.parametrize("X,box", [
    (EX1, [(a,) for a in range(-6, 31)]),
    (EX2, list(itertools.product(range(-6, 13), repeat=2))),
], ids=["scalar", "planar"])
def test_7_removal_recursion_identity(X, box):
    """t_X(a) = sum_j t_{X minus a_i}(a - j*a_i) for every index i."""
    X = list(X)
    xs, _ = pointedness_certificate(X).scaled()
    full = DMContext(X)
    for i in range(len(X)):
        rest = X[:i] + X[i + 1:]
        sub = DMContext(rest)
        ai = X[i]
        w = sum(x * c for x, c in zip(xs, ai))
        for alpha in box:
            budget = sum(x * c for x, c in zip(xs, alpha))
            total = sum(
                sub.count(tuple(c - j * b for c, b in zip(alpha, ai)))
                for j in range(max(budget // w + 1, 0)))
            assert total == full.count(alpha), (i, alpha)
    tag = "scalar" if len(X[0]) == 1 else "planar"
    report(7, 7, f"removal identity holds for every index ({tag} example)")
