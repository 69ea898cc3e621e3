"""Shared fixtures: the two worked systems, a seeded generator of random
pointed systems used by the property and acceptance tests, and a hypothesis
strategy of small pointed systems."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from dtpower import engines, toric
from dtpower.expalg import laplace_generating, spot_check
from dtpower.linalg import column_solver, pointedness_certificate, rank

EX1 = ((1,), (1,), (2,))
EX2 = ((1, 0), (0, 1), (-1, 2))
# The benchmark's stress systems: the fold order changes their reduction
# by orders of magnitude.
STRESS_A = ((0, -2), (3, -2), (-2, 1), (-2, -1))
STRESS_B = ((-2, 3, 1), (-3, -2, -2), (0, 3, 1), (2, 3, 2))
# Past the benchmark's determinant cap: its bases have |det| 1, 1, 11, 25,
# 26 and 59, and its fold orders give from 78,399 to 5,003,282 terms.
D59 = ((3, 1), (1, 4), (7, 2), (2, 9))

MASTER_SEED = 20260823
# Largest allowed |det| over independent s-subsets.  Relation multipliers in
# the toric reduction are bounded by determinants of encountered bases;
# uncapped random systems occasionally produce multipliers in the hundreds,
# which blows the reduction (and the closed form) past desk scale.
DET_CAP = 8

# One line per acceptance check, shown after the test run (filled in by
# tests/test_acceptance.py; printing here dodges pytest's output capture).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def reduce_checked(X):
    """toric_reduce(X), with every prefix of its fold order, the whole
    order last, spot-checked against the partial product at the seeded
    generic points of expalg.spot_check."""
    rf = toric.toric_reduce(X)
    X, s = rf.source, len(rf.source[0])
    order, _ = toric.choose_fold(X)
    for k in range(1, len(X) + 1):
        part = rf.sum if k == len(X) else toric._to_sum(toric._unpacked(toric._fold(X, order[:k]), s))
        spot_check(part, laplace_generating([X[i] for i in order[:k]]), X, 0)
    return rf


def max_subset_det(X, s):
    """Largest |det| over the s-subsets of X; 0 when every one is singular."""
    solved = (column_solver(sub) for sub in itertools.combinations(X, s))
    return max((0 if r is None else r[0] for r in solved), default=0)


def random_pointed_systems(count=50, seed=MASTER_SEED, det_cap=DET_CAP):
    """Seeded pointed full-rank systems: s in 1..3, #X <= 6, entries in [-3,3]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = rng.randint(1, 3)
        n = rng.randint(s, 6)
        X = [tuple(rng.randint(-3, 3) for _ in range(s)) for _ in range(n)]
        if any(all(c == 0 for c in v) for v in X):
            continue
        if rank(X) != s:
            continue
        if pointedness_certificate(X) is None:
            continue
        if max_subset_det(X, s) > det_cap:
            continue
        out.append(tuple(X))
    return out


def pinned_inputs():
    """(label, X) of the golden digests: EX1, EX2, the seeded corpus and
    every order of the two stress systems."""
    inputs = [("ex1", EX1), ("ex2", EX2)]
    inputs += [(f"seeded-{i:02d}", X) for i, X in enumerate(random_pointed_systems())]
    for name, X in (("A", STRESS_A), ("B", STRESS_B)):
        for perm in itertools.permutations(range(len(X))):
            inputs.append((f"stress{name}-{''.join(map(str, perm))}",
                           tuple(X[i] for i in perm)))
    return inputs


@st.composite
def pointed_systems(draw):
    """Full-rank pointed systems: s <= 2, #X <= 4, entries in [-2, 2]."""
    s = draw(st.integers(1, 2))
    n = draw(st.integers(s, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * s).filter(any)
    X = draw(st.lists(vector, min_size=n, max_size=n))
    assume(rank(X) == s and pointedness_certificate(X) is not None)
    return X


# EX2's closed counts over the box [-2, 4]^2 with three faults: one count
# off by one, a spurious count outside cone(X) and a point left out.  The
# mismatches cross_check must list for them, in box order.
EX2_FAULTS = [((-1, -1), 0, 0, 5), ((0, 4), 3, 3, 0), ((2, 2), 2, 2, 3)]


@pytest.fixture
def corrupted_closed(monkeypatch):
    """engines.eval_closed_box with EX2_FAULTS put in; returns EX2_FAULTS."""
    real = engines.eval_closed_box

    def corrupted(cf, lo, hi):
        counts = real(cf, lo, hi)
        for p, _, _, c in EX2_FAULTS:
            if c:
                counts[p] = c
            else:
                del counts[p]
        return counts

    monkeypatch.setattr(engines, "eval_closed_box", corrupted)
    return EX2_FAULTS


@pytest.fixture(scope="session")
def random_systems():
    return random_pointed_systems()
