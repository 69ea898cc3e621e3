"""Reference counts that share no code with dtpower.

- dp_counts: a dynamic program over the truncated generating series
  prod_i 1/(1 - z^{x_i}), exact on any finite set of points;
- ex1_count / ex2_count: the known closed formulas of the worked examples;
- independent_count: lattice-cone membership for a linearly independent X;
- removable_index: which vector the difference identity
  t_X(a) - t_X(a - x) = t_{X minus x}(a) can drop.

self_test() checks each of them on hand-known values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from corpus import EX1, EX2, rank


def level_functional(X, radius: int = 6):
    """Small integer w with <w, x> >= 1 for every x in X, or None.

    Among the candidates in [-radius, radius]^s it takes the one with the
    smallest largest pairing, which keeps the truncated series small.
    """
    s = len(X[0])
    best = None
    for w in itertools.product(range(-radius, radius + 1), repeat=s):
        pairs = [sum(a * b for a, b in zip(w, x)) for x in X]
        if min(pairs) < 1:
            continue
        key = (max(abs(c) for c in w), max(pairs), w)
        if best is None or key < best:
            best = key
    return None if best is None else best[2]


def dp_counts(X, points) -> dict:
    """t_X at every given point, by multiplying out the truncated series.

    With <w, x> >= 1 on X, every partial sum of a solution for a has level
    <w, .> at most <w, a>, so the series truncated at the largest level among
    the points is exact on them.  Each factor 1/(1 - z^x) is applied as an
    unbounded knapsack step along the lines p + Z*x.
    """
    points = [tuple(p) for p in points]
    X = [tuple(x) for x in X]
    w = level_functional(X)
    if w is None:
        raise ValueError(f"no level functional found for {X}")

    def level(p):
        return sum(a * b for a, b in zip(w, p))

    top = max(level(p) for p in points)
    states = {(0,) * len(X[0]): 1} if top >= 0 else {}
    for x in X:
        new = {}
        for p in sorted(states, key=level):
            if p in new:
                continue  # already on the chain of an earlier point
            running = 0
            q = p
            while level(q) <= top:
                running += states.get(q, 0)
                new[q] = running
                q = tuple(a + b for a, b in zip(q, x))
        states = new
    return {p: states.get(p, 0) for p in points}


def ex1_count(x: int) -> Fraction:
    """t_{1,1,2}(x): (x+2)^2/4 for even x >= 0, (x+1)(x+3)/4 for odd x >= 0."""
    if x < 0:
        return Fraction(0)
    if x % 2 == 0:
        return Fraction((x + 2) ** 2, 4)
    return Fraction((x + 1) * (x + 3), 4)


def ex2_count(x: int, y: int) -> Fraction:
    """t_{(1,0),(0,1),(-1,2)}(x, y) as the piecewise expression
    (2x+y+2)/2 1_{A1}(x,y) + (2x+y+1)/2 1_{A1}(x,y-1) - x 1_{A2}(x,y),
    A1 = {(1,0),(-1,2)}, A2 = {(1,0),(0,1)}."""
    a1 = ((1, 0), (-1, 2))
    a2 = ((1, 0), (0, 1))
    return (Fraction(2 * x + y + 2, 2) * independent_count(a1, (x, y))
            + Fraction(2 * x + y + 1, 2) * independent_count(a1, (x, y - 1))
            - x * independent_count(a2, (x, y)))


def solve(cols, rhs):
    """lambda with sum lambda_j * cols[j] == rhs for s independent columns."""
    s = len(rhs)
    rows = [[Fraction(c[k]) for c in cols] + [Fraction(rhs[k])] for k in range(s)]
    for col in range(s):
        piv = next(i for i in range(col, s) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(s):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return [rows[k][s] for k in range(s)]


def independent_count(X, a) -> int:
    """1 iff a is a nonnegative integer combination of the independent X."""
    return int(all(l >= 0 and l.denominator == 1 for l in solve(X, a)))


def removable_index(X):
    """First index i with X minus x_i still spanning, or None."""
    s = len(X[0])
    for i in range(len(X)):
        rest = X[:i] + X[i + 1:]
        if rest and rank(rest) == s:
            return i
    return None


def self_test() -> None:
    """Each reference on hand-known values; raises AssertionError otherwise."""
    def check(cond, what):
        if not cond:
            raise AssertionError(f"reference self-test failed: {what}")

    check(dp_counts(EX1, [(1,), (4,), (-1,)]) == {(1,): 2, (4,): 9, (-1,): 0},
          "DP on EX1")
    known = {(0, 4): 3, (0, 2): 2, (1, 1): 1, (2, 2): 2, (-1, 2): 1, (0, -1): 0}
    check(dp_counts(EX2, known) == known, "DP on EX2")
    check(dp_counts([(-1,), (-2,)], [(-4,)]) == {(-4,): 3}, "DP on a negative ray")
    check(ex1_count(1) == 2 and ex1_count(4) == 9 and ex1_count(-2) == 0,
          "EX1 formula")
    check(all(ex2_count(*p) == v for p, v in known.items()), "EX2 formula")
    box1 = [(x,) for x in range(-3, 31)]
    check(all(ex1_count(p[0]) == v for p, v in dp_counts(EX1, box1).items()),
          "EX1 formula against DP")
    box2 = list(itertools.product(range(-3, 13), repeat=2))
    table = dp_counts(EX2, box2)
    check(all(ex2_count(*p) == v for p, v in table.items()), "EX2 formula against DP")
    check(independent_count(((1, 0), (-1, 2)), (0, 2)) == 1
          and independent_count(((1, 0), (-1, 2)), (0, 1)) == 0, "independent count")
    i = removable_index(list(EX2))
    rest = list(EX2[:i] + EX2[i + 1:])
    sub = dp_counts(rest, box2)
    shifted = dp_counts(EX2, [tuple(a - b for a, b in zip(p, EX2[i])) for p in box2])
    check(all(table[p] - shifted[tuple(a - b for a, b in zip(p, EX2[i]))] == sub[p]
              for p in box2), "difference identity on EX2")
    check(removable_index([(1, 0), (0, 1)]) is None, "no removable vector in a basis")
