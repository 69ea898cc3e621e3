"""Fixed inputs of the benchmark: the worked examples, the seeded corpus, the
stress systems and their fold orders, the boxes and the far-point generator.

Nothing here imports dtpower: the corpus generator carries its own rank,
pointedness and determinant tests, so the inputs do not depend on the code
under measurement.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

EX1 = ((1,), (1,), (2,))
EX2 = ((1, 0), (0, 1), (-1, 2))

STRESS_A = ((0, -2), (3, -2), (-2, 1), (-2, -1))
STRESS_B = ((-2, 3, 1), (-3, -2, -2), (0, 3, 1), (2, 3, 2))

# The corpus of tests/conftest.py: 50 pointed full-rank systems.
MASTER_SEED = 20260823
DET_CAP = 8
CORPUS_SIZE = 50

# Box upper corner per dimension; every box starts at -3 in each coordinate.
VERIFY_HI = {1: 30, 2: 12, 3: 6}
BOX_LO = -3

# Largest coefficient of a far point a = sum c_i x_i, c_i in [0, FAR_COEFF].
FAR_COEFF = 1000


# ----------------------------------------------------- exact linear algebra

def rank(vectors) -> int:
    """Rank over Q of integer vectors, by Gaussian elimination on Fractions."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    rk = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(rk + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rk][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def abs_det(square) -> int:
    """|det| of s integer vectors of dimension s (cofactor expansion, s <= 3)."""
    s = len(square)
    if s == 1:
        return abs(square[0][0])
    if s == 2:
        (a, b), (c, d) = square
        return abs(a * d - b * c)
    total = 0
    for j in range(s):
        minor = [row[:j] + row[j + 1:] for row in square[1:]]
        sign = -1 if j % 2 else 1
        total += sign * square[0][j] * _signed_det(minor)
    return abs(total)


def _signed_det(square) -> int:
    if len(square) == 1:
        return square[0][0]
    (a, b), (c, d) = square
    return a * d - b * c


def is_pointed(vectors) -> bool:
    """True iff no nonzero nonnegative combination of the vectors vanishes.

    Fourier-Motzkin on the feasibility of <xi, a> >= 1 for every a.
    """
    s = len(vectors[0])
    cons = [(tuple(Fraction(c) for c in a), Fraction(1)) for a in vectors]
    for var in range(s):
        pos = [c for c in cons if c[0][var] > 0]
        neg = [c for c in cons if c[0][var] < 0]
        new = [c for c in cons if c[0][var] == 0]
        for cp, rp in pos:
            for cn, rn in neg:
                new.append((tuple(cp[k] / cp[var] - cn[k] / cn[var] for k in range(s)),
                            rp / cp[var] - rn / cn[var]))
        cons = new
    return all(r <= 0 for _, r in cons)


# ---------------------------------------------------------------- corpus

def random_pointed_systems(count=CORPUS_SIZE, seed=MASTER_SEED, det_cap=DET_CAP):
    """Seeded pointed full-rank systems: s in 1..3, #X <= 6, entries in [-3,3].

    Draws exactly as tests/conftest.py does, so the default seed gives the
    same 50 systems in the same order.
    """
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
        if not is_pointed(X):
            continue
        if max(abs_det(sub) for sub in itertools.combinations(X, s)) > det_cap:
            continue
        out.append(tuple(X))
    return out


def corpus():
    """(label, X) for EX1, EX2 and the 50 seeded systems."""
    systems = [("EX1", EX1), ("EX2", EX2)]
    systems += [(f"corpus[{i}]", X) for i, X in enumerate(random_pointed_systems())]
    return systems


def verify_box(X):
    s = len(X[0])
    return (BOX_LO,) * s, (VERIFY_HI[s],) * s


def box_size(lo, hi) -> int:
    n = 1
    for l, h in zip(lo, hi):
        n *= h - l + 1
    return n


# ------------------------------------------------------- stress and orders

# Boxes the stress systems are counted on; B's is the ROADMAP baseline box.
STRESS_BOXES = {"A": ((-3, -3), (12, 12)), "B": ((-3, -3, -3), (6, 6, 6))}


def distinct_orders(n: int):
    """Every permutation of range(n) whose first two entries increase.

    The reduction appends the first two vectors as independent denominators
    and sorts them, so swapping them yields the identical reduction; these
    n!/2 orders therefore cover every distinct fold of the n! orders.
    Input order comes first.
    """
    return [p for p in itertools.permutations(range(n)) if p[0] < p[1]]


# Distinct orders of stress A not run: they reduce to 10,198 and 11,442 terms
# (8,414 and 9,614 pieces) and took 14 of the 21 s of a round with them, too
# long to repeat a round within one run.  The worst order kept, 1320, still
# gives 5,131 pieces against 156 for the best.
LEFT_OUT = {"A": {(0, 1, 3, 2), (1, 3, 0, 2)}, "B": set()}


def stress_orders():
    """(label, X in that order) for each distinct order of stress A and B
    that the benchmark runs."""
    out = []
    for name, X in (("A", STRESS_A), ("B", STRESS_B)):
        for perm in distinct_orders(len(X)):
            if perm not in LEFT_OUT[name]:
                out.append((f"stress{name}:{''.join(map(str, perm))}",
                            tuple(X[i] for i in perm)))
    return out


# ----------------------------------------------------------------- points

def far_points(X, count: int, rng: random.Random):
    """count points sum c_i x_i with every c_i drawn from [0, FAR_COEFF].

    They lie in the cone of X, far from the origin, where brute force and
    the removal recursion cannot reach.
    """
    pts = []
    for _ in range(count):
        c = [rng.randint(0, FAR_COEFF) for _ in X]
        pts.append(tuple(sum(ci * v[k] for ci, v in zip(c, X))
                         for k in range(len(X[0]))))
    return pts


def box_sample(lo, hi, count: int, rng: random.Random):
    return [tuple(rng.randint(l, h) for l, h in zip(lo, hi)) for _ in range(count)]


def to_text(X) -> str:
    """The input-file form dtpower reads: one vector per line."""
    return "".join(" ".join(map(str, v)) + "\n" for v in X)
