"""Independent counting engines and cross-engine verification.

Three ways to count nonnegative integer solutions of sum beta_i a_i = alpha:
exhaustive enumeration bounded by X's memoised pointedness certificate (the
ground truth; each vector's multiplier runs only over the range that the box
leaves it, given the signs of the vectors after it), the removal recursion
of Dahmen and Micchelli in its telescoped form
t_X(alpha) = t_{X minus a}(alpha) + t_X(alpha - a), walked along the line
alpha, alpha - a, ... with every point memoised and bounded by the same
certificate, and evaluation of the toric closed form.  cross_check holds
each engine's nonzero counts over a box as one dict and compares the three
dicts whole.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import product
from operator import add, mul, sub

from .errors import BudgetError
from .expalg import laplace_generating, spot_check
from .linalg import Vec, column_solver, cone_count, dot, int_range, pointedness_certificate
from .quasipoly import closed_form, eval_closed_box
from .toric import toric_reduce

# The memo budget of DMContext, in entries.  An entry takes about
# 225 bytes (CPython 3.11), so the budget stops a context near 450 MiB;
# the tests' largest context holds about 82,000.
MEMO_BUDGET = 2_000_000

# The node budget of brute_force_box: interior nodes of its walk plus the
# points of its lines at the last vector.  A node takes up to about 5 us
# (CPython 3.11), so the budget stops a walk within a minute; the tests'
# largest walk, apart from the budget tests' own, visits about 2,900 nodes.
NODE_BUDGET = 10_000_000


@dataclass
class CountReport:
    box: tuple[Vec, Vec]
    mismatches: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def brute_force_count(X, alpha) -> int:
    """Exhaustive count of beta in N^n with sum beta_i a_i == alpha: the
    one-point box of brute_force_box."""
    alpha = tuple(alpha)
    return brute_force_box(X, alpha, alpha).get(alpha, 0)


def brute_force_box(X, lo: Vec, hi: Vec) -> dict[Vec, int]:
    """Counts for every point of the box by one exhaustive enumeration.

    Enumerates all beta whose certificate pairing fits below the box maximum
    and histograms sum beta_i a_i.  The certificate bounds each coordinate:
    beta_i <= cap/<xi,a_i>, and pairings only grow along a branch, so nothing
    in the box is pruned away.  Each multiplier is also clipped to the box
    (linalg.int_range): where every later vector has a coordinate >= 0, the
    point's coordinate can only grow, so it must already be at most the
    box's; where every later one has it <= 0, at least the box's.  At the
    last vector no vector comes later, every coordinate is clipped both
    ways, and the multiplier keeps the point inside the box, so every
    solution in the box is still visited once and none outside it is.
    Raises ValueError for a system that is not pointed or a box whose
    corners do not have X's dimension.

    The walk visits at most NODE_BUDGET nodes: each interior node counts
    one, and each line at the last vector its number of points, at least
    one.  A line or node that would pass the budget raises BudgetError
    before it is walked.
    """
    X = [tuple(a) for a in X]
    s = len(X[0])
    if len(lo) != s or len(hi) != s:
        raise ValueError(f"box corners {tuple(lo)} and {tuple(hi)} do not have dimension {s}")
    xs, weights = _scaled_certificate(X)
    cap = sum(max(x * l, x * h) for x, l, h in zip(xs, lo, hi))
    n = len(X)
    # per level, the coordinates that every later vector can only raise and
    # those that every later vector can only lower; at the last, all of them
    ups = [[k for k in range(s) if all(b[k] >= 0 for b in X[i + 1:])] for i in range(n)]
    downs = [[k for k in range(s) if all(b[k] <= 0 for b in X[i + 1:])] for i in range(n)]
    counts: dict[Vec, int] = {}
    budget, nodes = NODE_BUDGET, 0

    def walk(i: int, point: Vec, used: int) -> None:
        nonlocal nodes
        a, w = X[i], weights[i]
        if i < n - 1:
            nodes += 1
            if nodes > budget:
                raise _over_node_budget()
        rows = [(a[k], hi[k] - point[k]) for k in ups[i]]
        rows += [(-a[k], point[k] - lo[k]) for k in downs[i]]
        js = int_range(rows, 0, (cap - used) // w)
        point = tuple(p + js.start * c for p, c in zip(point, a))
        if i == n - 1:
            nodes += max(len(js), 1)
            if nodes > budget:
                raise _over_node_budget()
            for _ in js:
                counts[point] = counts.get(point, 0) + 1
                point = tuple(map(add, point, a))
            return
        used += js.start * w
        for _ in js:
            walk(i + 1, point, used)
            point = tuple(map(add, point, a))
            used += w

    if cap >= 0:
        walk(0, (0,) * s, 0)
    return counts


def _over_node_budget() -> BudgetError:
    return BudgetError(f"the brute enumeration would pass its budget of {NODE_BUDGET:,} nodes")


def _scaled_certificate(X) -> tuple[Vec, list[int]]:
    """(xs, weights): X's pointedness certificate as PointedCertificate.scaled
    gives it, and its pairing with each vector of X; ValueError if none."""
    cert = pointedness_certificate(X)
    if cert is None:
        raise ValueError("system is not pointed")
    xs = cert.scaled()[0]
    return xs, [dot(xs, a) for a in X]


def independent_count(A, alpha) -> int:
    """1 iff alpha is a nonnegative integer combination of the independent set A."""
    A = tuple(tuple(a) for a in A)
    alpha = tuple(alpha)
    if A and len(A[0]) != len(alpha):
        raise ValueError(f"dimension mismatch: {len(A[0])} vs {len(alpha)}")
    if not A:
        return int(not any(alpha))
    return cone_count(column_solver(A), alpha)


class DMContext:
    """One evaluation context for the removal recursion, with memoization
    keyed on (prefix length, alpha).  X need only be pointed: the removal
    identity counts rank-deficient subsystems too.

    With t_k the count over the first k vectors and t_k(beta) = 0 whenever
    the certificate pairing <xs, beta> is negative, the recursion is the
    telescoped t_k(alpha) = t_{k-1}(alpha) + t_k(alpha - a_k).  One query
    walks down the line alpha, alpha - a_k, ... until a memo hit or a
    negative pairing, then fills the line back up, memoising every point, so
    the work is in proportion to the points reached.  Python recursion goes
    one level per vector, never along a line.  The base case is the longest
    linearly independent prefix, solved once per context.

    The memo holds at most MEMO_BUDGET entries: a query that would take it
    past them raises BudgetError instead, and so does a walk down a line
    longer than the room left, before the line is held.
    """

    def __init__(self, X):
        self.X = [tuple(a) for a in X]
        self.xs, self.weights = _scaled_certificate(self.X)
        # longest prefix that is still linearly independent: recursion base
        k = 0
        while k < len(self.X) and column_solver(tuple(self.X[:k + 1])) is not None:
            k += 1
        self.base_len = k
        self._base = column_solver(tuple(self.X[:k]))
        self.memo: dict[tuple[int, Vec], int] = {}

    def count(self, alpha) -> int:
        alpha = tuple(alpha)
        if len(alpha) != len(self.xs):
            raise ValueError(f"dimension mismatch: {len(self.xs)} vs {len(alpha)}")
        u = sum(map(mul, self.xs, alpha))
        if u < 0:
            return 0
        return self._count(alpha, u, len(self.X))

    def count_box(self, lo: Vec, hi: Vec) -> dict[Vec, int]:
        """The nonzero counts of the box's points, in box order: count at
        each point of each line along the last coordinate whose pairing
        <xs, alpha> is not negative (linalg.int_range clips the line to
        them); no other point is visited, as count returns 0 there first."""
        lo, hi = tuple(lo), tuple(hi)
        s = len(self.xs)
        if len(lo) != s or len(hi) != s:
            raise ValueError(f"box corners {lo} and {hi} do not have dimension {s}")
        x_last = self.xs[-1]
        out = {}
        for head in product(*[range(l, h + 1) for l, h in zip(lo[:-1], hi[:-1])]):
            u = sum(map(mul, self.xs, head)) + x_last * lo[-1]
            # u + x_last * t >= 0 for t in 0 .. hi_s - lo_s
            for t in int_range([(-x_last, u)], 0, hi[-1] - lo[-1]):
                alpha = (*head, lo[-1] + t)
                if n := self._count(alpha, u + x_last * t, len(self.X)):
                    out[alpha] = n
        return out

    def _count(self, alpha: Vec, u: int, k: int) -> int:
        """t_k(alpha) for k >= base_len, given u = <xs, alpha> >= 0."""
        if k == self.base_len:
            return cone_count(self._base, alpha)
        memo, budget = self.memo, MEMO_BUDGET
        a, w = self.X[k - 1], self.weights[k - 1]
        line = []
        total = 0
        while u >= 0:
            hit = memo.get((k, alpha))
            if hit is not None:
                total = hit
                break
            if len(memo) + len(line) >= budget:  # the line alone would pass it
                raise self._over_budget()
            line.append((alpha, u))
            alpha = tuple(map(sub, alpha, a))
            u -= w
        for alpha, u in reversed(line):
            total += self._count(alpha, u, k - 1)
            if len(memo) >= budget:
                raise self._over_budget()
            memo[(k, alpha)] = total
        return total

    def _over_budget(self) -> BudgetError:
        return BudgetError(f"the removal recursion's memo would pass its budget of {MEMO_BUDGET:,} entries")


def dm_count(X, alpha) -> int:
    """Removal recursion on the last vector, memoized within one context."""
    return DMContext(X).count(alpha)


def box_points(lo: Vec, hi: Vec):
    return product(*[range(l, h + 1) for l, h in zip(lo, hi)])


def cross_check(X, lo: Vec, hi: Vec, seed: int = 0) -> CountReport:
    """Run all three engines on every lattice point of the box.

    Each engine's nonzero counts make one dict, and the three dicts are
    compared whole; only when they differ are the points of their keys
    walked in box order to list each mismatch (point, brute, recursion,
    closed), a missing point counting 0.

    Also spot-checks the reduced generating function against the original
    product at five seeded generic points before counting, from
    ReducedForm.grouped as it is; the closed form reads that same
    reduction, unpacked once by toric_reduce, which validates X.  A box of
    more than MEMO_BUDGET points, one memo entry each, raises BudgetError.
    """
    X = [tuple(a) for a in X]
    lo, hi = tuple(lo), tuple(hi)
    size = math.prod(max(h - l + 1, 0) for l, h in zip(lo, hi))
    if size > MEMO_BUDGET:
        raise BudgetError(f"the box holds {size:,} points, past the removal recursion's "
                          f"memo budget of {MEMO_BUDGET:,} entries")

    rf = toric_reduce(X)
    spot_check(rf.grouped, laplace_generating(X), X, seed)

    report = CountReport(box=(lo, hi))

    t0 = time.perf_counter()
    brute = brute_force_box(X, lo, hi)
    report.timings["brute"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ctx = DMContext(X)
    recursion = {p: n for p in box_points(lo, hi) if (n := ctx.count(p))}
    report.timings["recursion"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cf = closed_form(X, rf)
    closed = eval_closed_box(cf, lo, hi)
    report.timings["closed"] = time.perf_counter() - t0

    if not (brute == recursion == closed):
        for p in sorted(brute.keys() | recursion.keys() | closed.keys()):
            b, r, c = brute.get(p, 0), recursion.get(p, 0), closed.get(p, 0)
            if not (b == r == c):
                report.mismatches.append((p, b, r, c))
    report.totals = dict.fromkeys(("brute", "recursion", "closed"), size)
    return report
