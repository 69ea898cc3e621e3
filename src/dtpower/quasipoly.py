"""Closed forms: polynomials supported on shifted lattice cones.

Each reduced term q * e^{<c,x>} / prod_i (1 - e^{-<b_i,x>})^{h_i} with an
independent denominator basis B inverts to a single polynomial piece

    poly(alpha) = q * prod_i prod_{j=1}^{h_i-1} <B_i^perp, alpha + c + j*b_i>
                      / ((h_i - 1)! * <B_i^perp, b_i>^{h_i - 1})

supported on the shifted lattice cone offset + N*b_1 + ... + N*b_s with
offset = -c - sum_i (h_i - 1) * b_i.  Summing the pieces of a full toric
reduction evaluates, exactly, to the number of nonnegative integer solutions
of sum beta_i a_i = alpha at every integer point.

A piece's polynomial depends on its term's denominator D, on the scale q
and on c only through t_i = <w_i, c>, with w_i the primitive normal
B_i^perp.  So what depends on D alone is computed once per denominator, in
a cache keyed on D as (vector, power) pairs (_inversion_data): the basis
and the w_i (linalg.orth_complement), the pairs <w_i, b_i>, the divisor,
sum_i (h_i - 1) * b_i, and the product of the linear factors expanded over
int in alpha and in the t_i.  Per term come the t_i, that product at them
and the offset.  closed_form reads ReducedForm.grouped as it is, one
denominator at a time, and adds each term's values, over int, into its
piece's numerators over L, the lcm of the divisors, so pieces that share
(basis, offset) merge by int addition.

A ClosedForm is those int numerators, per piece (basis, offset,
{exponents: n}), over one denominator, divided by their gcd: so it is the
least one, and forms of the same polynomials are == however they were
built, by closed_form or by ClosedForm.from_pieces from Fraction pieces
(merge_pieces, and the JSON reader).  The renderers and the JSON writer
read the int form too; pieces, the Fraction view, is built on its first
access, for the tests and the benchmark.

The evaluators do not test the pieces one by one.  On its first evaluation
a ClosedForm compiles itself, once, into one layout that both evaluators
read, (exps, bases).  exps is the sorted list of the form's distinct
exponent tuples, a handful: at most 6 on the seeded corpus, every order of
the two stress systems and D59.  bases holds one (basis, d, adj, buckets)
entry per basis, with (d, adj) from linalg.column_solver, whose buckets hold the
basis's pieces by the residue adj.offset mod d, each as (adj.offset,
offset, coeffs): coeffs is the piece's int numerators as a dense tuple over
exps.  alpha lies on a
piece's cone iff adj.alpha = adj.offset mod d and adj.alpha >= adj.offset,
so eval_closed meets its pieces by one dict lookup per basis and a sign
test per candidate, builds alpha's monomials over exps once, and adds one
dot product per active piece.  eval_closed_box walks each piece's cone
lattice instead, from adj.corner computed once per basis and box, clipping
the last two coordinates to the box (Fourier-Motzkin, then per point); it
sums the coeffs of the pieces that reach each box point and takes one dot
product per point.  The compile reads the int numerators as they are, so
neither it nor the evaluators make a Fraction; the count is checked once
per point, as a nonnegative multiple of the denominator.
support_membership and MultiPoly.evaluate stay as the exact reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import factorial, gcd, lcm, prod
from operator import add, ge, mul

from .errors import InvariantError
from .expalg import ExpRatTerm
from .linalg import (Vec, column_solver, cone_count, dot, int_range, orth_complement, scale,
                     vadd, vsub)
from .toric import ReducedForm, toric_reduce


@dataclass
class MultiPoly:
    """Polynomial in s variables: exponent tuple -> rational coefficient."""

    monomials: dict[Vec, Fraction]

    def evaluate(self, point) -> Fraction:
        total = Fraction(0)
        for e, c in self.monomials.items():
            v = c
            for x, p in zip(point, e):
                if p:
                    v *= x ** p
            total += v
        return total

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.monomials:
            return -1
        return max(sum(e) for e in self.monomials)


@dataclass(frozen=True)
class ConePiece:
    basis: tuple[Vec, ...]
    offset: Vec
    poly: MultiPoly = field(hash=False)  # compared by ==, left out of hash


@dataclass(frozen=True)
class ClosedForm:
    """t_X as (basis, offset, {exponents: n}) per piece, sorted, over the
    least denominator: == compares the polynomials, the hash leaves them out."""

    source: tuple[Vec, ...]
    denominator: int = field(hash=False)
    numerators: tuple[tuple[tuple[Vec, ...], Vec, dict[Vec, int]], ...] = field(hash=False)

    @classmethod
    def from_pieces(cls, source, pieces) -> ClosedForm:
        """The form of ConePieces with Fraction coefficients; pieces that
        share (basis, offset) merge."""
        pieces = tuple(pieces)
        L = lcm(*{c.denominator for p in pieces for c in p.poly.monomials.values()})
        acc: dict[tuple, dict[Vec, int]] = {}
        for p in pieces:
            poly = acc.setdefault((p.basis, p.offset), {})
            for e, c in p.poly.monomials.items():
                poly[e] = poly.get(e, 0) + c.numerator * (L // c.denominator)
        return _canonical(source, L, acc)

    @cached_property
    def pieces(self) -> tuple[ConePiece, ...]:
        """The pieces with Fraction coefficients, one Fraction per distinct
        numerator; built on the first access and kept on this instance."""
        L = self.denominator
        distinct = {n for _, _, poly in self.numerators for n in poly.values()}
        shared = {n: Fraction(n, L) for n in distinct}
        return tuple(ConePiece(basis, offset, MultiPoly({e: shared[n] for e, n in poly.items()}))
                     for basis, offset, poly in self.numerators)

    @cached_property
    def _compiled(self) -> tuple[list[Vec], list]:
        """_compile's (exps, bases), built on the first evaluation and kept
        on this instance only; a numerator changed in place after that is
        not seen."""
        return _compile(self.numerators)


def _canonical(source, L: int, acc: dict[tuple, dict[Vec, int]]) -> ClosedForm:
    """The ClosedForm of acc, {(basis, offset): {exponents: n}} over L: zero
    monomials and empty pieces dropped, pieces sorted, and L and every n
    divided by their gcd."""
    g = gcd(L, *(n for poly in acc.values() for n in poly.values()))
    numerators = []
    for key in sorted(acc):
        poly = {e: n // g for e, n in acc[key].items() if n}
        if poly:
            numerators.append((*key, poly))
    return ClosedForm(tuple(tuple(a) for a in source), L // g, tuple(numerators))


def _compile(numerators) -> tuple[list[Vec], list]:
    """A form's int numerators arranged for evaluation: (exps, bases).  exps
    is the sorted list of the form's distinct exponent tuples.  bases holds
    (basis, d, adj, buckets) once per basis, in order of first sight, with
    (d, adj) = _solver(basis); buckets maps the residue tuple(adj.offset mod
    d) to the (adj.offset, offset, coeffs) of its pieces, in form order, with
    coeffs the piece's numerators as a dense tuple over exps, 0 where the
    piece has no such monomial.
    """
    exps = sorted(set().union(*[poly for _, _, poly in numerators]))
    zeros = [0] * len(exps)
    bases: dict[tuple, tuple] = {}
    for basis, offset, poly in numerators:
        if basis not in bases:
            bases[basis] = (basis, *_solver(basis), {})
        _, d, adj, buckets = bases[basis]
        low = tuple([sum(map(mul, row, offset)) for row in adj])
        coeffs = tuple(map(poly.get, exps, zeros))
        buckets.setdefault(tuple([x % d for x in low]), []).append((low, offset, coeffs))
    return exps, list(bases.values())


def _monomials(exps, alpha) -> list[int]:
    """alpha^e for each exponent tuple e of exps: the vector a piece's
    coeffs are dotted with."""
    return [prod(map(pow, alpha, e)) for e in exps]


def _solver(basis) -> tuple[int, tuple[Vec, ...]]:
    """column_solver's (d, adj) of a cone basis, which must be invertible."""
    solved = column_solver(tuple(map(tuple, basis)))
    if solved is None or solved[2]:
        raise ValueError("singular basis")
    return solved[:2]


def support_membership(basis, offset: Vec, alpha: Vec) -> bool:
    """True iff alpha lies on offset + N*basis[0] + ... + N*basis[s-1]."""
    d, adj = _solver(basis)
    if len(alpha) != len(adj) or len(offset) != len(adj):
        raise ValueError(f"point and offset must have the basis's dimension {len(adj)}")
    return bool(cone_count((d, adj, ()), vsub(tuple(alpha), tuple(offset))))


def inverse_laplace_term(term: ExpRatTerm) -> ConePiece:
    """One reduced term to one polynomial piece on a shifted lattice cone.

    Everything that depends only on the denominator is computed once per
    denominator (_inversion_data), the product of the linear factors
    included, expanded in alpha and in the pairings t_i = <w_i, c>.  Per
    term come the pairings, that product at them, over int, and the
    offset; the one division, by prod (h_i - 1)! * pair_i^(h_i - 1), comes
    when the MultiPoly is built.
    """
    denom = tuple((f.vector, f.power) for f in term.denom)
    basis, ws, table, divisor, lift = _inversion_data(denom)
    q, c = term.num.coeff, term.num.shift
    t = [sum(map(mul, w, c)) for w in ws]
    mono = {e: Fraction(q * v, divisor) for e, v in _table_at(table, t)}
    offset = tuple(-x - y for x, y in zip(c, lift))
    return ConePiece(basis, offset, MultiPoly(mono))


@lru_cache(maxsize=4096)
def _inversion_data(denom) -> tuple:
    """(basis, ws, table, divisor, lift) of a reduced term's denominator,
    given as (vector, power) pairs.

    ws holds w_i = orth_complement(basis, i), adjugate row i made primitive:
    orthogonal to every basis vector but b_i and positive on it.  With
    pair_i = <w_i, b_i>, table is
    prod_i prod_{j=1}^{h_i-1} (<w_i, alpha> + t_i + j * pair_i), expanded
    over int: per exponent tuple of alpha, its (coefficient,
    ((i, power of t_i), ...)) pairs.  divisor is
    prod_i (h_i - 1)! * pair_i^(h_i - 1) and lift is sum_i (h_i - 1) * b_i.
    """
    basis = tuple(v for v, _ in denom)
    s = len(basis[0]) if basis else 0
    # exponents of the expansion: alpha_1 .. alpha_s, then t_1 .. t_s
    unit = [tuple(int(k == i) for k in range(2 * s)) for i in range(2 * s)]
    zero = (0,) * (2 * s)
    ws = []
    poly = {zero: 1}
    divisor = 1
    lift = (0,) * s
    for i, (v, h) in enumerate(denom):
        w = orth_complement(basis, i)
        pair = dot(w, v)
        linear = [(e, x) for e, x in zip(unit, w) if x] + [(unit[s + i], 1)]
        for j in range(1, h):
            poly = _times(poly, linear + [(zero, j * pair)])
        ws.append(w)
        divisor *= factorial(h - 1) * pair ** (h - 1)
        lift = vadd(lift, scale(v, h - 1))
    table: dict[Vec, list] = {}
    for e, r in poly.items():
        if r:
            ks = tuple((i, k) for i, k in enumerate(e[s:]) if k)
            table.setdefault(e[:s], []).append((r, ks))
    return basis, tuple(ws), tuple(table.items()), divisor, lift


def _table_at(table, t) -> list[tuple[Vec, int]]:
    """(exponents, value) of an _inversion_data table at the pairings t,
    nonzero values only."""
    out = []
    for e, entries in table:
        v = 0
        for r, ks in entries:
            for i, k in ks:
                r *= t[i] ** k
            v += r
        if v:
            out.append((e, v))
    return out


def _times(mono: dict[Vec, int], factor) -> dict[Vec, int]:
    """mono times a polynomial given as (exponents, coefficient) pairs."""
    out: dict[Vec, int] = {}
    for e1, q in mono.items():
        for e2, r in factor:
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + q * r
    return out


def closed_form(X, reduced: ReducedForm | None = None) -> ClosedForm:
    """Toric-reduce X and invert the grouped sum, rf.grouped as it is, one
    denominator at a time; pieces that share (basis, offset) merge.

    A caller that already holds toric_reduce(X) passes it as reduced, and X
    is not reduced again.  Each denominator's _inversion_data is looked up
    once.  Each term q * e^{<c,x>} adds q * v * (L // divisor) per monomial
    into its piece's int numerators, L the lcm of the divisors; monomials
    that sum to zero and pieces left empty are dropped, and L and the
    numerators are divided by their gcd.  The result equals merge_pieces
    over inverse_laplace_term of every term.
    """
    rf = toric_reduce(X) if reduced is None else reduced
    if rf.source != tuple(tuple(a) for a in X):
        raise ValueError("reduced form belongs to another system")
    data = {denom: _inversion_data(denom) for denom in rf.grouped}
    L = lcm(*(divisor for _, _, _, divisor, _ in data.values()))
    acc: dict[tuple, dict[Vec, int]] = {}
    for denom, num in rf.grouped.items():
        basis, ws, table, divisor, lift = data[denom]
        m = L // divisor
        for c, q in num.items():
            key = (basis, tuple([-x - y for x, y in zip(c, lift)]))
            qm, poly = q * m, acc.setdefault(key, {})
            for e, v in _table_at(table, [sum(map(mul, w, c)) for w in ws]):
                poly[e] = poly.get(e, 0) + qm * v
    return _canonical(rf.source, L, acc)


# the per-term reference's merge
merge_pieces = ClosedForm.from_pieces


def eval_closed(cf: ClosedForm, alpha) -> int:
    """Exact count at one lattice point; always a nonnegative integer.

    Per basis: u = adj.alpha, one bucket lookup on its residue mod d, and a
    sign test u >= adj.offset for each piece of the bucket.  alpha's
    monomials over the form's exponent tuples are built once, at the first
    active piece, and each active piece adds the dot product of its coeffs
    with them.
    """
    alpha = tuple(alpha)
    if len(alpha) != len(cf.source[0]):
        raise ValueError(f"point {alpha} does not have dimension {len(cf.source[0])}")
    exps, bases = cf._compiled
    total, m = 0, None
    for _, d, adj, buckets in bases:
        u = [sum(map(mul, row, alpha)) for row in adj]
        hits = buckets.get(tuple([x % d for x in u]))
        if hits:
            for low, _, coeffs in hits:
                if all(map(ge, u, low)):
                    if m is None:
                        m = _monomials(exps, alpha)
                    total += sum(map(mul, coeffs, m))
    return _count(total, cf.denominator, alpha)


def _count(numerator: int, denominator: int, alpha: Vec) -> int:
    """numerator / denominator as a count; InvariantError unless it is a
    nonnegative integer."""
    if numerator % denominator or numerator < 0:
        raise InvariantError("closed form produced non-count value "
                             f"{Fraction(numerator, denominator)} at {alpha}")
    return numerator // denominator


def eval_closed_box(cf: ClosedForm, lo: Vec, hi: Vec) -> dict[Vec, int]:
    """Counts for every lattice point of the box, walking each piece's own
    support lattice instead of testing membership pointwise.

    A cone coordinate lambda_i = (adj_i.alpha - adj_i.offset) / d is linear
    in alpha, so over the box it lies between its values at the corners.
    The corner images adj.corner are computed once per basis, and a piece
    with low = adj.offset bounds lambda_i by
    ceil((min_i - low_i) / d) .. floor((max_i - low_i) / d), min_i and max_i
    taken over the corners.  lambda_1 .. lambda_{s-2} run over those ranges.
    For each of their points x, the box bounds (m, t) = (lambda_{s-1},
    lambda_s) by the rows lo_k <= x_k + m * b_k + t * c_k <= hi_k, with b and
    c the last two basis vectors.  Eliminating t from the rows
    (Fourier-Motzkin) clips m, and for each m the rows clip t, so the walk
    skips every m whose line misses the box and meets only lattice points in
    the box.  Each point keeps the sum of the coeffs of the pieces that
    reach it, and its count is one dot product of that sum with its
    monomials.
    """
    s = len(cf.source[0])
    if len(lo) != s or len(hi) != s:
        raise ValueError(f"box corners {tuple(lo)} and {tuple(hi)} do not have dimension {s}")
    exps, bases = cf._compiled
    acc: dict[Vec, tuple[int, ...]] = {}
    corners = list(product(*zip(lo, hi)))
    for basis, d, adj, buckets in bases:
        spans = []  # (min, max) of adj_i.corner over the corners, per row
        for row in adj:
            images = [sum(map(mul, row, c)) for c in corners]
            spans.append((min(images), max(images)))
        *outer, last = basis
        mid = outer.pop() if outer else (0,) * s  # s == 1: m is 0 on a zero vector
        for pieces in buckets.values():
            for low, offset, coeffs in pieces:
                bounds = [(max(0, -((l - mn) // d)), (mx - l) // d)
                          for l, (mn, mx) in zip(low, spans)]
                if any(l > h for l, h in bounds):
                    continue
                m_bounds = bounds[-2] if s > 1 else (0, 0)
                for head in product(*[range(l, h + 1) for l, h in bounds[:-2]]):
                    x = offset
                    for li, b in zip(head, outer):
                        x = vadd(x, scale(b, li))
                    for m, ts in _clip(x, mid, last, lo, hi, m_bounds, bounds[-1]):
                        t = ts.start  # the line's first point, then one step of last per t
                        alpha = tuple([xk + m * bk + t * ck for xk, bk, ck in zip(x, mid, last)])
                        for _ in ts:
                            had = acc.get(alpha)
                            acc[alpha] = coeffs if had is None else tuple(map(add, had, coeffs))
                            alpha = tuple(map(add, alpha, last))
    out = {}
    for alpha, coeffs in acc.items():
        n = _count(sum(map(mul, coeffs, _monomials(exps, alpha))), cf.denominator, alpha)
        if n:
            out[alpha] = n
    return out


def _clip(x: Vec, b: Vec, c: Vec, lo: Vec, hi: Vec, m_bounds, t_bounds):
    """(m, range of t) for each integer m in m_bounds for which a real t in
    t_bounds puts x + m*b + t*c in the box, with the integer t that do.

    Fourier-Motzkin: pairing each lower bound on t with each upper one
    eliminates t and leaves the rows on m; then each m solves for t.
    """
    t_lo, t_hi = t_bounds
    rows = [(0, 1, t_hi), (0, -1, -t_lo)]  # (a_m, a_t, r): a_m*m + a_t*t <= r
    for l, h, xk, bk, ck in zip(lo, hi, x, b, c):
        rows += [(bk, ck, h - xk), (-bk, -ck, xk - l)]
    m_rows = [(am, r) for am, at, r in rows if at == 0]
    m_rows += [(am * -at2 + am2 * at, r * -at2 + r2 * at)
               for am, at, r in rows if at > 0
               for am2, at2, r2 in rows if at2 < 0]
    t_rows = [(at, r, am) for am, at, r in rows if at]
    for m in int_range(m_rows, *m_bounds):
        yield m, int_range([(at, r - am * m) for at, r, am in t_rows], t_lo, t_hi)

