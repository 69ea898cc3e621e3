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
int in alpha and in the t_i, its 2s exponents packed into one int and
multiplied by toric's own sparse product (_accumulate).  Per term come
the t_i, that product at them and the offset.  One loop, _invert, reads
a grouped sum one denominator at a time and adds each term's values, over
int, into its piece's numerators over L, the lcm of the divisors, so
pieces that share (basis, offset) merge by int addition: closed_form runs
it on ReducedForm.grouped as it is, inverse_laplace_term on one term.

A ClosedForm is those int numerators, per piece (basis, offset,
{exponents: n}), over one denominator, divided by their gcd: so it is the
least one, and forms of the same polynomials are == however they were
built, by closed_form, by ClosedForm.from_pieces from Fraction pieces
(merge_pieces) or by the JSON reader.  The renderers and the JSON writer
read the int form too; pieces, the Fraction view, is built on its first
access, for the tests and the benchmark.

The evaluators do not test the pieces one by one; they use the chamber
theorem of Dahmen-Micchelli (1988) and Brion-Vergne (1997).  For a basis B
of the form and a residue r of adj.alpha mod d, (d, adj) from
linalg.square_solver, let T_B[r] be the sum of the pieces on B whose
offsets have that residue.  Then at every lattice point

    t_X(alpha) = sum over B with alpha + eps*v in cone(B) of
                 T_B[adj.alpha mod d](alpha)

for any v inside cone(X) and off every wall: t_X is one quasi-polynomial
on (c - Z(X)) for each chamber c, Z(X) the zonotope of X, and alpha lies
there for the chamber c that holds alpha + eps*v.  No offset enters.  v is
fixed as sum X + eps*e_1 + eps^2*e_2 + ..., inside cone(X) and, by its
lexicographic tail, on no wall.  So alpha + eps*v lies in cone(B) iff, per
row, adj_i.alpha > 0, or adj_i.alpha == 0 and (adj_i.sum X, *adj_i) is
lexicographically positive: adj.alpha >= floor, with floor_i 0 or 1.

On its first evaluation a ClosedForm compiles itself, once, into the one
layout both evaluators read, (exps, bases).  exps is the sorted list of the
form's distinct exponent tuples, a handful: at most 6 on the seeded corpus,
every order of the two stress systems and D59.  bases holds one
(d, adj, floor, totals) entry per basis, totals mapping each residue to
T_B's int numerators as a dense tuple over exps.  The compile walks the
sorted pieces once per basis, adding each piece's monomials into one list
per residue, and makes each list a tuple at the end.  eval_closed takes,
per basis, u = adj.alpha row by row, stopping at the first row below
floor; a basis that passes costs one lookup and one tuple addition.
eval_closed_box walks the box line by line along the last coordinate: u
steps by adj's last column, so each basis's test clips the line to one
range (linalg.int_range), and each point of that range looks up its own
residue.  Both end in _finish: one dot product with alpha's monomials,
skipping zero coefficients, and the count checked as a nonnegative
multiple of the denominator.  Neither makes a Fraction.
support_membership and MultiPoly.evaluate stay as the exact per-piece
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby, product
from math import comb, factorial, gcd, lcm, prod
from operator import add, itemgetter, mul

from . import toric
from .errors import BudgetError, InvariantError
from .expalg import ExpRatTerm
from .linalg import (Vec, cone_count, dot, int_range, orth_complement, scale, square_solver,
                     vadd, vsub)
from .toric import ReducedForm, _accumulate, _pack, _unpack, toric_reduce


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
        return _compile(self.source, self.numerators)


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


def _compile(source, numerators) -> tuple[list[Vec], list]:
    """A form's int numerators arranged for evaluation: (exps, bases).  exps
    is the sorted list of the form's distinct exponent tuples.  bases holds
    (d, adj, floor, totals) once per run of pieces on one basis, in order,
    with (d, adj) = linalg.square_solver(basis); _canonical sorts the pieces,
    so each basis of a form is one run.  totals maps each residue
    tuple(adj.offset mod d) to the sum of its pieces' numerators as a dense
    tuple over exps, 0 where no piece has such a monomial: each piece adds
    its monomials into one list per residue, through exps' index, and each
    list becomes its tuple once, at the end.
    floor[i] is 0 when adj_i pairs positively with the direction
    v = _interior(source) + eps*e_1 + eps^2*e_2 + ..., that is when
    (adj_i.v_0, *adj_i) is lexicographically positive, and 1 otherwise; so
    alpha + eps*v lies in the open cone of the basis iff adj.alpha >= floor.
    """
    exps = sorted(set().union(*[poly for _, _, poly in numerators]))
    index = {e: i for i, e in enumerate(exps)}
    v = _interior(source)
    zero = (0,) * (len(v) + 1)
    bases = []
    for basis, run in groupby(numerators, itemgetter(0)):
        d, adj = square_solver(basis)
        floor = tuple([int((sum(map(mul, row, v)), *row) < zero) for row in adj])
        totals: dict[tuple, list[int]] = {}
        for _, offset, poly in run:
            key = tuple([sum(map(mul, row, offset)) % d for row in adj])
            total = totals.get(key)
            if total is None:
                total = totals[key] = [0] * len(exps)
            for e, n in poly.items():
                total[index[e]] += n
        bases.append((d, adj, floor, {key: tuple(total) for key, total in totals.items()}))
    return exps, bases


def _interior(source) -> Vec:
    """sum X: a point inside cone(X), the leading term of the evaluators'
    direction v."""
    return tuple(map(sum, zip(*source)))


def support_membership(basis, offset: Vec, alpha: Vec) -> bool:
    """True iff alpha lies on offset + N*basis[0] + ... + N*basis[s-1]."""
    d, adj = square_solver(basis)
    if len(alpha) != len(adj) or len(offset) != len(adj):
        raise ValueError(f"point and offset must have the basis's dimension {len(adj)}")
    return bool(cone_count((d, adj, ()), vsub(tuple(alpha), tuple(offset))))


def inverse_laplace_term(term: ExpRatTerm) -> ConePiece:
    """One reduced term to one polynomial piece on a shifted lattice cone:
    closed_form's loop (_invert) on the one-term grouped sum, its one
    piece's int numerators over the term's divisor read back as Fractions.
    """
    denom = tuple((f.vector, f.power) for f in term.denom)
    L, acc = _invert({denom: {term.num.shift: term.num.coeff}})
    [((basis, offset), poly)] = acc.items()
    return ConePiece(basis, offset, MultiPoly({e: Fraction(n, L) for e, n in poly.items()}))


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
    The expansion keeps each monomial's exponents of alpha_1 .. alpha_s,
    t_1 .. t_s packed as one int (toric._pack), multiplies by
    toric._accumulate and unpacks each monomial once, into the table.

    The size is bounded before any product, by the smaller of two bounds.
    Factor i is a polynomial of degree h_i - 1 in t_i and the z_i
    coordinates of alpha where w_i is not 0, so it has at most
    C(h_i + z_i, z_i + 1) monomials, and the table at most their product.
    The whole table has total degree D = sum_i (h_i - 1) in 2s variables,
    so at most C(D + 2s, 2s) monomials; where the factors share alpha's
    coordinates, in dimension 2 and up, that one can be far smaller.  Both
    are exact on a power of one vector in dimension 1.  Past
    toric.TERM_BUDGET, read at each call, BudgetError.
    """
    basis = tuple(v for v, _ in denom)
    s = len(basis[0]) if basis else 0
    ws, size = [], 1
    for i, (_, h) in enumerate(denom):
        w = orth_complement(basis, i)
        ws.append(w)
        z = s - w.count(0)
        size *= comb(h + z, z + 1)
    size = min(size, comb(sum(h - 1 for _, h in denom) + 2 * s, 2 * s))
    if size > (budget := toric.TERM_BUDGET):
        raise BudgetError(f"the inversion's table of up to {size:,} monomials would pass "
                          f"the budget of {budget:,} terms")
    # exponents of the expansion, packed: alpha_1 .. alpha_s, then t_1 .. t_s
    unit = [_pack(tuple(int(k == i) for k in range(2 * s))) for i in range(2 * s)]
    poly = {0: 1}
    divisor = 1
    lift = (0,) * s
    for i, ((v, h), w) in enumerate(zip(denom, ws)):
        pair = dot(w, v)
        linear = [(e, x) for e, x in zip(unit, w) if x] + [(unit[s + i], 1)]
        for j in range(1, h):
            poly, num = {}, poly
            _accumulate(poly, num, linear + [(0, j * pair)])
        divisor *= factorial(h - 1) * pair ** (h - 1)
        lift = vadd(lift, scale(v, h - 1))
    table: dict[Vec, list] = {}
    for packed, r in poly.items():
        if r:
            e = _unpack(packed, 2 * s)
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


def closed_form(X, reduced: ReducedForm | None = None) -> ClosedForm:
    """Toric-reduce X and invert the grouped sum, rf.grouped as it is, one
    denominator at a time; pieces that share (basis, offset) merge.

    A caller that already holds toric_reduce(X) passes it as reduced, and X
    is not reduced again.  _invert's numerators go through _canonical:
    monomials that sum to zero and pieces left empty are dropped, and L and
    the numerators are divided by their gcd.  The result equals
    merge_pieces over inverse_laplace_term of every term.
    """
    rf = toric_reduce(X) if reduced is None else reduced
    if rf.source != tuple(tuple(a) for a in X):
        raise ValueError("reduced form belongs to another system")
    return _canonical(rf.source, *_invert(rf.grouped))


def _invert(grouped) -> tuple[int, dict[tuple, dict[Vec, int]]]:
    """(L, acc): a grouped sum inverted, acc mapping (basis, offset) to its
    int numerators {exponents: n} over L, the lcm of the divisors.  Each
    denominator's _inversion_data is looked up once, and each term
    q * e^{<c,x>} adds q * v * (L // divisor) per nonzero table value v."""
    data = {denom: _inversion_data(denom) for denom in grouped}
    L = lcm(*(divisor for _, _, _, divisor, _ in data.values()))
    acc: dict[tuple, dict[Vec, int]] = {}
    for denom, num in grouped.items():
        basis, ws, table, divisor, lift = data[denom]
        m = L // divisor
        for c, q in num.items():
            key = (basis, tuple([-x - y for x, y in zip(c, lift)]))
            qm, poly = q * m, acc.setdefault(key, {})
            for e, v in _table_at(table, [sum(map(mul, w, c)) for w in ws]):
                poly[e] = poly.get(e, 0) + qm * v
    return L, acc


# the per-term reference's merge
merge_pieces = ClosedForm.from_pieces


def eval_closed(cf: ClosedForm, alpha) -> int:
    """Exact count at one lattice point; always a nonnegative integer.

    Per basis, the chamber test adj.alpha >= floor row by row: the first
    row with adj_i.alpha < floor_i ends it, and a basis that passes looks up
    its total on the residues of the rows already computed and adds it with
    one tuple addition; _finish counts the sum.
    """
    alpha = tuple(alpha)
    if len(alpha) != len(cf.source[0]):
        raise ValueError(f"point {alpha} does not have dimension {len(cf.source[0])}")
    exps, bases = cf._compiled
    acc = None
    for d, adj, floor, totals in bases:
        key = []
        for row, f in zip(adj, floor):
            u = sum(map(mul, row, alpha))
            if u < f:
                break
            key.append(u % d)
        else:
            hit = totals.get(tuple(key))
            if hit is not None:
                acc = hit if acc is None else tuple(map(add, acc, hit))
    return _finish(acc or (), exps, cf.denominator, alpha)


def _finish(acc, exps, denominator: int, alpha: Vec) -> int:
    """The count at alpha of the summed totals acc: their dot product with
    alpha's monomials, over the exponent tuples whose coefficient is not 0,
    through _count."""
    total = 0
    for c, e in zip(acc, exps):
        if c:
            total += c * prod(map(pow, alpha, e))
    return _count(total, denominator, alpha)


def _count(numerator: int, denominator: int, alpha: Vec) -> int:
    """numerator / denominator as a count; InvariantError unless it is a
    nonnegative integer."""
    if numerator % denominator or numerator < 0:
        raise InvariantError("closed form produced non-count value "
                             f"{Fraction(numerator, denominator)} at {alpha}")
    return numerator // denominator


def eval_closed_box(cf: ClosedForm, lo: Vec, hi: Vec) -> dict[Vec, int]:
    """Counts for every lattice point of the box, by eval_closed's rule
    applied line by line along the last coordinate.

    On the line head + t*e_s, t = 0 .. hi_s - lo_s from its first point,
    u = adj.alpha steps by adj's last column, so a basis's chamber test
    u >= floor clips t to one range (linalg.int_range), and each t of it
    looks up its total by its residue (u + t*step) mod d.  Each point keeps
    the sum of the totals that reach it, and _finish counts it.
    """
    s = len(cf.source[0])
    if len(lo) != s or len(hi) != s:
        raise ValueError(f"box corners {tuple(lo)} and {tuple(hi)} do not have dimension {s}")
    exps, bases = cf._compiled
    t_lo, span = lo[-1], hi[-1] - lo[-1]
    out = {}
    for head in product(*[range(l, h + 1) for l, h in zip(lo[:-1], hi[:-1])]):
        first = (*head, t_lo)
        line = [None] * (span + 1)
        for d, adj, floor, totals in bases:
            u = [sum(map(mul, row, first)) for row in adj]
            step = [row[-1] for row in adj]
            for t in _chamber_range(u, step, floor, span):
                hit = totals.get(tuple([(x + t * c) % d for x, c in zip(u, step)]))
                if hit is not None:
                    had = line[t]
                    line[t] = hit if had is None else tuple(map(add, had, hit))
        for t, acc in enumerate(line):
            if acc is not None:
                alpha = (*head, t_lo + t)
                n = _finish(acc, exps, cf.denominator, alpha)
                if n:
                    out[alpha] = n
    return out


def _chamber_range(u, step, floor, span: int) -> range:
    """The t in 0 .. span with u + t*step >= floor coordinatewise: the
    points of a box line that pass a basis's chamber test."""
    return int_range([(-c, x - f) for c, x, f in zip(step, u, floor)], 0, span)
