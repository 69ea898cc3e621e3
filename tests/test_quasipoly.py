import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import D59, EX1, EX2, STRESS_B, pinned_inputs, random_pointed_systems
from dtpower import quasipoly, toric
from dtpower.cli import closed_form_from_json, closed_form_to_json
from dtpower.engines import box_points, brute_force_count, dm_count
from dtpower.errors import BudgetError, InvariantError
from dtpower.expalg import DenomFactor, make_term
from dtpower.linalg import column_solver, dot, pointedness_certificate, rank, solve_square, vsub
from dtpower.quasipoly import (ClosedForm, ConePiece, MultiPoly, closed_form,
                               eval_closed, eval_closed_box,
                               inverse_laplace_term, merge_pieces,
                               support_membership)
from dtpower.toric import toric_reduce


CLOSED_FORMS = Path(__file__).parent / "golden" / "closed-forms.txt"


@lru_cache(maxsize=None)
def d59_reduced():
    return toric_reduce(D59)


@lru_cache(maxsize=None)
def d59_form():
    return closed_form(D59, d59_reduced())


@lru_cache(maxsize=None)
def pinned_forms():
    """(label, X, toric_reduce(X), closed_form(X)) for each pinned input."""
    out = []
    for label, X in pinned_inputs():
        rf = toric_reduce(X)
        out.append((label, X, rf, closed_form(X, rf)))
    return out


def poly_of(coeffs):
    return MultiPoly({e: Fraction(c) for e, c in coeffs.items()})


class TestInverseLaplaceTerm:
    def test_scalar_cubed(self):
        # 1 / (1-e^{-2x})^3  ->  (x+2)(x+4)/8 on -4 + 2N
        term = make_term(1, (0,), [DenomFactor((2,), 3)])
        piece = inverse_laplace_term(term)
        assert piece.basis == ((2,),)
        assert piece.offset == (-4,)
        assert piece.poly.monomials == poly_of(
            {(2,): Fraction(1, 8), (1,): Fraction(3, 4), (0,): 1}).monomials

    def test_all_powers_one(self):
        term = make_term(1, (0, 0), [DenomFactor((1, 0), 1), DenomFactor((0, 1), 1)])
        piece = inverse_laplace_term(term)
        assert piece.offset == (0, 0)
        assert piece.poly.monomials == {(0, 0): 1}

    def test_planar_double_pole(self):
        # basis {(1,0),(-1,2)}, powers (2,1) -> (2x+y+2)/2 shifted by -(1,0)
        term = make_term(1, (0, 0), [DenomFactor((1, 0), 2), DenomFactor((-1, 2), 1)])
        piece = inverse_laplace_term(term)
        assert piece.offset == (-1, 0)
        assert piece.poly.monomials == poly_of(
            {(1, 0): 1, (0, 1): Fraction(1, 2), (0, 0): 1}).monomials

    def test_dependent_denominators_rejected(self):
        term = make_term(1, (0, 0), [DenomFactor((1, 0), 1), DenomFactor((2, 0), 1)])
        with pytest.raises(ValueError):
            inverse_laplace_term(term)

    def test_matches_inversion_term_by_term(self):
        # every term of the pinned inputs, and every 97th of D59's, against
        # the linear factors multiplied out for each term on its own
        terms = [t for _, _, rf, _ in pinned_forms() for t in rf.sum.terms]
        terms += d59_reduced().sum.terms[::97]
        for t in terms:
            assert inverse_laplace_term(t) == reference_inverse(t), t

    def test_denominator_data_built_once_per_denominator(self):
        quasipoly._inversion_data.cache_clear()
        rf = toric_reduce(STRESS_B)
        closed_form(STRESS_B, rf)
        info = quasipoly._inversion_data.cache_info()
        denominators = {t.denom for t in rf.sum.terms}
        assert info.misses == len(rf.grouped) == len(denominators) < len(rf.sum.terms)
        assert info.hits == 0
        quasipoly._inversion_data.cache_clear()


def reference_inverse(term):
    """One term's piece, its linear factors <w_i, alpha + c> + j * pair_i
    multiplied out over Fraction for this term alone."""
    basis = tuple(f.vector for f in term.denom)
    s = len(basis[0])
    _, adj, _ = column_solver(basis)
    c = term.num.shift
    poly = {(0,) * s: Fraction(term.num.coeff)}
    offset = tuple(-x for x in c)
    for i, f in enumerate(term.denom):
        g = math.gcd(*adj[i])
        w = tuple(x // g for x in adj[i])
        pair = sum(x * y for x, y in zip(w, f.vector))
        wc = sum(x * y for x, y in zip(w, c))
        for j in range(1, f.power):
            linear = {tuple(int(k == m) for k in range(s)): w[m] for m in range(s) if w[m]}
            linear[(0,) * s] = linear.get((0,) * s, 0) + wc + j * pair
            out = {}
            for e1, q in poly.items():
                for e2, r in linear.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    out[e] = out.get(e, 0) + q * r
            poly = out
            poly = {e: q / pair for e, q in poly.items()}
        poly = {e: q / math.factorial(f.power - 1) for e, q in poly.items()}
        offset = tuple(o - (f.power - 1) * b for o, b in zip(offset, f.vector))
    return ConePiece(basis, offset, MultiPoly({e: q for e, q in poly.items() if q}))


class TestHighPower:
    """150 copies of (1,): one term, 1 / (1 - e^{-x})^150, whose inversion
    is a polynomial of degree 149 in alpha and in its pairing t."""

    X = ((1,),) * 150

    def test_counts_are_binomials(self):
        cf = closed_form(self.X)
        for a in (0, 3, 149, 10**6):
            assert eval_closed(cf, (a,)) == math.comb(a + 149, 149), a
        assert eval_closed(cf, (-1,)) == 0

    def test_single_term_matches_reference(self):
        [term] = toric_reduce(self.X).sum.terms
        assert inverse_laplace_term(term) == reference_inverse(term)


class TestInversionBudget:
    """_inversion_data bounds its table before any product: on n copies of
    (1,), C(n + 1, 2) monomials, against toric.TERM_BUDGET read at the
    call.  A cached denominator skips the check, so the cache is cleared."""

    X = ((1,),) * 20
    # one denominator each, powers 15, 15 and 5, 5, 5: the product bound
    # is 462,400 and 343,000, past the default budget; the joint bound
    # C(D + 2s, 2s) is 35,960 and 18,564, over tables of 31,186 and 12,708
    SHARED = {"2-D": [(2, 1)] * 15 + [(1, 2)] * 15,
              "3-D": [(1, 1, 0), (0, 1, 1), (1, 0, 1)] * 5}

    def test_past_the_budget_raises_before_any_product(self, monkeypatch):
        monkeypatch.setattr(toric, "TERM_BUDGET", 100)
        monkeypatch.setattr(quasipoly, "_accumulate", lambda *args: pytest.fail("product built"))
        quasipoly._inversion_data.cache_clear()
        with pytest.raises(BudgetError, match="up to 210 monomials would pass the budget of 100 terms"):
            closed_form(self.X)

    def test_bound_at_the_budget_is_admitted(self, monkeypatch):
        monkeypatch.setattr(toric, "TERM_BUDGET", 210)
        quasipoly._inversion_data.cache_clear()
        try:
            assert eval_closed(closed_form(self.X), (3,)) == math.comb(22, 19)
        finally:
            quasipoly._inversion_data.cache_clear()

    @pytest.mark.parametrize("name", SHARED)
    def test_shared_coordinates_are_admitted(self, name):
        X = self.SHARED[name]
        quasipoly._inversion_data.cache_clear()
        cf = closed_form(X)
        s = len(X[0])
        for alpha in box_points((0,) * s, (4,) * s):
            assert eval_closed(cf, alpha) == dm_count(X, alpha), alpha

    def test_joint_bound_is_the_one_checked(self, monkeypatch):
        X = self.SHARED["2-D"]
        monkeypatch.setattr(toric, "TERM_BUDGET", 35_959)
        quasipoly._inversion_data.cache_clear()
        try:
            with pytest.raises(BudgetError, match="up to 35,960 monomials"):
                closed_form(X)
            monkeypatch.setattr(toric, "TERM_BUDGET", 35_960)
            assert eval_closed(closed_form(X), (3, 3)) == dm_count(X, (3, 3))
        finally:
            quasipoly._inversion_data.cache_clear()


class TestSupportMembership:
    def test_scalar_even_lattice(self):
        assert support_membership([(2,)], (-4,), (0,))
        assert not support_membership([(2,)], (-4,), (1,))
        assert not support_membership([(2,)], (-4,), (-6,))

    def test_planar_half_integer(self):
        basis = [(1, 0), (-1, 2)]
        assert not support_membership(basis, (0, 0), (0, 1))
        assert support_membership(basis, (0, 0), (0, 2))

    def test_singular_basis_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            support_membership([(1, 2), (2, 4)], (0, 0), (3, 6))


class TestClosedForm:
    def test_scalar_example_pieces(self):
        cf = closed_form(EX1)
        assert len(cf.pieces) == 3
        by_offset = {p.offset: p for p in cf.pieces}
        assert set(by_offset) == {(-4,), (-3,), (-2,)}
        # (x+2)(x+4)/8, 2(x+1)(x+3)/8, x(x+2)/8
        assert by_offset[(-4,)].poly.evaluate((2,)) == Fraction(3)
        assert by_offset[(-3,)].poly.evaluate((1,)) == Fraction(2)
        assert by_offset[(-2,)].poly.evaluate((2,)) == Fraction(1)

    def test_independent_system(self):
        cf = closed_form([(1, 0), (0, 1)])
        (piece,) = cf.pieces
        assert piece.offset == (0, 0)
        assert piece.poly.monomials == {(0, 0): 1}

    def test_matches_brute_force_on_boxes(self):
        for X, box in [(EX1, range(-6, 13)), ([(2,), (3,)], range(-6, 13))]:
            cf = closed_form(X)
            for a in box:
                assert eval_closed(cf, (a,)) == brute_force_count(X, (a,))

    def test_reuses_given_reduction(self, monkeypatch):
        rf = toric_reduce(EX2)
        monkeypatch.setattr("dtpower.quasipoly.toric_reduce", None)
        assert closed_form(EX2, rf) == merge_pieces(
            EX2, [inverse_laplace_term(t) for t in rf.sum.terms])

    @pytest.mark.parametrize("factor", [Fraction(1, 2), -1])
    def test_equality_compares_polynomials(self, factor):
        cf = closed_form(EX2)
        for k in range(len(cf.pieces)):
            bad = corrupted(cf, k, factor)
            assert bad != cf
            assert hash(bad) == hash(cf)  # the hash leaves polynomials out
        assert closed_form(EX2) == cf

    def test_reduction_of_another_system_rejected(self):
        with pytest.raises(ValueError):
            closed_form(EX2, toric_reduce(EX1))

    def test_planar_matches_brute_force(self):
        cf = closed_form(EX2)
        for a in itertools.product(range(-6, 13), repeat=2):
            assert eval_closed(cf, a) == brute_force_count(EX2, a)


class TestPinnedOutput:
    def test_closed_forms_match_golden_digests(self):
        # sha256 of the sorted-key JSON of closed_form(X), written before the
        # inversion moved to int; any change to a piece or a coefficient shows
        want = dict(line.split() for line in CLOSED_FORMS.read_text().splitlines())
        got = {}
        for label, _, _, cf in pinned_forms():
            doc = json.dumps(closed_form_to_json(cf), sort_keys=True)
            got[label] = hashlib.sha256(doc.encode()).hexdigest()
        assert len(want) == 100
        assert got == want


class TestGroupedInversion:
    """closed_form inverts the reduction's grouped sum one denominator at a
    time; inverse_laplace_term and merge_pieces are its per-term reference."""

    def test_goldens_without_terms(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("closed_form went through the per-term path")

        monkeypatch.setattr(toric, "_to_sum", refuse)
        monkeypatch.setattr(quasipoly, "inverse_laplace_term", refuse)
        monkeypatch.setattr(quasipoly, "merge_pieces", refuse)
        want = dict(line.split() for line in CLOSED_FORMS.read_text().splitlines())
        labels = [label for label, _ in pinned_inputs() if not label.startswith("seeded")]
        assert len(labels) == 50
        inputs = dict(pinned_inputs())
        for label in labels:
            doc = json.dumps(closed_form_to_json(closed_form(inputs[label])), sort_keys=True)
            assert hashlib.sha256(doc.encode()).hexdigest() == want[label], label

    def test_closed_form_makes_no_fraction(self, monkeypatch):
        calls = []
        new = Fraction.__new__

        def counted(*args, **kwargs):
            calls.append(args)
            return new(*args, **kwargs)

        for X in (EX1, EX2, STRESS_B):
            rf = toric_reduce(X)
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
            cf = closed_form(X, rf)
            monkeypatch.undo()
            assert calls == [], X
            assert cf.denominator > 1 and len(cf.numerators) > 1
        # the counter sees a Fraction once one is made
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        assert cf.pieces
        monkeypatch.undo()
        assert calls

    def test_matches_per_term_reference(self):
        for X, cf, want in per_term_cases():
            assert cf == want, X

    def test_canonical_whichever_way_built(self):
        # closed_form, its JSON round trip and the per-term merge give ==
        # forms over the same least denominator; the document is plain
        # lists, strs and ints, so the round trip skips the text
        integral = 0
        for X, cf, merged in per_term_cases():
            back = closed_form_from_json(closed_form_to_json(cf))
            for other in (back, merged):
                assert other == cf and other.denominator == cf.denominator, X
            numerators = [n for _, _, poly in cf.numerators for n in poly.values()]
            assert math.gcd(cf.denominator, *numerators) == 1, X
            if all(n % cf.denominator == 0 for n in numerators):
                assert cf.denominator == 1, X
                integral += 1
        assert integral > 0


@lru_cache(maxsize=None)
def per_term_cases():
    """(X, closed_form(X), merge_pieces over inverse_laplace_term of its
    terms) for the pinned inputs and D59."""
    cases = [(X, rf, cf) for _, X, rf, cf in pinned_forms()]
    cases.append((D59, d59_reduced(), d59_form()))
    return [(X, cf, merge_pieces(X, [inverse_laplace_term(t) for t in rf.sum.terms]))
            for X, rf, cf in cases]


class TestEvalClosed:
    def test_scalar_values(self):
        cf = closed_form(EX1)
        assert [eval_closed(cf, (a,)) for a in (2, 1, 0, -1)] == [4, 2, 1, 0]

    def test_planar_values(self):
        cf = closed_form(EX2)
        assert eval_closed(cf, (1, 1)) == 1
        assert eval_closed(cf, (0, 2)) == 2
        assert eval_closed(cf, (0, 4)) == 3

    def test_far_outside_cone_is_zero(self):
        for X in (EX1, EX2):
            cf = closed_form(X)
            away = tuple(-sum(v[k] for v in X) for k in range(len(X[0])))
            assert eval_closed(cf, away) == 0

    def test_box_evaluator_agrees_pointwise(self):
        cf = closed_form(EX2)
        lo, hi = (-5, -5), (9, 9)
        table = eval_closed_box(cf, lo, hi)
        for a in itertools.product(range(-5, 10), repeat=2):
            assert table.get(a, 0) == eval_closed(cf, a)


CORPUS = random_pointed_systems()


@lru_cache(maxsize=None)
def corpus_form(i):
    return closed_form(CORPUS[i])


@st.composite
def corpus_boxes(draw):
    """(index, lo, hi, kind): a seeded corpus system and a box that is random,
    a single point, far negative in one lower coordinate, or wholly outside
    the cone (every point pairs negatively with the pointedness certificate)."""
    i = draw(st.integers(0, len(CORPUS) - 1))
    X = CORPUS[i]
    s = len(X[0])
    kind = draw(st.sampled_from(["random", "single", "far-negative", "outside"]))
    lo = tuple(draw(st.integers(-6, 12)) for _ in range(s))
    if kind == "single":
        hi = lo
    else:
        width = {1: 30, 2: 8, 3: 4}[s]
        hi = tuple(l + draw(st.integers(0, width)) for l in lo)
    if kind == "far-negative":
        k = draw(st.integers(0, s - 1))
        lo = lo[:k] + (lo[k] - draw(st.integers(20, 60)),) + lo[k + 1:]
    if kind == "outside":
        xs, _ = pointedness_certificate(X).scaled()
        top = max(sum(x * c for x, c in zip(xs, corner))
                  for corner in itertools.product(*zip(lo, hi)))
        m = max(0, top // sum(x * x for x in xs) + 1)
        lo = tuple(l - m * x for l, x in zip(lo, xs))
        hi = tuple(h - m * x for h, x in zip(hi, xs))
    return i, lo, hi, kind


class TestBoxWalk:
    """eval_closed_box clips each box line to each basis's chamber; it must
    agree with pointwise evaluation everywhere."""

    @settings(max_examples=80, deadline=None)
    @given(corpus_boxes())
    def test_matches_pointwise(self, case):
        i, lo, hi, kind = case
        cf = corpus_form(i)
        table = eval_closed_box(cf, lo, hi)
        assert all(v > 0 and all(l <= c <= h for l, c, h in zip(lo, a, hi))
                   for a, v in table.items())
        if kind == "outside":
            assert table == {}
        for a in box_points(lo, hi):
            assert table.get(a, 0) == eval_closed(cf, a)

    @pytest.mark.parametrize("X", [
        ((0, 1, 1), (0, 1, -1), (1, 0, 0)),
        ((0, 1, 1), (0, 1, -1), (1, 0, 0), (1, 1, 0)),
    ])
    def test_zero_coordinate_of_last_vector(self, X):
        # the last basis vector is flat in y and z, while the corner ranges
        # of the other two coordinates overshoot the box there
        cf = closed_form(X)
        assert any(p.basis[-1][1] == 0 for p in cf.pieces)
        for lo, hi in [((-2, -2, -2), (4, 4, 4)), ((0, 3, -1), (2, 3, 5))]:
            table = eval_closed_box(cf, lo, hi)
            assert set(table) <= set(box_points(lo, hi))
            for a in box_points(lo, hi):
                assert table.get(a, 0) == eval_closed(cf, a)

    @pytest.mark.parametrize("lo,hi", [
        ((0, 2, 0), (0, 2, 0)),   # zip would cut it to (0, 2) and count 4
        ((0,), (0,)),
        ((0, 0), (1, 1, 1)),
    ])
    def test_box_of_another_dimension_rejected(self, lo, hi):
        cf = closed_form(EX2)
        assert eval_closed(cf, (0, 2)) == 2
        with pytest.raises(ValueError, match="dimension 2"):
            eval_closed_box(cf, lo, hi)

    @pytest.mark.parametrize("which", ["corpus", "d59"])
    def test_line_clip_is_the_pointwise_rule(self, which):
        # on every line of the box, each basis's clipped t range holds
        # exactly the points that pass the chamber rule, its tie-break
        # signs taken here from the direction itself
        if which == "corpus":
            cases = [(corpus_form(i), *verify_box(X)) for i, X in enumerate(CORPUS)]
        else:
            cases = [(d59_form(), (0, 0), (60, 60))]
        for cf, lo, hi in cases:
            v = tuple(map(sum, zip(*cf.source)))
            span = hi[-1] - lo[-1]
            for head in itertools.product(*[range(l, h + 1) for l, h in zip(lo[:-1], hi[:-1])]):
                for _, adj, floor, _ in cf._compiled[1]:
                    signs = [lex_sign((dot(row, v), *row)) for row in adj]
                    u = [dot(row, (*head, lo[-1])) for row in adj]
                    want = [t for t in range(span + 1)
                            if all(x + t * row[-1] > 0 or (x + t * row[-1] == 0 and sign > 0)
                                   for x, row, sign in zip(u, adj, signs))]
                    step = [row[-1] for row in adj]
                    assert list(quasipoly._chamber_range(u, step, floor, span)) == want


def verify_box(X):
    """The verify box of the benchmark's corpus: from -3 in each coordinate
    to 30, 12 or 6 by dimension."""
    s = len(X[0])
    return (-3,) * s, ({1: 30, 2: 12, 3: 6}[s],) * s


def lex_sign(v) -> int:
    """The sign of the first nonzero entry of v; 0 for the zero vector."""
    return next((1 if x > 0 else -1 for x in v if x), 0)


class TestStructure:
    def test_degree_bound_and_attainment(self, random_systems):
        for X in random_systems[:15]:
            s = len(X[0])
            cf = closed_form(X)
            degs = [p.poly.degree() for p in cf.pieces]
            assert all(d <= len(X) - s for d in degs)
            if len(X) > s:
                assert max(degs) == len(X) - s

    def test_merging_preserves_evaluation(self):
        X = EX2
        rf = toric_reduce(X)
        raw = [inverse_laplace_term(t) for t in rf.sum.terms]
        merged = merge_pieces(X, raw)
        rng = random.Random(42)
        for _ in range(20):
            a = (rng.randint(-8, 12), rng.randint(-8, 12))
            unmerged = sum(p.poly.evaluate(a)
                           for p in raw
                           if support_membership(p.basis, p.offset, a))
            assert unmerged == eval_closed(merged, a)

    def test_integrality_asserted(self, random_systems):
        rng = random.Random(7)
        for X in random_systems[:8]:
            s = len(X[0])
            cf = closed_form(X)
            for _ in range(10):
                a = tuple(rng.randint(-6, 12) for _ in range(s))
                v = eval_closed(cf, a)
                assert isinstance(v, int) and v >= 0


@lru_cache(maxsize=None)
def reference_cones(cf):
    """(r, M, pieces) per basis B of cf, built once per form: r the lcm of
    the denominators of B^-1, taken by the Fraction solve (solve_square),
    M = r * B^-1 over int, and pieces mapping each residue M.offset mod r
    to the (M.offset, int numerators) of the pieces on B with it."""
    cones = {}
    for basis, offset, poly in cf.numerators:
        if basis not in cones:
            s = len(basis)
            cols = [solve_square(basis, tuple(int(i == k) for i in range(s))) for k in range(s)]
            r = math.lcm(*(f.denominator for col in cols for f in col))
            cones[basis] = (r, [tuple(int(col[i] * r) for col in cols) for i in range(s)], {})
        r, M, pieces = cones[basis]
        low = tuple(dot(row, offset) for row in M)
        pieces.setdefault(tuple(x % r for x in low), []).append((low, tuple(poly.items())))
    return tuple(cones.values())


def reference_value(cf, a) -> Fraction:
    """The closed form at a by the reference path: the sum of the
    polynomials of the pieces whose cone holds a, every piece tested and
    evaluated on its own, over the form's denominator.  a lies on
    offset + N*B iff M.a - M.offset is a nonnegative multiple of r
    coordinatewise (see reference_cones); M.a is computed once per basis
    and point."""
    total = 0
    for r, M, pieces in reference_cones(cf):
        u = tuple(dot(row, a) for row in M)
        for low, poly in pieces.get(tuple(x % r for x in u), ()):
            if all(x >= y for x, y in zip(u, low)):
                total += sum(n * math.prod(x ** k for x, k in zip(a, e)) for e, n in poly)
    return Fraction(total, cf.denominator)


def far_point(X, coeffs):
    """sum c_i x_i: a point of the cone generated by X."""
    return tuple(sum(c * v[k] for c, v in zip(coeffs, X)) for k in range(len(X[0])))


@st.composite
def corpus_points(draw):
    """(index, point): a seeded corpus system and a point far in its cone,
    one vector below such a point, its negative, a nudge off it, or the apex
    of one of the system's pieces."""
    i = draw(st.integers(0, len(CORPUS) - 1))
    X = CORPUS[i]
    s = len(X[0])
    kind = draw(st.sampled_from(["far", "minus-x", "negative", "off-lattice", "apex"]))
    a = far_point(X, draw(st.lists(st.integers(0, 1000), min_size=len(X), max_size=len(X))))
    if kind == "minus-x":
        x = draw(st.sampled_from(X))
        a = tuple(c - d for c, d in zip(a, x))
    elif kind == "negative":
        a = tuple(-c for c in a)
    elif kind == "off-lattice":
        nudge = draw(st.lists(st.integers(-3, 3), min_size=s, max_size=s))
        a = tuple(c + d for c, d in zip(a, nudge))
    elif kind == "apex":
        a = draw(st.sampled_from(corpus_form(i).pieces)).offset
    return i, a


class TestCompiledEvaluator:
    """eval_closed and eval_closed_box evaluate a compiled form (per basis
    and residue one total of int numerators over one denominator, counted
    where alpha + eps*v lies in the basis's cone); they must equal the
    reference sum over the pieces whose cone holds the point exactly."""

    @settings(max_examples=300, deadline=None)
    @given(corpus_points())
    def test_matches_reference(self, case):
        i, a = case
        cf = corpus_form(i)
        want = reference_value(cf, a)
        assert eval_closed(cf, a) == want
        assert eval_closed_box(cf, a, a) == ({a: want} if want else {})

    def test_every_apex_matches_reference(self):
        for i in range(len(CORPUS)):
            cf = corpus_form(i)
            for p in cf.pieces:
                assert eval_closed(cf, p.offset) == reference_value(cf, p.offset)

    def test_compiled_once_per_form(self):
        cf = closed_form(EX2)
        assert "_compiled" not in vars(cf)
        eval_closed(cf, (0, 4))
        compiled = vars(cf)["_compiled"]
        eval_closed_box(cf, (0, 0), (3, 3))
        assert vars(cf)["_compiled"] is compiled

    def test_point_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension 2"):
            eval_closed(closed_form(EX2), (0, 2, 0))

    @pytest.mark.parametrize("lo,hi", [((0, 0), (6, 6)), ((500, 900), (505, 905))])
    def test_box_walk_matches_points_on_d59(self, lo, hi):
        # bases up to |det| 59, where one residue bucket holds hundreds of pieces
        cf = d59_form()
        want = {a: n for a in box_points(lo, hi) if (n := eval_closed(cf, a))}
        assert eval_closed_box(cf, lo, hi) == want

    def test_compile_is_exact(self):
        # the pinned forms, D59's, and every corpus form read back from JSON
        forms = [cf for _, _, _, cf in pinned_forms()]
        forms.append(d59_form())
        forms += [closed_form_from_json(json.loads(json.dumps(closed_form_to_json(corpus_form(i)))))
                  for i in range(len(CORPUS))]
        for cf in forms:
            exps, compiled = quasipoly._compile(cf.source, cf.numerators)
            polys = {(basis, offset): poly for basis, offset, poly in cf.numerators}
            # the form's exponent tuples, sorted, each once
            assert exps == sorted({e for poly in polys.values() for e in poly})
            assert all(e < f for e, f in zip(exps, exps[1:]))
            # each basis once, in order of first sight, with column_solver's (d, adj)
            bases = list(dict.fromkeys(b for b, _ in polys))
            assert len(compiled) == len(bases)
            v = tuple(map(sum, zip(*cf.source)))
            for basis, (d, adj, floor, totals) in zip(bases, compiled):
                assert (d, adj, ()) == column_solver(basis)
                # 1 exactly where the direction sum X, tie-broken by the unit
                # vectors in order, pairs negatively with the adjugate row
                assert floor == tuple(int(lex_sign((dot(row, v), *row)) < 0) for row in adj)
                # per residue adj.offset mod d, the sum of its pieces' numerators at exps
                want = {}
                for (b, offset), poly in polys.items():
                    if b == basis:
                        key = tuple(dot(row, offset) % d for row in adj)
                        total = want.setdefault(key, {})
                        for e, n in poly.items():
                            total[e] = total.get(e, 0) + n
                assert set(totals) == set(want)
                for key, coeffs in totals.items():
                    assert len(coeffs) == len(exps)
                    assert all(type(n) is int for n in coeffs)
                    assert dict(zip(exps, coeffs)) == {e: want[key].get(e, 0) for e in exps}

    def test_compiled_layout_is_pinned(self):
        # sha256 of repr((exps, bases)) for the pinned forms and D59's,
        # taken when the compile still built one dense tuple per piece
        forms = [cf for _, _, _, cf in pinned_forms()]
        layouts = [quasipoly._compile(cf.source, cf.numerators) for cf in forms]
        assert hashlib.sha256(repr(layouts).encode()).hexdigest() == \
            "b269bbd5537e8f9bda2c3f4c4ba4cc7757adae39c3d8a8ae5562ceac7887ca10"
        cf = d59_form()
        assert hashlib.sha256(repr(quasipoly._compile(cf.source, cf.numerators)).encode()).hexdigest() == \
            "291c397746b25691986b1a1dfcd7011eb668b3428e923c7bb017e76e3a12ae43"

    @pytest.mark.parametrize("X", [EX2, STRESS_B])
    def test_basis_in_two_runs(self, X):
        # a hand-built form where one piece of a basis with several is moved
        # past the other bases' pieces, so the basis makes two runs: the
        # compile gives it one entry per run, and both evaluators still count
        # by the per-piece reference, support_membership and MultiPoly.evaluate
        cf = closed_form(X)
        pieces = list(cf.numerators)
        bases = [b for b, _, _ in pieces]
        i = next(i for i, b in enumerate(bases) if bases.count(b) > 1)
        moved = pieces.pop(i)
        pieces = pieces + [moved] if bases[-1] != moved[0] else [moved] + pieces
        split = ClosedForm(cf.source, cf.denominator, tuple(pieces))
        assert len(split._compiled[1]) == len(set(bases)) + 1
        lo, hi = wall_box(X)
        want = {}
        for a in box_points(lo, hi):
            value = sum((p.poly.evaluate(a) for p in split.pieces
                         if support_membership(p.basis, p.offset, a)), Fraction(0))
            assert eval_closed(split, a) == value, a
            if value:
                want[a] = value
        assert eval_closed_box(split, lo, hi) == want

    def test_matches_reference_on_cone_boundaries(self):
        # each piece's apex, and one basis vector below it, on every pinned form:
        # points where a coordinate of adj.alpha - adj.offset is 0 or -d
        for label, _, _, cf in pinned_forms():
            points = {offset for _, offset, _ in cf.numerators}
            points |= {vsub(offset, b) for basis, offset, _ in cf.numerators for b in basis}
            for a in sorted(points):
                assert eval_closed(cf, a) == reference_value(cf, a), (label, a)

    def test_matches_reference_far_on_d59(self):
        cf = d59_form()
        rng = random.Random(59)
        for _ in range(50):
            a = (rng.randint(10**5, 10**7), rng.randint(10**5, 10**7))
            assert eval_closed(cf, a) == reference_value(cf, a), a

    @pytest.mark.parametrize("X", [EX2, STRESS_B])
    def test_compile_makes_no_fraction(self, X, monkeypatch):
        cf = closed_form(X)
        calls = []

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted("__new__", Fraction.__new__)))
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
        exps, bases = cf._compiled
        assert exps and bases
        assert calls == []
        # the counters see a product once one is made
        assert Fraction(1, 2) * 3 == 3 * Fraction(1, 2)
        assert {"__new__", "__mul__", "__rmul__"} <= set(calls)


def boundary_points(X, reach):
    """Points on and beside the cone walls of X: k*x for each x in X and
    k = 0 .. reach, each moved by every vector of {-1, 0, 1}^s, and the
    negatives of all of them, which lie outside cone(X) but for the origin."""
    s = len(X[0])
    near = set()
    for x in X:
        for k in range(reach + 1):
            for e in itertools.product((-1, 0, 1), repeat=s):
                p = tuple(k * c + n for c, n in zip(x, e))
                near |= {p, tuple(-c for c in p)}
    return sorted(near)


def wall_box(X):
    """A box around the origin that every ray of X crosses: [-3, 6]^s, or
    [-2, 4]^3 in dimension 3."""
    s = len(X[0])
    return (-3 if s < 3 else -2,) * s, (6 if s < 3 else 4,) * s


class TestChamberRule:
    """Both evaluators count a basis's total at alpha iff alpha + eps*v lies
    in its cone, v = sum X plus ever smaller multiples of the unit vectors:
    adj_i.alpha > 0, or adj_i.alpha == 0 and adj_i pairs positively with v.
    That tie-break is what makes the rule exact on the walls and at the
    origin; these tests pin it against the per-piece reference."""

    def test_matches_reference_on_walls_of_pinned_forms(self):
        for label, X, _, cf in pinned_forms():
            lo, hi = wall_box(X)
            want = {a: int(n) for a in box_points(lo, hi) if (n := reference_value(cf, a))}
            assert eval_closed_box(cf, lo, hi) == want, label
            for a in boundary_points(X, 3):
                assert eval_closed(cf, a) == reference_value(cf, a), (label, a)

    def test_matches_reference_on_walls_of_d59(self):
        cf = d59_form()
        lo, hi = (-6, -6), (12, 12)
        want = {a: int(n) for a in box_points(lo, hi) if (n := reference_value(cf, a))}
        assert eval_closed_box(cf, lo, hi) == want
        for a in boundary_points(D59, 4):
            assert eval_closed(cf, a) == reference_value(cf, a), a

    def test_another_interior_direction_gives_the_same_counts(self, monkeypatch):
        # sum k*x_k also lies inside cone(X), in another chamber for some
        # forms; fresh instances compile under it
        forms = [(X, cf) for _, X, _, cf in pinned_forms()] + [(D59, d59_form())]
        before = {}
        for X, cf in forms:
            lo, hi = wall_box(X)
            before[X] = (cf._compiled[1], eval_closed_box(cf, lo, hi),
                         [eval_closed(cf, a) for a in boundary_points(X, 3)])
        monkeypatch.setattr(quasipoly, "_interior", lambda source: tuple(
            sum(k * x[j] for k, x in enumerate(source, 1)) for j in range(len(source[0]))))
        moved = 0
        for X, cf in forms:
            fresh = ClosedForm(cf.source, cf.denominator, cf.numerators)
            lo, hi = wall_box(X)
            compiled, box, points = before[X]
            moved += [f for _, _, f, _ in fresh._compiled[1]] != [f for _, _, f, _ in compiled]
            assert eval_closed_box(fresh, lo, hi) == box, X
            assert [eval_closed(fresh, a) for a in boundary_points(X, 3)] == points, X
        assert moved >= 10


def corrupted(cf, k, factor):
    """cf with the coefficients of piece k multiplied by factor."""
    pieces = list(cf.pieces)
    p = pieces[k]
    pieces[k] = ConePiece(p.basis, p.offset,
                          MultiPoly({e: c * factor for e, c in p.poly.monomials.items()}))
    return ClosedForm.from_pieces(cf.source, pieces)


class TestCorruptedForm:
    """A form whose values are not counts must fail loudly in both
    evaluators; InvariantError is raised explicitly, so python -O keeps it."""

    @pytest.mark.parametrize("X", [EX1, EX2, ((1, 0), (0, 1))])
    @pytest.mark.parametrize("factor", [Fraction(1, 2), -1])
    def test_both_evaluators_raise(self, X, factor):
        s = len(X[0])
        lo, hi = (-6,) * s, (12,) * s
        cf = closed_form(X)
        # the first piece whose corruption the reference sees in the box
        bad, a = next((bad, a) for bad in (corrupted(cf, k, factor) for k in range(len(cf.pieces)))
                      for a in box_points(lo, hi)
                      if (v := reference_value(bad, a)).denominator != 1 or v < 0)
        with pytest.raises(InvariantError, match="non-count value"):
            eval_closed(bad, a)
        with pytest.raises(InvariantError, match="non-count value"):
            eval_closed_box(bad, lo, hi)
        with pytest.raises(InvariantError, match="non-count value"):
            eval_closed_box(bad, a, a)


# (i, j): removing vector j of corpus system i leaves a full-rank system
REMOVABLE = [(i, j) for i, X in enumerate(CORPUS) for j in range(len(X))
             if rank(X[:j] + X[j + 1:]) == len(X[0])]


@lru_cache(maxsize=None)
def corpus_form_without(i, j):
    X = CORPUS[i]
    return closed_form(X[:j] + X[j + 1:])


class TestClosedFormProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, len(CORPUS) - 1), st.randoms(use_true_random=False))
    def test_json_round_trip(self, i, rng):
        cf = corpus_form(i)
        back = closed_form_from_json(json.loads(json.dumps(closed_form_to_json(cf))))
        assert back.source == cf.source
        assert [(p.basis, p.offset, p.poly.monomials) for p in back.pieces] == \
            [(p.basis, p.offset, p.poly.monomials) for p in cf.pieces]
        X = CORPUS[i]
        for _ in range(5):
            a = far_point(X, [rng.randint(0, 1000) for _ in X])
            a = tuple(c + rng.randint(-3, 3) for c in a)
            assert eval_closed(back, a) == eval_closed(cf, a)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_removal_identity_far(self, data):
        # t_X(a) - t_X(a - x) = t_{X minus x}(a)
        i, j = data.draw(st.sampled_from(REMOVABLE))
        X = CORPUS[i]
        a = far_point(X, data.draw(st.lists(st.integers(0, 1000),
                                            min_size=len(X), max_size=len(X))))
        below = tuple(c - d for c, d in zip(a, X[j]))
        cf = corpus_form(i)
        assert eval_closed(cf, a) - eval_closed(cf, below) == \
            eval_closed(corpus_form_without(i, j), a)
