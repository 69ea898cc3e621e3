import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EX1, EX2, random_pointed_systems
from dtpower.engines import box_points, brute_force_count
from dtpower.expalg import DenomFactor, make_term
from dtpower.linalg import pointedness_certificate
from dtpower.quasipoly import (MultiPoly, closed_form, eval_closed,
                               eval_closed_box, inverse_laplace_term,
                               merge_pieces, support_membership)
from dtpower.toric import toric_reduce


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


class TestSupportMembership:
    def test_scalar_even_lattice(self):
        assert support_membership([(2,)], (-4,), (0,))
        assert not support_membership([(2,)], (-4,), (1,))
        assert not support_membership([(2,)], (-4,), (-6,))

    def test_planar_half_integer(self):
        basis = [(1, 0), (-1, 2)]
        assert not support_membership(basis, (0, 0), (0, 1))
        assert support_membership(basis, (0, 0), (0, 2))


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
            cert = pointedness_certificate(X)
            for a in box:
                assert eval_closed(cf, (a,)) == brute_force_count(X, (a,), cert)

    def test_reuses_given_reduction(self, monkeypatch):
        rf = toric_reduce(EX2)
        monkeypatch.setattr("dtpower.quasipoly.toric_reduce", None)
        assert closed_form(EX2, rf) == merge_pieces(
            EX2, [inverse_laplace_term(t) for t in rf.sum.terms])

    def test_reduction_of_another_system_rejected(self):
        with pytest.raises(ValueError):
            closed_form(EX2, toric_reduce(EX1))

    def test_planar_matches_brute_force(self):
        cf = closed_form(EX2)
        cert = pointedness_certificate(EX2)
        for a in itertools.product(range(-6, 13), repeat=2):
            assert eval_closed(cf, a) == brute_force_count(EX2, a, cert)


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
    """eval_closed_box clips each piece's last cone coordinate to the box;
    it must agree with pointwise evaluation everywhere."""

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

    def test_corpus_reaches_every_clip_branch(self):
        # last basis vectors with positive, negative and zero coordinates
        lasts = [p.basis[-1] for i in range(len(CORPUS)) for p in corpus_form(i).pieces
                 if len(p.basis) > 1]
        for branch in (lambda c: c > 0, lambda c: c < 0, lambda c: c == 0):
            assert any(branch(c) for v in lasts for c in v)


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
