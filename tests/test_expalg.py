import random
from fractions import Fraction

import pytest

from conftest import D59
from dtpower import expalg
from dtpower.errors import InvariantError
from dtpower.expalg import (MODULUS, DenomFactor, SingularPoint, add, eval_numeric,
                            geometric_factor, laplace_generating, make_sum,
                            make_term, monomial, mul, random_generic_point,
                            spot_check)
from dtpower.toric import listing, toric_reduce


class TestLaplaceGenerating:
    def test_scalar_system_merges_repeats(self):
        t = laplace_generating([(1,), (1,), (2,)])
        assert t.num.coeff == 1 and t.num.shift == (0,)
        assert t.denom == (DenomFactor((1,), 2), DenomFactor((2,), 1))

    def test_single_vector(self):
        t = laplace_generating([(1, 0)])
        assert t.denom == (DenomFactor((1, 0), 1),)

    def test_planar_system(self):
        t = laplace_generating([(1, 0), (0, 1), (-1, 2)])
        assert {f.vector for f in t.denom} == {(1, 0), (0, 1), (-1, 2)}
        assert all(f.power == 1 for f in t.denom)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            laplace_generating([(1,), (0,)])


class TestAlgebra:
    def test_shift_addition(self):
        e = monomial(1, (-1,))
        assert mul(e, e) == monomial(1, (-2,))

    def test_power_merge(self):
        t = make_sum([make_term(1, (0,), [DenomFactor((1,), 1)])])
        sq = mul(t, t)
        (term,) = sq.terms
        assert term.denom == (DenomFactor((1,), 2),)

    def test_cancellation(self):
        s = add(monomial(2, (-1,)), monomial(-2, (-1,)))
        assert s.terms == ()

    @pytest.mark.parametrize("coeff", [Fraction(1), Fraction(1, 2), 1.0, True])
    def test_non_int_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="must be an int"):
            make_term(coeff, (0,))

    def test_ring_distributivity_numeric(self):
        vs = [(1, 0), (0, 1), (-1, 2)]
        a = make_sum([make_term(2, (0, -1), [DenomFactor((1, 0), 1)])])
        b = make_sum([make_term(1, (1, 0), [DenomFactor((0, 1), 2)])])
        c = make_sum([make_term(-3, (0, 0), [DenomFactor((-1, 2), 1)])])
        lhs = mul(a, add(b, c))
        rhs = add(mul(a, b), mul(a, c))
        for k in range(5):
            z = random_generic_point(vs, seed=k)
            assert eval_numeric(lhs, z) == eval_numeric(rhs, z)


class TestGeometricFactor:
    def test_m2(self):
        assert geometric_factor((1,), 2) == add(monomial(1, (0,)), monomial(1, (-1,)))

    def test_m1_is_one(self):
        assert geometric_factor((3, 1), 1) == monomial(1, (0, 0))

    def test_m3(self):
        g = geometric_factor((1,), 3)
        assert g == make_sum([make_term(1, (0,)), make_term(1, (-1,)), make_term(1, (-2,))])

    @pytest.mark.parametrize("m", range(1, 7))
    def test_splitting_identity_numeric(self, m):
        a = (1, 1)
        beta = geometric_factor(a, m)
        big = add(monomial(1, (0, 0)), monomial(-1, (-m, -m)))      # 1 - e^{-<ma,x>}
        small = add(monomial(1, (0, 0)), monomial(-1, (-1, -1)))    # 1 - e^{-<a,x>}
        for k in range(5):
            z = random_generic_point([a], seed=10 * m + k)
            assert eval_numeric(big, z) == eval_numeric(beta, z) * eval_numeric(small, z) % MODULUS


class TestEvalNumeric:
    # values mod MODULUS at z = 2, where e^{-x} reads 1/2
    def test_geometric_pole(self):
        t = make_term(1, (0,), [DenomFactor((1,), 1)])
        assert eval_numeric(t, (2,)) == 2

    def test_plain_exponential(self):
        assert eval_numeric(monomial(1, (-1,)), (2,)) == (MODULUS + 1) // 2

    def test_scalar_generating_value(self):
        # 1 / ((1 - 1/2)^2 (1 - 1/4)) = 16/3
        t = laplace_generating([(1,), (1,), (2,)])
        assert eval_numeric(t, (2,)) == 16 * pow(3, -1, MODULUS) % MODULUS

    def test_singular_point_refused(self):
        # z^(1, -1) = 5 / 5 = 1
        t = make_term(1, (0, 0), [DenomFactor((1, -1), 1)])
        with pytest.raises(SingularPoint):
            eval_numeric(t, (5, 5))


class TestGenericPoint:
    def test_scalar(self):
        points = [random_generic_point([(1,)], seed) for seed in range(20)]
        assert all(len(z) == 1 and 2 <= z[0] <= MODULUS - 1 for z in points)

    def test_deterministic(self):
        vs = [(2, 1), (1, 3)]
        assert random_generic_point(vs, seed=7) == random_generic_point(vs, seed=7)


def mutated(grouped, kind, rng):
    """A copy of a grouped sum with one term, drawn by rng from its listing,
    changed: its coefficient off by 1, the term dropped, or the power of its
    denominator's first factor raised by 1."""
    terms = listing(grouped)
    c, d, q = terms[rng.randrange(len(terms))]
    out = {e: dict(num) for e, num in grouped.items()}
    del out[d][c]
    if kind == "coefficient":
        out[d][c] = q + 1
    elif kind == "power":
        (v, h), *rest = d
        num = out.setdefault(((v, h + 1), *rest), {})
        num[c] = num.get(c, 0) + q
    return out


@pytest.fixture(scope="module")
def d59_reduction():
    return toric_reduce(D59).grouped


class TestSpotCheck:
    # 1/(1-e^{-x}) == (1 + e^{-x}) / (1-e^{-2x})
    X = [(1,)]
    WANT = make_sum([laplace_generating(X)])

    def split(self, *extra):
        d = [DenomFactor((2,), 1)]
        return make_sum([make_term(1, (0,), d), make_term(1, (-1,), d)]
                        + [make_term(1, (-k,), d) for k in extra])

    def test_identity_passes(self):
        spot_check(self.split(), self.WANT, self.X, seed=3)

    def test_mismatch_raises(self):
        # e^{-12x}/(1-e^{-2x}) too many
        with pytest.raises(InvariantError, match="identity fails"):
            spot_check(self.split(12), self.WANT, self.X)

    def test_one_term_reduction_of_1600_copies_passes(self):
        # 1 / (1 - e^{-x})^1600, the reduction of 1,600 copies of (1,)
        X = [(1,)] * 1600
        got = {(((1,), 1600),): {(0,): 1}}
        assert toric_reduce(X).grouped == got
        spot_check(got, laplace_generating(X), X)

    @pytest.mark.parametrize("got", [
        {(((1,), 1500),): {(0,): 10**30}},
        {(((1,), 1500),): {(0,): 10**30}, (((1,), 1501),): {(0,): -10**30}},
    ], ids=["inf", "nan"])
    def test_non_finite_reduced_side_fails_the_identity(self, got):
        # a reduced side far too large against 1 / (1 - e^{-x}), or two
        # such terms that nearly cancel: a failed identity like any other
        with pytest.raises(InvariantError, match="identity fails"):
            spot_check(got, self.WANT, self.X)

    def test_singular_point_skipped(self, monkeypatch):
        # (5, 5) annihilates 1 - z^{-(1, -1)}; the check draws one point
        # more and still checks five
        X = [(1, 0), (0, 1), (1, -1)]
        gen = laplace_generating(X)
        draw, evaluate = expalg.random_generic_point, expalg.eval_numeric
        seeds, checked = [], []
        monkeypatch.setattr(expalg, "random_generic_point",
                            lambda vs, k: seeds.append(k) or ((5, 5) if k == 4 else draw(vs, k)))
        monkeypatch.setattr(expalg, "eval_numeric",
                            lambda e, z: checked.append(z) or evaluate(e, z))
        spot_check(gen, gen, X, seed=3)
        assert seeds == [3, 4, 5, 6, 7, 8]
        assert len(checked) == 6 and checked[1] == (5, 5)
        with pytest.raises(SingularPoint):
            evaluate(gen, (5, 5))

    @pytest.mark.parametrize("kind", ["coefficient", "dropped", "power"])
    def test_one_term_mutation_of_d59_raises(self, kind, d59_reduction):
        # D59's 78,399 terms, one of them changed; the term is drawn by
        # Random(0), and a relative 1e-9 comparison of floats at five real
        # points passed each of these three
        got = mutated(d59_reduction, kind, random.Random(0))
        with pytest.raises(InvariantError, match="identity fails"):
            spot_check(got, laplace_generating(D59), D59)
