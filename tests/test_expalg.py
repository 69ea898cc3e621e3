import hashlib
import math
from fractions import Fraction

import pytest

from conftest import D59, pinned_inputs, random_pointed_systems
from dtpower import expalg
from dtpower.errors import InvariantError
from dtpower.expalg import (DenomFactor, SingularPoint, add, eval_numeric,
                            geometric_factor, laplace_generating, make_sum,
                            make_term, monomial, mul, random_generic_point,
                            spot_check)

RTOL = 1e-9


def close(a, b):
    return abs(a - b) <= RTOL * (1 + abs(b))


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
            x = random_generic_point(vs, seed=k)
            assert close(eval_numeric(lhs, x), eval_numeric(rhs, x))


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
            x = random_generic_point([a], seed=10 * m + k)
            assert abs(eval_numeric(big, x)
                       - eval_numeric(beta, x) * eval_numeric(small, x)) <= 1e-9


class TestEvalNumeric:
    def test_geometric_pole(self):
        t = make_term(1, (0,), [DenomFactor((1,), 1)])
        assert close(eval_numeric(t, (math.log(2),)), 2.0)

    def test_plain_exponential(self):
        assert close(eval_numeric(monomial(1, (-1,)), (0.0,)), 1.0)

    def test_scalar_generating_value(self):
        t = laplace_generating([(1,), (1,), (2,)])
        assert close(eval_numeric(t, (math.log(2),)), 16.0 / 3.0)

    def test_singular_point_refused(self):
        t = make_term(1, (0, 0), [DenomFactor((1, -1), 1)])
        with pytest.raises(SingularPoint):
            eval_numeric(t, (0.7, 0.7))


class TestGenericPoint:
    def test_scalar(self):
        x = random_generic_point([(1,)], seed=0)
        assert 0.1 <= x[0] <= 5

    def test_planar_constraints(self):
        vs = [(1, 0), (0, 1), (-1, 2)]
        for seed in range(5):
            x = random_generic_point(vs, seed=seed)
            assert x[0] >= 0.1 and x[1] >= 0.1
            assert -x[0] + 2 * x[1] >= 0.1 - 1e-12

    def test_deterministic(self):
        vs = [(2, 1), (1, 3)]
        assert random_generic_point(vs, seed=7) == random_generic_point(vs, seed=7)

    def test_unpointed_rejected(self):
        with pytest.raises(ValueError):
            random_generic_point([(1,), (-1,)], seed=0)

    def test_one_draw_pairs_at_least_a_tenth(self):
        # the pinned inputs, D59 and three systems whose certificates pair
        # up to 31, 31 and 62 with a vector, so t is at its floor 0.15 and
        # the last one's points pair past 5; the digest pins the points
        wide = random_pointed_systems(count=200, seed=7, det_cap=60)
        systems = [X for _, X in pinned_inputs()] + [D59] + [wide[i] for i in (14, 157, 176)]
        points = [[random_generic_point(X, seed) for seed in range(8)] for X in systems]
        for X, xs in zip(systems, points):
            for x in xs:
                assert min(expalg.dot_f(a, x) for a in X) >= 0.1
        assert max(expalg.dot_f(a, x) for a in systems[-1] for x in points[-1]) > 5
        assert hashlib.sha256(repr(points).encode()).hexdigest() == (
            "7c21deb6185b8623bc78ef17f7ee0da879a1527f3e3e6db4f2221ac8071f859c")


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
        # e^{-12x}/(1-e^{-2x}) too many: about 4e-6 relative near x = 1
        with pytest.raises(InvariantError, match="identity fails"):
            spot_check(self.split(12), self.WANT, self.X)

    def test_five_points_from_one_certificate(self, monkeypatch):
        X = [(1, 0), (0, 1), (-1, 2)]
        want = [random_generic_point(X, 4 + k) for k in range(5)]
        gen = make_sum([laplace_generating(X)])
        seen, certs = [], []
        evaluate, certify = expalg.eval_numeric, expalg.pointedness_certificate
        monkeypatch.setattr(expalg, "eval_numeric",
                            lambda e, x: seen.append(x) or evaluate(e, x))
        monkeypatch.setattr(expalg, "pointedness_certificate",
                            lambda vs: certs.append(vs) or certify(vs))
        spot_check(gen, gen, X, seed=4)
        assert list(dict.fromkeys(seen)) == want
        assert len(certs) == 1
