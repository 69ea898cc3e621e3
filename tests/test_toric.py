import hashlib
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EX1, EX2, STRESS_A, STRESS_B, random_pointed_systems
from dtpower import toric
from dtpower.expalg import (DenomFactor, ExpRatSum, add, eval_numeric,
                            laplace_generating, make_sum, make_term, monomial,
                            mul, random_generic_point, spot_check)
from dtpower.errors import InvariantError
from dtpower.linalg import IntegerRelation, rank
from dtpower.toric import (ReducedForm, absorb_vector, assert_reduced_invariants,
                           expand_dependent, partial_fraction, toric_reduce)

RTOL = 1e-9

CORPUS = random_pointed_systems()

REDUCED_SUMS = Path(__file__).parent / "golden" / "reduced-sums.txt"


def pinned_inputs():
    """(label, X): EX1, EX2, the seeded corpus and every order of the two
    stress systems."""
    inputs = [("ex1", EX1), ("ex2", EX2)]
    inputs += [(f"seeded-{i:02d}", X) for i, X in enumerate(CORPUS)]
    for name, X in (("A", STRESS_A), ("B", STRESS_B)):
        for perm in itertools.permutations(range(len(X))):
            inputs.append((f"stress{name}-{''.join(map(str, perm))}",
                           tuple(X[i] for i in perm)))
    return inputs


def one_minus_exp(v):
    dim = len(v)
    return add(monomial(1, (0,) * dim), monomial(-1, tuple(-c for c in v)))


def check_gamma_identity(relation, basis, gammas, seeds=range(5)):
    """Numeric check of y0 = sum gamma_i * y_i at generic points."""
    dim = len(basis[0])
    target = tuple(sum(m * b[k] for m, b in zip(relation.coefficients, basis))
                   for k in range(dim))
    y0 = one_minus_exp(target)
    rhs = ExpRatSum(())
    for g, j in gammas:
        rhs = add(rhs, mul(g, one_minus_exp(basis[j])))
    for seed in seeds:
        x = random_generic_point(basis, seed=seed)
        want = eval_numeric(y0, x)
        got = eval_numeric(rhs, x)
        assert abs(got - want) <= RTOL * (1 + abs(want))


class TestExpandDependent:
    def test_scalar_halving(self):
        # y0 = 1-e^{-2x} = (1+e^{-x}) * (1-e^{-x}) over the single basis vector (1,)
        rel = IntegerRelation(1, (2,))
        gammas = expand_dependent(rel, [(1,)])
        assert len(gammas) == 1
        g, j = gammas[0]
        assert j == 0
        assert g == add(monomial(1, (0,)), monomial(1, (-1,)))
        check_gamma_identity(rel, [(1,)], gammas)

    def test_mixed_signs(self):
        # 1*(-1,2) = -1*(1,0) + 2*(0,1)
        rel = IntegerRelation(1, (-1, 2))
        basis = [(1, 0), (0, 1)]
        gammas = expand_dependent(rel, basis)
        assert [j for _, j in gammas] == [0, 1]
        check_gamma_identity(rel, basis, gammas)

    def test_target_in_basis(self):
        rel = IntegerRelation(1, (1,))
        gammas = expand_dependent(rel, [(3, 1)])
        assert gammas == [(monomial(1, (0, 0)), 0)]

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            expand_dependent(IntegerRelation(1, (1, 0)), [(1, 0), (0, 1)])

    @pytest.mark.parametrize("coeffs", [(3,), (1, 1), (2, -1), (-2, 3), (1, -1, 2)])
    def test_identity_random_relations(self, coeffs):
        dim = len(coeffs)
        basis = [tuple(1 if k == i else 0 for k in range(dim)) for i in range(dim)]
        rel = IntegerRelation(1, coeffs)
        check_gamma_identity(rel, basis, expand_dependent(rel, basis))


class TestPartialFraction:
    """Denominators are sorted (vector, power) pairs; numerators {shift: int}."""

    def test_constant_gamma(self):
        # 1/(y0*y1) with y0 = 2*y1  ->  2/y0^2
        out = partial_fraction(((2,), 1), [({(0,): 2}, (1,))], (((1,), 1),))
        assert out == {(((2,), 2),): {(0,): 2}}

    def test_two_way_split(self):
        # 1/(y0*y1*y2) with y0 = y1 + y2 -> 1/(y0^2 y2) + 1/(y0^2 y1)
        denom = (((0, 1), 1), ((1, 0), 1))
        gammas = [({(0, 0): 1}, (1, 0)), ({(0, 0): 1}, (0, 1))]
        out = partial_fraction(((1, 1), 1), gammas, denom)
        assert out == {
            (((0, 1), 1), ((1, 1), 2)): {(0, 0): 1},
            (((1, 0), 1), ((1, 1), 2)): {(0, 0): 1},
        }

    def test_geometric_chain(self):
        # 1/(y0*y1^2) with y0 = (1+e^{-x})*y1 -> (1+2e^{-x}+e^{-2x})/y0^3
        gamma = {(0,): 1, (-1,): 1}
        out = partial_fraction(((2,), 1), [(gamma, (1,))], (((1,), 2),))
        assert out == {(((2,), 3),): {(0,): 1, (-1,): 2, (-2,): 1}}

    def test_power_conservation(self):
        denom = (((0, 1), 3), ((1, 0), 2))
        gammas = [({(0, 0): 1}, (1, 0)), ({(0, 0): 1}, (0, 1))]
        out = partial_fraction(((1, 1), 1), gammas, denom)
        assert out
        for d in out:
            assert sum(p for _, p in d) == 1 + 5


class TestAbsorbVector:
    def test_repeat_merges_power(self):
        term = make_term(1, (0,), [DenomFactor((1,), 1)])
        (out,) = absorb_vector(term, (1,))
        assert out.denom == (DenomFactor((1,), 2),)

    def test_dependent_multiple(self):
        term = make_term(1, (0,), [DenomFactor((1,), 2)])
        out = make_sum(absorb_vector(term, (2,)))
        expected = make_sum([
            make_term(1, (0,), [DenomFactor((2,), 3)]),
            make_term(2, (-1,), [DenomFactor((2,), 3)]),
            make_term(1, (-2,), [DenomFactor((2,), 3)]),
        ])
        assert out == expected

    def test_independent_appends(self):
        term = make_term(1, (0, 0), [DenomFactor((1, 0), 1)])
        (out,) = absorb_vector(term, (0, 1))
        assert out.denom == (DenomFactor((0, 1), 1), DenomFactor((1, 0), 1))

    def test_zero_vector_rejected(self):
        term = make_term(1, (0,), [DenomFactor((1,), 1)])
        with pytest.raises(ValueError):
            absorb_vector(term, (0,))

    def test_independence_decided_once_per_denominator(self, monkeypatch):
        # many terms share a denominator; rank runs once per (denominator,
        # vector) absorbed, plus once per distinct final denominator in the
        # invariant check
        calls = []

        def counting_rank(X):
            calls.append(X)
            return rank(X)

        monkeypatch.setattr(toric, "rank", counting_rank)
        toric._absorption_data.cache_clear()
        rf = toric_reduce(((0, -2), (3, -2), (-2, 1), (-2, -1)))
        denominators = {t.denom for t in rf.sum.terms}
        assert len(denominators) < len(rf.sum.terms)
        assert len(calls) == toric._absorption_data.cache_info().misses + len(denominators)
        toric._absorption_data.cache_clear()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scaled_shifted_numerator(self, data):
        # a reduced term of a corpus system, with numerator q * e^{<c,x>},
        # absorbing one more vector of the system
        X = data.draw(st.sampled_from(CORPUS))
        s = len(X[0])
        denom = data.draw(st.sampled_from(toric_reduce(X).sum.terms)).denom
        q = data.draw(st.integers(1, 5)) * data.draw(st.sampled_from((1, -1)))
        c = data.draw(st.tuples(*[st.integers(-2, 2)] * s))
        a = data.draw(st.sampled_from(X))
        got = make_sum(absorb_vector(make_term(q, c, denom), a))
        want = make_sum([make_term(q, c, denom + (DenomFactor(a, 1),))])
        spot_check(got, want, X, seed=data.draw(st.integers(0, 100)))


class TestToricReduce:
    def test_scalar_example_exact_terms(self):
        rf = toric_reduce([(1,), (1,), (2,)], check=True)
        got = [(t.num.coeff, t.num.shift, t.denom) for t in rf.sum.terms]
        d = (DenomFactor((2,), 3),)
        assert got == [(1, (-2,), d), (2, (-1,), d), (1, (0,), d)]

    def test_independent_system_unchanged(self):
        rf = toric_reduce([(1, 0), (0, 1)])
        (t,) = rf.sum.terms
        assert t.num.coeff == 1 and t.num.shift == (0, 0)
        assert t.denom == (DenomFactor((0, 1), 1), DenomFactor((1, 0), 1))

    def test_planar_example_matches_reference_expression(self):
        X = [(1, 0), (0, 1), (-1, 2)]
        rf = toric_reduce(X, check=True)
        # (1+e^{-y})/((1-e^{-x})^2 (1-e^{-(-x+2y)})) - e^{-x}/((1-e^{-x})^2 (1-e^{-y}))
        ref = make_sum([
            make_term(1, (0, 0), [DenomFactor((1, 0), 2), DenomFactor((-1, 2), 1)]),
            make_term(1, (0, -1), [DenomFactor((1, 0), 2), DenomFactor((-1, 2), 1)]),
            make_term(-1, (-1, 0), [DenomFactor((1, 0), 2), DenomFactor((0, 1), 1)]),
        ])
        for seed in range(5):
            x = random_generic_point(X, seed=seed)
            want = eval_numeric(ref, x)
            got = eval_numeric(rf.sum, x)
            assert abs(got - want) <= RTOL * (1 + abs(want))

    def test_coefficients_are_int(self):
        for X in [EX1, EX2] + CORPUS:
            assert all(type(t.num.coeff) is int for t in toric_reduce(X).sum.terms)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            toric_reduce([(1, 0), (2, 0)])

    def test_unpointed_rejected(self):
        with pytest.raises(ValueError):
            toric_reduce([(1,), (-1,)])

    def test_identity_against_generating_function(self, random_systems):
        for X in random_systems[:10]:
            rf = toric_reduce(X)
            gen = laplace_generating(X)
            for seed in range(5):
                x = random_generic_point(X, seed=seed)
                want = eval_numeric(gen, x)
                got = eval_numeric(rf.sum, x)
                assert abs(got - want) <= RTOL * (1 + abs(want))


class TestPinnedOutput:
    def test_reduced_sums_match_golden_digests(self):
        # sha256 of repr(toric_reduce(X).sum), written before the working
        # sum was grouped by denominator; any change to a term, its order or
        # the chosen fold shows here
        want = dict(line.split() for line in REDUCED_SUMS.read_text().splitlines())
        got = {label: hashlib.sha256(repr(toric_reduce(X).sum).encode()).hexdigest()
               for label, X in pinned_inputs()}
        assert len(want) == 100
        assert got == want

    def test_warm_cache_gives_the_cold_result(self):
        # a fold that mutated a cached absorption would change later sums
        systems = [EX1, EX2] + CORPUS
        cold = []
        for X in systems:
            toric._absorption_data.cache_clear()
            cold.append(toric_reduce(X).sum)
        toric._absorption_data.cache_clear()
        first = [toric_reduce(X).sum for X in systems]
        second = [toric_reduce(X).sum for X in systems]
        assert first == second == cold
        toric._absorption_data.cache_clear()


class TestReducedInvariants:
    """A corrupted reduction of EX2 = ((1,0), (0,1), (-1,2)) fails each
    structural check with InvariantError, which python -O does not strip."""

    @pytest.mark.parametrize("factors,message", [
        ([DenomFactor((1, 0), 3)], "denominators, expected 2"),
        ([DenomFactor((1, 0), 1), DenomFactor((2, 0), 2)], "dependent"),
        ([DenomFactor((1, 0), 1), DenomFactor((0, 1), 1)], "power conservation"),
        ([DenomFactor((1, 1), 2), DenomFactor((0, 1), 1)], "positive multiple"),
    ])
    def test_corrupted_form_raises(self, factors, message):
        source = ((1, 0), (0, 1), (-1, 2))
        assert_reduced_invariants(toric_reduce(source))
        bad = ReducedForm(source, ExpRatSum((make_term(1, (0, 0), factors),)))
        with pytest.raises(InvariantError, match=message):
            assert_reduced_invariants(bad)

    def test_is_an_assertion_error(self):
        assert issubclass(InvariantError, AssertionError)
