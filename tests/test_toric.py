import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import D59, EX1, EX2, pinned_inputs, random_pointed_systems, reduce_checked
from dtpower import expalg, toric
from dtpower.cli import closed_form_to_json
from dtpower.expalg import (DenomFactor, ExpRatSum, add, eval_numeric,
                            geometric_factor, laplace_generating, make_sum,
                            make_term, monomial, mul, random_generic_point,
                            spot_check)
from dtpower.errors import InvariantError
from dtpower.linalg import IntegerRelation, integer_relation
from dtpower.quasipoly import closed_form
from dtpower.toric import (ReducedForm, absorb_vector, assert_reduced_invariants,
                           expand_dependent, partial_fraction, toric_reduce)

RTOL = 1e-9

CORPUS = random_pointed_systems()

REDUCED_SUMS = Path(__file__).parent / "golden" / "reduced-sums.txt"
CLOSED_FORMS = Path(__file__).parent / "golden" / "closed-forms.txt"


def one_minus_exp(v):
    dim = len(v)
    return add(monomial(1, (0,) * dim), monomial(-1, tuple(-c for c in v)))


def as_sum(num, s):
    """A packed numerator {packed shift: int} as the ExpRatSum of its
    monomials over Z^s."""
    return toric._to_sum(toric._unpacked({(): num}, s))


def check_gamma_identity(relation, basis, gammas, seeds=range(5)):
    """Numeric check of y0 = sum gamma_i * y_i at generic points."""
    dim = len(basis[0])
    target = tuple(sum(m * b[k] for m, b in zip(relation.coefficients, basis))
                   for k in range(dim))
    y0 = one_minus_exp(target)
    rhs = ExpRatSum(())
    for g, j in gammas:
        rhs = add(rhs, mul(as_sum(g, dim), one_minus_exp(basis[j])))
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
        assert as_sum(g, 1) == add(monomial(1, (0,)), monomial(1, (-1,)))
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
        assert [(as_sum(g, 2), j) for g, j in gammas] == [(monomial(1, (0, 0)), 0)]

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            expand_dependent(IntegerRelation(1, (1, 0)), [(1, 0), (0, 1)])

    @pytest.mark.parametrize("coeffs", [(3,), (1, 1), (2, -1), (-2, 3), (1, -1, 2),
                                        pytest.param(None, id="non-unit-basis")])
    def test_identity_random_relations(self, coeffs):
        if coeffs is None:  # 11*(7,2) = 26*(3,1) - (1,4), from D59's vectors
            basis = [(3, 1), (1, 4)]
            rel = integer_relation(basis, (7, 2))
        else:
            dim = len(coeffs)
            basis = [tuple(1 if k == i else 0 for k in range(dim)) for i in range(dim)]
            rel = IntegerRelation(1, coeffs)
        check_gamma_identity(rel, basis, expand_dependent(rel, basis))


def unpacked_partial_fraction(y0, gammas, denom):
    """partial_fraction with numerators {shift: int} over vector shifts,
    packed on the way in and unpacked on the way out."""
    s = len(y0[0])
    packed = [({toric._pack(c): q for c, q in g.items()}, v) for g, v in gammas]
    return toric._unpacked(partial_fraction(y0, packed, denom), s)


class TestPartialFraction:
    """Denominators are sorted (vector, power) pairs; numerators {shift: int}."""

    def test_constant_gamma(self):
        # 1/(y0*y1) with y0 = 2*y1  ->  2/y0^2
        out = unpacked_partial_fraction(((2,), 1), [({(0,): 2}, (1,))], (((1,), 1),))
        assert out == {(((2,), 2),): {(0,): 2}}

    def test_two_way_split(self):
        # 1/(y0*y1*y2) with y0 = y1 + y2 -> 1/(y0^2 y2) + 1/(y0^2 y1)
        denom = (((0, 1), 1), ((1, 0), 1))
        gammas = [({(0, 0): 1}, (1, 0)), ({(0, 0): 1}, (0, 1))]
        out = unpacked_partial_fraction(((1, 1), 1), gammas, denom)
        assert out == {
            (((0, 1), 1), ((1, 1), 2)): {(0, 0): 1},
            (((1, 0), 1), ((1, 1), 2)): {(0, 0): 1},
        }

    def test_geometric_chain(self):
        # 1/(y0*y1^2) with y0 = (1+e^{-x})*y1 -> (1+2e^{-x}+e^{-2x})/y0^3
        gamma = {(0,): 1, (-1,): 1}
        out = unpacked_partial_fraction(((2,), 1), [(gamma, (1,))], (((1,), 2),))
        assert out == {(((2,), 3),): {(0,): 1, (-1,): 2, (-2,): 1}}

    def test_power_conservation(self):
        denom = (((0, 1), 3), ((1, 0), 2))
        gammas = [({(0, 0): 1}, (1, 0)), ({(0, 0): 1}, (0, 1))]
        out = unpacked_partial_fraction(((1, 1), 1), gammas, denom)
        assert out
        for d in out:
            assert sum(p for _, p in d) == 1 + 5


def shifts(limit):
    """Vectors of dimension 1 to 3 with coordinates in [-limit, limit]."""
    return st.integers(1, 3).flatmap(
        lambda s: st.tuples(*[st.integers(-limit, limit)] * s))


class TestPackedShifts:
    """Inside toric a shift is one int, sum_i c_i * STRIDE^i."""

    def test_reach_fits_the_stride(self):
        assert toric.REACH < toric.STRIDE // 2
        assert toric.REACH == sum(range(toric.MAX_POWER + 1)) * toric.ENTRY_LIMIT

    @settings(max_examples=300)
    @given(shifts(toric.REACH))
    @example((toric.REACH,))
    @example((-toric.REACH, toric.REACH, -toric.REACH))
    @example((toric.REACH, -toric.REACH, 0))
    @example((0, 0, -1))
    def test_unpack_round_trip_over_reach(self, c):
        packed = sum(x * toric.STRIDE ** i for i, x in enumerate(c))
        assert toric._unpack(packed, len(c)) == c

    @settings(max_examples=300)
    @given(shifts(toric.ENTRY_LIMIT))
    @example((toric.ENTRY_LIMIT, -toric.ENTRY_LIMIT, toric.ENTRY_LIMIT))
    @example((-1,))
    def test_pack_round_trip(self, c):
        assert toric._unpack(toric._pack(c), len(c)) == c

    @settings(max_examples=100)
    @given(st.integers(1, 3).flatmap(lambda s: st.lists(
        st.tuples(*[st.integers(-toric.ENTRY_LIMIT, toric.ENTRY_LIMIT)] * s),
        min_size=1, max_size=32)),
        st.integers(1, toric.REACH // toric.ENTRY_LIMIT // 32))
    def test_sum_of_packed_is_packed_sum(self, cs, k):
        # k copies of up to 32 shifts: up to REACH // ENTRY_LIMIT entries
        total = tuple(k * sum(x) for x in zip(*cs))
        assert toric._unpack(k * sum(map(toric._pack, cs)), len(total)) == total

    def test_sum_at_the_reach(self):
        n = toric.REACH // toric.ENTRY_LIMIT
        for c in [(toric.ENTRY_LIMIT,), (-toric.ENTRY_LIMIT, toric.ENTRY_LIMIT, -toric.ENTRY_LIMIT)]:
            got = toric._unpack(n * toric._pack(c), len(c))
            assert got == tuple(n * x for x in c)

    def test_small_shifts_hash_apart(self):
        # dict lookups on packed shifts stay fast only while their hashes
        # differ; CPython hashes -1 as -2, the one collision left
        box = range(-20, 21)
        assert len({hash(toric._pack((a, b, c))) for a in box for b in box for c in box}) == 41 ** 3 - 1

    def test_large_entries_reduce(self):
        # 1*(2000) = 2000*(1) puts e^{-1999x} in a gamma: sum_{l<2000} e^{-lx} / (1 - e^{-2000x})^2
        want = make_sum([make_term(1, (-l,), [DenomFactor((2000,), 2)]) for l in range(2000)])
        assert repr(toric_reduce([(2000,), (1,)]).sum) == repr(want)
        # 2*(E,1) - (E,2) = (E,0) puts e^{-<(E,1),x>} in a gamma
        e = toric.ENTRY_LIMIT
        reduced = reduce_checked([(e, 1), (e, 2), (e, 0)]).sum
        assert max(abs(c) for t in reduced.terms for c in t.num.shift) == e

    def test_guards_raise_also_under_python_O(self):
        # each limit of the bound is a size budget: it fails loudly, as
        # BudgetError, instead of aliasing two shifts
        script = """
import sys
from dtpower import toric
from dtpower.errors import BudgetError
from dtpower.expalg import DenomFactor, make_term
big = toric.ENTRY_LIMIT + 1
cases = [
    lambda: toric._pack((0, big)),
    lambda: toric._pack((-big,)),
    # 2*(big,1) - (big,2) = (big,0) puts e^{-<(big,1),x>} in a gamma
    lambda: toric.toric_reduce([(big, 1), (big, 2), (big, 0)]),
    lambda: toric.absorb_vector(make_term(1, (0,), [DenomFactor((1,), toric.MAX_POWER)]), (2,)),
]
for case in cases:
    try:
        case()
    except BudgetError as e:
        print("raised:", e)
    else:
        sys.exit("no BudgetError")
"""
        src = str(Path(toric.__file__).parents[1])
        for flags in ([], ["-O"]):
            run = subprocess.run([sys.executable, *flags, "-c", script], cwd=src,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            assert run.stdout.count("raised:") == 4
        assert toric.absorb_vector(make_term(1, (0,), [DenomFactor((1,), toric.MAX_POWER - 1)]), (2,))


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

    def test_any_shift_is_carried(self):
        # the term's shift is added after unpacking, past the packed-shift bound too
        c = (toric.ENTRY_LIMIT * 10 ** 6, -3)
        denom = [DenomFactor((1, 0), 1), DenomFactor((1, 2), 1)]
        got = absorb_vector(make_term(-2, c, denom), (1, 1))
        want = [(t.num.coeff, tuple(map(sum, zip(t.num.shift, c))), t.denom)
                for t in absorb_vector(make_term(-2, (0, 0), denom), (1, 1))]
        assert len(want) > 1
        assert [(t.num.coeff, t.num.shift, t.denom) for t in got] == want

    def test_independent_appends(self):
        term = make_term(1, (0, 0), [DenomFactor((1, 0), 1)])
        (out,) = absorb_vector(term, (0, 1))
        assert out.denom == (DenomFactor((0, 1), 1), DenomFactor((1, 0), 1))

    def test_zero_vector_rejected(self):
        term = make_term(1, (0,), [DenomFactor((1,), 1)])
        with pytest.raises(ValueError):
            absorb_vector(term, (0,))

    def test_independence_decided_once_per_denominator(self, monkeypatch):
        # many terms share a denominator; integer_relation decides
        # dependence once per (denominator, vector) absorbed, and nothing
        # else in toric asks it
        calls = []

        def counting_relation(basis, target):
            calls.append((basis, target))
            return integer_relation(basis, target)

        monkeypatch.setattr(toric, "integer_relation", counting_relation)
        toric._absorption_data.cache_clear()
        rf = toric_reduce(((0, -2), (3, -2), (-2, 1), (-2, -1)))
        denominators = {t.denom for t in rf.sum.terms}
        assert len(denominators) < len(rf.sum.terms)
        assert len(calls) == toric._absorption_data.cache_info().misses
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
        rf = reduce_checked([(1,), (1,), (2,)])
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
        rf = reduce_checked(X)
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


class TestUnpackedHandOff:
    """toric_reduce unpacks the fold's grouped sum once, so no packed shift
    leaves toric, and it builds no terms."""

    def test_every_shift_is_a_vector_of_ints(self):
        for label, X in [*pinned_inputs(), ("d59", D59)]:
            rf = toric_reduce(X)
            s = len(X[0])
            assert "sum" not in vars(rf), label
            assert all(type(c) is tuple and len(c) == s and all(type(x) is int for x in c)
                       for num in rf.grouped.values() for c in num), label


class TestOffTheSumAlgebra:
    """toric builds its numerators as packed Laurents; expalg's sum algebra
    is the tests' reference and no part of the reduction."""

    LABELS = ("ex1", "ex2", "stressA-0123", "stressB-0123")

    def test_toric_binds_no_sum_algebra(self):
        for name in ("expalg", "make_sum", "make_term", "monomial", "geometric_factor"):
            assert not hasattr(toric, name), name

    def test_goldens_without_sum_algebra(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("the reduction called expalg's sum algebra")

        for name in ("make_sum", "add", "mul", "monomial", "geometric_factor"):
            monkeypatch.setattr(expalg, name, refuse)
        reduced = dict(line.split() for line in REDUCED_SUMS.read_text().splitlines())
        closed = dict(line.split() for line in CLOSED_FORMS.read_text().splitlines())
        inputs = dict(pinned_inputs())
        toric._absorption_data.cache_clear()  # a cached absorption would hide a call
        for label in self.LABELS:
            X = inputs[label]
            got = hashlib.sha256(repr(toric_reduce(X).sum).encode()).hexdigest()
            assert got == reduced[label], label
            doc = json.dumps(closed_form_to_json(closed_form(X)), sort_keys=True)
            assert hashlib.sha256(doc.encode()).hexdigest() == closed[label], label


class TestReducedInvariants:
    """A corrupted reduction of EX2 = ((1,0), (0,1), (-1,2)) fails each
    structural check with InvariantError, which python -O does not strip."""

    @pytest.mark.parametrize("factors,message", [
        ([DenomFactor((1, 0), 3)], "denominators, expected 2"),
        ([DenomFactor((1, 0), 1), DenomFactor((2, 0), 2)], "dependent"),
        ([DenomFactor((1, 0), 1), DenomFactor((0, 1), 1)], "power conservation"),
        ([DenomFactor((1, 1), 2), DenomFactor((0, 1), 1)], "positive multiple"),
        # (1, -2) is -1 times (-1, 2)
        ([DenomFactor((1, 0), 2), DenomFactor((1, -2), 1)], "positive multiple"),
    ])
    def test_corrupted_form_raises(self, factors, message):
        source = ((1, 0), (0, 1), (-1, 2))
        assert_reduced_invariants(toric_reduce(source))
        bad = ReducedForm(source, {tuple((f.vector, f.power) for f in factors): {0: 1}})
        with pytest.raises(InvariantError, match=message):
            assert_reduced_invariants(bad)

    def test_fractional_multiple_raises(self):
        # (1, 0) is 1/2 times (2, 0)
        source = ((2, 0), (0, 1))
        assert_reduced_invariants(toric_reduce(source))
        bad = ReducedForm(source, {(((1, 0), 1), ((0, 1), 1)): {0: 1}})
        with pytest.raises(InvariantError, match="positive multiple"):
            assert_reduced_invariants(bad)

    def test_is_an_assertion_error(self):
        assert issubclass(InvariantError, AssertionError)


def overlap(c1, c2, a, m):
    """c1 - c2 = k * a for an integer |k| < m: the products of the two
    shifts with sum_{l<m} e^{-l<a,x>} share a term."""
    d = [x - y for x, y in zip(c1, c2)]
    i = next(k for k, x in enumerate(a) if x)
    k = d[i] // a[i]
    return d[i] % a[i] == 0 and abs(k) < m and all(x == k * y for x, y in zip(d, a))


@st.composite
def floor_cases(draw):
    s = draw(st.integers(1, 2))
    a = draw(st.tuples(*[st.integers(-3, 3)] * s).filter(any))
    m = draw(st.integers(1, 5))
    shifts = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * s), min_size=1, max_size=8,
                           unique=True))
    coeffs = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=len(shifts),
                           max_size=len(shifts)))
    return a, m, dict(zip(shifts, coeffs))


class TestProductFloor:
    """_product_floor bounds the terms of a numerator times a geometric
    factor from below, so a fold step may abandon before building it."""

    @settings(max_examples=300)
    @given(floor_cases())
    # (1 - y)(1 + y) = 1 - y^2 and (1 - y)(1 + y + y^2) = 1 - y^3: the
    # middle terms cancel
    @example(((1,), 2, {(0,): 1, (-1,): -1}))
    @example(((2, 1), 3, {(0, 0): 1, (-2, -1): -1}))
    # packed, (0, 1) lies on the line of (0, 0) along (1, 0), far apart
    @example(((1, 0), 2, {(0, 0): -2, (0, 1): -2}))
    def test_is_a_lower_bound_exact_off_shared_lines(self, case):
        a, m, shifts = case
        num = {toric._pack(c): q for c, q in shifts.items()}
        beta = tuple((toric._pack(t.num.shift), t.num.coeff)
                     for t in geometric_factor(a, m).terms)
        product = {}
        toric._accumulate(product, num, beta)
        terms = sum(1 for q in product.values() if q)
        floor = toric._product_floor(num, beta)
        assert floor <= terms
        if not any(overlap(c1, c2, a, m) for c1 in shifts for c2 in shifts if c1 != c2):
            assert floor == terms == m * len(num)
