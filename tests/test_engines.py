import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import EX1, EX2
from dtpower.engines import (DMContext, brute_force_box, brute_force_count,
                             cross_check, dm_count, independent_count)
from dtpower.linalg import pointedness_certificate, rank, solve_columns
from dtpower.toric import toric_reduce


@pytest.fixture(scope="module")
def cert1():
    return pointedness_certificate(EX1)


@pytest.fixture(scope="module")
def cert2():
    return pointedness_certificate(EX2)


class TestBruteForce:
    def test_scalar_count(self, cert1):
        # beta3 in {0,1,2} leaves 5+3+1 splittings of the remainder over {1,1}
        assert brute_force_count(EX1, (4,), cert1) == 9

    def test_planar_count(self, cert2):
        assert brute_force_count(EX2, (2, 2), cert2) == 2

    def test_origin_counts_once(self, cert1, cert2):
        assert brute_force_count(EX1, (0,), cert1) == 1
        assert brute_force_count(EX2, (0, 0), cert2) == 1

    def test_negative_budget_is_zero(self, cert1):
        assert brute_force_count(EX1, (-3,), cert1) == 0

    def test_box_histogram_matches_pointwise(self, cert2):
        lo, hi = (-4, -4), (6, 6)
        table = brute_force_box(EX2, lo, hi, cert2)
        for a in itertools.product(range(-4, 7), repeat=2):
            assert table.get(a, 0) == brute_force_count(EX2, a, cert2)

    @pytest.mark.parametrize("lo,hi", [((0,), (3,)), ((0, 0, 0), (3, 3, 3))])
    def test_box_of_another_dimension_rejected(self, cert2, lo, hi):
        with pytest.raises(ValueError, match="do not have dimension 2"):
            brute_force_box(EX2, lo, hi, cert2)
        with pytest.raises(ValueError, match="do not have dimension 2"):
            brute_force_count(EX2, hi, cert2)


class TestIndependentCount:
    def test_scalar_multiple(self):
        assert independent_count([(2,)], (6,)) == 1
        assert independent_count([(2,)], (3,)) == 0

    def test_planar(self):
        assert independent_count([(1, 0), (-1, 2)], (0, 2)) == 1

    def test_partial_basis_outside_span(self):
        assert independent_count([(1, 0, 0)], (0, 1, 0)) == 0
        assert independent_count([(1, 0, 0)], (2, 0, 0)) == 1

    @pytest.mark.parametrize("s,r", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_elimination(self, s, r, data):
        entry = st.integers(-3, 3)
        A = data.draw(st.lists(st.tuples(*[entry] * s), min_size=r, max_size=r))
        assume(rank(A) == r)
        # near a lattice point of the span, so both answers occur
        lam = data.draw(st.lists(st.integers(-2, 4), min_size=r, max_size=r))
        nudge = data.draw(st.tuples(*[st.integers(-1, 1)] * s))
        alpha = tuple(sum(l * a[k] for l, a in zip(lam, A)) + nudge[k] for k in range(s))
        ref = solve_columns(A, alpha)
        want = int(ref is not None and all(f.denominator == 1 and f >= 0 for f in ref))
        assert independent_count(A, alpha) == want

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            independent_count([(1, 0)], (1,))

    def test_empty_set_counts_only_the_origin(self):
        assert independent_count([], (0, 0)) == 1
        assert independent_count([], (1, 0)) == 0


class TestRecursion:
    def test_scalar(self):
        assert dm_count(EX1, (3,)) == 6

    def test_planar(self):
        assert dm_count(EX2, (0, 4)) == 3

    def test_single_vector(self):
        assert dm_count([(3, 1)], (3, 1)) == 1
        assert dm_count([(3, 1)], (1, 1)) == 0

    def test_agrees_with_brute_force(self, cert2):
        ctx = DMContext(EX2, cert2)
        for a in itertools.product(range(-4, 9), repeat=2):
            assert ctx.count(a) == brute_force_count(EX2, a, cert2)

    @pytest.mark.parametrize("X,box", [
        (EX1, [(a,) for a in range(-6, 21)]),
        (EX2, list(itertools.product(range(-3, 9), repeat=2))),
    ])
    def test_removal_identity_every_index(self, X, box):
        # t_X(a) = sum_j t_{X\{a_i}}(a - j*a_i) must hold for every i
        X = list(X)
        cert = pointedness_certificate(X)
        xs, _ = cert.scaled()
        full = DMContext(X, cert)
        for i in range(len(X)):
            rest = X[:i] + X[i + 1:]
            sub = DMContext(rest) if rest else None
            ai = X[i]
            w = sum(x * c for x, c in zip(xs, ai))
            for alpha in box:
                budget = sum(x * c for x, c in zip(xs, alpha))
                total = 0
                for j in range(max(budget // w + 1, 0)):
                    shifted = tuple(c - j * b for c, b in zip(alpha, ai))
                    if sub is None:
                        total += int(all(c == 0 for c in shifted))
                    else:
                        total += sub.count(shifted)
                assert total == full.count(alpha)

    @pytest.mark.parametrize("X", [
        ((1, 0), (2, 0), (0, 1)),
        ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)),
        ((1, 2, 0), (2, 4, 0), (0, 1, 1), (1, 0, 1)),
    ])
    def test_dependent_prefix_agrees_with_brute_force(self, X):
        # the base case is a prefix of fewer than s vectors
        ctx = DMContext(X)
        assert ctx.base_len < len(X[0])
        cert = pointedness_certificate(X)
        hi = 8 if len(X[0]) == 2 else 5
        for a in itertools.product(range(-2, hi + 1), repeat=len(X[0])):
            assert ctx.count(a) == brute_force_count(X, a, cert)

    def test_monotone_under_vector_addition(self, cert1):
        bigger = list(EX1) + [(3,)]
        cert = pointedness_certificate(bigger)
        for a in range(-2, 15):
            assert dm_count(bigger, (a,)) >= dm_count(list(EX1), (a,))


class TestCrossCheck:
    def test_scalar_box(self):
        report = cross_check(EX1, (-6,), (20,), seed=3)
        assert report.ok
        assert report.totals["brute"] == 27

    def test_planar_box(self):
        report = cross_check(EX2, (-6, -6), (12, 12), seed=7)
        assert report.ok
        assert report.totals["closed"] == 19 * 19

    def test_independent_all_ones(self):
        report = cross_check([(1, 0), (0, 1)], (0, 0), (3, 3), seed=0)
        assert report.ok

    def test_reduces_once(self, monkeypatch):
        calls = []

        def counted(X):
            calls.append(X)
            return toric_reduce(X)
        monkeypatch.setattr("dtpower.engines.toric_reduce", counted)
        monkeypatch.setattr("dtpower.quasipoly.toric_reduce", counted)
        assert cross_check(EX2, (-3, -3), (6, 6)).ok
        assert len(calls) == 1

    def test_three_certificates(self, monkeypatch):
        # cross_check's own system check, toric_reduce's, and one for the
        # five points of the spot check
        calls = []

        def counted(X):
            calls.append(X)
            return pointedness_certificate(X)
        for module in ("linalg", "expalg", "engines"):
            monkeypatch.setattr(f"dtpower.{module}.pointedness_certificate", counted)
        assert cross_check(EX2, (-3, -3), (6, 6)).ok
        assert len(calls) == 3

    def test_engine_agreement_random_systems(self, random_systems):
        for i, X in enumerate(random_systems[:12]):
            s = len(X[0])
            report = cross_check(X, (-4,) * s, (8,) * s, seed=i)
            assert report.ok, (X, report.mismatches[:3])
