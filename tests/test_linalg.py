import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from dtpower.linalg import (IntegerRelation, det_adj, dot, integer_relation,
                            orth_complement, pointedness_certificate, rank,
                            solve_square)


class TestSolveSquare:
    def test_identity_basis(self):
        lam = solve_square([(1, 0), (0, 1)], (3, 5))
        assert lam == (3, 5)

    def test_hand_elimination(self):
        # x*(1,0) + y*(-1,2) = (0,2)  ->  y=1, x=1
        lam = solve_square([(1, 0), (-1, 2)], (0, 2))
        assert lam == (Fraction(1), Fraction(1))

    def test_singular_returns_none(self):
        assert solve_square([(1, 0), (2, 0)], (1, 1)) is None

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_square([(1, 0)], (1, 1))
        with pytest.raises(ValueError):
            solve_square([(1, 0), (0, 1, 2)], (1, 1))


class TestIntegerRelation:
    def test_unit_basis_reads_components(self):
        rel = integer_relation([(1, 0), (0, 1)], (-1, 2))
        assert rel == IntegerRelation(1, (-1, 2))

    def test_scalar_halving(self):
        # 2 * 1 = 1 * 2, the relation behind splitting 1-e^{-2x}
        rel = integer_relation([(2,)], (1,))
        assert rel == IntegerRelation(2, (1,))

    def test_denominator_clearing(self):
        rel = integer_relation([(2, 1), (1, 2)], (1, 1))
        assert rel == IntegerRelation(3, (1, 1))

    def test_outside_span(self):
        assert integer_relation([(1, 0, 0)], (0, 1, 0)) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_exactness_and_primitivity(self, seed):
        rng = random.Random(seed)
        s = rng.randint(1, 3)
        r = rng.randint(1, s)
        basis = None
        while basis is None:
            cand = [tuple(rng.randint(-4, 4) for _ in range(s)) for _ in range(r)]
            if rank(cand) == r:
                basis = cand
        coeffs = [rng.randint(-5, 5) for _ in basis]
        target = tuple(sum(c * b[k] for c, b in zip(coeffs, basis))
                       for k in range(s))
        rel = integer_relation(basis, target)
        assert rel is not None
        for k in range(s):
            assert rel.multiplier * target[k] == sum(
                m * b[k] for m, b in zip(rel.coefficients, basis))
        # target is an exact integer combination, so the least multiplier is 1
        # and the coefficients are recovered verbatim (basis is independent)
        assert rel == IntegerRelation(1, tuple(coeffs))
        assert gcd(rel.multiplier, *rel.coefficients) == 1


class TestOrthComplement:
    def test_identity_basis(self):
        assert orth_complement([(1, 0), (0, 1)], 0) == (1, 0)

    def test_skew_basis_first_vector(self):
        w = orth_complement([(1, 0), (-1, 2)], 0)
        assert w == (2, 1)
        assert dot(w, (1, 0)) == 2

    def test_skew_basis_second_vector(self):
        w = orth_complement([(1, 0), (-1, 2)], 1)
        assert w == (0, 1)
        assert dot(w, (-1, 2)) == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_orthogonality_positivity_content(self, seed):
        rng = random.Random(100 + seed)
        s = rng.randint(1, 4)
        basis = []
        while rank(basis) != s:
            basis = [tuple(rng.randint(-4, 4) for _ in range(s)) for _ in range(s)]
        for i in range(s):
            w = orth_complement(basis, i)
            for j in range(s):
                if j == i:
                    assert dot(w, basis[j]) > 0
                else:
                    assert dot(w, basis[j]) == 0
            assert gcd(*w) == 1


def _random_basis(rng, s):
    basis = []
    while rank(basis) != s:
        basis = [tuple(rng.randint(-4, 4) for _ in range(s)) for _ in range(s)]
    return tuple(basis)


class TestDetAdj:
    def test_skew_basis(self):
        # columns (1,0), (-1,2): det 2, inverse rows (1, 1/2) and (0, 1/2)
        assert det_adj(((1, 0), (-1, 2))) == (2, ((2, 1), (0, 1)))

    def test_negative_determinant_made_positive(self):
        d, adj = det_adj(((0, 1), (1, 0)))
        assert d == 1 and adj == ((0, 1), (1, 0))

    def test_singular_returns_none(self):
        assert det_adj(((1, 2), (2, 4))) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_adjugate_solves(self, seed):
        rng = random.Random(300 + seed)
        s = rng.randint(1, 4)
        basis = _random_basis(rng, s)
        d, adj = det_adj(basis)
        u = tuple(rng.randint(-9, 9) for _ in range(s))
        assert tuple(Fraction(dot(row, u), d) for row in adj) == solve_square(basis, u)

    @pytest.mark.parametrize("seed", range(20))
    def test_primitive_adjugate_row_is_orth_complement(self, seed):
        rng = random.Random(400 + seed)
        s = rng.randint(1, 4)
        basis = _random_basis(rng, s)
        _, adj = det_adj(basis)
        for i, row in enumerate(adj):
            g = gcd(*row)
            assert tuple(c // g for c in row) == orth_complement(basis, i)


def _zero_combination_exists(X):
    """Oracle: small-search for nonzero beta in N^n with sum beta_i a_i = 0."""
    n = len(X)
    entries = [abs(c) for v in X for c in v if c]
    bound = lcm(*entries) * n
    for total in range(1, bound + 1):
        for beta in itertools.product(range(total + 1), repeat=n):
            if sum(beta) == 0 or sum(beta) > total:
                continue
            if all(sum(b * v[k] for b, v in zip(beta, X)) == 0
                   for k in range(len(X[0]))):
                return True
    return False


class TestPointedness:
    def test_positive_scalars(self):
        cert = pointedness_certificate([(1,), (1,), (2,)])
        assert cert is not None and cert.xi == (Fraction(1),)

    def test_opposite_scalars_not_pointed(self):
        assert pointedness_certificate([(1,), (-1,)]) is None

    def test_planar_example(self):
        cert = pointedness_certificate([(1, 0), (0, 1), (-1, 2)])
        assert cert is not None
        assert all(cert.pairing(a) >= 1 for a in [(1, 0), (0, 1), (-1, 2)])

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_enumeration_oracle(self, seed):
        rng = random.Random(200 + seed)
        s = rng.randint(1, 2)
        n = rng.randint(1, 3)
        X = []
        while len(X) < n:
            v = tuple(rng.randint(-2, 2) for _ in range(s))
            if any(v):
                X.append(v)
        assert (pointedness_certificate(X) is not None) == (not _zero_combination_exists(X))


class TestRank:
    def test_full(self):
        assert rank([(1, 0), (0, 1)]) == 2

    def test_scalars(self):
        assert rank([(1,), (1,), (2,)]) == 1

    def test_proportional(self):
        assert rank([(2, 4), (1, 2)]) == 1
