import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import D59, pinned_inputs
from dtpower.linalg import (IntegerRelation, column_solver, cone_count, dot, int_range,
                            integer_relation, orth_complement,
                            pointedness_certificate, rank, solve_columns,
                            solve_square, square_solver)

FEW = settings(max_examples=80, deadline=None)


def vectors(s):
    return st.tuples(*[st.integers(-3, 3)] * s)


def independent(columns) -> bool:
    """The Fraction reference's answer: only independent columns solve 0."""
    s = len(columns[0])
    return solve_columns(columns, (0,) * s) is not None


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

    def test_in_span_off_lattice(self):
        assert integer_relation([(2, 0, 2)], (1, 0, 1)) == IntegerRelation(2, (1,))

    def test_empty_basis(self):
        assert integer_relation([], (0, 0)) == IntegerRelation(1, ())
        assert integer_relation([], (1, 0)) is None

    @FEW
    @given(data=st.data())
    def test_matches_fraction_reference(self, data):
        s = data.draw(st.integers(1, 3))
        r = data.draw(st.integers(1, s))
        basis = data.draw(st.lists(vectors(s), min_size=r, max_size=r))
        assume(independent(basis))
        # a combination of the basis, maybe divided by its content (off the
        # lattice) and maybe nudged (off the lattice or outside the span)
        lam = data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        target = [sum(l * b[k] for l, b in zip(lam, basis)) for k in range(s)]
        if data.draw(st.booleans()) and any(target):
            g = gcd(*target)
            target = [t // g for t in target]
        nudge = data.draw(st.tuples(*[st.integers(-1, 1)] * s))
        target = tuple(t + n for t, n in zip(target, nudge))
        ref = solve_columns(basis, target)
        if ref is None:
            assert integer_relation(basis, target) is None
        else:
            m = lcm(*(f.denominator for f in ref))
            want = IntegerRelation(m, tuple(int(f * m) for f in ref))
            assert integer_relation(basis, target) == want


class TestColumnSolver:
    @FEW
    @given(data=st.data())
    def test_matches_fraction_reference(self, data):
        s = data.draw(st.integers(1, 3))
        r = data.draw(st.integers(1, s))
        columns = tuple(data.draw(st.lists(vectors(s), min_size=r, max_size=r)))
        u = data.draw(vectors(s))
        solved = column_solver(columns)
        if not independent(columns):
            assert solved is None
            return
        d, adj, null = solved
        assert d > 0 and len(adj) == r and len(null) == s - r
        for i, row in enumerate(adj):
            assert [dot(row, c) for c in columns] == [d * (i == j) for j in range(r)]
        for row in null:
            assert all(dot(row, c) == 0 for c in columns)
        in_span = not any(dot(row, u) for row in null)
        want = tuple(Fraction(dot(row, u), d) for row in adj) if in_span else None
        assert solve_columns(columns, u) == want

    def test_square_case_has_no_null_rows(self):
        assert column_solver(((2, 1), (1, 3))) == (5, ((3, -1), (-1, 2)), ())


class TestConeCount:
    def test_dependent_columns_count_nothing(self):
        assert cone_count(None, (0, 0)) == 0

    def test_columns_short_of_the_dimension(self):
        # (1, 1, 0) and (1, -1, 0) in Z^3: d = 2 and one null row
        solved = column_solver(((1, 1, 0), (1, -1, 0)))
        assert len(solved[2]) == 1
        assert cone_count(solved, (2, 0, 1)) == 0  # off the span
        assert cone_count(solved, (1, 0, 0)) == 0  # (1/2, 1/2)
        assert cone_count(solved, (0, 2, 0)) == 0  # (1, -1)
        assert cone_count(solved, (3, 1, 0)) == 1  # (2, 1)
        assert cone_count(solved, (0, 0, 0)) == 1

    def test_square_basis(self):
        # (2, 1) and (0, 3): d = 6 and no null row
        solved = column_solver(((2, 1), (0, 3)))
        assert solved[0] == 6 and solved[2] == ()
        assert cone_count(solved, (2, 4)) == 1  # (1, 1)
        assert cone_count(solved, (4, 5)) == 1  # (2, 1)
        assert cone_count(solved, (1, 0)) == 0  # (1/2, -1/6)
        assert cone_count(solved, (2, -2)) == 0  # (1, -1)


class TestIntRange:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-20, 20)), max_size=6),
           st.integers(-10, 10), st.integers(-10, 10))
    def test_range_solves_its_rows(self, rows, low, high):
        want = [v for v in range(low, high + 1) if all(a * v <= r for a, r in rows)]
        assert list(int_range(rows, low, high)) == want


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

    def test_matches_fraction_inverse_row(self):
        # row i of B^-1, solving B^T w = e_i over Fraction, made primitive:
        # 40 bases of one stream and one basis each of seeds 400 to 419
        rng = random.Random(500)
        bases = [_random_basis(rng, rng.randint(1, 4)) for _ in range(40)]
        for seed in range(400, 420):
            rng = random.Random(seed)
            bases.append(_random_basis(rng, rng.randint(1, 4)))
        for basis in bases:
            for i in range(len(basis)):
                assert orth_complement(basis, i) == _primitive_inverse_row(basis, i)

    @pytest.mark.parametrize("basis", [[(1, 2), (2, 4)], [(1, 0, 0), (0, 1, 0)]])
    def test_singular_or_short_basis_rejected(self, basis):
        with pytest.raises(ValueError, match="singular"):
            orth_complement(basis, 0)


def _primitive_inverse_row(basis, i):
    """Row i of B^-1, solving B^T w = e_i over Fraction, made primitive."""
    s = len(basis)
    w = solve_columns([tuple(b[k] for b in basis) for k in range(s)],
                      tuple(int(k == i) for k in range(s)))
    m = lcm(*(f.denominator for f in w))
    g = gcd(*(int(f * m) for f in w))
    return tuple(int(f * m) // g for f in w)


def _random_basis(rng, s):
    basis = []
    while rank(basis) != s:
        basis = [tuple(rng.randint(-4, 4) for _ in range(s)) for _ in range(s)]
    return tuple(basis)


class TestSquareSolver:
    """column_solver's and square_solver's determinant and adjugate of a
    square basis."""

    def test_skew_basis(self):
        # columns (1,0), (-1,2): det 2, inverse rows (1, 1/2) and (0, 1/2)
        assert column_solver(((1, 0), (-1, 2))) == (2, ((2, 1), (0, 1)), ())

    def test_negative_determinant_made_positive(self):
        d, adj, _ = column_solver(((0, 1), (1, 0)))
        assert d == 1 and adj == ((0, 1), (1, 0))

    def test_singular_returns_none(self):
        assert column_solver(((1, 2), (2, 4))) is None

    def test_square_solver_is_det_and_adjugate(self):
        rng = random.Random(600)
        for _ in range(20):
            basis = _random_basis(rng, rng.randint(1, 4))
            d, adj = square_solver([list(b) for b in basis])
            assert (d, adj, ()) == column_solver(basis)
            assert [[dot(row, b) for b in basis] for row in adj] == [
                [d * (i == j) for j in range(len(basis))] for i in range(len(basis))]

    @pytest.mark.parametrize("basis", [[(1, 2), (2, 4)], [(1, 0, 0), (0, 1, 0)],
                                       [(1, 0), (0, 1), (1, 1)]])
    def test_square_solver_rejects_singular_basis(self, basis):
        with pytest.raises(ValueError, match="singular basis"):
            square_solver(basis)

    @pytest.mark.parametrize("seed", range(20))
    def test_adjugate_solves(self, seed):
        rng = random.Random(300 + seed)
        s = rng.randint(1, 4)
        basis = _random_basis(rng, s)
        d, adj, _ = column_solver(basis)
        u = tuple(rng.randint(-9, 9) for _ in range(s))
        assert tuple(Fraction(dot(row, u), d) for row in adj) == solve_square(basis, u)


def _small_system(seed):
    """One to three nonzero vectors of dimension 1 or 2, entries in [-2, 2]."""
    rng = random.Random(200 + seed)
    s = rng.randint(1, 2)
    n = rng.randint(1, 3)
    X = []
    while len(X) < n:
        v = tuple(rng.randint(-2, 2) for _ in range(s))
        if any(v):
            X.append(v)
    return X


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


def reference_certificate(X):
    """Fourier-Motzkin over Fraction rows, each pos/neg pair combined as
    cp / cp[var] - cn / cn[var]: the reference for the int elimination of
    pointedness_certificate.  xi, or None when X is not pointed."""
    s = len(X[0])
    cons = [(tuple(Fraction(c) for c in a), Fraction(1)) for a in X]
    stages = []
    for var in range(s):
        stages.append(cons)
        pos = [c for c in cons if c[0][var] > 0]
        neg = [c for c in cons if c[0][var] < 0]
        new = [c for c in cons if c[0][var] == 0]
        for cp, rp in pos:
            for cn, rn in neg:
                coefs = tuple(cp[k] / cp[var] - cn[k] / cn[var] for k in range(s))
                new.append((coefs, rp / cp[var] - rn / cn[var]))
        cons = new
    if any(r > 0 for _, r in cons):
        return None
    xi = [Fraction(0)] * s
    for var in reversed(range(s)):
        lo = hi = None
        for coefs, r in stages[var]:
            c = coefs[var]
            if c == 0:
                continue
            bound = (r - sum(coefs[k] * xi[k] for k in range(var + 1, s))) / c
            if c > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            xi[var] = Fraction(0)
        elif lo is None:
            xi[var] = hi
        elif hi is None:
            xi[var] = lo
        else:
            xi[var] = (lo + hi) / 2
    return tuple(xi)


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
        X = _small_system(seed)
        assert (pointedness_certificate(X) is not None) == (not _zero_combination_exists(X))

    @pytest.mark.parametrize("seed", range(25))
    def test_small_systems_match_fraction_reference(self, seed):
        # the oracle's systems, pointed or not
        X = _small_system(seed)
        cert = pointedness_certificate(X)
        assert (None if cert is None else cert.xi) == reference_certificate(X)

    def test_matches_fraction_reference(self):
        # the int elimination's rows are positive multiples of the rational
        # ones, so the back-substitution meets the same bounds
        for label, X in pinned_inputs() + [("d59", D59)]:
            assert pointedness_certificate(X).xi == reference_certificate(X), label


class TestRank:
    def test_full(self):
        assert rank([(1, 0), (0, 1)]) == 2

    def test_scalars(self):
        assert rank([(1,), (1,), (2,)]) == 1

    def test_proportional(self):
        assert rank([(2, 4), (1, 2)]) == 1

    def test_empty_and_zero(self):
        assert rank([]) == 0
        assert rank([(0, 0)]) == 0

    @FEW
    @given(data=st.data())
    def test_is_largest_independent_subset(self, data):
        s = data.draw(st.integers(1, 3))
        X = data.draw(st.lists(vectors(s), max_size=4))
        # a combination of the other rows and a zero row make dependence likely
        if X and data.draw(st.booleans()):
            lam = data.draw(st.lists(st.integers(-2, 2), min_size=len(X), max_size=len(X)))
            X.append(tuple(sum(l * v[k] for l, v in zip(lam, X)) for k in range(s)))
        if data.draw(st.booleans()):
            X.insert(data.draw(st.integers(0, len(X))), (0,) * s)
        want = max(n for n in range(len(X) + 1)
                   for S in itertools.combinations(X, n) if not S or independent(S))
        assert rank(X) == want
