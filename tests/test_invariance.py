"""Unimodular invariance: t_{UX}(Ua) = t_X(a) for every U in GL_s(Z), since
U maps the solutions of sum beta_i x_i = a one to one onto those of
sum beta_i Ux_i = Ua."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pointed_systems
from dtpower.engines import dm_count
from dtpower.quasipoly import closed_form, eval_closed

CORPUS = random_pointed_systems(count=20)


@st.composite
def unimodular(draw, s):
    """A product of elementary integer row operations: add a multiple of one
    row to another, swap two rows, negate a row."""
    U = [[int(i == j) for j in range(s)] for i in range(s)]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, s - 1))
        op = draw(st.sampled_from(["negate"] if s == 1 else ["add", "swap", "negate"]))
        if op == "negate":
            U[i] = [-c for c in U[i]]
            continue
        j = draw(st.integers(0, s - 1).filter(lambda j: j != i))
        if op == "swap":
            U[i], U[j] = U[j], U[i]
        else:
            m = draw(st.sampled_from([-2, -1, 1, 2]))
            U[i] = [a + m * b for a, b in zip(U[i], U[j])]
    return U


def apply(U, v):
    return tuple(sum(u * c for u, c in zip(row, v)) for row in U)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_counts_are_unimodular_invariant(data):
    X = data.draw(st.sampled_from(CORPUS))
    s = len(X[0])
    U = data.draw(unimodular(s))
    UX = [apply(U, a) for a in X]
    cf = closed_form(UX)
    points = data.draw(st.lists(st.tuples(*[st.integers(-3, 8)] * s),
                                min_size=1, max_size=8))
    for a in points:
        want = dm_count(X, a)
        assert dm_count(UX, apply(U, a)) == want
        assert eval_closed(cf, apply(U, a)) == want
