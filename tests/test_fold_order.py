"""The fold order chosen by toric_reduce: counts never depend on it, and the
chosen fold is never larger than the input-order fold."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import STRESS_A, pointed_systems
from dtpower.engines import DMContext, box_points
from dtpower.expalg import make_sum, make_term
from dtpower.quasipoly import closed_form, eval_closed_box
from dtpower.toric import absorb_vector, toric_reduce

BOXES = {1: ((-3,), (12,)), 2: ((-3, -3), (6, 6))}

FEW = settings(max_examples=40, deadline=None)


def input_order_fold(X):
    acc = make_sum([make_term(1, (0,) * len(X[0]))])
    for a in X:
        acc = make_sum([t for old in acc.terms for t in absorb_vector(old, a)])
    return acc


@FEW
@given(st.data())
def test_counts_do_not_depend_on_the_order(data):
    X = data.draw(pointed_systems())
    perm = data.draw(st.permutations(X))
    lo, hi = BOXES[len(X[0])]
    cf = closed_form(perm)
    assert cf.source == tuple(perm)
    counts = eval_closed_box(cf, lo, hi)
    ctx = DMContext(X)
    for p in box_points(lo, hi):
        assert counts.get(p, 0) == ctx.count(p)


@FEW
@given(pointed_systems())
# input order ties with the greedy search here, with a different sum
@example([(1, 0), (2, 2), (0, -1), (0, -1)])
@example([(1, 2), (1, -2), (1, 1), (2, 2)])
def test_never_more_terms_than_input_order(X):
    chosen = toric_reduce(X).sum
    reference = input_order_fold(X)
    assert len(chosen.terms) <= len(reference.terms)
    if len(chosen.terms) == len(reference.terms):
        assert chosen == reference


def test_stress_a_reduces_to_156_terms_in_any_order():
    for perm in ((0, 1, 2, 3), (1, 3, 2, 0)):
        X = [STRESS_A[i] for i in perm]
        rf = toric_reduce(X, check=True)
        assert len(rf.sum.terms) == 156
        assert rf.source == tuple(X)
