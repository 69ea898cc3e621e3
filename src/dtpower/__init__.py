"""Exact counting of nonnegative integer solutions of linear Diophantine
systems, with a toric-reduction closed form cross-checked against brute
force and the removal recursion."""

from .engines import (CountReport, DMContext, brute_force_count, cross_check,
                      dm_count, independent_count)
from .errors import BudgetError, InvariantError
from .linalg import (IntegerRelation, PointedCertificate, integer_relation,
                     pointedness_certificate, rank)
from .quasipoly import (ClosedForm, ConePiece, MultiPoly, closed_form,
                        eval_closed, support_membership)
from .toric import ReducedForm, toric_reduce

__all__ = [
    "CountReport", "DMContext", "brute_force_count", "cross_check",
    "dm_count", "independent_count", "BudgetError", "InvariantError", "IntegerRelation",
    "PointedCertificate", "integer_relation", "pointedness_certificate",
    "rank", "ClosedForm",
    "ConePiece", "MultiPoly", "closed_form", "eval_closed",
    "support_membership", "ReducedForm", "toric_reduce",
]
