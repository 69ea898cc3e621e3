"""The errors that are neither bad input nor a failed verification."""


class InvariantError(AssertionError):
    """An internal invariant does not hold: a bug, never bad input.

    Raised explicitly rather than by assert, so the checks survive
    python -O.  A subclass of AssertionError, so handlers written for the
    asserts it replaces still catch it.
    """


class BudgetError(Exception):
    """A computation would pass its size budget: valid input, too large to
    finish here.  Raised before the work is done, not after; never an
    InvariantError."""
