"""The error a broken internal invariant raises."""


class InvariantError(AssertionError):
    """An internal invariant does not hold: a bug, never bad input.

    Raised explicitly rather than by assert, so the checks survive
    python -O.  A subclass of AssertionError, so handlers written for the
    asserts it replaces still catch it.
    """
