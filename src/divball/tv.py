"""Closed-form worst-case expectation over a total-variation ball.

With outcomes in ascending objective order the optimal move is greedy: drain
mass from the highest-objective outcomes (top down, up to a total of delta)
and pile all of it onto the single lowest-objective outcome.  The draining
stops at the smallest support size r whose tail mass is already covered by
delta; r = 1 means the whole unit mass ends up on the bottom outcome.
"""

import numpy as np

from .core import (
    BRANCH_DEGENERATE,
    BRANCH_INTERIOR,
    Pmf,
    SortedProblem,
    check_delta,
    weighted_mean,
)
from .errors import LengthMismatchError


def tv_distance(q: Pmf, p: Pmf) -> float:
    """Total variation distance: half the 1-norm of the weight difference."""
    if q.n != p.n:
        raise LengthMismatchError(f"{q.n} vs {p.n} outcomes")
    return 0.5 * float(np.abs(q.weights - p.weights).sum())


def tv_threshold_index(sp: SortedProblem, delta: float) -> int:
    """Smallest support size r whose tail mass (after r) is at most delta."""
    check_delta(delta)
    # The empty tail is exactly 0, so some tail is always covered.
    return int((delta >= sp.tails).argmax()) + 1


def tv_value(sp: SortedProblem, delta: float) -> tuple[float, int, str]:
    """The lower bound at ``delta`` with its support size and branch."""
    d = min(float(delta), 1.0)
    r = tv_threshold_index(sp, d)
    if r == 1:
        return float(sp.f_sorted[0]), r, BRANCH_DEGENERATE
    # The value is one full-length dot in sorted order, which fixes its bits.
    q_sorted = sp.p_sorted.copy()
    q_sorted[0] = sp.p_sorted[0] + d
    # tails[r-2] is the mass from position r onward (1-based); the
    # threshold guarantees d < tails[r-2], so this stays positive.
    q_sorted[r - 1] = sp.tails[r - 2] - d
    q_sorted[r:] = 0.0
    value = weighted_mean(q_sorted, sp.f_sorted, sp.f_sorted[0], sp.f_sorted[-1])
    return value, r, BRANCH_INTERIOR


def tv_weights(sp: SortedProblem, r: int, delta: float, weights: np.ndarray) -> np.ndarray:
    """:func:`tv_value`'s minimizer in original order, from the center's ``weights``."""
    if r == 1:
        q = np.zeros(sp.n)
        q[sp.perm[0]] = 1.0
        return q
    d = min(float(delta), 1.0)
    q = weights.copy()
    q[sp.perm[r:]] = 0.0
    q[sp.perm[0]] = sp.p_sorted[0] + d
    q[sp.perm[r - 1]] = sp.tails[r - 2] - d
    return q
